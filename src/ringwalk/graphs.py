"""Undirected graphs, Cayley constructions, tensor products, isomorphism.

Graphs are simple except for optional loops (a loop contributes 1 to the
adjacency diagonal and 1 to the degree; the looped complete graph is what
tensor identities over odd local rings need).  Vertices are 0..n-1 with
optional hashable labels (ring elements, pairs, ...).

A graph may carry a Cayley structure `(moduli, coords)`: each vertex's
coordinates in the abelian group Z_(m_1) x ... x Z_(m_r), recorded by the
builders that know them (Cayley graphs, cycles, complete graphs, tensor
products, induced subgraphs that are unions of components).  The
structure is verified once, on first use of `Graph.connection`, and both
`vertex_transitive` and the character-sum charpoly are derived from that
one check, never claimed by a caller.  The connected components are
likewise computed once, on first use, and every caller reads that value.

Isomorphism and automorphism enumeration are exact: joint colour
refinement for pruning, then backtracking with full adjacency checks on
the result.  No canonical-labelling dependency; sizes are capped.  One
colour-refinement kernel, `refine`, serves both the joint refinement and
the equitable quotient of ringwalk.walks.
"""

from __future__ import annotations

import functools

from .errors import InconsistencyError, SizeCapExceeded
from .rings import ConnectionSet, ProductRing, quadratic_connection, units

ISO_CAP = 64
AUT_CAP = 16

__all__ = [
    "Graph", "Permutation", "cayley_graph", "unitary_cayley_graph",
    "quadratic_unitary_cayley_graph", "tensor_product",
    "is_isomorphic", "automorphism_group", "to_dot", "graph_json",
    "ISO_CAP", "AUT_CAP",
]


class Graph:
    """An undirected graph on 0..n-1, loops allowed when stated.

    `cayley` is an optional `(moduli, coords)` pair of a tuple of moduli
    and, for each vertex v, its coordinate tuple coords[v]; `connection`
    checks it lazily.  `walk_analysis` belongs to ringwalk.walks, which
    fills it on first use with what its routes have computed for this
    graph.
    """

    def __init__(self, n: int, edges, labels=None, allow_loops: bool = False,
                 name: str = "", cayley=None):
        self.n = n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v and not allow_loops:
                raise ValueError(f"loop at {u} in a loopless graph")
            seen.add((min(u, v), max(u, v)))
        self.edges = tuple(sorted(seen))
        self.allow_loops = allow_loops
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise ValueError("label count must match vertex count")
        self.name = name
        self.cayley = cayley
        # edges are sorted with u <= v, so appending in edge order leaves
        # every neighbour list sorted: first the u < w, then w itself (a
        # loop), then the v > w
        nbrs = [[] for _ in range(n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            if u != v:
                nbrs[v].append(u)
        self.neighbors = tuple(map(tuple, nbrs))
        self._nbr_sets = tuple(map(frozenset, nbrs))
        self.degrees = tuple(map(len, nbrs))
        self.walk_analysis = None
        self._components = None

    # -- builders ----------------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)],
                   name=f"K{n}", cayley=_cyclic(n))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)],
                   name=f"C{n}", cayley=_cyclic(n))

    @classmethod
    def complete_pseudograph(cls, n: int) -> "Graph":
        """K_n plus a loop at every vertex (n-regular, all-ones adjacency)."""
        edges = [(u, v) for u in range(n) for v in range(u, n)]
        return cls(n, edges, allow_loops=True, name=f"K°{n}",
                   cayley=_cyclic(n))

    @classmethod
    def from_adjacency(cls, mat, labels=None, **kw) -> "Graph":
        mat = [list(row) for row in mat]
        n = len(mat)
        if any(len(row) != n for row in mat) or any(
                mat[u][v] != mat[v][u] for u in range(n) for v in range(u)):
            raise ValueError("adjacency must be square symmetric")
        if any(x not in (0, 1) for row in mat for x in row):
            raise ValueError("adjacency entries must be 0/1")
        edges = [(u, v) for u in range(n) for v in range(u, n) if mat[u][v]]
        loops = any(mat[u][u] for u in range(n))
        return cls(n, edges, labels=labels, allow_loops=loops, **kw)

    # -- structure ---------------------------------------------------------

    def adjacency_matrix(self) -> list[list[int]]:
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = 1
            a[v][u] = 1
        return a

    def has_loop(self, u: int) -> bool:
        return u in self._nbr_sets[u]

    def degree(self, u: int) -> int:
        return self.degrees[u]

    @property
    def is_regular(self) -> bool:
        return len(set(self.degrees)) <= 1

    @property
    def regularity(self) -> int | None:
        return self.degrees[0] if self.is_regular and self.n else None

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    @functools.cached_property
    def connection(self):
        """The connection set S of the carried Cayley structure, or None.

        Checked once, on first use, in O(|E|): S is read off vertex 0 as the
        coordinate differences to its neighbours, and the coordinates must be
        distinct and in range, every degree |S|, S symmetric and every
        edge's difference in S.  Then each vertex a is adjacent exactly to
        a + S, so the graph is Cay(<S>, S) on a union of cosets of <S>.  A
        failed check raises InconsistencyError.  S comes back as a sorted
        tuple of coordinate tuples; a graph without a structure gives None.
        """
        if self.cayley is None or not self.n:
            return None
        moduli, coords = self.cayley

        def diff(u, v):
            return tuple([(b - a) % m
                          for a, b, m in zip(coords[u], coords[v], moduli)])

        ok = len(coords) == self.n and len(set(coords)) == self.n and all(
            len(c) == len(moduli)
            and all(0 <= a < m for a, m in zip(c, moduli)) for c in coords)
        if ok:
            conn = {diff(0, w) for w in self.neighbors[0]}
            ok = (all(d == len(conn) for d in self.degrees)
                  and all(tuple([-a % m for a, m in zip(s, moduli)]) in conn
                          for s in conn)
                  and all(diff(u, v) in conn for u, v in self.edges))
        if not ok:
            raise InconsistencyError(
                f"{self!r} is not the Cayley graph its coordinates describe")
        return tuple(sorted(conn))

    @property
    def vertex_transitive(self) -> bool:
        """True iff the graph is connected and its Cayley structure holds.

        A connected graph that passes the `connection` check is one coset of
        <S>, and the translations by <S> act transitively on it.  False
        means "not known": a graph without a carried structure may still be
        vertex-transitive.
        """
        return self.connection is not None and self.is_connected()

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def connected_components(self) -> tuple:
        """The components as sorted vertex tuples, ordered by least vertex.

        Computed on the first call; every later call returns the same tuple.
        """
        if self._components is None:
            seen = [False] * self.n
            comps = []
            for s in range(self.n):
                if not seen[s]:
                    seen[s] = True
                    comp = [s]
                    for u in comp:  # breadth first: comp grows as it is read
                        for w in self.neighbors[u]:
                            if not seen[w]:
                                seen[w] = True
                                comp.append(w)
                    comps.append(tuple(sorted(comp)))
            self._components = tuple(comps)
        return self._components

    def induced_subgraph(self, vertices) -> "Graph":
        """The subgraph on `vertices`, relabelled 0..m-1 in sorted order.

        The Cayley structure is kept when no vertex loses a neighbour, that
        is on a union of components, and dropped otherwise.
        """
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for u, v in self.edges
                 if u in pos and v in pos]
        cayley = None
        if self.cayley is not None and all(
                w in pos for v in vs for w in self.neighbors[v]):
            moduli, coords = self.cayley
            cayley = (moduli, [coords[v] for v in vs])
        return Graph(len(vs), edges, labels=[self.labels[v] for v in vs],
                     allow_loops=self.allow_loops, cayley=cayley)

    def __repr__(self):
        tag = self.name or f"{self.n} vertices"
        return f"Graph({tag}, {len(self.edges)} edges)"


def _cyclic(n: int) -> tuple:
    """Z_n coordinates for vertices 0..n-1."""
    return (n,), [(v,) for v in range(n)]


# -- ring graphs -----------------------------------------------------------

def cayley_graph(ring: ProductRing, connection: ConnectionSet) -> Graph:
    """The Cayley graph of (R, +) with respect to a connection set.

    Edges are built by adding coordinates in `ring.additive_moduli`, one
    of s and -s at a time since both give the same edges (an s equal to -s
    reaches each edge from both ends, so only i < j is kept), and the
    graph carries those coordinates as its Cayley structure.
    """
    if connection.ring != ring:
        raise ValueError("connection set belongs to a different ring")
    elts = ring.elements()
    moduli = ring.additive_moduli
    coords = [ring.additive_coordinates(e) for e in elts]
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    done = set()
    for c in connection:
        s = ring.additive_coordinates(c)
        neg = tuple([-x % m for x, m in zip(s, moduli)])
        if neg in done:
            continue
        done.add(s)
        pairs = ((i, index[tuple([(x + y) % m for x, y, m in zip(a, s, moduli)])])
                 for i, a in enumerate(coords))
        edges.extend([(i, j) for i, j in pairs if i < j] if neg == s else pairs)
    return Graph(ring.order, edges, labels=elts, cayley=(moduli, coords),
                 name=f"Cay({ring.token}; {connection.label})")


def unitary_cayley_graph(ring: ProductRing) -> Graph:
    """Cayley graph on the units of R."""
    return cayley_graph(ring, units(ring))


def quadratic_unitary_cayley_graph(ring: ProductRing) -> Graph:
    """Cayley graph on T_R = Q_R union -Q_R (symmetrized unit squares)."""
    return cayley_graph(ring, quadratic_connection(ring))


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product; vertex (u, v) at index u*h.n + v.

    Cay(G, S) x Cay(H, T) is Cay(G x H, S x T), so the product carries the
    concatenated coordinates when both factors carry a Cayley structure.
    """
    m = h.n
    edges = [(u * m + v, x * m + y) for u in range(g.n) for x in g.neighbors[u]
             for v in range(m) for y in h.neighbors[v]]
    labels = [(gu, hv) for gu in g.labels for hv in h.labels]
    cayley = None
    if g.cayley is not None and h.cayley is not None:
        cayley = (g.cayley[0] + h.cayley[0],
                  [a + b for a in g.cayley[1] for b in h.cayley[1]])
    return Graph(g.n * m, edges, labels=labels,
                 allow_loops=any(u == w for u, w in edges), cayley=cayley,
                 name=f"{g.name or 'G'} (x) {h.name or 'H'}")


# -- isomorphism -----------------------------------------------------------

class Permutation:
    """A bijection of 0..n-1; mapping[v] is the image of v."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        self.mapping = tuple(mapping)
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("not a permutation")

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def __len__(self):
        return len(self.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for v, w in enumerate(self.mapping):
            inv[w] = v
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: v -> self(other(v))."""
        return Permutation(self.mapping[other.mapping[v]]
                           for v in range(len(self.mapping)))

    def matrix(self) -> list[list[int]]:
        """M with M e_v = e_{mapping[v]}."""
        n = len(self.mapping)
        m = [[0] * n for _ in range(n)]
        for v, w in enumerate(self.mapping):
            m[w][v] = 1
        return m

    @property
    def is_identity(self) -> bool:
        return all(v == w for v, w in enumerate(self.mapping))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"Permutation{self.mapping}"


def _twin_partition(g: Graph):
    """Partition vertices into interchangeable classes.

    Loopless vertices with identical open neighbourhoods form an
    independent class; vertices with identical closed neighbourhoods form a
    clique class.  Members of one class can be permuted freely by
    automorphisms, and adjacency between two classes is all-or-nothing, so
    isomorphism can be decided on the quotient.
    """
    open_key = {}
    for v in range(g.n):
        if not g.has_loop(v):
            open_key.setdefault(g._nbr_sets[v], []).append(v)
    classes = []
    leftover = []
    for members in open_key.values():
        if len(members) > 1:
            classes.append(("I", tuple(members)))
        else:
            leftover.append(members[0])
    leftover.extend(v for v in range(g.n) if g.has_loop(v))
    closed_key = {}
    for v in leftover:
        closed_key.setdefault((g.has_loop(v), g._nbr_sets[v] | {v}), []).append(v)
    for (loop, _), members in sorted(closed_key.items(),
                                     key=lambda kv: kv[1][0]):
        tag = "K" + ("o" if loop else "") if len(members) > 1 else "1"
        classes.append((tag, tuple(members)))
    classes.sort(key=lambda c: c[1][0])
    return classes


def _twin_quotient(g: Graph, classes):
    """Quotient graph on twin classes plus per-class colour seeds."""
    rep = {}
    for i, (_, members) in enumerate(classes):
        for v in members:
            rep[v] = i
    # Graph normalises and deduplicates the edge list
    edges = [(rep[u], rep[v]) for u, v in g.edges if rep[u] != rep[v]]
    q = Graph(len(classes), edges)
    seeds = [(tag, len(members), g.has_loop(members[0]))
             for tag, members in classes]
    return q, seeds


def refine(neighbors, colour) -> list:
    """The coarsest equitable partition refining `colour`, as colour numbers.

    Each round splits every class by the multiset of its vertices'
    neighbour colours, until a round adds no class.
    """
    classes = len(set(colour))
    while True:
        palette: dict = {}
        colour = [palette.setdefault(
                      (colour[v], tuple(sorted([colour[w] for w in nbrs]))),
                      len(palette))
                  for v, nbrs in enumerate(neighbors)]
        if len(palette) == classes:
            return colour
        classes = len(palette)


def _joint_refinement(g: Graph, h: Graph, seed_g=None, seed_h=None):
    """Stable joint colouring of both vertex sets; None if multisets split.

    One `refine` of the disjoint union, so both sides share the palette.
    Refinement only splits classes, so checking the stable colours suffices.
    """
    seed = [(gr.has_loop(v), sd[v] if sd else None)
            for gr, sd in ((g, seed_g), (h, seed_h)) for v in range(gr.n)]
    colour = refine(g.neighbors + tuple(tuple([w + g.n for w in nbrs])
                                        for nbrs in h.neighbors), seed)
    cg, ch = colour[:g.n], colour[g.n:]
    return (cg, ch) if sorted(cg) == sorted(ch) else None


def _match(g: Graph, h: Graph, colors, find_all: bool):
    """Backtracking search for colour/adjacency preserving bijections."""
    cg, ch = colors
    n = g.n
    class_size = {}
    for c in ch:
        class_size[c] = class_size.get(c, 0) + 1
    sigma = [None] * n
    used = [False] * n
    found: list[Permutation] = []

    def pick():
        best, score = None, None
        for v in range(n):
            if sigma[v] is not None:
                continue
            mapped = sum(1 for u in g.neighbors[v] if sigma[u] is not None)
            s = (-mapped, class_size[cg[v]], v)
            if score is None or s < score:
                best, score = v, s
        return best

    def extend(depth: int) -> bool:
        if depth == n:
            perm = Permutation(sigma)
            found.append(perm)
            return not find_all
        v = pick()
        # candidates: intersect the H-neighbourhoods of the images of v's
        # already-mapped neighbours (this is the forward adjacency check)
        cand = None
        mapped_nbrs = 0
        for u in g.neighbors[v]:
            t = sigma[u]
            if t is not None:
                mapped_nbrs += 1
                s = h._nbr_sets[t]
                cand = s if cand is None else cand & s
        pool = sorted(cand) if cand is not None else range(n)
        for w in pool:
            if used[w] or ch[w] != cg[v]:
                continue
            if g.has_loop(v) != h.has_loop(w):
                continue
            # reverse direction: counting suffices, the forward check maps
            # mapped G-neighbours injectively into mapped H-neighbours
            if mapped_nbrs != sum(1 for t in h.neighbors[w] if used[t]):
                continue
            sigma[v] = w
            used[w] = True
            if extend(depth + 1):
                return True
            sigma[v] = None
            used[w] = False
        return False

    extend(0)
    return found


def _verify_mapping(g: Graph, h: Graph, perm: Permutation) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    return all(h.adjacent(perm(u), perm(v)) for u, v in g.edges)


def is_isomorphic(g: Graph, h: Graph):
    """A Permutation mapping g onto h, or None.  Exact; capped at 64 vertices."""
    if max(g.n, h.n) > ISO_CAP:
        raise SizeCapExceeded(f"isomorphism test capped at {ISO_CAP} vertices")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degrees) != sorted(h.degrees):
        return None
    classes_g = _twin_partition(g)
    classes_h = _twin_partition(h)
    profile = lambda cs, gr: sorted((tag, len(m), gr.has_loop(m[0])) for tag, m in cs)
    if profile(classes_g, g) != profile(classes_h, h):
        return None
    qg, seeds_g = _twin_quotient(g, classes_g)
    qh, seeds_h = _twin_quotient(h, classes_h)
    colors = _joint_refinement(qg, qh, seeds_g, seeds_h)
    if colors is None:
        return None
    found = _match(qg, qh, colors, find_all=False)
    if not found:
        return None
    qperm = found[0]
    mapping = [None] * g.n
    for i, (_, members) in enumerate(classes_g):
        for a, b in zip(sorted(members), sorted(classes_h[qperm(i)][1])):
            mapping[a] = b
    perm = Permutation(mapping)
    if not _verify_mapping(g, h, perm):
        raise InconsistencyError("quotient search returned a bad mapping")
    return perm


def automorphism_group(g: Graph) -> list[Permutation]:
    """Every automorphism of g, sorted; capped at 16 vertices."""
    if g.n > AUT_CAP:
        raise SizeCapExceeded(f"automorphism enumeration capped at {AUT_CAP} vertices")
    colors = _joint_refinement(g, g)
    if colors is None:
        raise InconsistencyError("refinement separated a graph from itself")
    found = _match(g, g, colors, find_all=True)
    if not all(_verify_mapping(g, g, perm) for perm in found):
        raise InconsistencyError("automorphism search returned a bad mapping")
    return sorted(found, key=lambda p: p.mapping)


# -- export ----------------------------------------------------------------

def to_dot(g: Graph, name: str = "G") -> str:
    head = f"{g.regularity}-regular" if g.is_regular else "irregular"
    conn = "connected" if g.is_connected() else \
        f"disconnected ({len(g.connected_components())} components)"
    lines = [f"// {head}, {conn}", f"graph \"{name}\" {{"]
    for v in range(g.n):
        lines.append(f"  {v} [label=\"{g.labels[v]}\"];")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(g: Graph) -> dict:
    return {
        "vertices": g.n,
        "labels": [str(x) for x in g.labels],
        "edges": [[u, v] for u, v in g.edges],
        "regular": g.is_regular,
        "regularity": g.regularity,
        "connected": g.is_connected(),
        "components": len(g.connected_components()),
    }
