"""Undirected graphs, Cayley constructions, tensor products, witnesses.

Graphs are simple except for optional loops (a loop contributes 1 to the
adjacency diagonal and 1 to the degree; the looped complete graph is what
tensor identities over odd local rings need).  Vertices are 0..n-1 with
optional hashable labels (ring elements, pairs, ...).  `Graph.neighbors`,
one sorted tuple per vertex, is the only adjacency index: `adjacent` and
`has_loop` bisect it, and ringwalk.walks numbers the arcs in its order.

A graph may carry a Cayley structure `(moduli, codes)`: each vertex's
mixed-radix code in the abelian group Z_(m_1) x ... x Z_(m_r), recorded
by the builders that know it (ring graphs, cycles and complete graphs
carry range(n); tensor products and induced subgraphs on unions of
components derive theirs).  The structure is verified once, on first use
of `Graph.connection`, and both `vertex_transitive` and the character-sum
charpoly are derived from that one check, never claimed by a caller.  The
connected components are likewise computed once, on first use, and every
caller reads that value.

An isomorphism is a `Permutation` that its caller constructs
(ringwalk.verify builds its witnesses from ring residues), and
`_verify_mapping` checks it edge by edge, raising InconsistencyError
when it fails.  One colour-refinement kernel, `refine`, gives the
equitable quotient of ringwalk.walks.
"""

from __future__ import annotations

import bisect
import functools
import math

from .errors import InconsistencyError
from .rings import ConnectionSet, ProductRing, quadratic_connection, units

__all__ = [
    "Graph", "Permutation", "cayley_graph", "unitary_cayley_graph",
    "quadratic_unitary_cayley_graph", "tensor_product", "to_dot", "graph_json",
]


class Graph:
    """An undirected graph on 0..n-1, loops allowed when stated.

    `cayley` is an optional `(moduli, codes)` pair: codes[v] is vertex v's
    mixed-radix code in the moduli, checked lazily by `connection`.
    `walk_analysis` belongs to ringwalk.walks, which fills it on first use
    with what its routes have computed for this graph.
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
        self.degrees = tuple(map(len, nbrs))
        self.walk_analysis = None
        self._components = None

    # -- builders ----------------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)],
                   name=f"K{n}", cayley=((n,), range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)],
                   name=f"C{n}", cayley=((n,), range(n)))

    @classmethod
    def complete_pseudograph(cls, n: int) -> "Graph":
        """K_n plus a loop at every vertex (n-regular, all-ones adjacency)."""
        edges = [(u, v) for u in range(n) for v in range(u, n)]
        return cls(n, edges, allow_loops=True, name=f"K°{n}",
                   cayley=((n,), range(n)))

    # -- structure ---------------------------------------------------------

    def adjacency_matrix(self) -> list[list[int]]:
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = 1
            a[v][u] = 1
        return a

    def has_loop(self, u: int) -> bool:
        return self.adjacent(u, u)

    @property
    def is_regular(self) -> bool:
        return len(set(self.degrees)) <= 1

    @property
    def regularity(self) -> int | None:
        return self.degrees[0] if self.is_regular and self.n else None

    def adjacent(self, u: int, v: int) -> bool:
        nbrs = self.neighbors[u]
        i = bisect.bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    @functools.cached_property
    def connection(self):
        """The connection set S of the carried Cayley structure, or None.

        Checked once, on first use, in O(|E|) time and O(n + |E|) memory:
        code c has digits c // w_i % m_i, with w_i the product of the moduli
        after m_i, and edge (u, v) the code of the digitwise difference.
        The codes must be distinct and in range; S is the set of difference
        codes at vertex 0, every degree must be |S|, S closed under
        digitwise negation and every edge's code in S.  Then each vertex a
        is adjacent exactly to a + S, so the graph is Cay(<S>, S) on a union
        of cosets of <S>.  A failed check raises InconsistencyError.  S
        comes back as a sorted tuple of digit tuples; a graph without a
        structure gives None.
        """
        if self.cayley is None or not self.n:
            return None
        moduli, codes = self.cayley
        weights = [math.prod(moduli[i + 1:]) for i in range(len(moduli))]
        ok = (len(codes) == self.n and len(set(codes)) == self.n
              and 0 <= min(codes) and max(codes) < math.prod(moduli))
        if ok:
            diffs = [0] * len(self.edges)
            for m, w in zip(moduli, weights):
                col = [c // w % m for c in codes]
                diffs = [d + (col[v] - col[u]) % m * w
                         for d, (u, v) in zip(diffs, self.edges)]
            # edges are sorted, so the (0, w) edges come first
            conn = set(diffs[:self.degrees[0]])
            ok = (all(d == len(conn) for d in self.degrees)
                  and all(sum([-(s // w) % m * w
                               for w, m in zip(weights, moduli)]) in conn
                          for s in conn)
                  and conn.issuperset(diffs))
        if not ok:
            raise InconsistencyError(
                f"{self!r} is not the Cayley graph its codes describe")
        return tuple(tuple([s // w % m for w, m in zip(weights, moduli)])
                     for s in sorted(conn))

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
            moduli, codes = self.cayley
            cayley = (moduli, [codes[v] for v in vs])
        return Graph(len(vs), edges, labels=[self.labels[v] for v in vs],
                     allow_loops=self.allow_loops, cayley=cayley)

    def __repr__(self):
        tag = self.name or f"{self.n} vertices"
        return f"Graph({tag}, {len(self.edges)} edges)"


# -- ring graphs -----------------------------------------------------------

def cayley_graph(ring: ProductRing, connection: ConnectionSet) -> Graph:
    """The Cayley graph of (R, +) with respect to a connection set.

    Vertex v is the element with sort key v, and v + s is added digit by
    digit in `ring.additive_moduli`, for one of s and -s since both give
    the same edges (an s equal to -s reaches each edge from both ends, so
    only v < v + s is kept).  The graph carries range(n) as its codes.
    """
    if connection.ring != ring:
        raise ValueError("connection set belongs to a different ring")
    n, moduli = ring.order, ring.additive_moduli
    weights = [math.prod(moduli[i + 1:]) for i in range(len(moduli))]
    digits = [(m, w, [v // w % m for v in range(n)])
              for m, w in zip(moduli, weights)]
    edges = []
    for c in connection:
        s, neg = c.sort_key(), (-c).sort_key()
        if neg < s:
            continue
        ends = [0] * n
        for m, w, col in digits:
            d = s // w % m
            ends = [e + (a + d) % m * w for e, a in zip(ends, col)]
        pairs = zip(range(n), ends)
        edges.extend([(u, v) for u, v in pairs if u < v] if neg == s else pairs)
    return Graph(n, edges, labels=ring.elements(), cayley=(moduli, range(n)),
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
    concatenated codes when both factors carry a Cayley structure.
    """
    m = h.n
    edges = [(u * m + v, x * m + y) for u in range(g.n) for x in g.neighbors[u]
             for v in range(m) for y in h.neighbors[v]]
    labels = [(gu, hv) for gu in g.labels for hv in h.labels]
    cayley = None
    if g.cayley is not None and h.cayley is not None:
        size = math.prod(h.cayley[0])
        cayley = (g.cayley[0] + h.cayley[0],
                  [a * size + b for a in g.cayley[1] for b in h.cayley[1]])
    return Graph(g.n * m, edges, labels=labels,
                 allow_loops=any(u == w for u, w in edges), cayley=cayley,
                 name=f"{g.name or 'G'} (x) {h.name or 'H'}")


# -- colour refinement -----------------------------------------------------

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


# -- witnesses -------------------------------------------------------------

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

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"Permutation{self.mapping}"


def _verify_mapping(g: Graph, h: Graph, perm: Permutation, what: str):
    """Check in O(|E|) that the bijection perm maps g onto h, and raise
    InconsistencyError naming `what` if it does not."""
    if g.n != h.n or len(g.edges) != len(h.edges) or not all(
            h.adjacent(perm(u), perm(v)) for u, v in g.edges):
        raise InconsistencyError(f"{what}: the constructed witness is not an "
                                 f"isomorphism")


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
