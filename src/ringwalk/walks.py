"""Exact Grover walk machinery on the arc space of a graph.

Every edge {u, v} contributes the two arcs (u, v) and (v, u).  With o(a)
and t(a) the origin and head of an arc, the boundary operator N has
N[v][a] = 1/sqrt(deg v) iff v = t(a), the shift S maps each arc to its
reverse, and the evolution U = S(2 N*N - I) has the rational entries

    U[a][b] = 2/deg(o(a)) * [t(b) = o(a)]  -  [b = a^(-1)].

N itself is never materialised (its entries are irrational); everything
that needs it analytically (N N* = I, the discriminant P = N S N*, the
compressed powers N U^tau N*) is computed structurally in closed form.

Scaling U by D = lcm(degrees) makes the evolution integer-valued, so long
products are exact integer arithmetic; periodicity certificates run on
that scaled form.  Since N U^tau N* = T_tau(P), the vertex-level questions
(is T_tau(P) e_0 = e_0, is it +-e_v) need only k^tau T_tau(P) e_0, an
integer Chebyshev recurrence in A.  On a vertex-transitive graph it runs
on the quotient of the coarsest equitable partition with {0} as a cell,
a handful of cells instead of n vertices or 2|E| arcs; other graphs run
it on all n vertices, scaled by L = lcm(degrees) if irregular.  The spectral
classifier factors the characteristic polynomial of A over the integers
(computed from the additive characters when the graph carries a verified
Cayley structure, by dense reduction otherwise) and recognises every
eigenvalue mu = lambda/k that is twice-a-cosine of a rational angle: those
are the only spectra a periodic walk can have.

Each graph is analysed once.  Its `WalkAnalysis`, kept on the graph and
filled lazily, holds the arc space, the probe's equitable quotient
(computed from the adjacency alone), the classifier's `SpectralReport`
(which carries the characteristic polynomial) and the brute-force memo:
the horizon searched and the least period found within it.  A cached
value is only ever read back by the route that wrote it: the classifier
never sees the brute-force memo and brute force never sees the spectrum.
So reusing them keeps the two periodicity routes as independent as
recomputing would, and `period()` still compares them on every call.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from . import intpoly
from .errors import InconsistencyError, SizeCapExceeded
from .graphs import Graph, refine
from .intpoly import two_cos_minimal_poly
from .scalars import Surd, exact_str, sort_key

TAU_CAP = 100_000

__all__ = [
    "RationalMatrix", "SpectralLine", "SpectralReport", "PSTPair", "PSTReport",
    "time_evolution", "discriminant", "chebyshev_apply", "chebyshev_matrix",
    "vertex_transfer_matrix", "evolution_power", "classify_spectrum", "period",
    "bruteforce_period", "find_pst", "two_cos_minimal_poly", "TAU_CAP",
]


@dataclasses.dataclass(frozen=True)
class RationalMatrix:
    """A dense matrix of Fractions with row/column labels."""

    entries: tuple
    index: tuple

    @property
    def n(self) -> int:
        return len(self.entries)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        bt = list(zip(*other.entries))
        rows = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                     for row in self.entries)
        return RationalMatrix(rows, self.index)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.entries)), self.index)

    def apply(self, vec):
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    @property
    def is_identity(self) -> bool:
        return all(x == (1 if i == j else 0)
                   for i, row in enumerate(self.entries)
                   for j, x in enumerate(row))


def _check_walkable(g: Graph) -> None:
    """Raise ValueError unless g is loopless, connected and has >= 2 vertices."""
    if any(g.has_loop(v) for v in range(g.n)):
        raise ValueError("the walk needs a loopless graph")
    if g.n < 2 or not g.is_connected():
        raise ValueError("the walk needs a connected graph on >= 2 vertices")


class _ArcSpace:
    """Arc bookkeeping plus the integer-scaled evolution D*U."""

    def __init__(self, g: Graph):
        _check_walkable(g)
        self.n = g.n
        # connected and a verified Cayley structure: vertex-transitive
        self.transitive = g.connection is not None
        self.arcs = tuple(sorted((u, v) for u, w in g.edges for (u, v) in ((u, w), (w, u))))
        self.arc_index = {a: i for i, a in enumerate(self.arcs)}
        self.inv = tuple(self.arc_index[(t, o)] for o, t in self.arcs)
        self.origin = tuple(o for o, _ in self.arcs)
        heads = [[] for _ in range(g.n)]
        for i, (o, t) in enumerate(self.arcs):
            heads[t].append(i)
        self.heads_at = tuple(tuple(h) for h in heads)
        self.scale = math.lcm(*g.degrees)
        self.coef = tuple(2 * self.scale // g.degrees[v] for v in range(g.n))
        self.size = len(self.arcs)

    def apply_scaled(self, x):
        """y = scale * U * x for an integer (or Fraction) vector x."""
        sums = [0] * self.n
        for v in range(self.n):
            s = 0
            for a in self.heads_at[v]:
                s += x[a]
            sums[v] = s
        return [self.coef[o] * sums[o] - self.scale * x[self.inv[i]]
                for i, o in enumerate(self.origin)]


def _power_columns(ar: _ArcSpace, columns, tau: int):
    """Yield (scale * U)^tau x for each column, one at a time.

    Each column is a collection of arc indices and stands for the sum of
    their unit vectors.
    """
    for arcs in columns:
        x = [0] * ar.size
        for a in arcs:
            x[a] = 1
        for _ in range(tau):
            x = ar.apply_scaled(x)
        yield x


@dataclasses.dataclass(frozen=True)
class _Quotient:
    """An equitable partition of the vertices and its quotient matrix B.

    `cells` are tuples of vertices ordered by their least vertex; rows[i]
    lists the pairs (j, B[i][j]) with B[i][j] != 0: scale // deg(cell i)
    times the number of neighbours that each vertex of cell i has in cell
    j, for `scale` L = lcm(degrees).  Equitable means M C = C B for
    M = L D^-1 A and the n x c characteristic matrix C of the cells, so any
    polynomial in M maps a vector constant on cells to one constant on
    cells, computed on the c cells alone.  On a k-regular graph M = A.
    """

    cells: tuple
    rows: tuple
    scale: int


@dataclasses.dataclass
class WalkAnalysis:
    """What the walk routes have computed for one graph, filled lazily.

    It hangs off `Graph.walk_analysis` and dies with the graph.  Each field
    has one writer and is read back only by it: `spectrum` by
    classify_spectrum, `searched` by bruteforce_period.  `quotient` (see
    `_quotient`) depends only on the adjacency; brute force and the
    transfer search read it, the classifier never does.
    """

    arcspace: _ArcSpace | None = None
    quotient: _Quotient | None = None
    spectrum: SpectralReport | None = None
    searched: tuple | None = None  # (horizon T, least tau <= T or None)


def _analysis(g: Graph) -> WalkAnalysis:
    if g.walk_analysis is None:
        g.walk_analysis = WalkAnalysis()
    return g.walk_analysis


def _arcspace(g: Graph) -> _ArcSpace:
    analysis = _analysis(g)
    if analysis.arcspace is None:
        analysis.arcspace = _ArcSpace(g)
    return analysis.arcspace


def _quotient(g: Graph) -> _Quotient:
    """The probe's quotient, cached: the coarsest equitable partition with
    {0} as a cell on a vertex-transitive graph, else the discrete one."""
    analysis = _analysis(g)
    if analysis.quotient is None:
        colour = _refine(g) if g.vertex_transitive else range(g.n)
        analysis.quotient = _equitable_quotient(g, colour)
    return analysis.quotient


def _refine(g: Graph) -> list:
    """The coarsest equitable partition with {0} as a cell, by `refine`."""
    return refine(g.neighbors, [int(v != 0) for v in range(g.n)])


def _equitable_quotient(g: Graph, colour) -> _Quotient:
    """The quotient (see `_Quotient`) of the partition by `colour`.

    Cells are numbered by their least vertex.  Every vertex is checked, in
    O(|E|): {0} must be a cell and each vertex must have its cell's
    neighbour counts, or InconsistencyError is raised.
    """
    number: dict = {}
    cell = [number.setdefault(c, len(number)) for c in colour]
    cells = [[] for _ in number]
    rows = [None] * len(number)
    for v, i in enumerate(cell):
        cells[i].append(v)
        counts: dict = {}
        for w in g.neighbors[v]:
            j = cell[w]
            counts[j] = counts.get(j, 0) + 1
        if rows[i] is None:
            rows[i] = counts
        elif counts != rows[i]:
            raise InconsistencyError(
                f"the partition {cells} of {g!r} is not equitable at vertex {v}")
    if cells[0] != [0]:
        raise InconsistencyError(f"{{0}} is not a cell of the partition of {g!r}")
    scale = math.lcm(*g.degrees)
    return _Quotient(tuple(map(tuple, cells)), tuple(
        tuple((j, b * scale // g.degrees[c[0]]) for j, b in sorted(r.items()))
        for c, r in zip(cells, rows)), scale)


def _chebyshev_cells(q: _Quotient, x0, bound: int):
    """Yield X_tau = L^tau T_tau(D^-1 A) x0 on the cells, tau = 1..bound.

    `x0` is a vector on the cells and L = q.scale.  X_0 = x0, X_1 = B X_0
    and X_(tau+1) = 2 B X_tau - L^2 X_(tau-1), in integers; the vertex
    vector L^tau T_tau(D^-1 A) C x0 takes the value X_tau[i] on every
    vertex of cell i.  On a k-regular graph L = k and D^-1 A = P.
    """
    prev = x0
    cur = [sum(b * prev[j] for j, b in row) for row in q.rows]
    k2 = q.scale ** 2
    for tau in range(1, bound + 1):
        if tau > 1:
            prev, cur = cur, [2 * sum(b * cur[j] for j, b in row) - k2 * p
                              for row, p in zip(q.rows, prev)]
        yield cur


def time_evolution(g: Graph) -> RationalMatrix:
    """The Grover evolution U as an arc-indexed rational matrix."""
    ar = _arcspace(g)
    rows = []
    for a, (o, _) in enumerate(ar.arcs):
        two_over = Fraction(2, g.degrees[o])
        row = []
        for b, (_, tb) in enumerate(ar.arcs):
            val = two_over if tb == o else Fraction(0)
            if b == ar.inv[a]:
                val -= 1
            row.append(val)
        rows.append(tuple(row))
    return RationalMatrix(tuple(rows), ar.arcs)


def evolution_power(g: Graph, tau: int) -> RationalMatrix:
    """U^tau, exactly, via the integer-scaled column recurrence."""
    ar = _arcspace(g)
    denom = ar.scale ** tau
    cols = [[Fraction(v, denom) for v in x]
            for x in _power_columns(ar, ((j,) for j in range(ar.size)), tau)]
    return RationalMatrix(tuple(zip(*cols)), ar.arcs)


def discriminant(g: Graph) -> RationalMatrix:
    """P = N S N* = A/k for a k-regular graph."""
    if not g.is_regular:
        raise ValueError("the discriminant P = A/k needs a regular graph")
    k = g.regularity
    if not k:
        raise ValueError("the graph has no edges")
    rows = tuple(tuple(Fraction(int(g.adjacent(u, v)), k) for v in range(g.n))
                 for u in range(g.n))
    return RationalMatrix(rows, tuple(range(g.n)))


def chebyshev_apply(p: RationalMatrix, u: int, tau: int):
    """T_tau(P) e_u by the three-term recurrence, exact."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    prev = tuple(Fraction(int(i == u)) for i in range(p.n))
    if tau == 0:
        return prev
    cur = p.apply(prev)
    for _ in range(tau - 1):
        nxt = tuple(2 * a - b for a, b in zip(p.apply(cur), prev))
        prev, cur = cur, nxt
    return tuple(cur)


def chebyshev_matrix(p: RationalMatrix, tau: int) -> RationalMatrix:
    """T_tau(P) as a matrix."""
    cols = [chebyshev_apply(p, u, tau) for u in range(p.n)]
    return RationalMatrix(tuple(zip(*cols)), p.index)


def vertex_transfer_matrix(g: Graph, tau: int) -> RationalMatrix:
    """N U^tau N* for a regular graph (equals T_tau(P), checked in tests)."""
    if not g.is_regular:
        raise ValueError("the compressed power needs a regular graph")
    ar = _arcspace(g)
    k = g.regularity
    denom = k * ar.scale ** tau
    # column v: the scaled U^tau columns summed over the arcs with head v
    cols = [[Fraction(sum(x[a] for a in ar.heads_at[u]), denom)
             for u in range(g.n)]
            for x in _power_columns(ar, ar.heads_at, tau)]
    return RationalMatrix(tuple(zip(*cols)), tuple(range(g.n)))


# -- periodicity by brute force -------------------------------------------

def bruteforce_period(g: Graph, tau_max: int):
    """Least tau <= tau_max with U^tau = I, or None.

    A probe rules out most tau cheaply, and each tau that survives it is
    confirmed column by column, exactly, before it is reported.

    The probe runs at the vertex level, on `_quotient(g)`.  U^tau = I gives
    T_tau(P) = N U^tau N* = N N* = I, hence T_tau(D^-1 A) =
    D^-1/2 T_tau(P) D^1/2 = I and X_tau = L^tau x0 (see
    `_chebyshev_cells`); any other X_tau rules tau out.  On a
    vertex-transitive graph x0 = e_0 on the quotient at vertex 0, at
    O(c^2) per step for c cells; e_0 meets every eigenspace there, so an
    aperiodic walk has no survivor.  Any other graph takes the discrete
    partition, at O(|E|) per step, and x0 = (1, 2, 4, ..., 2^(n-1)): a
    start with no component along an eigenvector lets tau through
    wrongly, as (1, ..., n), linear in coordinates, does on the unitary
    graph of Z3 x Z3.  The arc space is built at the first survivor only.
    The probe reads only the adjacency.

    Confirmation uses the graph's symmetry, never its spectrum, so this
    route stays independent of the classifier.  An automorphism of the
    graph permutes arcs and commutes with U, so if U^tau fixes e_a it fixes
    the image of e_a too.  On a connected graph with a verified Cayley
    structure the translations by <S> act transitively, every arc is the
    image of an arc leaving vertex 0, and those k columns suffice.  Other
    graphs are confirmed on all 2|E| columns.

    The outcome is memoised on the graph as (horizon searched, least tau or
    None).  A later query is answered from it when it can be: a tau found
    answers every horizon, and "none up to T" answers every horizon <= T.
    Any other query searches again.
    """
    if tau_max > TAU_CAP:
        raise SizeCapExceeded(f"tau_max {tau_max} exceeds cap {TAU_CAP}")
    analysis = _analysis(g)
    if analysis.searched is not None:
        horizon, tau = analysis.searched
        if tau is not None:
            return tau if tau <= tau_max else None
        if horizon >= tau_max:
            return None
    tau = _search_period(g, tau_max)
    analysis.searched = (tau_max, tau)
    return tau


def _search_period(g: Graph, tau_max: int):
    """The probe search behind bruteforce_period, without the memo."""
    _check_walkable(g)
    q = _quotient(g)
    x0 = ([1] + [0] * (len(q.cells) - 1) if g.vertex_transitive
          else [2 ** v for v in range(g.n)])
    factor = 1
    for tau, x in enumerate(_chebyshev_cells(q, x0, tau_max), 1):
        factor *= q.scale
        # cell 0 first keeps the test O(1) on almost every step
        if x[0] == factor * x0[0] and all(a == factor * b for a, b in zip(x, x0)):
            ar = _arcspace(g)
            if _power_is_identity(ar, tau, _confirmation_arcs(ar)):
                return tau
    return None


def _confirmation_arcs(ar: _ArcSpace) -> list:
    """Arcs whose columns certify U^tau = I (see bruteforce_period)."""
    if ar.transitive:
        return [a for a, o in enumerate(ar.origin) if o == 0]
    return list(range(ar.size))


def _power_is_identity(ar: _ArcSpace, tau: int, arcs) -> bool:
    """Does U^tau fix the unit column of every arc in `arcs`?"""
    target = ar.scale ** tau
    for j, x in zip(arcs, _power_columns(ar, ((j,) for j in arcs), tau)):
        for i, v in enumerate(x):
            if v != (target if i == j else 0):
                return False
    return True


# -- spectral classification ----------------------------------------------

_ALLOWED_RATIONAL = {
    Fraction(1): 1,
    Fraction(-1): 2,
    Fraction(1, 2): 6,
    Fraction(-1, 2): 3,
    Fraction(0): 4,
}

_ALLOWED_QUADRATIC = {
    Surd.sqrt(3) / 2: 12,
    -Surd.sqrt(3) / 2: 12,
    Surd.sqrt(2) / 2: 8,
    -Surd.sqrt(2) / 2: 8,
    (Surd.sqrt(5) - 1) / 4: 5,
    (-Surd.sqrt(5) - 1) / 4: 5,
    (Surd.sqrt(5) + 1) / 4: 10,
    (1 - Surd.sqrt(5)) / 4: 10,
}


@dataclasses.dataclass(frozen=True)
class SpectralLine:
    """One chunk of the discriminant spectrum.

    Degree 1 and 2 lines carry the eigenvalue mu itself (Fraction or Surd)
    with its multiplicity.  Higher-degree lines stand for a full Galois
    orbit 2cos(2 pi j/n)*k/2 / k and carry the orbit's minimal polynomial in
    lambda = k mu instead; multiplicity counts repetitions of the factor.
    """

    mu: object
    multiplicity: int
    degree: int
    allowed: bool
    angle_order: int | None
    lam_poly: tuple | None = None

    def mu_str(self) -> str:
        if self.mu is not None:
            return exact_str(self.mu)
        return f"roots of {intpoly.poly_str(self.lam_poly)} (in lambda)"


@dataclasses.dataclass(frozen=True)
class SpectralReport:
    """Exact eigenvalue classification of P = A/k."""

    n: int
    k: int
    charpoly: tuple
    lines: tuple
    unfactored: tuple | None

    @property
    def periodic(self) -> bool:
        return self.unfactored is None and all(l.allowed for l in self.lines)

    @property
    def period_bound(self):
        if not self.periodic:
            return None
        return math.lcm(2, *(line.angle_order for line in self.lines))

    def eigenvalues(self):
        """Distinct (mu, multiplicity) pairs; degree > 2 lines raise."""
        out = []
        for line in self.lines:
            if line.mu is None:
                raise ValueError("spectrum has an eigenvalue of degree > 2")
            out.append((line.mu, line.multiplicity))
        return out


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _divide_out(residual, factor):
    """(residual / factor^m, m) for the largest m with factor^m | residual."""
    mult = 0
    while (q := intpoly.try_divide(residual, factor)) is not None:
        residual, mult = q, mult + 1
    return residual, mult


def _scaled_cos_poly(n: int, k: int):
    """Minimal poly of k*cos(2 pi/n) in lambda, or None if not integral."""
    psi = two_cos_minimal_poly(n)
    d = len(psi) - 1
    out = []
    for i, c in enumerate(psi):
        num = c * 2 ** i * k ** (d - i)
        if num % 2 ** d:
            return None
        out.append(num // 2 ** d)
    return tuple(out)


def classify_spectrum(g: Graph) -> SpectralReport:
    """Factor char(A) exactly and classify every mu = lambda/k.

    The verdict `periodic` is complete: the walk is periodic iff every
    eigenvalue is twice a rational cosine (rational values in
    {0, +-1, +-1/2}, quadratic values among +-sqrt(3)/2, +-sqrt(2)/2,
    (+-1+-sqrt(5))/4, higher-degree Galois orbits of 2cos(2 pi j/n)), and
    the classifier extracts exactly those factors, leaving anything else in
    `unfactored`.  Computed once per graph.
    """
    analysis = _analysis(g)
    if analysis.spectrum is None:
        analysis.spectrum = _classify_spectrum(g)
    return analysis.spectrum


def _classify_spectrum(g: Graph) -> SpectralReport:
    if not g.is_regular:
        raise ValueError("spectral classification needs a regular graph")
    if any(g.has_loop(v) for v in range(g.n)):
        raise ValueError("spectral classification needs a loopless graph")
    k = g.regularity
    if not k:
        raise ValueError("the graph has no edges")
    cp = _charpoly(g)
    lines = []
    residual = cp
    zeros = 0
    while residual[0] == 0:
        residual = residual[1:]
        zeros += 1
    if zeros:
        lines.append(SpectralLine(Fraction(0), zeros, 1, True, 4))
    for r in range(k, -k - 1, -1):
        if r == 0:
            continue
        residual, mult = _divide_out(residual, (-r, 1))
        if mult:
            mu = Fraction(r, k)
            order = _ALLOWED_RATIONAL.get(mu)
            lines.append(SpectralLine(mu, mult, 1, order is not None, order))
    if intpoly.degree(residual) >= 2:
        # x^2 - t x + s divides the residual only if s divides its constant
        # term (which only shrinks) and Q(1), Q(-1) divide R(1), R(-1)
        c0 = abs(residual[0])
        divisors = [s for s in range(-k * k, k * k + 1) if s and not c0 % abs(s)]
        at_one, at_minus_one = (intpoly.evaluate(residual, 1),
                                intpoly.evaluate(residual, -1))
        for t in range(2 * k, -2 * k - 1, -1):
            for s in divisors:
                if c0 % abs(s):
                    continue
                disc = t * t - 4 * s
                if disc <= 0 or _is_square(disc):
                    continue
                # a non-square discriminant leaves Q(+-1) nonzero
                if at_one % (1 - t + s) or at_minus_one % (1 + t + s):
                    continue
                residual, mult = _divide_out(residual, (s, -t, 1))
                if mult:
                    root = Surd.sqrt(disc)
                    for lam in ((t + root) / 2, (t - root) / 2):
                        mu = lam / k
                        order = _ALLOWED_QUADRATIC.get(mu)
                        lines.append(SpectralLine(mu, mult, 2,
                                                  order is not None, order))
                    c0 = abs(residual[0]) if residual and residual[0] else 1
                    at_one, at_minus_one = (intpoly.evaluate(residual, 1),
                                            intpoly.evaluate(residual, -1))
                    if intpoly.degree(residual) < 2:
                        break
            if intpoly.degree(residual) < 2:
                break
    d = intpoly.degree(residual)
    if d >= 3:
        n_cand = 7
        while d >= 3 and n_cand <= 4 * d * d:
            deg_n = intpoly.euler_phi(n_cand) // 2
            if 3 <= deg_n <= d:
                scaled = _scaled_cos_poly(n_cand, k)
                if scaled is not None:
                    residual, mult = _divide_out(residual, scaled)
                    if mult:
                        lines.append(SpectralLine(None, mult, deg_n, True,
                                                  n_cand, scaled))
                        d = intpoly.degree(residual)
            n_cand += 1
    unfactored = None if intpoly.degree(residual) < 1 else residual
    if unfactored is None and residual != (1,):
        raise InconsistencyError(
            f"charpoly {cp} left the non-monic residual {residual}")
    lines.sort(key=lambda l: sort_key(l.mu) if l.mu is not None
               else (float("inf"), str(l.lam_poly)))
    return SpectralReport(g.n, k, cp, tuple(lines), unfactored)


def _charpoly(g: Graph) -> tuple:
    """char(A): from the additive characters when the graph carries a
    Cayley structure (verified by `Graph.connection`), by dense reduction
    otherwise."""
    conn = g.connection
    if conn is None:
        return intpoly.charpoly(g.adjacency_matrix())
    return intpoly.cayley_charpoly(g.cayley[0], conn, g.n)


def period(g: Graph):
    """The exact least period of U, or None if the walk is not periodic.

    The classifier supplies the divisor bound (lcm of the root-of-unity
    orders), then the least tau is confirmed by exact powering, within
    bruteforce_period's TAU_CAP (SizeCapExceeded beyond it).  The two
    routes are independent; if brute force finds no period dividing the
    bound, InconsistencyError is raised (a check that survives python -O).
    """
    report = classify_spectrum(g)
    if not report.periodic:
        return None
    bound = report.period_bound
    tau = bruteforce_period(g, bound)
    if tau is None or bound % tau:
        raise InconsistencyError(
            f"classifier bounds the period by {bound}, brute force found {tau}")
    return tau


# -- perfect state transfer ------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PSTPair:
    """T_tau(P) e_u = phase * e_v with phase in {+1, -1} and v != u."""

    source: int
    target: int
    time: int
    phase: int


@dataclasses.dataclass(frozen=True)
class PSTReport:
    """Outcome of a perfect state transfer search."""

    pairs: tuple
    periodic: bool
    period: int | None
    bound: int
    sources: tuple
    pruned_by_transitivity: bool = False

    @property
    def has_pst(self) -> bool:
        return bool(self.pairs)


def find_pst(g: Graph, tau_max: int | None = None, sources=None) -> PSTReport:
    """Every exact transfer T_tau(P) e_u = +-e_v within the search bound.

    Periodic walks are searched completely (tau < period).  A connected
    vertex-transitive non-periodic graph admits no transfer at all, so the
    search is pruned; otherwise tau_max is mandatory.  Entries with a
    single +-1 amplitude but any other nonzero amplitude are not transfers
    and are never reported.

    By default a vertex-transitive graph is searched from vertex 0 alone,
    on its equitable quotient at 0 (`_quotient`): k^tau T_tau(P) e_0 is
    constant on each cell, so it is +-k^tau e_v exactly when one cell is
    nonzero, with value +-k^tau, and that cell is a singleton {v}, v != 0.
    Explicit `sources`, and graphs not known to be vertex-transitive, are
    searched from each source on the discrete partition, whose quotient is
    A; a source outside range(g.n) raises ValueError.
    """
    if not g.is_regular or not g.is_connected():
        raise ValueError("the transfer search needs a connected regular graph")
    report = classify_spectrum(g)
    per = period(g) if report.periodic else None
    if report.periodic:
        bound = per - 1
    elif g.vertex_transitive:
        return PSTReport((), False, None, 0, (), pruned_by_transitivity=True)
    else:
        if tau_max is None:
            raise ValueError("tau_max is required when the walk is not periodic "
                             "and the graph is not known vertex-transitive")
        if tau_max > TAU_CAP:
            raise SizeCapExceeded(f"tau_max {tau_max} exceeds cap {TAU_CAP}")
        bound = tau_max
    # Each source u is the singleton cell number u: vertex 0 of the
    # quotient, or any vertex of the discrete partition.
    if sources is None and g.vertex_transitive:
        sources, q = (0,), _quotient(g)
    else:
        sources = tuple(range(g.n)) if sources is None else tuple(sources)
        q = _equitable_quotient(g, range(g.n))
    k = g.regularity
    hits = set()
    for u in sources:
        if u not in range(g.n):
            raise ValueError(f"source {u!r} is not a vertex of {g!r}")
        x0 = [int(i == u) for i in range(len(q.cells))]
        target = 1
        for tau, x in enumerate(_chebyshev_cells(q, x0, bound), 1):
            target *= k
            nz = [i for i, a in enumerate(x) if a]
            if len(nz) == 1 and abs(x[nz[0]]) == target:
                cell = q.cells[nz[0]]
                if len(cell) == 1 and cell[0] != u:
                    v = cell[0]
                    phase = 1 if x[nz[0]] > 0 else -1
                    hits.add(PSTPair(u, v, tau, phase))
                    hits.add(PSTPair(v, u, tau, phase))  # T_tau(P) is symmetric
    pairs = tuple(sorted(hits, key=lambda h: (h.time, h.source, h.target)))
    return PSTReport(pairs, report.periodic, per, bound, sources)
