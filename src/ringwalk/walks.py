"""Exact Grover walk machinery on the arc space of a graph.

Every edge {u, v} contributes the two arcs (u, v) and (v, u), numbered in
CSR order (see `_ArcSpace`).  With o(a)
and t(a) the origin and head of an arc, the boundary operator N has
N[v][a] = 1/sqrt(deg v) iff v = t(a), the shift S maps each arc to its
reverse, and the evolution U = S(2 N*N - I) has the rational entries

    U[a][b] = 2/deg(o(a)) * [t(b) = o(a)]  -  [b = a^(-1)].

N itself is never materialised (its entries are irrational); the engine
uses it only through N N* = I and N U^tau N* = T_tau(P) for the
discriminant P = N S N* = D^-1/2 A D^-1/2; tests/oracle.py checks the
second on regular graphs, with U built from its definition.

Scaling U by D = lcm(degrees) makes the evolution integer-valued, so long
products are exact integer arithmetic; periodicity certificates run on
that scaled form.  Since N U^tau N* = T_tau(P), the vertex-level questions
(is T_tau(P) e_0 = e_0, is it e_v) need only k^tau T_tau(P) e_0, an
integer Chebyshev recurrence in A.  On a vertex-transitive graph it runs
on the quotient of the coarsest equitable partition with {0} as a cell,
a handful of cells instead of n vertices or 2|E| arcs; other graphs run
it on all n vertices, scaled by L = lcm(degrees) if irregular.  The spectral
classifier takes the characteristic polynomial of A as (factor,
multiplicity) pairs: one factor per Galois orbit of characters when the
graph carries a verified Cayley structure (`intpoly.cayley_factors`, each
a power of one irreducible polynomial of degree at most phi(e)), the
dense charpoly as one factor otherwise.  It factors each over the
integers and recognises every eigenvalue mu = lambda/k that is the cosine
of a rational angle, by `two_cos_minimal_poly`: only those occur in a
periodic walk, and their angle orders give its exact period by the
spectral mapping theorem (`SpectralReport.period`).  No polynomial of
degree n is formed on the character route.
Each input precondition has one `_check_*` helper; TAU_CAP bounds tau.

Each graph is analysed once.  Its `WalkAnalysis`, kept on the graph and
filled lazily, holds the arc space, the probe's equitable quotient
(computed from the adjacency alone), the classifier's `SpectralReport`
(which carries the factors of the characteristic polynomial) and the
brute-force memo: the horizon searched and the least period found within
it.  A cached value is only ever read back by the route that wrote it: the
classifier never sees the brute-force memo and brute force never sees the
spectrum.  So reusing them keeps the two periodicity routes as independent
as recomputing would; `period()` alone compares them, on every call.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import intpoly
from .errors import InconsistencyError, SizeCapExceeded
from .graphs import Graph, refine
from .intpoly import two_cos_minimal_poly
from .scalars import Surd, exact_str, sort_key

TAU_CAP = 100_000

__all__ = [
    "SpectralLine", "SpectralReport", "PSTPair", "PSTReport",
    "classify_spectrum", "period", "bruteforce_period", "find_pst",
    "two_cos_minimal_poly", "TAU_CAP",
]


def _check_loopless(g: Graph) -> None:
    if any(g.has_loop(v) for v in range(g.n)):
        raise ValueError("the walk needs a loopless graph")


def _check_connected(g: Graph) -> None:
    if g.n < 2 or not g.is_connected():
        raise ValueError("the walk needs a connected graph on >= 2 vertices")


def _check_regular(g: Graph) -> int:
    if not g.regularity:
        raise ValueError("the walk needs a regular graph of degree >= 1")
    return g.regularity


def _check_tau(tau: int) -> None:
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if tau > TAU_CAP:
        raise SizeCapExceeded(f"tau_max {tau} exceeds cap {TAU_CAP}")


class _ArcSpace:
    """Arc bookkeeping plus the integer-scaled evolution D*U, the arcs in
    CSR order: (u, v) is offset[u] + the position of v in g.neighbors[u]."""

    def __init__(self, g: Graph):
        _check_loopless(g)
        _check_connected(g)
        self.n = g.n
        offset = tuple(itertools.accumulate(g.degrees, initial=0))
        self.arcs = tuple((u, v) for u in range(g.n) for v in g.neighbors[u])
        self.inv = tuple(offset[v] + bisect.bisect_left(g.neighbors[v], u)
                         for u, v in self.arcs)
        self.origin = tuple(u for u, _ in self.arcs)
        # the arcs into t are the reverses of the arcs leaving t
        self.heads_at = tuple(self.inv[offset[t]:offset[t + 1]]
                              for t in range(g.n))
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


class _Quotient(NamedTuple):
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


class WalkAnalysis:
    """What the walk routes have computed for one graph, filled lazily.

    It hangs off `Graph.walk_analysis` and dies with the graph.  Each field
    has one writer and is read back only by it: `spectrum` by
    classify_spectrum, `searched` by bruteforce_period.  `quotient` (see
    `_quotient`) depends only on the adjacency; brute force and the
    transfer search read it, the classifier never does.
    """

    __slots__ = ("arcspace", "quotient", "spectrum", "searched")

    def __init__(self):
        self.arcspace: _ArcSpace | None = None
        self.quotient: _Quotient | None = None
        self.spectrum: SpectralReport | None = None
        # (horizon T, least tau <= T or None)
        self.searched: tuple | None = None


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

    Each step costs O(nnz(B)) integer operations, as flat loops over the
    sparse rows, and yields a new list.  This is the one kernel for the
    recurrence: brute force's probe and the transfer search both run it.
    """
    rows = q.rows
    k2 = q.scale ** 2
    prev, cur = x0, []
    for row in rows:
        s = 0
        for j, b in row:
            s += b * x0[j]
        cur.append(s)
    for tau in range(1, bound + 1):
        if tau > 1:
            nxt = []
            for row, p in zip(rows, prev):
                s = 0
                for j, b in row:
                    s += b * cur[j]
                nxt.append(2 * s - k2 * p)
            prev, cur = cur, nxt
        yield cur


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
    Any other query searches again; a horizon outside 0..TAU_CAP raises.
    """
    _check_tau(tau_max)
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
    _check_loopless(g)
    _check_connected(g)
    q = _quotient(g)
    x0 = ([1] + [0] * (len(q.cells) - 1) if g.vertex_transitive
          else [2 ** v for v in range(g.n)])
    factor = 1
    for tau, x in enumerate(_chebyshev_cells(q, x0, tau_max), 1):
        factor *= q.scale
        # cell 0 first keeps the test O(1) on almost every step
        if x[0] == factor * x0[0] and all(a == factor * b for a, b in zip(x, x0)):
            if _power_is_identity(_arcspace(g), tau, _confirmation_arcs(g)):
                return tau
    return None


def _confirmation_arcs(g: Graph) -> range:
    """Arcs whose columns certify U^tau = I (see bruteforce_period)."""
    if g.vertex_transitive:
        return range(g.degrees[0])
    return range(_arcspace(g).size)


def _power_is_identity(ar: _ArcSpace, tau: int, arcs) -> bool:
    """Does U^tau fix the unit column of every arc in `arcs`?"""
    target = ar.scale ** tau
    for j in arcs:
        x = [0] * ar.size
        x[j] = 1
        for _ in range(tau):
            x = ar.apply_scaled(x)
        for i, v in enumerate(x):
            if v != (target if i == j else 0):
                return False
    return True


# -- spectral classification ----------------------------------------------

class SpectralLine(NamedTuple):
    """One chunk of the discriminant spectrum.

    Degree 1 and 2 lines carry the eigenvalue mu itself (Fraction or Surd)
    with its multiplicity.  Higher-degree lines stand for a full Galois
    orbit 2cos(2 pi j/n)*k/2 / k and carry the orbit's minimal polynomial in
    lambda = k mu instead; multiplicity counts repetitions of the factor.
    """

    mu: object
    multiplicity: int
    degree: int
    angle_order: int | None
    lam_poly: tuple | None = None

    @property
    def allowed(self) -> bool:
        """Is mu the cosine of a rational angle (of order `angle_order`)?"""
        return self.angle_order is not None

    def mu_str(self) -> str:
        if self.mu is not None:
            return exact_str(self.mu)
        return f"roots of {intpoly.poly_str(self.lam_poly)} (in lambda)"


class SpectralReport(NamedTuple):
    """Exact eigenvalue classification of P = A/k.

    `factors` are the (P, multiplicity) pairs whose product is char(A).
    """

    n: int
    k: int
    factors: tuple
    lines: tuple
    unfactored: tuple | None

    @property
    def periodic(self) -> bool:
        return self.unfactored is None and all(l.allowed for l in self.lines)

    @property
    def period(self):
        """The exact least period of U on a connected graph, or None: U has
        the eigenvalues e^(+-i theta), cos theta = mu, of the angle orders,
        and -1 iff |E| > n, i.e. k > 2 (the spectral mapping theorem: Emms,
        Hancock, Severini & Wilson 2006; Higuchi, Konno, Sato & Segawa 2014)."""
        if not self.periodic:
            return None
        return math.lcm(2 if self.k > 2 else 1,
                        *(line.angle_order for line in self.lines))

    @property
    def period_bound(self):
        """lcm(2, period): the period's bound from the angle orders alone."""
        return None if self.period is None else math.lcm(2, self.period)

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


def _angle_order(factor: tuple, k: int):
    """The n with _scaled_cos_poly(n, k) == factor of degree 1 or 2, or
    None; degree phi(n)/2 <= 2 forces n <= 12."""
    return next((n for n in range(1, 13) if _scaled_cos_poly(n, k) == factor),
                None)


def classify_spectrum(g: Graph) -> SpectralReport:
    """Classify every mu = lambda/k from char(A), factor by factor.

    The verdict `periodic` is complete: the walk is periodic iff every
    irreducible factor of char(A) is the minimal polynomial of
    k cos(2 pi/n) in lambda for some n, read off `two_cos_minimal_poly(n)`
    (`_scaled_cos_poly`).  char(A) arrives as (P, multiplicity) factors:
    one per Galois orbit of characters on a graph with a verified Cayley
    structure (`intpoly.cayley_factors`, each P a power of one irreducible
    of degree <= phi(e)), else the single dense (char(A), 1).  The same
    extraction runs on each P; lines with equal mu (or equal minimal
    polynomial) are merged, and only the residuals left over are
    multiplied out into `unfactored`.  The factors must agree with A on
    degree, tr(A) and tr(A^2) (`_check_factors`).  Computed once per graph.
    """
    analysis = _analysis(g)
    if analysis.spectrum is None:
        analysis.spectrum = _classify_spectrum(g)
    return analysis.spectrum


def _classify_spectrum(g: Graph) -> SpectralReport:
    k = _check_regular(g)
    _check_loopless(g)
    factors = _spectrum_factors(g)
    _check_factors(factors, g.n, k)
    merged = {}
    leftover = []
    for p, m in factors:
        lines, residual = _classify_factor(p, k)
        for line in lines:
            key = line.mu if line.mu is not None else line.lam_poly
            total = line.multiplicity * m + (
                merged[key].multiplicity if key in merged else 0)
            merged[key] = line._replace(multiplicity=total)
        if len(residual) > 1:
            leftover.append((residual, m))
    lines = sorted(merged.values(), key=lambda l: sort_key(l.mu)
                   if l.mu is not None else (float("inf"), str(l.lam_poly)))
    return SpectralReport(g.n, k, factors, tuple(lines),
                          intpoly.expand(leftover) if leftover else None)


def _check_factors(factors, n: int, k: int) -> None:
    """char(A) of a loopless k-regular graph on n vertices has degree n,
    trace tr(A) = 0 and tr(A^2) = nk; the (P, multiplicity) factors must
    be monic and add up to the same, or InconsistencyError is raised."""
    degree = trace = trace_sq = 0
    for p, m in factors:
        if len(p) < 2 or p[-1] != 1:
            raise InconsistencyError(
                f"the factor {p} of char(A) is not monic of degree >= 1")
        d = len(p) - 1
        # Newton: the roots of p sum to -p[d-1], their squares to
        # p[d-1]^2 - 2 p[d-2]
        degree += m * d
        trace -= m * p[d - 1]
        trace_sq += m * (p[d - 1] ** 2 - 2 * (p[d - 2] if d > 1 else 0))
    if (degree, trace, trace_sq) != (n, 0, n * k):
        raise InconsistencyError(
            f"the factors of char(A) give degree {degree}, tr(A) = {trace} "
            f"and tr(A^2) = {trace_sq}, not {n}, 0 and {n * k}")


def _classify_factor(p: tuple, k: int):
    """(lines, residual) for one monic factor p of char(A): every linear
    factor, every irreducible quadratic with real roots and every
    k cos(2 pi/n) minimal polynomial is divided out of p (multiplicities
    count powers within p); the monic residual is what is left.  Only
    candidates that divide the residual's nonzero constant term are tried
    (Gauss's lemma): roots r in [-k, k], and quadratics x^2 - t x + s with
    |s| <= min(k^2, |c0|).  This holds for a dense factor as well."""
    lines = []
    residual = p
    zeros = 0
    while residual[0] == 0:
        residual = residual[1:]
        zeros += 1
    if zeros:
        lines.append(SpectralLine(Fraction(0), zeros, 1, _angle_order((0, 1), k)))
    for r in range(k, -k - 1, -1):  # r = 0 divides nothing: the zeros are out
        if not r or residual[0] % r:
            continue
        residual, mult = intpoly.divide_out(residual, (-r, 1))
        if mult:
            lines.append(SpectralLine(Fraction(r, k), mult, 1,
                                      _angle_order((-r, 1), k)))
    if intpoly.degree(residual) >= 2:
        # x^2 - t x + s divides the residual only if s divides its constant
        # term (which only shrinks) and Q(1), Q(-1) divide R(1), R(-1)
        c0 = abs(residual[0])
        bound = min(k * k, c0)
        divisors = [s for s in range(-bound, bound + 1) if s and not c0 % abs(s)]
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
                residual, mult = intpoly.divide_out(residual, (s, -t, 1))
                if mult:
                    root = Surd.sqrt(disc)
                    order = _angle_order((s, -t, 1), k)
                    for lam in ((t + root) / 2, (t - root) / 2):
                        lines.append(SpectralLine(lam / k, mult, 2, order))
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
                    residual, mult = intpoly.divide_out(residual, scaled)
                    if mult:
                        lines.append(SpectralLine(None, mult, deg_n,
                                                  n_cand, scaled))
                        d = intpoly.degree(residual)
            n_cand += 1
    return lines, residual


def _spectrum_factors(g: Graph) -> tuple:
    """char(A) as (P, multiplicity) pairs: one per Galois orbit of
    characters when the graph carries a Cayley structure (verified by
    `Graph.connection`), else the dense charpoly as the single factor."""
    conn = g.connection
    if conn is None:
        return ((intpoly.charpoly(g.adjacency_matrix()), 1),)
    return intpoly.cayley_factors(g.cayley[0], conn, g.n)


def period(g: Graph, tau_max: int = 0):
    """The exact least period of U, or None if the walk is not periodic.

    The one comparison of the engine's periodicity routes: the classifier
    decides, and brute force, which never sees the spectrum, must agree or
    InconsistencyError is raised (also under python -O).  On a periodic
    verdict brute force searches to max(period, tau_max), for the period
    `SpectralReport.period` predicts, and its least tau must equal it; on
    an aperiodic one it must find no tau <= tau_max, and is not run at 0.
    tau_max and the predicted period must lie in 0..TAU_CAP.  A
    disconnected graph raises ValueError whatever its spectrum.
    """
    _check_tau(tau_max)
    _check_connected(g)
    report = classify_spectrum(g)
    if not report.periodic:
        if tau_max and (tau := bruteforce_period(g, tau_max)) is not None:
            raise InconsistencyError(
                f"classifier says {g!r} is aperiodic, brute force found "
                f"period {tau}")
        return None
    predicted = report.period
    tau = bruteforce_period(g, max(predicted, tau_max))
    if tau != predicted:
        raise InconsistencyError(
            f"the spectrum gives {g!r} the period {predicted}, brute force "
            f"found {tau}")
    return tau


# -- perfect state transfer ------------------------------------------------

class PSTPair(NamedTuple):
    """T_tau(P) e_u = phase * e_v with v != u; phase is +1, since the
    regular graphs searched have T_tau(P) 1 = 1."""

    source: int
    target: int
    time: int
    phase: int


class PSTReport(NamedTuple):
    """Outcome of a perfect state transfer search."""

    pairs: tuple
    bound: int
    pruned_by_transitivity: bool = False

    @property
    def has_pst(self) -> bool:
        return bool(self.pairs)


def find_pst(g: Graph, tau_max: int | None = None, sources=None) -> PSTReport:
    """Every exact transfer T_tau(P) e_u = e_v within the search bound; a
    -e_v raises InconsistencyError, as T_tau(P) fixes the all-ones vector.

    Periodic walks are searched completely (tau < period(g), which checks
    that g is connected and regular).  A connected vertex-transitive
    non-periodic graph admits no transfer at all, so the search is pruned;
    otherwise tau_max is mandatory.  Entries with a single +-1 amplitude
    but any other nonzero amplitude are not transfers and are never
    reported.

    By default a vertex-transitive graph is searched from vertex 0 alone,
    on its equitable quotient at 0 (`_quotient`): k^tau T_tau(P) e_0 is
    constant on each cell, so it is +-k^tau e_v exactly when one cell is
    nonzero, with value +-k^tau, and that cell is a singleton {v}, v != 0.
    Explicit `sources`, and graphs not known to be vertex-transitive, are
    searched from each source on the discrete partition, whose quotient is
    A; a source outside range(g.n) raises ValueError.  A given tau_max must
    lie in 0..TAU_CAP, whether or not the search needs it.
    """
    if tau_max is not None:
        _check_tau(tau_max)
    per = period(g)
    if per is not None:
        bound = per - 1
    elif g.vertex_transitive:
        return PSTReport((), 0, pruned_by_transitivity=True)
    else:
        if tau_max is None:
            raise ValueError("tau_max is required when the walk is not periodic "
                             "and the graph is not known vertex-transitive")
        bound = tau_max
    # Each source u is the singleton cell number u: vertex 0 of the
    # quotient, or any vertex of the discrete partition.
    if sources is None and g.vertex_transitive:
        sources, q = (0,), _quotient(g)
    else:
        sources = tuple(range(g.n)) if sources is None else tuple(sources)
        q = (_equitable_quotient(g, range(g.n)) if g.vertex_transitive
             else _quotient(g))
    hits = set()
    for u in sources:
        if u not in range(g.n):
            raise ValueError(f"source {u!r} is not a vertex of {g!r}")
        x0 = [int(i == u) for i in range(len(q.cells))]
        target = 1
        for tau, x in enumerate(_chebyshev_cells(q, x0, bound), 1):
            target *= q.scale
            nz = [i for i, a in enumerate(x) if a]
            if len(nz) == 1 and abs(x[nz[0]]) == target:
                cell = q.cells[nz[0]]
                if len(cell) == 1 and cell[0] != u:
                    v = cell[0]
                    if x[nz[0]] < 0:
                        raise InconsistencyError(
                            f"T_{tau}(P) sends vertex {u} of {g!r} to -e_{v}, "
                            f"but it fixes the all-ones vector")
                    hits.add(PSTPair(u, v, tau, 1))
                    hits.add(PSTPair(v, u, tau, 1))  # T_tau(P) is symmetric
    pairs = tuple(sorted(hits, key=lambda h: (h.time, h.source, h.target)))
    return PSTReport(pairs, bound)
