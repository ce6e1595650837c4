"""Closed-form spectra and walk predictions for ring graph families.

A finite commutative unital ring splits uniquely into local factors; every
prediction here is a function of the local invariants (residue field sizes
q_i and maximal ideal sizes m_i).  Both graph families are tensor products
over the local factors, so each predicted spectrum is one product rule:
each factor contributes a table of (value, multiplicity) rows, and the
rows multiply across the factors.  A unit table (the complete q-partite
graph with parts of size m) serves every factor of the unit-connection
graph.  The square-connection graph is covered in two regimes: all
residue sizes 1 mod 4, where every factor takes a Paley table (Paley(q)
tensored with the loop-complete block on m elements), or exactly one
residue size 3 mod 4, whose factor's connection closes up to its full
unit group and so takes a unit table.  Outside those regimes no closed
form is claimed and the predicates answer "not applicable".

verify_ring runs every applicable prediction against the walk engine's
ground truth: the predicted characteristic polynomial vs the computed one,
factor by factor (each computed factor is divided by the predicted
irreducibles and the multiplicities compared), predicted periodicity vs
the engine's verdict, predicted transfer vs the exact search.  Only these
formula-vs-engine mismatches are failures: the engine's own routes are
compared in `walks.period` alone, called once per ring with the oracle
horizon, and a disagreement there raises InconsistencyError.  Disconnected
graphs are analyzed on the component of the zero element; translation by
any vertex is a graph isomorphism carrying component to component, so that
component represents them all (the graph's characteristic polynomial is
the component's raised to the number of components), and a transfer can
never cross components.  Ring-level transfer positivity therefore means:
connected and the component search found a pair.

The structural witnesses are constructed from residues:
`local_quadratic_splitting` and `unitary_isomorphism` send each
element to a vertex named by its residue and its rank among the elements
with that residue, and each map is checked edge by edge.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import intpoly, walks
from .errors import FormulaNotApplicable, InconsistencyError
from .graphs import (Graph, Permutation, _verify_mapping, tensor_product,
                     quadratic_unitary_cayley_graph, unitary_cayley_graph)
from .rings import ProductRing, enumerate_rings, is_s_ring, make_ring
from .scalars import Surd, as_surd, sort_key

__all__ = [
    "PredictedSpectrum", "VerificationRecord", "predicted_unitary_spectrum",
    "quadratic_regime", "predicted_quadratic_spectrum",
    "predicted_periodic_unitary", "predicted_pst_unitary",
    "predicted_periodic_quadratic", "predicted_pst_quadratic",
    "ideal_product", "local_quadratic_splitting", "unitary_isomorphism",
    "verify_ring", "sweep", "ORACLE_HORIZON",
]

ORACLE_HORIZON = 120  # brute force's horizon on an aperiodic verdict


class PredictedSpectrum(NamedTuple):
    """Eigenvalues of an adjacency matrix as (value, multiplicity) pairs."""

    pairs: tuple
    regularity: int
    n: int
    formula: str

    def factors(self):
        """One (minimal polynomial, multiplicity) pair per conjugate orbit.

        The conjugates of a value (its images under sign changes of its
        square roots) must all be listed with the same multiplicity; their
        product is the orbit's minimal polynomial, which must be integral,
        and the degrees must add up to n.  Only the formula's own values
        enter, never a computed spectrum.  Anything else means the formula
        produced an impossible spectrum, and raises InconsistencyError.
        """
        left = dict(self.pairs)
        out = []
        for value, mult in list(left.items()):
            if value not in left:
                continue  # done with an earlier conjugate
            orbit = as_surd(value).conjugates()
            if any(left.pop(c, None) != mult for c in orbit):
                raise InconsistencyError(
                    f"{self.formula} lists {value} without every conjugate "
                    f"at multiplicity {mult}")
            minimal = [Surd(1)]
            for root in orbit:
                minimal = [-root * minimal[0]] + [
                    minimal[i - 1] - root * minimal[i]
                    for i in range(1, len(minimal))] + [minimal[-1]]
            factor = []
            for c in minimal:
                f = c.as_fraction() if c.is_rational else None
                if f is None or f.denominator != 1:
                    raise InconsistencyError(
                        f"{self.formula} charpoly has the non-integer "
                        f"coefficient {c}")
                factor.append(int(f))
            out.append((tuple(factor), mult))
        degree = sum((len(p) - 1) * m for p, m in out)
        if degree != self.n:
            raise InconsistencyError(
                f"{self.formula} charpoly has degree {degree}, not {self.n}")
        return tuple(out)

    def charpoly(self):
        """prod (x - value)^mult over the integers: the factors multiplied out."""
        return intpoly.expand(self.factors())


def _merge(values, regularity, n, formula):
    acc = {}
    for value, mult in values:
        if mult:
            acc[value] = acc.get(value, 0) + mult
    pairs = tuple(sorted(acc.items(), key=lambda p: sort_key(p[0])))
    total = sum(m for _, m in pairs)
    if total != n:
        raise InconsistencyError(
            f"{formula} multiplicities sum to {total}, not {n}")
    return PredictedSpectrum(pairs, regularity, n, formula)


def _unit_table(q: int, m: int) -> list:
    """(value, mult) rows of a local factor's unit graph, complete q-partite
    with parts of size m (the cosets of the maximal ideal)."""
    return [((q - 1) * m, 1), (-m, q - 1), (0, q * m - q)]


def _paley_table(q: int, m: int) -> list:
    """(value, mult) rows of a local factor's square graph for q = 1 mod 4:
    Paley(q) tensored with the loop-complete block on m elements."""
    branch = Fraction(m, 2) * Surd.sqrt(q)
    return [((q - 1) * m // 2, 1), (branch - Fraction(m, 2), (q - 1) // 2),
            (-branch - Fraction(m, 2), (q - 1) // 2), (0, q * m - q)]


def _tensor_spectrum(ring: ProductRing, tables,
                     formula: str) -> PredictedSpectrum:
    """The tensor product over the local factors, one table per factor:
    eigenvalues and multiplicities multiply across the factors, and the
    leading (degree) values multiply to the regularity."""
    rows = [(math.prod(v for v, _ in pick), math.prod(m for _, m in pick))
            for pick in itertools.product(*tables)]
    return _merge(rows, math.prod(t[0][0] for t in tables), ring.order,
                  formula)


def predicted_unitary_spectrum(ring: ProductRing) -> PredictedSpectrum:
    """Spectrum of the unit-connection graph: a unit table per factor."""
    return _tensor_spectrum(ring, [_unit_table(q, m) for q, m in zip(
        ring.residues, ring.ideal_sizes)], "unit-tensor")


def quadratic_regime(ring: ProductRing):
    """Which closed-form regime the square-connection graph falls in.

    "all-1-mod-4" when every residue size is 1 mod 4 (then -1 is a square
    unit in every factor and the connection is the square units alone);
    "one-3-mod-4" when exactly one residue size is 3 mod 4 and the rest
    are 1 mod 4 (the odd-one-out factor contributes its whole unit group);
    None otherwise (some even residue size, or two factors 3 mod 4).
    """
    qs = ring.residues
    if any(q % 2 == 0 for q in qs):
        return None
    threes = sum(1 for q in qs if q % 4 == 3)
    if threes == 0:
        return "all-1-mod-4"
    if threes == 1:
        return "one-3-mod-4"
    return None


def predicted_quadratic_spectrum(ring: ProductRing) -> PredictedSpectrum:
    """Spectrum of the square-connection graph in the two covered regimes:
    a Paley table per factor, and a unit table for the one 3-mod-4 factor."""
    regime = quadratic_regime(ring)
    if regime is None:
        raise FormulaNotApplicable(f"no closed-form spectrum for {ring.token}: "
                                   f"residue sizes {ring.residues}")
    tables = [(_paley_table if q % 4 == 1 else _unit_table)(q, m)
              for q, m in zip(ring.residues, ring.ideal_sizes)]
    formula = "paley-tensor" if regime == "all-1-mod-4" else \
        "units-times-paley-tensor"
    return _tensor_spectrum(ring, tables, formula)


def predicted_periodic_unitary(ring: ProductRing) -> bool:
    """Periodicity of the unit-connection walk from residue sizes alone.

    With residue sizes sorted descending (the ring normalization does
    that), the walk is periodic iff the largest is 2 or 3 and every other
    one is 2.
    """
    qs = ring.residues
    return qs[0] in (2, 3) and all(q == 2 for q in qs[1:])


_PST_UNITARY = frozenset(make_ring(s).signature for s in (
    "Z2", "Z4", "G(2)", "Z6", "Z12", "Z3 x G(2)"))


def predicted_pst_unitary(ring: ProductRing) -> bool:
    """Whether the unit-connection graph exhibits perfect state transfer.

    Exactly six rings do (their graphs are K2, C4, C4, C6, and twice the
    12-vertex crown); every one of them is connected, and a disconnected
    graph's component transfers are attributed to the smaller ring its
    component realizes, so this stays an equality test on the ring.
    """
    return ring.signature in _PST_UNITARY


def predicted_periodic_quadratic(ring: ProductRing):
    """Periodicity of the square-connection walk, None outside the regimes.

    All-1-mod-4 regime: periodic iff local with residue size 5 (the graph
    is the 5-cycle blown up by a loop-complete block).  One-3-mod-4
    regime: periodic iff that factor is alone and has residue size 3.
    """
    regime = quadratic_regime(ring)
    if regime is None:
        return None
    qs = ring.residues
    if regime == "all-1-mod-4":
        return len(qs) == 1 and qs[0] == 5
    return len(qs) == 1 and qs[0] == 3


_PST_QUADRATIC = frozenset(make_ring(s).signature for s in ("Z10", "Z6"))


def predicted_pst_quadratic(ring: ProductRing):
    """Transfer prediction for the square-connection graph.

    The two positive answers are the 10-element and 6-element cyclic
    rings, whose graphs are the even cycles C10 and C6 (transfer at half
    the cycle length).  Both sit outside the closed-form regimes (each has
    a residue size 2), so they are designated answers; strictly inside a
    regime nothing admits transfer, and other out-of-regime rings get None.
    """
    if ring.signature in _PST_QUADRATIC:
        return True
    if quadratic_regime(ring) is None:
        return None
    return False


def ideal_product(ring: ProductRing) -> int:
    """Product of the maximal ideal sizes over the local factors."""
    return math.prod(ring.ideal_sizes)


def _residue_keys(ring: ProductRing) -> list:
    """(residue, rank) for each element of the ring, in vertex order.

    The residue is the tuple of per-factor residues, which is the element's
    image in `ring.residue_ring()`; the rank counts the elements before it
    with the same residue.
    """
    seen: dict = {}
    keys = []
    for e in ring.elements():
        res = tuple(f.residue(c) for f, c in zip(ring.factors, e.comps))
        rank = seen.get(res, 0)
        seen[res] = rank + 1
        keys.append((res, rank))
    return keys


def local_quadratic_splitting(ring: ProductRing):
    """Witness that a local ring's square-connection graph splits.

    For a local ring with odd residue size, a unit is a square iff its
    residue is a square (Hensel), so x ~ y depends only on the residues of
    x and y, and two elements with one residue are never adjacent.  The graph is
    therefore the residue field's graph tensored with the loop-complete
    block on the m elements of each residue class, and x maps to
    (index of its residue) * m + (its rank within its class).  Returns
    (graph, model, permutation); the permutation is checked edge by edge
    and a failure raises InconsistencyError.  A ring out of scope raises
    ValueError.
    """
    if not ring.is_local:
        raise ValueError(f"{ring.token} is not local")
    q = ring.residues[0]
    if q % 2 == 0:
        raise ValueError("the splitting needs an odd residue size")
    m = ring.ideal_sizes[0]
    g = quadratic_unitary_cayley_graph(ring)
    base = quadratic_unitary_cayley_graph(ring.residue_ring())
    model = tensor_product(base, Graph.complete_pseudograph(m))
    index = {label.comps: i for i, label in enumerate(base.labels)}
    perm = Permutation(index[res] * m + rank
                       for res, rank in _residue_keys(ring))
    _verify_mapping(g, model, perm, f"splitting of {ring.token}")
    return g, model, perm


def unitary_isomorphism(a: ProductRing, b: ProductRing) -> Permutation:
    """An isomorphism from the unit-connection graph of a to that of b.

    x - y is a unit iff x and y differ in every residue (Akhtar et al.,
    EJC 2009), so the graph depends only on the residue ring and on the
    size of each residue class.  Rings with equal residue rings and equal
    orders therefore have isomorphic graphs, and matching (residue, rank)
    keys gives the map.  It is checked edge by edge, and a failure raises
    InconsistencyError.  Other pairs raise ValueError.
    """
    if a.order != b.order or a.residue_ring() != b.residue_ring():
        raise ValueError(f"{a.token} and {b.token} differ in order or "
                         f"residue ring")
    target = {key: v for v, key in enumerate(_residue_keys(b))}
    perm = Permutation(target[key] for key in _residue_keys(a))
    _verify_mapping(unitary_cayley_graph(a), unitary_cayley_graph(b), perm,
                    f"{a.token} ~ {b.token}")
    return perm


class VerificationRecord(NamedTuple):
    """Everything checked for one ring and family, mismatches included."""

    token: str
    family: str
    order: int
    regularity: int
    connected: bool
    sum_of_units_ring: bool
    formula: str | None
    spectrum_verified: bool | None
    predicted_periodic: bool | None
    period: int | None
    predicted_pst: bool | None
    pst_positive: bool
    pst_pairs: tuple
    failures: tuple

    @property
    def classifier_periodic(self) -> bool:
        """Is the walk periodic?  `walks.period` returns only when the
        classifier and brute force agree, so this is both verdicts."""
        return self.period is not None

    brute_periodic = classifier_periodic

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        if self.failures:
            return "fail"
        if self.spectrum_verified is None and self.predicted_periodic is None \
                and self.predicted_pst is None:
            return "not-applicable"
        return "pass"


def verify_ring(ring: ProductRing, family: str = "unitary",
                tau_max: int = ORACLE_HORIZON) -> VerificationRecord:
    """Run every applicable prediction for one ring against the walk engine."""
    if family == "unitary":
        graph = unitary_cayley_graph(ring)
        predicted_spectrum = predicted_unitary_spectrum
        predicted_periodic = predicted_periodic_unitary(ring)
        predicted_pst = predicted_pst_unitary(ring)
    elif family == "quadratic":
        graph = quadratic_unitary_cayley_graph(ring)
        predicted_spectrum = predicted_quadratic_spectrum
        predicted_periodic = predicted_periodic_quadratic(ring)
        predicted_pst = predicted_pst_quadratic(ring)
    else:
        raise ValueError(f"unknown family {family!r}")

    failures = []
    connected = graph.is_connected()
    s_ring = is_s_ring(ring)
    if family == "unitary" and connected != s_ring:
        failures.append("connectivity does not match the sum-of-units test")
    k = graph.regularity

    # components are ordered by least vertex, so the first one holds 0
    component = graph if connected else \
        graph.induced_subgraph(graph.connected_components()[0])
    report = walks.classify_spectrum(component)
    formula = None
    spectrum_verified = None
    try:
        spec = predicted_spectrum(ring)
        formula = spec.formula
        spectrum_verified = True
        if spec.regularity != k:
            spectrum_verified = False
            failures.append(
                f"predicted regularity {spec.regularity} != computed {k}")
        # divide each computed (P, m) by the predicted irreducibles; the
        # components are translates, so each division counts m * copies
        predicted = dict(spec.factors())
        copies = graph.n // component.n
        found = {}
        for p, m in report.factors:
            for f in predicted:
                p, r = intpoly.divide_out(p, f)
                if r:
                    found[f] = found.get(f, 0) + r * m * copies
            if len(p) > 1:
                found[p] = found.get(p, 0) + m * copies
        if found != predicted:
            spectrum_verified = False
            failures.append("predicted spectrum != computed spectrum")
    except FormulaNotApplicable:
        pass

    # the classifier and brute force agree, or period() has raised
    exact_period = walks.period(component, tau_max)
    periodic = exact_period is not None
    if predicted_periodic is not None and predicted_periodic != periodic:
        failures.append(
            f"predicted periodic={predicted_periodic}, classifier says "
            f"{periodic}")

    pst_report = walks.find_pst(component)
    pst_positive = connected and pst_report.has_pst
    if predicted_pst is not None and predicted_pst != pst_positive:
        failures.append(
            f"predicted transfer={predicted_pst}, search found "
            f"{pst_report.has_pst} (connected={connected})")

    return VerificationRecord(
        token=ring.token, family=family, order=ring.order, regularity=k,
        connected=connected, sum_of_units_ring=s_ring, formula=formula,
        spectrum_verified=spectrum_verified,
        predicted_periodic=predicted_periodic,
        period=exact_period, predicted_pst=predicted_pst,
        pst_positive=pst_positive, pst_pairs=pst_report.pairs,
        failures=tuple(failures))


def sweep(max_order: int, family: str = "unitary",
          tau_max: int = ORACLE_HORIZON, cap: int | None = None):
    """verify_ring over every catalog ring of order <= max_order, sorted."""
    return [verify_ring(ring, family, tau_max)
            for ring in enumerate_rings(max_order, cap=cap)]
