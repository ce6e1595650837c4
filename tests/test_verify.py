"""Closed-form spectrum predictions and the ring verification harness."""

import json
from collections import Counter

import pytest

from ringwalk import cli, intpoly, verify, walks
from ringwalk.errors import FormulaNotApplicable
from ringwalk.graphs import (quadratic_unitary_cayley_graph,
                             unitary_cayley_graph)
from ringwalk.rings import ProductRing, enumerate_rings, local_catalog, \
    make_ring
from ringwalk.scalars import as_surd, exact_str


def _as_dict(prediction):
    return {exact_str(v): m for v, m in prediction.pairs}


def test_unitary_spectrum_z12():
    pred = verify.predicted_unitary_spectrum(make_ring("Z12"))
    assert pred.regularity == 4
    assert _as_dict(pred) == {"4": 1, "2": 2, "0": 6, "-2": 2, "-4": 1}


def test_unitary_spectrum_z8():
    pred = verify.predicted_unitary_spectrum(make_ring("Z8"))
    assert _as_dict(pred) == {"4": 1, "-4": 1, "0": 6}


def test_unitary_spectrum_prime_field_is_complete_graph():
    pred = verify.predicted_unitary_spectrum(make_ring("Z7"))
    assert _as_dict(pred) == {"6": 1, "-1": 6}


def test_unitary_spectrum_product_of_fields():
    pred = verify.predicted_unitary_spectrum(make_ring("GF(4) x Z3"))
    # Eigenvalues 6, -3, -2, 1 with multiplicities 1, 2, 3, 6.
    assert _as_dict(pred) == {"6": 1, "-3": 2, "-2": 3, "1": 6}
    assert sum(m for _, m in pred.pairs) == 12


def test_quadratic_spectrum_z5():
    pred = verify.predicted_quadratic_spectrum(make_ring("Z5"))
    assert pred.regularity == 2
    assert _as_dict(pred) == {
        "2": 1, "(-1+sqrt(5))/2": 2, "(-1-sqrt(5))/2": 2}


def test_quadratic_spectrum_gf25():
    pred = verify.predicted_quadratic_spectrum(make_ring("GF(25)"))
    assert _as_dict(pred) == {"12": 1, "2": 12, "-3": 12}


def test_quadratic_spectrum_z3():
    pred = verify.predicted_quadratic_spectrum(make_ring("Z3"))
    assert _as_dict(pred) == {"2": 1, "-1": 2}


def test_quadratic_spectrum_z9():
    pred = verify.predicted_quadratic_spectrum(make_ring("Z9"))
    assert _as_dict(pred) == {"6": 1, "-3": 2, "0": 6}


def test_quadratic_spectrum_charpolys_are_integral():
    for spec in ("Z5", "Z13", "GF(9)", "Z9", "Z5 x Z13", "Z45"):
        ring = make_ring(spec)
        pred = verify.predicted_quadratic_spectrum(ring)
        poly = pred.charpoly()
        assert intpoly.degree(poly) == ring.order
        assert all(isinstance(c, int) for c in poly)
        factors = pred.factors()  # one irreducible per orbit, each once
        assert len({p for p, _ in factors}) == len(factors)
        assert poly == intpoly.expand(factors)


def test_multiquadratic_closed_form_matches_the_graph():
    # sqrt(5), sqrt(13) and sqrt(65) give this spectrum Galois orbits of
    # size 4, which no catalog ring up to order 36 reaches
    ring = make_ring("Z5 x Z13")
    pred = verify.predicted_quadratic_spectrum(ring)
    assert max(len(as_surd(v).conjugates()) for v, _ in pred.pairs) == 4
    g = quadratic_unitary_cayley_graph(ring)
    assert pred.charpoly() == intpoly.charpoly(g.adjacency_matrix())


def _local_table_cases():
    for n in range(2, 129):
        for f in local_catalog(n):
            ring, q = ProductRing([f]), f.residue_size
            yield ring, unitary_cayley_graph, verify._unit_table
            if q % 4 == 1:
                yield ring, quadratic_unitary_cayley_graph, verify._paley_table
            elif q % 4 == 3:  # the one-3-mod-4 regime's unit factor
                yield ring, quadratic_unitary_cayley_graph, verify._unit_table


def test_local_tables_match_the_character_route_to_order_128():
    """Each table, alone, predicts its local ring's graph: the table's
    irreducibles divide the character route's factors exactly, with the
    same multiplicities."""
    cases = list(_local_table_cases())
    for ring, build, table in cases:
        q, m = ring.residues[0], ring.ideal_sizes[0]
        predicted = dict(verify._tensor_spectrum(
            ring, [table(q, m)], table.__name__).factors())
        g = build(ring)
        found = {}
        for p, mult in intpoly.cayley_factors(g.cayley[0], g.connection, g.n):
            for f in predicted:
                p, r = intpoly.divide_out(p, f)
                if r:
                    found[f] = found.get(f, 0) + r * mult
            if len(p) > 1:
                found[p] = found.get(p, 0) + mult
        assert found == predicted, (ring.token, table.__name__)
    assert Counter((b.__name__, t.__name__) for _, b, t in cases) == {
        ("unitary_cayley_graph", "_unit_table"): 70,
        ("quadratic_unitary_cayley_graph", "_paley_table"): 24,
        ("quadratic_unitary_cayley_graph", "_unit_table"): 27}


@pytest.mark.parametrize("family, cli_family", [
    ("unitary", "unitary"), ("quadratic", "quadratic-unitary")])
def test_forged_table_fails_verification(family, cli_family, monkeypatch,
                                         capsys):
    """A unit table with its -m and 0 multiplicities swapped keeps their
    sum, so only the spectrum comparison can catch it; Z9 takes a unit
    table in both families."""
    real = verify._unit_table
    monkeypatch.setattr(verify, "_unit_table", lambda q, m: [
        real(q, m)[0], (-m, q * m - q), (0, q - 1)])
    rec = verify.verify_ring(make_ring("Z9"), family)
    assert rec.spectrum_verified is False
    assert rec.failures == ("predicted spectrum != computed spectrum",)
    assert cli.main(["verify", "--max-order", "9", "--family",
                     cli_family]) == 2
    z9 = next(r for r in json.loads(capsys.readouterr().out)["records"]
              if r["ring"] == "Z9")
    assert z9["details"] == ["predicted spectrum != computed spectrum"]


def _negated(real):
    return lambda ring: not real(ring)


@pytest.mark.parametrize("name, forge, failure", [
    ("is_s_ring", _negated,
     "connectivity does not match the sum-of-units test"),
    ("predicted_unitary_spectrum",
     lambda real: lambda ring: real(ring)._replace(regularity=5),
     "predicted regularity 5 != computed 4"),
    ("predicted_periodic_unitary", _negated,
     "predicted periodic=False, classifier says True"),
    ("predicted_pst_unitary", _negated,
     "predicted transfer=False, search found True (connected=True)")],
    ids=["connectivity", "regularity", "periodicity", "transfer"])
def test_forged_prediction_fails_verification(name, forge, failure,
                                              monkeypatch):
    """Each formula-vs-engine comparison of verify_ring fires on its own:
    Z12's unitary graph is connected, 4-regular, periodic and has a
    transfer, and one forged prediction says otherwise."""
    monkeypatch.setattr(verify, name, forge(getattr(verify, name)))
    rec = verify.verify_ring(make_ring("Z12"), "unitary")
    assert rec.status == "fail" and rec.failures == (failure,)


def test_forged_transfer_prediction_fails_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(verify, "predicted_pst_unitary",
                        _negated(verify.predicted_pst_unitary))
    assert cli.main(["verify", "--max-order", "12"]) == 2
    z12 = next(r for r in json.loads(capsys.readouterr().out)["records"]
               if r["ring"] == "Z3 x Z4")
    assert z12["details"] == [
        "predicted transfer=False, search found True (connected=True)"]


def test_quadratic_spectrum_rejects_even_residues():
    for spec in ("Z4", "Z12", "G(2)", "Z2"):
        with pytest.raises(FormulaNotApplicable):
            verify.predicted_quadratic_spectrum(make_ring(spec))


def test_regime_classification():
    cases = {
        "Z5": "all-1-mod-4",
        "Z13": "all-1-mod-4",
        "Z5 x Z13": "all-1-mod-4",
        "GF(9)": "all-1-mod-4",
        "Z9": "one-3-mod-4",
        "Z45": "one-3-mod-4",
        "Z3": "one-3-mod-4",
        "Z7": "one-3-mod-4",
        "Z21": None,
        "Z10": None,
        "Z2": None,
    }
    for spec, expected in cases.items():
        assert verify.quadratic_regime(make_ring(spec)) == expected, spec


def test_predicted_periodicity_unitary():
    periodic = ("Z2", "Z4", "Z8", "G(2)", "Zp[2,3]", "Z6", "Z12", "Z24",
                "Z3 x G(2)", "Z2 x Z2", "Z3", "Z9", "G(3)", "Z4 x Z4")
    aperiodic = ("Z5", "Z7", "GF(4)", "GF(9)", "Z15", "Z5 x Z13",
                 "Z3 x Z3", "Z9 x Z3")
    for spec in periodic:
        assert verify.predicted_periodic_unitary(make_ring(spec)), spec
    for spec in aperiodic:
        assert not verify.predicted_periodic_unitary(make_ring(spec)), spec


def test_predicted_pst_unitary_is_the_six_rings():
    positive = ("Z2", "Z4", "G(2)", "Z6", "Z12", "Z3 x G(2)", "Z4 x Z3")
    for spec in positive:
        assert verify.predicted_pst_unitary(make_ring(spec)), spec
    for spec in ("Z3", "Z8", "Z24", "Z2 x Z2", "GF(4)", "Z2 x Z6"):
        assert not verify.predicted_pst_unitary(make_ring(spec)), spec


def test_predicted_periodicity_quadratic():
    assert verify.predicted_periodic_quadratic(make_ring("Z5")) is True
    assert verify.predicted_periodic_quadratic(make_ring("Z13")) is False
    assert verify.predicted_periodic_quadratic(make_ring("Z5 x Z13")) is False
    assert verify.predicted_periodic_quadratic(make_ring("Z3")) is True
    assert verify.predicted_periodic_quadratic(make_ring("Z9")) is True
    assert verify.predicted_periodic_quadratic(make_ring("Z7")) is False
    assert verify.predicted_periodic_quadratic(make_ring("Z45")) is False
    assert verify.predicted_periodic_quadratic(make_ring("Z21")) is None
    assert verify.predicted_periodic_quadratic(make_ring("Z10")) is None


def test_predicted_pst_quadratic():
    assert verify.predicted_pst_quadratic(make_ring("Z10")) is True
    assert verify.predicted_pst_quadratic(make_ring("Z6")) is True
    assert verify.predicted_pst_quadratic(make_ring("Z5")) is False
    assert verify.predicted_pst_quadratic(make_ring("Z13")) is False
    assert verify.predicted_pst_quadratic(make_ring("Z9")) is False
    assert verify.predicted_pst_quadratic(make_ring("Z2")) is None


def test_ideal_product():
    assert verify.ideal_product(make_ring("Z12")) == 2
    assert verify.ideal_product(make_ring("Z8")) == 4
    assert verify.ideal_product(make_ring("GF(8)")) == 1
    assert verify.ideal_product(make_ring("Z9")) == 3
    assert verify.ideal_product(make_ring("Z4 x Z4")) == 4


def test_local_quadratic_splitting_z9():
    g, model, perm = verify.local_quadratic_splitting(make_ring("Z9"))
    assert g.n == model.n == 9
    for u in range(9):
        for v in range(u + 1, 9):
            assert g.adjacent(u, v) == model.adjacent(perm(u), perm(v))


def test_local_quadratic_splitting_guards():
    with pytest.raises(ValueError):
        verify.local_quadratic_splitting(make_ring("Z15"))
    with pytest.raises(ValueError):
        verify.local_quadratic_splitting(make_ring("Z8"))


def _maps_edges_onto(g, h, perm):
    return (g.n == h.n == len(perm) and len(g.edges) == len(h.edges)
            and all(h.adjacent(perm(u), perm(v)) for u, v in g.edges))


def test_local_quadratic_splitting_to_order_243():
    # every non-field local ring with odd residue size: Z_(p^k) and
    # Zp[p,k] for p^k in 9, 25, 27, 49, 81, 121, 125, 169, 243
    rings = [ProductRing([f]) for n in range(2, 244) for f in local_catalog(n)
             if f.residue_size % 2 and f.ideal_size > 1]
    assert len(rings) == 18
    for ring in rings:
        g, model, perm = verify.local_quadratic_splitting(ring)
        assert _maps_edges_onto(g, model, perm), ring.token


def test_unitary_isomorphism_on_catalog_pairs():
    rings = enumerate_rings(64, cap=64)
    graph = {}
    pairs = transferred = 0
    for i, a in enumerate(rings):
        for b in rings[i + 1:]:
            if a.order != b.order or a.residue_ring() != b.residue_ring():
                continue
            phi = verify.unitary_isomorphism(a, b)
            for r in (a, b):
                if r not in graph:
                    graph[r] = unitary_cayley_graph(r)
            g, h = graph[a], graph[b]
            assert _maps_edges_onto(g, h, phi), (a.token, b.token)
            pairs += 1
            if a.order > 36 or not g.is_connected():
                continue
            pst_g = walks.find_pst(g, sources=range(g.n)).pairs
            pst_h = walks.find_pst(h, sources=range(h.n)).pairs
            assert {(phi(p.source), phi(p.target), p.time, p.phase)
                    for p in pst_g} == {(p.source, p.target, p.time, p.phase)
                                        for p in pst_h}, (a.token, b.token)
            transferred += len(pst_h)
    assert pairs and transferred


def test_unitary_isomorphism_guards():
    for a, b in (("Z9", "Z3 x Z3"), ("Z8", "Z4 x Z2"), ("Z3", "Z9"),
                 ("Z2 x Z2", "Z4")):
        with pytest.raises(ValueError):
            verify.unitary_isomorphism(make_ring(a), make_ring(b))


def test_verify_ring_unitary_z12():
    rec = verify.verify_ring(make_ring("Z12"), family="unitary")
    assert rec.ok and rec.status == "pass"
    assert rec.connected and rec.sum_of_units_ring
    assert rec.spectrum_verified
    assert rec.predicted_periodic and rec.classifier_periodic and rec.brute_periodic
    assert rec.period == 12
    assert rec.predicted_pst and rec.pst_positive
    assert [(p.source, p.target, p.time) for p in rec.pst_pairs] == [
        (0, 6, 6), (6, 0, 6)]
    # the records of a second run are equal, hash equal and refuse
    # assignment to each of their fields
    spec = verify.predicted_unitary_spectrum(make_ring("Z12"))
    for a, b in ((rec, verify.verify_ring(make_ring("Z12"), family="unitary")),
                 (spec, verify.predicted_unitary_spectrum(make_ring("Z12")))):
        assert a == b and hash(a) == hash(b) and a is not b, type(a)
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))


def test_verify_ring_unitary_disconnected():
    rec = verify.verify_ring(make_ring("Z2 x Z2"), family="unitary")
    assert rec.ok
    assert not rec.connected
    assert not rec.sum_of_units_ring
    assert not rec.pst_positive


def test_verify_ring_quadratic_z13():
    rec = verify.verify_ring(make_ring("Z13"), family="quadratic")
    assert rec.ok
    assert rec.spectrum_verified
    assert rec.predicted_periodic is False
    assert not rec.classifier_periodic and not rec.brute_periodic
    assert not rec.pst_positive


def test_verify_ring_quadratic_z10_out_of_regime():
    rec = verify.verify_ring(make_ring("Z10"), family="quadratic")
    assert rec.ok
    assert rec.formula is None
    assert rec.predicted_pst is True and rec.pst_positive
    assert [(p.source, p.target, p.time) for p in rec.pst_pairs] == [
        (0, 5, 5), (5, 0, 5)]


def test_sweep_is_clean_at_order_eight():
    records = verify.sweep(8, "unitary")
    assert all(r.ok for r in records)
    tokens = {r.token for r in records}
    assert "Z8" in tokens and "GF(8)" in tokens
    positives = {r.token for r in records if r.pst_positive}
    assert positives == {"Z2", "Z4", "G(2)", "Z3 x Z2"}


@pytest.mark.parametrize("spec", ["Z12", "Z2 x Z2"])
def test_verify_ring_searches_once_within_the_oracle_horizon(spec,
                                                            search_horizons):
    """The tau_max=120 oracle, period() and find_pst share one search."""
    rec = verify.verify_ring(make_ring(spec), "unitary")
    assert rec.ok and rec.period is not None
    assert search_horizons == [120]


@pytest.mark.parametrize("spec, sizes", [("Z12", [12]), ("Z2 x Z2", [2])])
def test_verify_ring_computes_one_charpoly(spec, sizes, charpoly_sizes):
    """A disconnected ring is classified on its zero component alone."""
    rec = verify.verify_ring(make_ring(spec), "unitary")
    assert rec.ok and rec.spectrum_verified
    assert charpoly_sizes == sizes


@pytest.mark.parametrize("spec", ["Z12", "Z2 x Z2", "Z13"])
def test_verify_ring_compares_factor_multiplicities(spec, monkeypatch):
    """A computed factor with a forged multiplicity, or a forged extra
    factor, fails the spectrum check and nothing else."""
    family = "quadratic" if spec == "Z13" else "unitary"
    real = walks.classify_spectrum
    forgeries = (lambda fs: ((fs[0][0], fs[0][1] + 1),) + fs[1:],
                 lambda fs: fs + (((-2, 0, 1), 1),))
    assert verify.verify_ring(make_ring(spec), family).spectrum_verified
    for forge in forgeries:
        monkeypatch.setattr(walks, "classify_spectrum", lambda g: (
            real(g)._replace(factors=forge(real(g).factors))))
        rec = verify.verify_ring(make_ring(spec), family)
        assert rec.spectrum_verified is False
        assert rec.failures == ("predicted spectrum != computed spectrum",)

