"""Acceptance gate: the headline claims, one criterion per test.

Each test prints a single pass/fail line so a full run reads as a
checklist.  The checks pit independent routes against each other
(closed-form predictions, the spectral classifier, brute-force powering
of U) and accept nothing but exact agreement.
"""

from fractions import Fraction

import networkx as nx
import sympy
from networkx.algorithms.isomorphism import GraphMatcher

import oracle
from ringwalk import intpoly, verify, walks
from ringwalk.errors import FormulaNotApplicable
from ringwalk.graphs import (
    Graph,
    quadratic_unitary_cayley_graph,
    tensor_product,
    unitary_cayley_graph,
)
from ringwalk.rings import make_ring


def _verdict(num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_unitary_pst_rings(unitary_sweep_16):
    expected = {"Z2", "Z4", "G(2)", "Z3 x Z2", "Z3 x Z4", "Z3 x G(2)"}
    positives = {r.token for r in unitary_sweep_16 if r.pst_positive}
    clean = all(r.ok for r in unitary_sweep_16)
    _verdict(1, "unitary transfer ring list", clean and positives == expected,
             f"{len(unitary_sweep_16)} rings, positives {sorted(positives)}")


def test_criterion_2_integer_moduli():
    with_pst = set()
    for n in range(2, 17):
        g = unitary_cayley_graph(make_ring(f"Z{n}"))
        if walks.find_pst(g).has_pst:
            with_pst.add(n)
    _verdict(2, "Z_n specialization", with_pst == {2, 4, 6, 12},
             f"transfer at n = {sorted(with_pst)}")


def test_criterion_3_unitary_periodicity_three_routes():
    records = verify.sweep(36, "unitary", tau_max=120)
    agree = all(r.predicted_periodic == r.classifier_periodic == r.brute_periodic
                for r in records)
    clean = all(r.ok for r in records)
    periods = {r.period for r in records if r.classifier_periodic}
    _verdict(3, "unitary periodicity", agree and clean,
             f"{len(records)} rings, periods {sorted(periods)}")


_SPECTRUM_SAMPLE = (
    "Z2", "Z3", "Z4", "G(2)", "GF(4)", "Z5", "Z6", "Z7", "Z8", "G(3)",
    "Z9", "GF(9)", "Z10", "Z12", "Z13", "Z15", "GF(25)", "Z5 x Z13",
    "GF(4) x Z3", "Z2 x Z2", "Zp[2,3]", "Z45",
)


def test_criterion_4_spectrum_formulas():
    checked = 0
    quadratic_checked = 0
    for spec in _SPECTRUM_SAMPLE:
        ring = make_ring(spec)
        g = unitary_cayley_graph(ring)
        computed = intpoly.charpoly(tuple(map(tuple, g.adjacency_matrix())))
        predicted = verify.predicted_unitary_spectrum(ring).charpoly()
        assert predicted == computed, f"unitary spectrum mismatch for {spec}"
        checked += 1
        try:
            pred_q = verify.predicted_quadratic_spectrum(ring)
        except FormulaNotApplicable:
            continue
        h = quadratic_unitary_cayley_graph(ring)
        computed_q = intpoly.charpoly(tuple(map(tuple, h.adjacency_matrix())))
        assert pred_q.charpoly() == computed_q, \
            f"quadratic spectrum mismatch for {spec}"
        quadratic_checked += 1
    _verdict(4, "closed-form spectra", checked >= 20,
             f"{checked} rings, {quadratic_checked} with the quadratic formula")


def test_criterion_5_quadratic_periodicity_and_transfer(quadratic_sweep_16):
    ok = all(r.ok for r in quadratic_sweep_16)

    def graph(spec):
        return quadratic_unitary_cayley_graph(make_ring(spec))

    # Periodic without transfer, confirmed by classifier and by powers of U.
    for spec, per in (("Z5", 5), ("Z3", 3)):
        g = graph(spec)
        ok &= walks.classify_spectrum(g).periodic
        ok &= walks.period(g) == per
        ok &= oracle.least_period(g, per) == per
        ok &= not walks.find_pst(g).has_pst
        ok &= verify.predicted_periodic_quadratic(make_ring(spec)) is True
        ok &= verify.predicted_pst_quadratic(make_ring(spec)) is False

    # The two designated transfer graphs, with their times.
    for spec, tau in (("Z10", 5), ("Z6", 3)):
        g = graph(spec)
        rep = walks.find_pst(g)
        ok &= [(p.source, p.target, p.time, p.phase) for p in rep.pairs] == [
            (0, tau, tau, 1), (tau, 0, tau, 1)]
        *_, transfer = oracle.vertex_transfers(g, tau)
        ok &= [row[0] for row in transfer] == [int(i == tau) for i in range(g.n)]
        ok &= verify.predicted_pst_quadratic(make_ring(spec)) is True

    # Non-periodic cases: classifier verdict backed by the brute oracle.
    for spec in ("Z13", "Z7"):
        g = graph(spec)
        ok &= not walks.classify_spectrum(g).periodic
        ok &= walks.bruteforce_period(g, 120) is None
        ok &= verify.predicted_periodic_quadratic(make_ring(spec)) is False

    # Z9 sits in the one-residue-3-mod-4 regime and is periodic there.
    ring = make_ring("Z9")
    ok &= verify.quadratic_regime(ring) == "one-3-mod-4"
    ok &= verify.predicted_periodic_quadratic(ring) is True
    g = graph("Z9")
    ok &= walks.classify_spectrum(g).periodic
    ok &= walks.period(g) == 12
    ok &= oracle.least_period(g, 12) == 12
    _verdict(5, "quadratic family cases", ok,
             "Z5/Z3 periodic, Z10@5 Z6@3 transfer, Z13/Z7 aperiodic, Z9 regime")


def test_criterion_6_splitting_witnesses():
    ok = True
    for spec, base_spec, block in (("Z9", "Z3", 3), ("Z25", "Z5", 5)):
        g, model, perm = verify.local_quadratic_splitting(make_ring(spec))
        expected = tensor_product(
            quadratic_unitary_cayley_graph(make_ring(base_spec)),
            Graph.complete_pseudograph(block))
        ok &= model.n == expected.n and model.edges == expected.edges
        for u in range(g.n):
            for v in range(g.n):
                ok &= g.adjacent(u, v) == model.adjacent(perm(u), perm(v))
    _verdict(6, "local splitting", ok, "Z9 and Z25 with permutation witnesses")


def _orbit_projector_polys(g):
    """One rational polynomial per irreducible charpoly factor; evaluating
    it at the adjacency matrix gives the projector onto that factor's
    eigenspace block (the minimal polynomial is squarefree)."""
    x = sympy.Symbol("x")
    cp = intpoly.charpoly(tuple(map(tuple, g.adjacency_matrix())))
    poly = sympy.Poly(list(reversed(cp)), x)
    factors = [f for f, _ in poly.factor_list()[1]]
    radical = sympy.Poly(sympy.prod(f.as_expr() for f in factors), x)
    out = []
    for q in factors:
        rest = sympy.quo(radical, q)
        inv = sympy.invert(rest.as_expr(), q.as_expr(), x)
        f = sympy.Poly(sympy.expand(rest.as_expr() * inv), x).rem(radical)
        coeffs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(f.all_coeffs())]
        out.append(coeffs)
    return out


def _poly_at_adjacency(g, coeffs, u):
    a = g.adjacency_matrix()
    n = g.n
    cur = [0] * n
    cur[u] = 1
    out = [coeffs[0] * x for x in cur]
    for c in coeffs[1:]:
        cur = [sum(a[i][j] * cur[j] for j in range(n)) for i in range(n)]
        out = [o + c * x for o, x in zip(out, cur)]
    return out


def test_criterion_7_walk_algebra_properties(random_regular_graphs):
    pst_pairs_seen = 0
    for g in random_regular_graphs:
        # The columns of U are orthonormal: U^T U = I.
        u = oracle.grover(g)
        cols = [u({arc: 1}) for v, w in g.edges for arc in ((v, w), (w, v))]
        for i, x in enumerate(cols):
            for j in range(i, len(cols)):
                dot = sum(a * cols[j].get(arc, 0) for arc, a in x.items())
                assert dot == int(i == j), (g, i, j)

        # Compressing U^tau onto vertices reproduces the Chebyshev matrix.
        for tau, (transfer, chebyshev) in enumerate(zip(
                oracle.vertex_transfers(g, 12), oracle.chebyshevs(g, 12))):
            assert transfer == chebyshev, (g, tau)

        # Every automorphism commutes with the transition matrix.
        gm = nx.Graph(list(g.edges))
        auts = [tuple(m[v] for v in range(g.n))
                for m in GraphMatcher(gm, gm).isomorphisms_iter()]
        for sigma in auts:
            for u in range(g.n):
                for v in range(g.n):
                    assert g.adjacent(u, v) == g.adjacent(sigma[u], sigma[v])

        # Classifier and brute-force oracle agree on periodicity.
        report = walks.classify_spectrum(g)
        if report.periodic:
            per = walks.period(g)
            assert per is not None
            assert oracle.least_period(g, per) == per
        else:
            assert walks.bruteforce_period(g, 120) is None

        pst = walks.find_pst(g, tau_max=30)
        if not pst.pairs:
            continue
        projectors = _orbit_projector_polys(g)
        for pair in pst.pairs:
            pst_pairs_seen += 1
            u, v = pair.source, pair.target
            # Transfer is symmetric in source and target.
            assert any(q.source == v and q.target == u and q.time == pair.time
                       and q.phase == pair.phase for q in pst.pairs)
            # Both endpoints are fixed by exactly the same automorphisms.
            stab_u = {s for s in auts if s[u] == u}
            stab_v = {s for s in auts if s[v] == v}
            assert stab_u == stab_v, (g, u, v)
            # Each spectral projection sends e_u to plus or minus e_v.
            for coeffs in projectors:
                wu = _poly_at_adjacency(g, coeffs, u)
                wv = _poly_at_adjacency(g, coeffs, v)
                assert wu == wv or wu == [-x for x in wv], (g, u, v)
    _verdict(7, "walk algebra properties", pst_pairs_seen > 0,
             f"50 graphs, {pst_pairs_seen} transfer pairs exercised")


def test_criterion_8_isomorphism_transport():
    ok = True
    moved = []
    for left, right in (("Z4", "G(2)"), ("Z12", "Z3 x G(2)")):
        a, b = make_ring(left), make_ring(right)
        g, h = unitary_cayley_graph(a), unitary_cayley_graph(b)
        phi = verify.unitary_isomorphism(a, b)
        pairs_g = walks.find_pst(g, sources=range(g.n)).pairs
        pairs_h = walks.find_pst(h, sources=range(h.n)).pairs
        transported = {(phi(p.source), phi(p.target), p.time, p.phase)
                       for p in pairs_g}
        native = {(p.source, p.target, p.time, p.phase) for p in pairs_h}
        ok &= transported == native and bool(native)
        moved.append(f"{left}~{right}:{len(native)}")
    _verdict(8, "transfer transport", ok, ", ".join(moved))


def test_criterion_9_ideal_size_bound(unitary_sweep_16):
    sizes = {r.token: verify.ideal_product(make_ring(r.token))
             for r in unitary_sweep_16 if r.pst_positive}
    _verdict(9, "maximal ideal bound", all(m <= 2 for m in sizes.values()),
             f"{sizes}")
