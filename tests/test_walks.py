"""Exact Grover walk simulation, periodicity, and transfer search."""

import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracle
from ringwalk import errors, intpoly, verify, walks
from ringwalk.graphs import (Graph, quadratic_unitary_cayley_graph, tensor_product,
                             unitary_cayley_graph)
from ringwalk.rings import enumerate_rings, make_ring
from ringwalk.scalars import Surd, as_surd


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def test_transfer_matrix_equals_chebyshev():
    for g in (Graph.cycle(6), Graph.complete(5), _petersen()):
        pairs = zip(oracle.vertex_transfers(g, 7), oracle.chebyshevs(g, 7))
        for tau, (transfer, chebyshev) in enumerate(pairs):
            assert transfer == chebyshev, (g, tau)


def test_scaled_kernel_is_the_definition(random_regular_graphs):
    """The kernel of brute force, scale * U e_b, against U e_b from the
    definition, on every arc of the 50 graphs of acceptance criterion 7
    and of an irregular graph."""
    house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert not house.is_regular
    for g in random_regular_graphs + [house]:
        ar, u = walks._arcspace(g), oracle.grover(g)
        for b, arc in enumerate(ar.arcs):
            x = [0] * ar.size
            x[b] = 1
            column = u({arc: 1})
            assert ar.apply_scaled(x) == [
                ar.scale * column.get(a, 0) for a in ar.arcs], (g, arc)


def test_periods_of_small_graphs():
    assert walks.period(Graph.complete(2)) == 2
    assert walks.period(Graph.cycle(4)) == 4
    assert walks.period(Graph.cycle(5)) == 5
    assert walks.period(Graph.cycle(6)) == 6
    assert walks.period(Graph.cycle(7)) == 7
    assert walks.period(Graph.complete(3)) == 3


def test_period_of_unitary_graph_z12():
    g = unitary_cayley_graph(make_ring("Z12"))
    assert walks.period(g) == 12


def test_period_of_quadratic_graph_z9():
    g = quadratic_unitary_cayley_graph(make_ring("Z9"))
    assert walks.period(g) == 12


def test_reduced_confirmation_matches_all_columns():
    """Arcs leaving vertex 0 decide U^tau = I exactly as all arcs do."""
    checked = 0
    for ring in enumerate_rings(16):
        for family in (unitary_cayley_graph, quadratic_unitary_cayley_graph):
            g = family(ring)
            for comp in g.connected_components():
                sub = g.induced_subgraph(comp)
                assert sub.vertex_transitive, (ring.token, family.__name__)
                ar = walks._arcspace(sub)
                reduced = walks._confirmation_arcs(sub)
                assert len(reduced) == sub.regularity
                horizon = walks.classify_spectrum(sub).period_bound or 12
                for tau in range(1, horizon + 1):
                    full = walks._power_is_identity(ar, tau, range(ar.size))
                    assert walks._power_is_identity(ar, tau, reduced) == full, (
                        ring.token, family.__name__, comp, tau)
                    checked += full
    assert checked > 0


def _catalog_components(order):
    """Every component of both families' graphs on the rings up to `order`."""
    for ring in enumerate_rings(order, cap=order):
        for build in (unitary_cayley_graph, quadratic_unitary_cayley_graph):
            g = build(ring)
            for comp in g.connected_components():
                yield (ring.token, build.__name__, comp[0]), g.induced_subgraph(comp)


def test_quotient_routes_agree_with_the_discrete_vertex_search():
    """The quotient at 0 against the copy without a Cayley structure, which
    probes on the discrete partition and confirms on all arcs."""
    small = [Graph.cycle(n) for n in range(3, 13)] + [
        Graph.complete(n) for n in range(2, 13)]
    cases = list(_catalog_components(24)) + [
        (g.name, g) for g in small + [tensor_product(Graph.cycle(4), Graph.complete(3))]]
    periodic = 0
    for name, g in cases:
        assert g.vertex_transitive, name
        bare = Graph(g.n, g.edges)
        assert not bare.vertex_transitive, name
        bound = walks.classify_spectrum(g).period_bound
        periodic += bound is not None
        for horizon in {120, bound or 120}:
            assert walks._search_period(g, horizon) == walks._search_period(
                bare, horizon), (name, horizon)
        assert walks.find_pst(g).pairs == walks.find_pst(g, sources=(0,)).pairs, name
    assert periodic > 100


def test_cell_recurrence_matches_chebyshev_oracle():
    assert walks._quotient(Graph.cycle(6)).cells == ((0,), (1, 5), (2, 4), (3,))
    aperiodic = quadratic_unitary_cayley_graph(make_ring("Z13"))
    assert not walks.classify_spectrum(aperiodic).periodic
    cases = [(g, 10) for g in (Graph.cycle(8), Graph.complete(5), _petersen(),
                               unitary_cayley_graph(make_ring("Z12")),
                               quadratic_unitary_cayley_graph(make_ring("Z9")))]
    for g, horizon in cases + [(aperiodic, 40)]:
        q = walks._quotient(g)
        cell = {v: i for i, members in enumerate(q.cells) for v in members}
        k = g.regularity
        start = [1] + [0] * (len(q.cells) - 1)
        chebyshevs = oracle.chebyshevs(g, horizon)
        next(chebyshevs)  # T_0
        steps = zip(walks._chebyshev_cells(q, start, horizon), chebyshevs)
        for tau, (x, t) in enumerate(steps, 1):
            assert [x[cell[v]] for v in range(g.n)] == [
                k ** tau * row[0] for row in t], (g, tau)
        assert tau == horizon
    # the probe's start on an irregular graph's discrete partition, against
    # the recurrence in the dense integer matrix M = L D^-1 A
    irregular = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 5)])
    scale = 12  # lcm(3, 2, 4, 2, 2, 1)
    assert not irregular.vertex_transitive
    q = walks._quotient(irregular)
    assert q.cells == tuple((v,) for v in range(6)) and q.scale == scale
    m = [[scale // irregular.degrees[i] * a for a in row]
         for i, row in enumerate(irregular.adjacency_matrix())]
    x0 = [2 ** v for v in range(6)]
    prev, cur = x0, [sum(a * b for a, b in zip(row, x0)) for row in m]
    xs = list(walks._chebyshev_cells(q, x0, 30))
    assert len(xs) == 30 and x0 == [2 ** v for v in range(6)]
    for tau, x in enumerate(xs, 1):
        assert x == cur, tau
        prev, cur = cur, [2 * sum(a * b for a, b in zip(row, cur)) -
                          scale ** 2 * p for row, p in zip(m, prev)]
    # every step is a new list, none of them the start
    assert len({id(x) for x in xs + [x0]}) == 31


def test_aperiodic_probe_builds_no_arc_space(monkeypatch):
    # the copy without a Cayley structure takes the discrete partition,
    # where a start linear in the coordinates, (1, ..., 9), survives tau = 3
    cayley = unitary_cayley_graph(make_ring("Z3 x Z3"))
    bare = Graph(cayley.n, cayley.edges)
    for g in (quadratic_unitary_cayley_graph(make_ring("Z101")), _petersen(), bare):
        assert walks.bruteforce_period(g, 120) is None
        assert g.walk_analysis.arcspace is None
    probed = []
    real = walks.bruteforce_period

    def recorded(h, tau_max):
        probed.append(h)
        return real(h, tau_max)

    monkeypatch.setattr(walks, "bruteforce_period", recorded)
    record = verify.verify_ring(make_ring("Z13"), "quadratic")
    assert not record.failures and not record.brute_periodic
    assert probed and all(h.walk_analysis.arcspace is None for h in probed)


def test_walk_errors_fire_before_the_quotient_search(monkeypatch):
    monkeypatch.setattr(walks, "_refine", _refuse)
    for build in (lambda: Graph.complete_pseudograph(3),
                  lambda: unitary_cayley_graph(make_ring("Z2 x Z2"))):
        with pytest.raises(ValueError) as arc_route:
            walks._arcspace(build())
        with pytest.raises(ValueError) as probe:
            walks.bruteforce_period(build(), 10)
        assert str(probe.value) == str(arc_route.value)


def test_quotient_rejects_partitions_that_are_not_equitable(monkeypatch):
    monkeypatch.setattr(walks, "_refine", lambda g: [int(v != 0) for v in range(g.n)])
    with pytest.raises(errors.InconsistencyError):
        walks.bruteforce_period(Graph.cycle(6), 10)
    with pytest.raises(errors.InconsistencyError):
        walks.find_pst(Graph.cycle(6))
    # equitable, but {0} is not a cell
    monkeypatch.setattr(walks, "_refine", lambda g: [0] * g.n)
    with pytest.raises(errors.InconsistencyError):
        walks.bruteforce_period(Graph.cycle(6), 10)


def test_graph_without_action_confirms_on_all_columns():
    cayley = unitary_cayley_graph(make_ring("Z8"))
    bare = Graph(cayley.n, cayley.edges)
    assert bare.cayley is None and not bare.vertex_transitive
    ar = walks._arcspace(bare)
    assert walks._confirmation_arcs(bare) == range(ar.size)
    assert walks.period(bare) == walks.period(cayley) == 4


def test_bruteforce_period_on_irregular_graphs():
    def bipartite(m, n):
        return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])

    def path(n):
        return Graph(n, [(i, i + 1) for i in range(n - 1)])

    known = [(bipartite(1, n), 4) for n in (2, 3, 4, 5)] + [
        (bipartite(2, 3), 4), (bipartite(3, 4), 4)] + [
        (path(n), 2 * (n - 1)) for n in range(3, 7)]
    rng = random.Random(17)
    drawn = []
    while len(drawn) < 6:
        base = nx.gnp_random_graph(rng.randrange(4, 7), 0.5,
                                   seed=rng.randrange(10 ** 6))
        g = Graph(base.number_of_nodes(), list(base.edges()))
        if nx.is_connected(base) and not g.is_regular:
            drawn.append((g, None))
    for g, expected in known + drawn:
        assert not g.is_regular
        tau = walks.bruteforce_period(g, 12)
        assert tau == oracle.least_period(g, 12), g.edges
        if expected is not None:
            assert tau == expected, g.edges


def test_period_raises_when_routes_disagree(monkeypatch):
    monkeypatch.setattr(walks, "bruteforce_period", lambda g, tau_max: None)
    with pytest.raises(errors.InconsistencyError):
        walks.period(Graph.cycle(4))
    monkeypatch.setattr(walks, "bruteforce_period", lambda g, tau_max: 3)
    # 3 divides C6's bound 6, but its period is 6
    for g in (Graph.cycle(4), Graph.cycle(6)):
        with pytest.raises(errors.InconsistencyError):
            walks.period(g)


def test_predicted_period_matches_dense_powers():
    """SpectralReport.period against the least U^tau = I found from the
    definition of U, an oracle shared with neither route."""
    graphs = ([Graph.cycle(n) for n in range(3, 9)]
              + [Graph.complete(n) for n in (2, 3)]
              + [quadratic_unitary_cayley_graph(make_ring(s)) for s in ("Z3", "Z5")]
              + [unitary_cayley_graph(make_ring(s)) for s in ("Z6", "Z8")])
    for g in graphs:
        predicted = walks.classify_spectrum(g).period
        assert predicted == oracle.least_period(g, predicted), g


def test_period_is_the_predicted_one_on_cycles_and_complete_graphs():
    """Exact equality, not divisibility: C_n has no -1 from the cycle space,
    so an odd cycle's period is odd.  K_n is periodic for n <= 3 only."""
    for g in ([Graph.cycle(n) for n in range(3, 41)]
              + [Graph.complete(n) for n in range(2, 14)]):
        report = walks.classify_spectrum(g)
        assert walks.period(g) == report.period, g
        assert report.periodic == (g.name[0] == "C" or g.n <= 3), g
    assert walks.classify_spectrum(Graph.cycle(5)).period == 5


def test_route_disagreement_survives_optimize_flag():
    """A forged brute force or classifier raises InconsistencyError through
    the library, `walk` and `verify`, -O or not, and the CLI prints nothing
    on stdout."""
    code = (
        "from ringwalk import cli, errors, verify, walks\n"
        "from ringwalk.graphs import Graph, quadratic_unitary_cayley_graph\n"
        "from ringwalk.rings import make_ring\n"
        "def raises(f):\n"
        "    try:\n"
        "        f()\n"
        "    except errors.InconsistencyError:\n"
        "        return True\n"
        "    return False\n"
        "z13 = make_ring('Z13')\n"
        "real_brute, real_classify = walks.bruteforce_period, walks.classify_spectrum\n"
        "walks.bruteforce_period = lambda g, tau_max: None\n"
        "library = [raises(lambda: walks.period(Graph.cycle(4)))]\n"
        "walks.bruteforce_period = lambda g, tau_max: 3\n"
        "library += [\n"
        "    raises(lambda: walks.period(quadratic_unitary_cayley_graph(z13), 120)),\n"
        "    raises(lambda: verify.verify_ring(z13, 'quadratic'))]\n"
        "codes = [cli.main(['verify', '--family', 'quadratic-unitary',\n"
        "                   '--max-order', '13']),\n"
        "         cli.main(['walk', 'Z4']),\n"
        "         cli.main(['walk', 'Z12', '--format', 'text'])]  # 3 divides 12\n"
        "walks.bruteforce_period = real_brute\n"
        "walks.classify_spectrum = lambda g: real_classify(g)._replace(\n"
        "    unfactored=(1, 1))  # says aperiodic\n"
        "library.append(raises(lambda: verify.verify_ring(make_ring('Z12'))))\n"
        "codes.append(cli.main(['verify', '--max-order', '4']))\n"
        "raise SystemExit(0 if all(library) and codes == [2, 2, 2, 2] else 1)\n")
    src = str(Path(walks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (flags, done.stderr)
        assert done.stdout == "", flags
        assert done.stderr.count("ringwalk: internal inconsistency") == 4, flags


def test_bruteforce_memo_answers_by_horizon(search_horizons):
    searches = search_horizons
    g = Graph.cycle(4)  # period 4
    assert walks.bruteforce_period(g, 3) is None
    assert walks.bruteforce_period(g, 2) is None  # none up to 3 covers 2
    assert searches == [3]
    assert walks.bruteforce_period(g, 10) == 4  # beyond 3: search again
    assert walks.bruteforce_period(g, 4) == 4
    assert walks.bruteforce_period(g, 3) is None  # found 4 > 3
    assert walks.bruteforce_period(g, 100) == 4
    assert searches == [3, 10]
    assert g.walk_analysis.searched == (10, 4)
    with pytest.raises(AttributeError):
        g.walk_analysis.period = 4  # not one of the four cached fields


def test_analysed_graph_is_freed_without_the_cyclic_collector():
    g = unitary_cayley_graph(make_ring("Z12"))
    assert walks.period(g) == 12 and g.walk_analysis.arcspace is not None
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_period_shares_one_search_and_one_charpoly(search_horizons,
                                                   charpoly_sizes):
    g = unitary_cayley_graph(make_ring("Z12"))
    for _ in range(3):
        assert walks.period(g) == 12
        assert walks.find_pst(g).bound == 12 - 1  # tau < period(g)
    assert search_horizons == [12] and charpoly_sizes == [12]


def test_decision_checks_survive_optimize_flag():
    """Each decision-path check raises InconsistencyError, -O or not, and
    the tau gate raises for a negative and an over-cap tau."""
    code = (
        "from fractions import Fraction\n"
        "from ringwalk import cli, errors, graphs, intpoly, rings, verify, walks\n"
        "from ringwalk.scalars import Surd\n"
        "def raises(f):\n"
        "    try:\n"
        "        f()\n"
        "    except errors.InconsistencyError:\n"
        "        return True\n"
        "    return False\n"
        "half = verify.PredictedSpectrum(((Fraction(1, 2), 1),), 1, 1, 'x')\n"
        "short = verify.PredictedSpectrum(((1, 1),), 1, 2, 'x')\n"
        "lone = verify.PredictedSpectrum(((Surd.sqrt(2), 1), (1, 1)), 1, 2, 'x')\n"
        "assert_free = [raises(half.charpoly), raises(short.charpoly),\n"
        "    raises(lone.charpoly),\n"
        "    raises(lambda: verify._merge([(1, 1)], 1, 2, 'x'))]\n"
        "real_divmod, real_cyclotomic = intpoly.divmod_monic, intpoly.cyclotomic\n"
        "intpoly.divmod_monic = lambda p, g: ((), (1,))\n"
        "assert_free.append(raises(lambda: intpoly.cyclotomic(97)))\n"
        "intpoly.divmod_monic = real_divmod\n"
        "intpoly.cyclotomic = lambda n: (1, 2, 1, 1, 1)\n"
        "assert_free.append(raises(lambda: intpoly.two_cos_minimal_poly(97)))\n"
        "intpoly.cyclotomic = real_cyclotomic\n"
        "real_keys = verify._residue_keys\n"
        "def swap_first_key(same_residue):\n"
        "    def keys(ring):\n"
        "        out = real_keys(ring)\n"
        "        j = next(i for i in range(1, len(out))\n"
        "                 if (out[i][0] == out[0][0]) == same_residue)\n"
        "        out[0], out[j] = out[j], out[0]\n"
        "        return out\n"
        "    return keys\n"
        "z9, z12 = rings.make_ring('Z9'), rings.make_ring('Z12')\n"
        "z3g2 = rings.make_ring('Z3 x G(2)')\n"
        "witnesses = (lambda: verify.local_quadratic_splitting(z9),\n"
        "             lambda: verify.unitary_isomorphism(z12, z3g2))\n"
        "for same_residue in (False, True):\n"
        "    verify._residue_keys = swap_first_key(same_residue)\n"
        "    assert_free += [raises(w) != same_residue for w in witnesses]\n"
        "verify._residue_keys = real_keys\n"
        "real_irreducible = rings._is_irreducible\n"
        "rings._is_irreducible = lambda f, p: False\n"
        "assert_free.append(raises(lambda: rings.GaloisField(2, 3)))\n"
        "rings._is_irreducible = real_irreducible\n"
        "c4 = graphs.Graph.cycle(4)\n"
        "for codes in ([0, 2, 1, 3], [0, 1, 1, 3], [0, 1, 2, 7]):\n"
        "    forged = graphs.Graph(4, c4.edges, cayley=((4,), codes))\n"
        "    assert_free.append(raises(lambda: forged.connection))\n"
        # C6 with vertices 2 and 3 swapped keeps S = {1, 5} and every
        # degree; only the edge check catches it
        "c6 = graphs.Graph.cycle(6)\n"
        "edge_only = graphs.Graph(6, c6.edges, cayley=((6,), [0, 1, 3, 2, 4, 5]))\n"
        "assert_free.append(raises(lambda: edge_only.connection))\n"
        "g4 = graphs.Graph.cycle(4)\n"
        "def gated(call):\n"
        "    out = []\n"
        "    for tau, error in ((-1, ValueError),\n"
        "                       (walks.TAU_CAP + 1, errors.SizeCapExceeded)):\n"
        "        try:\n"
        "            call(tau)\n"
        "        except error:\n"
        "            out.append(True)\n"
        "        else:\n"
        "            out.append(False)\n"
        "    return all(out)\n"
        "gates = all(gated(f) for f in (\n"
        "    lambda t: walks.bruteforce_period(g4, t),\n"
        "    lambda t: walks.find_pst(g4, tau_max=t)))\n"
        "real_period, real_cells = walks.period, walks._chebyshev_cells\n"
        "walks.period = lambda g, tau_max=0: 4\n"
        "walks._chebyshev_cells = lambda q, x0, bound: (\n"
        "    [-a for a in x] for x in real_cells(q, x0, bound))\n"
        "assert_free.append(raises(lambda: walks.find_pst(graphs.Graph.cycle(4))))\n"
        "walks.period, walks._chebyshev_cells = real_period, real_cells\n"
        "real_refine = walks._refine\n"
        "walks._refine = lambda g: [int(v != 0) for v in range(g.n)]\n"
        "assert_free.append(raises(lambda: walks.bruteforce_period(c4, 10)))\n"
        "walks._refine = real_refine\n"
        "real_generators = intpoly._unit_generators\n"
        "intpoly._unit_generators = lambda e: (0,)\n"
        "walk_z4 = [cli.main(['walk', 'Z4'])]\n"
        "intpoly._unit_generators = real_generators\n"
        "bad = lambda n: (0,) * n + (2,)\n"
        "forged = [lambda n: ((bad(n), 1),),\n"
        "          lambda n: (((-2, 1), 1), ((0, 1), n - 2)),\n"
        "          lambda n: (((-2, 1), 2), ((0, 1), n - 2))]\n"
        "for factors in forged:\n"
        "    intpoly.cayley_factors = lambda moduli, connection, n: factors(n)\n"
        "    walk_z4.append(cli.main(['walk', 'Z4']))\n"
        "intpoly.charpoly = lambda mat: bad(len(mat))\n"
        "bare = graphs.Graph(4, c4.edges)\n"
        "cycle = raises(lambda: walks.classify_spectrum(bare))\n"
        "ok = all(assert_free) and walk_z4 == [2] * 4 and cycle and gates\n"
        "raise SystemExit(0 if ok else 1)\n")
    src = str(Path(walks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (flags, done.stderr)
        assert "internal inconsistency" in done.stderr


def _refuse(*args):
    raise AssertionError("this charpoly route must not run here")


def test_character_route_matches_dense_on_catalog(monkeypatch):
    """Every graph and zero component to order 36, both families."""
    dense = intpoly.charpoly
    monkeypatch.setattr(intpoly, "charpoly", _refuse)
    for ring in enumerate_rings(36):
        for build in (unitary_cayley_graph, quadratic_unitary_cayley_graph):
            g = build(ring)
            graphs = [g]
            if not g.is_connected():
                zero = next(c for c in g.connected_components() if 0 in c)
                graphs.append(g.induced_subgraph(zero))
            for h in graphs:
                assert intpoly.expand(walks.classify_spectrum(h).factors) == dense(
                    h.adjacency_matrix()), (ring.token, build.__name__, h.n)


def test_graphs_without_structure_take_the_dense_route(monkeypatch, charpoly_sizes):
    monkeypatch.setattr(intpoly, "cayley_factors", _refuse)
    k3 = unitary_cayley_graph(make_ring("Z3"))
    bare = [Graph(g.n, g.edges) for g in (Graph.cycle(7), tensor_product(k3, k3))]
    for g in [_petersen()] + bare:
        walks.classify_spectrum(g)
    assert charpoly_sizes == [10, 7, 9]


def test_character_route_matches_dense_on_cycles_and_complete_graphs(monkeypatch):
    dense = intpoly.charpoly
    monkeypatch.setattr(intpoly, "charpoly", _refuse)
    base = ([Graph.cycle(n) for n in range(3, 13)]
            + [Graph.complete(n) for n in range(2, 10)])
    small = [g for g in base if g.n <= 6]
    graphs = base + [tensor_product(g, h) for g in small for h in small]
    for g in graphs:
        assert intpoly.expand(walks._spectrum_factors(g)) == dense(
            g.adjacency_matrix()), g


def test_orbit_factors_classify_like_the_dense_factor():
    """On every component to order 36, both families, the report from the
    orbit factors has the lines, residual and verdict of the report from
    the single dense factor of the copy without a Cayley structure."""
    components = 0
    for key, g in _catalog_components(36):
        bare = Graph(g.n, g.edges)
        assert g.connection is not None and bare.connection is None, key
        ours, dense = walks.classify_spectrum(g), walks.classify_spectrum(bare)
        assert len(dense.factors) == 1, key
        assert (ours.lines, ours.unfactored, ours.periodic) == (
            dense.lines, dense.unfactored, dense.periodic), key
        components += 1
    assert components > 300


def test_classifier_divides_nothing_above_the_largest_orbit(monkeypatch):
    """Work guard on the aperiodic benchmark rings: no trial division has a
    dividend of degree above the largest orbit factor, so no degree-n
    polynomial is formed or divided.  A first pass fills the process-wide
    cosine tables (`two_cos_minimal_poly` divides x^n - 1 once per n)."""
    cases = (("Z101", quadratic_unitary_cayley_graph),
             ("GF(81)", quadratic_unitary_cayley_graph),
             ("Z7 x Z11", quadratic_unitary_cayley_graph),
             ("Z5 x Z25", unitary_cayley_graph),
             ("GF(128)", unitary_cayley_graph))
    graphs = [build(make_ring(spec)) for spec, build in cases]
    for g in graphs:
        walks.classify_spectrum(g)
    dividends = []
    real = intpoly.divmod_monic

    def counted(p, g):
        dividends.append(len(p) - 1)
        return real(p, g)

    monkeypatch.setattr(intpoly, "divmod_monic", counted)
    for g in graphs:
        report = walks._classify_spectrum(g)
        largest = max(len(p) - 1 for p, _ in report.factors)
        assert dividends and max(dividends) <= largest < g.n, g
        assert not report.periodic
        dividends.clear()


def test_character_route_rejects_mislabelled_graphs():
    g = unitary_cayley_graph(make_ring("Z12"))  # S = {1, 5, 7, 11}
    moduli, codes = g.cayley
    # vertex 1 given 2's code breaks the symmetry of S; swapping 2 and 3
    # keeps S and every degree but gives edge 1-2 the difference 2
    for i, j in ((1, 2), (2, 3)):
        swapped = list(codes)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        with pytest.raises(errors.InconsistencyError):
            walks.classify_spectrum(Graph(g.n, g.edges, cayley=(moduli, swapped)))
    repeated = [codes[0]] + list(codes[:-1])
    with pytest.raises(errors.InconsistencyError):
        walks.classify_spectrum(Graph(g.n, g.edges, cayley=(moduli, repeated)))


def test_character_route_meets_closed_form_beyond_dense_reach():
    ring = make_ring("Z13 x Z19")  # 247 vertices
    for build, predict in (
            (unitary_cayley_graph, verify.predicted_unitary_spectrum),
            (quadratic_unitary_cayley_graph, verify.predicted_quadratic_spectrum)):
        assert (intpoly.expand(walks.classify_spectrum(build(ring)).factors)
                == predict(ring).charpoly())


def test_period_refuses_disconnected_graphs():
    """Two Petersen graphs (aperiodic) and two C5 (periodic) alike."""
    for g in (_petersen(), Graph.cycle(5)):
        twice = Graph(2 * g.n, [*g.edges, *((u + g.n, v + g.n) for u, v in g.edges)])
        with pytest.raises(ValueError, match="connected"):
            walks.period(twice)


def test_nonperiodic_graphs():
    assert walks.period(_petersen()) is None
    for spec in ("Z13", "Z7"):
        g = quadratic_unitary_cayley_graph(make_ring(spec))
        assert walks.period(g) is None
        assert walks.bruteforce_period(g, 120) is None


def test_classifier_on_cycles():
    rep = walks.classify_spectrum(Graph.cycle(5))
    assert rep.periodic and rep.period_bound == 5 * 2
    values = {walks.exact_str(mu) for mu, _ in rep.eigenvalues()}
    assert "(-1+sqrt(5))/4" in values and "(-1-sqrt(5))/4" in values


def test_classifier_degree_three_orbit():
    # C7 spectrum needs a cubic factor: cos(2 pi j/7) values.
    rep = walks.classify_spectrum(Graph.cycle(7))
    assert rep.periodic
    assert rep.period_bound == 14
    assert any(line.degree == 3 and line.angle_order == 7 for line in rep.lines)
    with pytest.raises(ValueError):
        rep.eigenvalues()


def test_classifier_quadratic_disallowed():
    g = quadratic_unitary_cayley_graph(make_ring("Z13"))
    rep = walks.classify_spectrum(g)
    assert not rep.periodic
    mus = {walks.exact_str(mu): m for mu, m in rep.eigenvalues()}
    assert mus == {"1": 1, "(-1+sqrt(13))/12": 6, "(-1-sqrt(13))/12": 6}


def test_classifier_leaves_higher_degree_unfactored():
    g = quadratic_unitary_cayley_graph(make_ring("Z5 x Z13"))
    rep = walks.classify_spectrum(g)
    assert not rep.periodic
    assert rep.unfactored is not None


def test_classifier_agrees_with_numpy_spectrum():
    for g in (Graph.cycle(6), Graph.complete(5), _petersen(),
              unitary_cayley_graph(make_ring("Z12"))):
        rep = walks.classify_spectrum(g)
        if rep.unfactored is not None:
            continue
        try:
            pairs = rep.eigenvalues()
        except ValueError:
            continue
        ours = sorted(float(mu) for mu, mult in pairs for _ in range(mult))
        k = g.regularity
        theirs = sorted(np.linalg.eigvalsh(np.array(g.adjacency_matrix()) / k))
        assert np.allclose(ours, theirs, atol=1e-9)


def _poly_mul(p, q):
    """Product of coefficient lists, lowest degree first, any exact scalars."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _roots_are_rational_cosines(f, k) -> bool:
    """Whether every root lambda of the monic irreducible integer f (low
    degree first) has lambda/k = cos(pi r) with r rational.

    Write y = 2 lambda/k = z + 1/z.  A root of A has |lambda| <= k, so each
    z lies on the unit circle, and by Kronecker's theorem z is a root of
    unity iff it is an algebraic integer, that is iff y is one: iff the
    monic minimal polynomial f(k y/2) (2/k)^d of y has integer coefficients.
    """
    d = len(f) - 1
    return all(f[i] * 2 ** (d - i) % k ** (d - i) == 0 for i in range(d))


def test_classifier_matches_sympy_factorisation():
    """classify_spectrum against sympy's factor_list of char(A).

    Random regular graphs carry no Cayley structure, so they take the dense
    route; 2-regular ones are cycles, whose cubic and higher orbits give
    lam_poly lines.
    """
    x = sympy.Symbol("x")
    rng = random.Random(41)
    done = 0
    while done < 50:
        n, k = rng.randrange(4, 15), rng.randrange(2, 14)
        if k >= n or n * k % 2:
            continue
        base = nx.random_regular_graph(k, n, seed=rng.randrange(10 ** 6))
        if not nx.is_connected(base):
            continue
        done += 1
        g = Graph(n, list(base.edges()))
        rep = walks.classify_spectrum(g)
        char = sympy.Matrix(g.adjacency_matrix()).charpoly(x)
        product = [1]
        for line in rep.lines:
            factor = line.lam_poly if line.mu is None else (-k * line.mu, 1)
            for _ in range(line.multiplicity):
                product = _poly_mul(product, factor)
        assert _poly_mul(product, rep.unfactored or (1,)) == [
            int(a) for a in char.all_coeffs()[::-1]]
        by_mu = {line.mu: line for line in rep.lines if line.mu is not None}
        matched, periodic = 0, True
        for f, e in char.factor_list()[1]:
            c = tuple(int(a) for a in f.all_coeffs()[::-1])
            if len(c) == 2:
                roots = [Fraction(-c[0])]
            elif len(c) == 3:
                root = Surd.sqrt(c[1] ** 2 - 4 * c[0])
                roots = [(root - c[1]) / 2, (-root - c[1]) / 2]
            else:
                roots = []
                power = [1]
                for _ in range(e):
                    power = _poly_mul(power, c)
                assert any(line.lam_poly == c and line.multiplicity == e
                           for line in rep.lines) or (
                    rep.unfactored is not None
                    and intpoly.try_divide(rep.unfactored, tuple(power)) is not None)
            for lam in roots:
                line = by_mu[lam / k]
                assert (line.multiplicity, line.degree) == (e, len(roots))
            matched += len(roots)
            periodic = periodic and _roots_are_rational_cosines(c, k)
        assert matched == len(by_mu)
        assert rep.periodic == (rep.unfactored is None
                                and all(line.allowed for line in rep.lines))
        assert rep.periodic == periodic


def test_classifier_recovers_chosen_factors(monkeypatch):
    """Monic polynomials built from chosen roots in [-k, k], irreducible
    quadratics with real roots and k cos(2 pi/n) minimal polynomials, times
    a rest the classifier cannot take apart: `_classify_factor` recovers
    each chosen factor with its multiplicity and leaves exactly the rest.
    Every linear or quadratic trial divisor has a constant term dividing
    the nonzero constant term c0 (Gauss's lemma), at most min(k^2, |c0|)."""
    tried = []
    real = intpoly.divmod_monic

    def counted(p, g):
        tried.append(g)
        return real(p, g)

    monkeypatch.setattr(intpoly, "divmod_monic", counted)
    rests = ((1,), (-2, 0, 0, 1), (1, 0, 1))  # 1, x^3 - 2, x^2 + 1
    rng = random.Random(20)
    for _ in range(60):
        k = rng.choice((2, 4, 6, 8))
        chosen, expected = [], {}
        for r in rng.sample(range(-k, k + 1), rng.randrange(5)):
            m = rng.randrange(1, 3)
            chosen.append(((-r, 1), m))
            expected[Fraction(r, k)] = m
        quadratics = rng.randrange(3)
        while quadratics:
            t, s = rng.randrange(-2 * k, 2 * k + 1), rng.randrange(-k * k, k * k + 1)
            disc = t * t - 4 * s
            if not s or disc <= 0 or walks._is_square(disc) or (s, -t, 1) in dict(chosen):
                continue
            m = rng.randrange(1, 3)
            chosen.append(((s, -t, 1), m))
            for lam in ((t + Surd.sqrt(disc)) / 2, (t - Surd.sqrt(disc)) / 2):
                expected[lam / k] = m
            quadratics -= 1
        for n in rng.sample((7, 9, 14, 18), rng.randrange(3)):
            m = rng.randrange(1, 3)
            chosen.append((walks._scaled_cos_poly(n, k), m))
            expected[walks._scaled_cos_poly(n, k)] = m
        rest = rng.choice(rests)
        rng.shuffle(chosen)
        p = intpoly.mul(intpoly.expand(chosen), rest)
        c0 = next(c for c in p if c)
        tried.clear()
        lines, residual = walks._classify_factor(p, k)
        assert {l.mu if l.mu is not None else l.lam_poly: l.multiplicity
                for l in lines} == expected, (k, chosen, rest)
        assert len(lines) == len(expected) and residual == rest
        for g in tried:
            if len(g) <= 3:
                assert g[0] and not c0 % g[0], (p, g)
                assert abs(g[0]) <= min(k * k, abs(c0)), (p, g)


def test_pst_on_even_cycles():
    c4 = Graph.cycle(4)
    rep = walks.find_pst(c4)
    assert walks.period(c4) == 4
    assert [(p.source, p.target, p.time, p.phase) for p in rep.pairs] == [
        (0, 2, 2, 1), (2, 0, 2, 1)]
    rep = walks.find_pst(Graph.cycle(6))
    assert [(p.source, p.target, p.time, p.phase) for p in rep.pairs] == [
        (0, 3, 3, 1), (3, 0, 3, 1)]
    rep = walks.find_pst(Graph.cycle(10))
    assert [(p.source, p.target, p.time, p.phase) for p in rep.pairs] == [
        (0, 5, 5, 1), (5, 0, 5, 1)]


def test_pst_on_unitary_graph_z12():
    g = unitary_cayley_graph(make_ring("Z12"))
    rep = walks.find_pst(g)
    assert walks.period(g) == 12
    assert [(p.source, p.target, p.time, p.phase) for p in rep.pairs] == [
        (0, 6, 6, 1), (6, 0, 6, 1)]
    assert repr(walks.PSTPair(0, 6, 6, 1)) == \
        "PSTPair(source=0, target=6, time=6, phase=1)"
    # every record of a second, separately built graph is equal, hashes
    # equal and refuses assignment to each of its fields
    h = unitary_cayley_graph(make_ring("Z12"))
    report = walks.classify_spectrum(g)
    for a, b in ((rep, walks.find_pst(h)),
                 (rep.pairs[0], walks.find_pst(h).pairs[0]),
                 (report, walks.classify_spectrum(h)),
                 (report.lines[0], walks.classify_spectrum(h).lines[0]),
                 (walks._quotient(g), walks._quotient(h))):
        assert a == b and hash(a) == hash(b) and a is not b, type(a)
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))


def test_negative_transfer_amplitude_is_an_inconsistency(monkeypatch):
    """T_tau(P) fixes the all-ones vector on the regular graphs searched,
    so a -e_v can only come from a fault: forge one by negating the
    Chebyshev vectors once the period is known."""
    c4 = Graph.cycle(4)
    per = walks.period(c4)
    real = walks._chebyshev_cells
    monkeypatch.setattr(walks, "period", lambda g, tau_max=0: per)
    monkeypatch.setattr(walks, "_chebyshev_cells", lambda q, x0, bound: (
        [-a for a in x] for x in real(q, x0, bound)))
    for sources in (None, range(4)):
        with pytest.raises(errors.InconsistencyError,
                           match="fixes the all-ones vector"):
            walks.find_pst(c4, sources=sources)


def test_no_pst_on_odd_cycles():
    for n in (3, 5, 7):
        g = Graph.cycle(n)
        rep = walks.find_pst(g)
        assert walks.period(g) is not None and not rep.has_pst


def test_pst_pruned_on_vertex_transitive_nonperiodic():
    g = quadratic_unitary_cayley_graph(make_ring("Z13"))
    rep = walks.find_pst(g)
    assert rep.pruned_by_transitivity and not rep.has_pst


def test_pst_requires_tau_max_when_not_pruned():
    pet = _petersen()
    with pytest.raises(ValueError):
        walks.find_pst(pet)
    rep = walks.find_pst(pet, tau_max=30)
    assert not rep.has_pst and rep.bound == 30


def test_pst_rejects_sources_outside_the_graph():
    for source in (-1, 4):
        with pytest.raises(ValueError):
            walks.find_pst(Graph.cycle(4), sources=(source,))


def test_pst_tau_cap():
    with pytest.raises(errors.SizeCapExceeded):
        walks.find_pst(_petersen(), tau_max=walks.TAU_CAP + 1)


def test_every_tau_entry_point_gates_tau():
    c4 = Graph.cycle(4)
    for call in (lambda tau: walks.bruteforce_period(c4, tau),
                 lambda tau: walks.find_pst(_petersen(), tau_max=tau),
                 lambda tau: walks.find_pst(c4, tau_max=tau)):  # periodic: unused
        with pytest.raises(ValueError):
            call(-1)
        with pytest.raises(errors.SizeCapExceeded):
            call(walks.TAU_CAP + 1)
        call(0)


def test_negative_horizon_is_not_memoised(search_horizons):
    g = Graph.cycle(4)
    with pytest.raises(ValueError):
        walks.bruteforce_period(g, -3)
    assert search_horizons == [] and g.walk_analysis is None
    assert walks.bruteforce_period(g, 4) == 4


def test_angle_orders_of_cycles_are_the_divisors():
    for n in range(3, 41):
        orders = {line.angle_order
                  for line in walks.classify_spectrum(Graph.cycle(n)).lines}
        assert orders == {d for d in range(1, n + 1) if n % d == 0}, n


def test_allowed_low_degree_lines_are_cosines_of_their_angle_order():
    """2 mu is a root of two_cos_minimal_poly(angle order), in Surd."""
    lines = 0
    for key, g in _catalog_components(64):
        for line in walks.classify_spectrum(g).lines:
            if line.degree > 2 or not line.allowed:
                continue
            x, value = 2 * as_surd(line.mu), Surd(0)
            for c in reversed(intpoly.two_cos_minimal_poly(line.angle_order)):
                value = value * x + c
            assert not value, (key, line)
            lines += 1
    assert lines > 1000


def test_transfer_matrix_certifies_pst():
    g = Graph.cycle(6)
    assert (0, 3, 3, 1) in {(p.source, p.target, p.time, p.phase)
                            for p in walks.find_pst(g).pairs}
    *_, t = oracle.vertex_transfers(g, 3)
    assert [row[0] for row in t] == [0, 0, 0, 1, 0, 0]


def test_arcspace_rejects_bad_graphs():
    with pytest.raises(ValueError):
        walks._arcspace(Graph(3, [(0, 1)]))  # disconnected
    with pytest.raises(ValueError):
        walks._arcspace(Graph.complete_pseudograph(3))  # loops


@given(st.sampled_from([3, 4, 5, 6, 8]), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_compressed_power_matches_chebyshev_on_cycles(n, tau):
    g = Graph.cycle(n)
    *_, transfer = oracle.vertex_transfers(g, tau)
    *_, chebyshev = oracle.chebyshevs(g, tau)
    assert transfer == chebyshev
