"""The walk engine against tests/oracle.py on random abelian Cayley graphs,
and the source guards that keep the oracle and the checks honest."""

import ast
import itertools
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracle
from ringwalk import walks
from ringwalk.graphs import Graph

ROOT = Path(__file__).resolve().parents[1]


@st.composite
def _abelian_cayley_graphs(draw):
    """The zero component of Cay(G, S) for G = Z_m1 (x Z_m2), m_i in 2..6
    and |G| <= 12, and S the symmetric closure of 1-3 nonzero elements."""
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)
                        .filter(lambda ms: math.prod(ms) <= 12)))
    group = list(itertools.product(*(range(m) for m in moduli)))
    picked = draw(st.sets(st.sampled_from(group[1:]), min_size=1, max_size=3))
    conn = picked | {tuple(-x % m for x, m in zip(a, moduli)) for a in picked}
    index = {a: i for i, a in enumerate(group)}
    edges = [(index[a], index[tuple((x + y) % m for x, y, m in zip(a, s, moduli))])
             for a in group for s in conn]
    g = Graph(len(group), edges, cayley=(moduli, range(len(group))))
    return g.induced_subgraph(g.connected_components()[0])


def _oracle_transfers(g, horizon):
    """Every (u, v, tau, phase) with N U^tau N* e_u = phase e_v, v != u and
    1 <= tau <= horizon."""
    out = set()
    transfers = itertools.islice(oracle.vertex_transfers(g, horizon), 1, None)
    for tau, m in enumerate(transfers, 1):
        for u in range(g.n):
            support = [v for v in range(g.n) if m[v][u]]
            if len(support) == 1 and support[0] != u and abs(m[support[0]][u]) == 1:
                out.add((u, support[0], tau, int(m[support[0]][u])))
    return out


@given(_abelian_cayley_graphs())
@settings(max_examples=40, deadline=None)
def test_engine_matches_the_oracle_on_random_abelian_cayley_graphs(g):
    """A general symmetric S, not only the multiplicative orbits of ring
    graphs: the exact period, and every transfer within the search bound
    (to 12 on an aperiodic walk, where the pruned search finds none)."""
    assert g.vertex_transitive
    per = walks.period(g)
    assert oracle.least_period(g, per or 12) == per
    rep = walks.find_pst(g, tau_max=12, sources=range(g.n))
    found = {(p.source, p.target, p.time, p.phase) for p in rep.pairs}
    assert found == _oracle_transfers(g, rep.bound if per else 12)


def test_oracle_imports_nothing_from_ringwalk():
    tree = ast.parse((ROOT / "tests" / "oracle.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported
                             if name.split(".")[0] == "ringwalk"]
    assert all(node.level == 0 for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom))


def test_package_has_no_assert_statement():
    """Checks must survive python -O, which strips assert statements."""
    for path in sorted((ROOT / "src" / "ringwalk").glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)
