import networkx as nx
import pytest

from ringwalk import intpoly, verify, walks
from ringwalk.graphs import Graph


@pytest.fixture(scope="session")
def unitary_sweep_16():
    """Every catalog ring of order <= 16 against the unitary-family checks."""
    return verify.sweep(16, "unitary")


@pytest.fixture(scope="session")
def quadratic_sweep_16():
    """Every catalog ring of order <= 16 against the quadratic-family checks."""
    return verify.sweep(16, "quadratic")


@pytest.fixture
def random_regular_graphs():
    """50 connected random regular graphs on 4..12 vertices of degree 2..5,
    the same ones on every call, built afresh so no walk state is shared."""
    shapes = [(n, d) for n in range(4, 13) for d in range(2, 6)
              if d < n and n * d % 2 == 0]
    out = []
    seed = 0
    while len(out) < 50:
        n, d = shapes[len(out) % len(shapes)]
        seed += 1
        base = nx.random_regular_graph(d, n, seed=seed)
        if nx.is_connected(base):
            out.append(Graph(n, list(base.edges())))
    return out


@pytest.fixture
def search_horizons(monkeypatch):
    """Horizons of the real brute-force searches (memo misses) in a test."""
    horizons = []
    real = walks._search_period

    def counted(ar, tau_max):
        horizons.append(tau_max)
        return real(ar, tau_max)

    monkeypatch.setattr(walks, "_search_period", counted)
    return horizons


@pytest.fixture
def charpoly_sizes(monkeypatch):
    """Size of every characteristic polynomial computed in a test.

    Counts both routes: the matrix size of each intpoly.charpoly call and
    the vertex count of each intpoly.cayley_factors call.
    """
    sizes = []
    dense, cayley = intpoly.charpoly, intpoly.cayley_factors

    def counted_dense(mat):
        sizes.append(len(mat))
        return dense(mat)

    def counted_cayley(moduli, connection, n):
        sizes.append(n)
        return cayley(moduli, connection, n)

    monkeypatch.setattr(intpoly, "charpoly", counted_dense)
    monkeypatch.setattr(intpoly, "cayley_factors", counted_cayley)
    return sizes
