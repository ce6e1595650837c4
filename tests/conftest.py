import pytest

from ringwalk import intpoly, verify, walks


@pytest.fixture(scope="session")
def unitary_sweep_16():
    """Every catalog ring of order <= 16 against the unitary-family checks."""
    return verify.sweep(16, "unitary")


@pytest.fixture(scope="session")
def quadratic_sweep_16():
    """Every catalog ring of order <= 16 against the quadratic-family checks."""
    return verify.sweep(16, "quadratic")


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
    """Matrix size of every intpoly.charpoly call in a test."""
    sizes = []
    real = intpoly.charpoly

    def counted(mat):
        sizes.append(len(mat))
        return real(mat)

    monkeypatch.setattr(intpoly, "charpoly", counted)
    return sizes
