"""Integer polynomial helpers and characteristic polynomials."""

import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracle
from ringwalk import errors, intpoly, verify
from ringwalk.graphs import quadratic_unitary_cayley_graph
from ringwalk.rings import make_ring


def test_arithmetic_basics():
    p = (1, 2)        # 1 + 2x
    q = (-1, 0, 1)    # x^2 - 1
    assert intpoly.add(p, q) == (0, 2, 1)
    assert intpoly.sub(q, q) == ()
    assert intpoly.mul(p, q) == (-1, -2, 1, 2)
    assert intpoly.degree(q) == 2
    assert intpoly.evaluate(q, 3) == 8
    assert intpoly.scale(p, -3) == (-3, -6)


def test_division_by_monic():
    p = (-1, -2, 1, 2)
    quot, rem = intpoly.divmod_monic(p, (-1, 0, 1))
    assert quot == (1, 2)
    assert rem == ()
    assert intpoly.try_divide(p, (-1, 0, 1)) == (1, 2)
    assert intpoly.try_divide((1, 1), (-1, 0, 1)) is None


def test_poly_str():
    assert intpoly.poly_str((-3, 0, 1)) == "x^2-3"
    assert intpoly.poly_str((0, 1)) == "x"
    assert intpoly.poly_str(()) == "0"
    assert intpoly.poly_str((2,)) == "2"
    assert intpoly.poly_str((-1, 1, 1), "y") == "y^2+y-1"


def test_cyclotomic_matches_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 31):
        ours = sympy.Poly(list(reversed(intpoly.cyclotomic(n))), x)
        assert ours == sympy.Poly(sympy.cyclotomic_poly(n, x), x)


def test_two_cos_minimal_polys():
    # Minimal polynomials of 2*cos(2*pi/n), low-order coefficient first.
    assert intpoly.two_cos_minimal_poly(1) == (-2, 1)
    assert intpoly.two_cos_minimal_poly(2) == (2, 1)
    assert intpoly.two_cos_minimal_poly(3) == (1, 1)
    assert intpoly.two_cos_minimal_poly(4) == (0, 1)
    assert intpoly.two_cos_minimal_poly(5) == (-1, 1, 1)
    assert intpoly.two_cos_minimal_poly(6) == (-1, 1)
    assert intpoly.two_cos_minimal_poly(7) == (-1, -2, 1, 1)
    assert intpoly.two_cos_minimal_poly(8) == (-2, 0, 1)
    assert intpoly.two_cos_minimal_poly(12) == (-3, 0, 1)


def test_two_cos_root_numerically():
    import math
    for n in range(1, 40):
        p = intpoly.two_cos_minimal_poly(n)
        x = 2 * math.cos(2 * math.pi / n)
        value = sum(c * x ** i for i, c in enumerate(p))
        assert abs(value) < 1e-8


def test_euler_phi_matches_sympy():
    for n in range(1, 200):
        assert intpoly.euler_phi(n) == sympy.totient(n)
        assert intpoly.factorize(n) == sorted(sympy.factorint(n).items())


def test_charpoly_known_matrices():
    assert intpoly.charpoly(((0, 1), (1, 0))) == (-1, 0, 1)
    assert intpoly.charpoly(((2,),)) == (-2, 1)
    # 3-cycle adjacency: x^3 - 3x - 2.
    c3 = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert intpoly.charpoly(c3) == (-2, -3, 0, 1)


def test_charpoly_routes_agree_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 7)
        mat = tuple(tuple(rng.randrange(-9, 10) for _ in range(n))
                    for _ in range(n))
        assert intpoly.charpoly(mat) == oracle.charpoly(mat)


def test_charpoly_matches_sympy_on_larger_matrix():
    rng = random.Random(19)
    n = 9
    mat = tuple(tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(n))
    ours = intpoly.charpoly(mat)
    expected = sympy.Matrix(mat).charpoly().all_coeffs()
    assert list(reversed(ours)) == [int(c) for c in expected]


_small = st.integers(min_value=-6, max_value=6)
_polys = st.lists(_small, max_size=5).map(tuple)


@given(_polys, _polys, _polys)
@settings(max_examples=60)
def test_poly_ring_axioms(p, q, r):
    assert intpoly.add(p, q) == intpoly.add(q, p)
    assert intpoly.mul(p, q) == intpoly.mul(q, p)
    assert intpoly.mul(p, intpoly.add(q, r)) == intpoly.add(
        intpoly.mul(p, q), intpoly.mul(p, r))


@given(_polys, _polys)
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(p, q):
    at = 3
    assert intpoly.evaluate(intpoly.mul(p, q), at) == (
        intpoly.evaluate(p, at) * intpoly.evaluate(q, at))


_square_matrices = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(st.integers(-40, 40), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(_square_matrices)
@settings(max_examples=60, deadline=None)
def test_charpoly_matches_reference_on_random_matrices(mat):
    assert intpoly.charpoly(mat) == oracle.charpoly(mat)


@given(st.integers(1, 12), st.integers(-10 ** 6, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_charpoly_of_scalar_matrix(n, c):
    # (x - c)^n: the coefficient bound (1 + |c|)^n is nearly tight here.
    mat = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    expected = tuple(math.comb(n, i) * (-c) ** (n - i) for i in range(n + 1))
    assert intpoly.charpoly(mat) == expected == oracle.charpoly(mat)


def test_charpoly_edge_cases():
    for n in range(1, 6):
        assert intpoly.charpoly([[0] * n for _ in range(n)]) == (0,) * n + (1,)
    assert intpoly.charpoly([[-7]]) == (7, 1)
    assert intpoly.charpoly([[0, 1], [0, 0]]) == (0, 0, 1)  # nilpotent
    assert intpoly.charpoly([[1, 2], [3, 4]]) == (-2, -5, 1)


def test_frobenius_bound_folds_few_primes(monkeypatch):
    """The 50-regular Z101 quadratic graph: 6 primes, not the 10 the
    row-sum bound 2(1+50)^101 needs; the result is still exact."""
    ring = make_ring("Z101")
    g = quadratic_unitary_cayley_graph(ring)
    passes = []
    real = intpoly._charpoly_mod

    def counted(mat, p):
        passes.append(p)
        return real(mat, p)

    monkeypatch.setattr(intpoly, "_charpoly_mod", counted)
    computed = intpoly.charpoly(g.adjacency_matrix())
    assert len(passes) <= 6
    assert computed == verify.predicted_quadratic_spectrum(ring).charpoly()


@st.composite
def _cayley_graphs(draw):
    """Random moduli (1-3 of them, 2..9) and a symmetric zero-free S."""
    moduli = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)
                        .filter(lambda ms: math.prod(ms) <= 40)))
    group = list(itertools.product(*(range(m) for m in moduli)))
    picked = draw(st.sets(st.sampled_from(group[1:])))
    neg = lambda a: tuple(-x % m for x, m in zip(a, moduli))
    return moduli, group, sorted(picked | {neg(a) for a in picked})


@given(_cayley_graphs())
@settings(max_examples=60, deadline=None)
def test_cayley_charpoly_matches_dense_route(case):
    """The orbit factors multiply out to the dense charpoly, and each is a
    power of a single irreducible of degree at most phi(e)."""
    moduli, group, conn = case
    members = set(conn)
    adj = [[int(tuple((b - a) % m for a, b, m in zip(u, v, moduli)) in members)
            for v in group] for u in group]
    factors = intpoly.cayley_factors(moduli, conn, len(group))
    assert intpoly.expand(factors) == intpoly.charpoly(adj)
    x = sympy.Symbol("x")
    phi = intpoly.euler_phi(math.lcm(*moduli))
    for p, mult in factors:
        assert mult >= 1 and 1 <= len(p) - 1 <= phi
        irreducibles = sympy.Poly(p[::-1], x).factor_list()[1]
        assert len(irreducibles) == 1, (p, irreducibles)


def test_cayley_charpoly_counts_components():
    # S = {2, 6} in Z8 generates {0, 2, 4, 6}: C4 has charpoly x^4 - 4x^2,
    # and the 8-vertex graph is two copies of it
    c4 = {(-2, 1): 1, (2, 1): 1, (0, 1): 2}
    assert dict(intpoly.cayley_factors((8,), [(2,), (6,)], 4)) == c4
    assert dict(intpoly.cayley_factors((8,), [(2,), (6,)], 8)) == {
        p: 2 * m for p, m in c4.items()}
    assert intpoly.expand(c4.items()) == (0, 0, -4, 0, 1)
    with pytest.raises(errors.InconsistencyError):
        intpoly.cayley_factors((8,), [(2,), (6,)], 6)


def test_cayley_factors_follow_galois_orbits():
    """C7: the characters 1..6 make three multisets {a, -a}, one orbit
    under z -> z^j, whose factor is the cubic for 2 cos(2 pi/7), twice."""
    factors = intpoly.cayley_factors((7,), [(1,), (6,)], 7)
    assert dict(factors) == {(-2, 1): 1, intpoly.two_cos_minimal_poly(7): 2}


def test_unit_generators_generate_the_units():
    for e in range(1, 130):
        units = {j for j in range(e) if math.gcd(j, e) == 1} or {0}
        reached, frontier = {1 % e}, [1 % e]
        while frontier:
            h = frontier.pop()
            for j in intpoly._unit_generators(e):
                if j * h % e not in reached:
                    reached.add(j * h % e)
                    frontier.append(j * h % e)
        assert reached == units, e


def test_prime_pools_per_modulus():
    # e = 1 keeps the odd primes below 2^62, largest first
    top = (1 << 62) - 1
    odd = [q for q in range(top, top - 400, -2) if sympy.isprime(q)][:3]
    assert intpoly._primes_with_product_above(top ** 2, 1) == odd
    primes = intpoly._primes_with_product_above(1 << 300, 12)
    assert primes == sorted(primes, reverse=True) and primes[0] < 1 << 62
    assert all(q % 24 == 1 and sympy.isprime(q) for q in primes)
