"""Exact arithmetic on sums of quadratic irrationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringwalk.scalars import Surd, exact_str, sort_key


def test_square_factors_are_normalized():
    assert Surd.sqrt(4) == Surd(2)
    assert Surd.sqrt(12) == 2 * Surd.sqrt(3)
    assert Surd.sqrt(1) == Surd(1)
    assert Surd.sqrt(25).is_rational
    with pytest.raises(ValueError):
        Surd.sqrt(0)


def test_rational_detection_and_extraction():
    x = Surd.sqrt(5)
    assert not x.is_rational
    assert (x * x).is_rational
    assert (x * x).as_fraction() == 5
    with pytest.raises(ValueError):
        x.as_fraction()


def test_known_identities():
    phi = (1 + Surd.sqrt(5)) / 2
    assert phi * phi == phi + 1
    half_root2 = Surd.sqrt(2) / 2
    assert half_root2 * half_root2 == Fraction(1, 2)
    assert Surd.sqrt(5) * Surd.sqrt(13) == Surd.sqrt(65)
    assert Surd.sqrt(2) * Surd.sqrt(6) == 2 * Surd.sqrt(3)


def test_conjugates_are_the_galois_orbit():
    r2, r3 = Surd.sqrt(2), Surd.sqrt(3)
    x = 1 + r2 + r3
    assert x.conjugates() == (x, 1 - r2 + r3, 1 + r2 - r3, 1 - r2 - r3)
    assert set(Surd.sqrt(6).conjugates()) == {Surd.sqrt(6), -Surd.sqrt(6)}
    assert Surd(Fraction(1, 3)).conjugates() == (Surd(Fraction(1, 3)),)


def test_rendering():
    assert exact_str(Fraction(3, 4)) == "3/4"
    assert exact_str(Surd.sqrt(2) / 2) == "sqrt(2)/2"
    assert exact_str((1 + Surd.sqrt(5)) / 4) == "(1+sqrt(5))/4"
    assert exact_str((-1 - Surd.sqrt(5)) / 4) == "(-1-sqrt(5))/4"
    assert exact_str(Surd(0)) == "0"
    assert exact_str(Fraction(-2)) == "-2"


def test_sort_key_orders_descending():
    values = [Surd.sqrt(2) / 2, Fraction(0), Fraction(1),
              (1 - Surd.sqrt(5)) / 4, -Surd.sqrt(3) / 2]
    ordered = sorted(values, key=sort_key)
    floats = [float(v) for v in ordered]
    assert floats == sorted(floats, reverse=True)


def test_hash_consistency():
    a = Surd.sqrt(8)
    b = 2 * Surd.sqrt(2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Surd.sqrt(2)}) == 2
    # a rational Surd hashes as the number it equals
    for q in (0, 3, -2, Fraction(1, 3)):
        assert Surd(q) == q and hash(Surd(q)) == hash(q)
    assert {Surd(3): "x"}.get(3) == "x" and {Fraction(3): "x"}.get(Surd(3)) == "x"
    assert (Surd.sqrt(2) * Surd.sqrt(2)) in {2}


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_radicand = st.sampled_from([2, 3, 5, 13])


@st.composite
def surds(draw):
    value = Surd(draw(_coeff))
    for r in draw(st.lists(_radicand, max_size=2, unique=True)):
        value = value + draw(_coeff) * Surd.sqrt(r)
    return value


@given(surds(), surds(), surds())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(surds())
def test_additive_inverse(a):
    assert a - a == 0
    assert a + (-a) == Surd(0)


@given(surds(), _coeff)
def test_division_roundtrip(a, q):
    if q:
        assert (a / q) * q == a
        assert a / Surd(q) == a / q


def test_division_by_an_irrational_is_not_supported():
    for numerator in (Surd(1), 1, Fraction(1, 2)):
        with pytest.raises(TypeError):
            numerator / Surd.sqrt(2)


@given(surds(), surds())
def test_float_is_additive_and_multiplicative(a, b):
    assert abs(float(a + b) - (float(a) + float(b))) < 1e-9
    assert abs(float(a * b) - float(a) * float(b)) < 1e-6
