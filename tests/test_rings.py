"""Finite commutative ring catalog and connection sets."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ringwalk import errors, rings
from ringwalk.rings import (
    enumerate_rings,
    is_s_ring,
    make_ring,
    quadratic_connection,
    square_units,
    units,
)


def test_parse_and_canonical_tokens():
    assert make_ring("Z12").token == "Z3 x Z4"
    assert make_ring("Z4 x Z3").token == "Z3 x Z4"
    assert make_ring("GF(4) x Z3").token == "GF(4) x Z3"
    assert make_ring("G(2)").token == "G(2)"
    assert make_ring("Zp[2,3]").token == "Zp[2,3]"


def test_parse_rejects_garbage():
    for bad in ("", "Z0", "Z1", "Zx", "GF(6)", "G(4)", "Zp[4,2]", "Zp[2,0]",
                "K3", "Z4 y Z3"):
        with pytest.raises(ValueError):
            make_ring(bad)


def test_factor_normalization_orders_residues_descending():
    ring = make_ring("Z2 x Z9 x Z5")
    assert ring.residues == (5, 3, 2)
    ring = make_ring("Z4 x G(3)")
    assert [f.token for f in ring.factors] == ["G(3)", "Z4"]


def test_order_and_structure():
    ring = make_ring("Z12")
    assert ring.order == 12
    assert ring.unit_count() == 4
    assert ring.ideal_sizes == (1, 2)
    assert not ring.is_local
    assert make_ring("Z9").is_local
    assert make_ring("Z9").ideal_sizes == (3,)
    assert make_ring("GF(9)").ideal_sizes == (1,)


def test_crt_integer_labels_roundtrip():
    ring = make_ring("Z12")
    seen = set()
    for elt in ring.elements():
        n = ring.to_integer(elt)
        assert ring.from_integer(n) == elt
        seen.add(n)
    assert seen == set(range(12))
    assert str(ring.from_integer(7)) == "7"


def test_element_arithmetic():
    ring = make_ring("Z12")
    a = ring.from_integer(7)
    b = ring.from_integer(8)
    assert ring.to_integer(a + b) == 3
    assert ring.to_integer(a * b) == 8
    assert ring.to_integer(-a) == 5
    assert ring.to_integer(a * a) == 1
    assert a.is_unit() and not b.is_unit()


def test_units_of_z12():
    ring = make_ring("Z12")
    labels = sorted(ring.to_integer(u) for u in units(ring).elements)
    assert labels == [1, 5, 7, 11]


def test_units_of_truncated_polynomial_ring():
    ring = make_ring("G(2)")
    names = sorted(str(u) for u in units(ring).elements)
    assert names == ["a+b", "b"]
    assert ring.unit_count() == 2


def test_square_units_examples():
    gf9 = make_ring("GF(9)")
    assert len(square_units(gf9)) == 4
    z5 = make_ring("Z5")
    labels = sorted(z5.to_integer(u) for u in square_units(z5))
    assert labels == [1, 4]
    z8 = make_ring("Z8")
    assert len(square_units(z8)) == 1


def test_quadratic_connection_z9_is_all_units():
    ring = make_ring("Z9")
    assert set(quadratic_connection(ring).elements) == set(units(ring).elements)


def test_quadratic_connection_symmetry():
    for spec in ("Z5", "Z13", "GF(9)", "Z9", "Z5 x Z13"):
        ring = make_ring(spec)
        conn = set(quadratic_connection(ring).elements)
        assert all(-x in conn for x in conn)
        assert ring.zero() not in conn


def test_unit_connection_closed_under_negation():
    for spec in ("Z12", "G(2)", "GF(4) x Z3"):
        ring = make_ring(spec)
        conn = set(units(ring).elements)
        assert all(-x in conn for x in conn)


def test_s_ring_predicate():
    # The unit graph is connected exactly when no Z2 x Z2-like pair occurs.
    assert is_s_ring(make_ring("Z12"))
    assert is_s_ring(make_ring("Z2"))
    assert not is_s_ring(make_ring("Z2 x Z2"))
    assert not is_s_ring(make_ring("Z2 x Z4"))
    assert is_s_ring(make_ring("Z2 x Z3"))
    assert not is_s_ring(make_ring("G(2) x Z2"))
    assert is_s_ring(make_ring("GF(4) x Z2"))


def test_catalog_counts():
    assert len(enumerate_rings(6)) == 8
    assert len(enumerate_rings(16)) == 45
    assert len(enumerate_rings(36)) == 131


def test_catalog_has_no_duplicates_and_is_sorted():
    cat = enumerate_rings(16)
    tokens = [r.token for r in cat]
    assert len(set(tokens)) == len(tokens)
    orders = [r.order for r in cat]
    assert orders == sorted(orders)


def test_catalog_contains_expected_rings():
    tokens = {r.token for r in enumerate_rings(16)}
    for expected in ("Z2", "Z4", "G(2)", "GF(4)", "Z3 x Z4", "Z3 x G(2)",
                     "GF(4) x Z3", "Z13", "Zp[2,3]", "GF(16)"):
        assert expected in tokens


def test_catalog_cap():
    with pytest.raises(errors.SizeCapExceeded):
        enumerate_rings(50, cap=36)


def test_make_ring_cap_bounds_the_product():
    assert make_ring("Z6 x Z6", cap=36).order == 36
    for spec in ("Z6 x Z7", "Zp[2,6]", "G(7)", "GF(10000000000000000000000)"):
        with pytest.raises(errors.SizeCapExceeded):
            make_ring(spec, cap=36)
    with pytest.raises(ValueError):
        make_ring("Zp[1,5]", cap=36)
    assert make_ring("GF(128)").order == 128  # no cap without one


CAP = "SizeCapExceeded"


def _at_every_cap(outcome):
    return (outcome,) * 4


# spec, then its outcome at cap None, 1, 2 and 36: (token, order), CAP for
# SizeCapExceeded, or the message of the ValueError raised
_SPEC_OUTCOMES = [
    ("Z0", *_at_every_cap("Z0 is not a ring with identity of order >= 2")),
    ("Z1", *_at_every_cap("Z1 is not a ring with identity of order >= 2")),
    ("Z2", ("Z2", 2), CAP, ("Z2", 2), ("Z2", 2)),
    ("Z12", ("Z3 x Z4", 12), CAP, CAP, ("Z3 x Z4", 12)),
    ("Z36", ("Z9 x Z4", 36), CAP, CAP, ("Z9 x Z4", 36)),
    ("Z37", ("Z37", 37), CAP, CAP, CAP),
    ("GF(1)", *_at_every_cap("GF(1) needs a prime power")),
    ("GF(4)", ("GF(4)", 4), CAP, CAP, ("GF(4)", 4)),
    ("GF(6)", "GF(6) needs a prime power", CAP, CAP, "GF(6) needs a prime power"),
    ("GF(49)", ("GF(49)", 49), CAP, CAP, CAP),
    ("G(2)", ("G(2)", 4), CAP, CAP, ("G(2)", 4)),
    ("G(4)", "G(4) needs a prime", CAP, CAP, "G(4) needs a prime"),
    ("G(7)", ("G(7)", 49), CAP, CAP, CAP),
    ("Zp[2,0]", *_at_every_cap("Zp[p,k] needs k >= 1")),
    ("Zp[1,5]", *_at_every_cap("Zp[1,5] needs a prime")),
    ("Zp[4,2]", "Zp[4,2] needs a prime", CAP, CAP, "Zp[4,2] needs a prime"),
    ("Zp[3,1]", ("Z3", 3), CAP, CAP, ("Z3", 3)),
    ("Zp[2,6]", ("Zp[2,6]", 64), CAP, CAP, CAP),
    ("Zp[3,3]", ("Zp[3,3]", 27), CAP, CAP, ("Zp[3,3]", 27)),
    ("Z6 x Z7", ("Z7 x Z3 x Z2", 42), CAP, CAP, CAP),
    ("Z2 x GF(4)", ("GF(4) x Z2", 8), CAP, CAP, ("GF(4) x Z2", 8)),
    ("GF(10000000000000000000000)",
     "GF(10000000000000000000000) needs a prime power", CAP, CAP, CAP),
    ("G(10000000000000000000000)",
     "G(10000000000000000000000) needs a prime", CAP, CAP, CAP),
    ("Zp[2,100]", ("Zp[2,100]", 2 ** 100), CAP, CAP, CAP),
    ("Z2 x", "empty factor in ring spec 'Z2 x'", CAP,
     "empty factor in ring spec 'Z2 x'", "empty factor in ring spec 'Z2 x'"),
    ("Q5", *_at_every_cap("cannot parse ring factor 'Q5'")),
]


@pytest.mark.parametrize("spec, cap, expected", [
    (spec, cap, outcome) for spec, *outcomes in _SPEC_OUTCOMES
    for cap, outcome in zip((None, 1, 2, 36), outcomes)])
def test_make_ring_outcome_at_each_cap(spec, cap, expected):
    """Each factor is parsed once; the cap check and the build agree on
    every spelling, as the table records them."""
    if expected == CAP:
        with pytest.raises(errors.SizeCapExceeded) as raised:
            make_ring(spec, cap)
        assert str(raised.value) == f"ring {spec!r} exceeds the order cap {cap}"
    elif isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            make_ring(spec, cap)
        assert type(raised.value) is ValueError and str(raised.value) == expected
    else:
        ring = make_ring(spec, cap)
        assert (ring.token, ring.order) == expected


def _digits(code: int, moduli) -> tuple:
    """The mixed-radix digits of code, most significant first."""
    out = []
    for m in reversed(moduli):
        code, d = divmod(code, m)
        out.append(d)
    return tuple(out[::-1])


@pytest.mark.parametrize("spec, moduli", [
    ("Z12", (12,)), ("GF(8) x Z5", (2, 2, 2, 5)),
    ("Zp[2,3] x G(3)", (3, 3, 2, 2, 2)), ("Z2 x Z2", (2, 2)), ("Z27", (27,)),
    ("GF(9) x Zp[2,3]", (3, 3, 2, 2, 2))])
def test_additive_coordinates_are_a_group_isomorphism(spec, moduli):
    """The digits of the sort key, in `additive_moduli`, add digitwise."""
    ring = make_ring(spec)
    assert ring.additive_moduli == moduli
    assert all(0 <= x.sort_key() < math.prod(moduli) for x in ring.elements())
    coords = {x: _digits(x.sort_key(), moduli) for x in ring.elements()}
    assert len(set(coords.values())) == ring.order
    for x in ring.elements()[::3]:
        for y in ring.elements()[::2]:
            assert coords[x + y] == tuple(
                (a + b) % m for a, b, m in zip(coords[x], coords[y], moduli))


def test_sort_key_is_the_index_in_elements():
    rings_to_128 = enumerate_rings(128, cap=128)
    assert len(rings_to_128) == 630
    for ring in rings_to_128:
        assert [x.sort_key() for x in ring.elements()] == list(range(ring.order))


def test_galois_field_is_a_field():
    gf = make_ring("GF(8)")
    for x in gf.elements():
        if x != gf.zero():
            assert x.is_unit()
    assert gf.unit_count() == 7


def test_truncated_ring_nilpotents():
    ring = make_ring("G(3)")
    # One local factor; the maximal ideal squares to zero.
    zero = ring.zero()
    nonunits = [x for x in ring.elements() if not x.is_unit()]
    assert len(nonunits) == 3
    for x in nonunits:
        for y in nonunits:
            assert x * y == zero


_SPECS = ["Z4", "Z12", "G(2)", "GF(9)", "Z5 x Z13", "Z9", "GF(4) x Z3",
          "Zp[2,3]", "Zp[3,3]", "GF(8)", "Z27", "Z2 x Z2 x Z2"]
_specs = st.sampled_from(_SPECS)


@pytest.mark.parametrize("spec", _SPECS)
def test_residue_is_a_homomorphism_onto_the_residue_field(spec):
    for f in make_ring(spec).factors:
        field = f.residue_field()
        elts = list(f.elements())
        res = {x: f.residue(x) for x in elts}
        assert set(res.values()) == set(field.elements())
        assert res[f.zero] == field.zero and res[f.one] == field.one
        for x in elts:
            assert f.is_unit(x) == (res[x] != field.zero)
            for y in elts:
                assert res[f.add(x, y)] == field.add(res[x], res[y])
                assert res[f.mul(x, y)] == field.mul(res[x], res[y])


@given(_specs, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
@settings(max_examples=80)
def test_ring_axioms(spec, i, j, k):
    ring = make_ring(spec)
    elts = ring.elements()
    a, b, c = elts[i % len(elts)], elts[j % len(elts)], elts[k % len(elts)]
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero() == a
    assert a * ring.one() == a
    assert a - a == ring.zero()


@given(_specs)
def test_units_form_a_group(spec):
    ring = make_ring(spec)
    group = set(units(ring).elements)
    assert ring.one() in group
    for a in group:
        assert any(a * b == ring.one() for b in group)
