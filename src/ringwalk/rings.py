"""Finite commutative rings with identity, given as products of local rings.

Every ring here is a product ``R = R_1 x ... x R_s`` of local factors drawn
from three families, each a quotient (Z/b)[x]/(f) with f monic of degree d:

* ``ResidueRing(p, k)``       -- Z_{p^k}, integers modulo a prime power
  (b = p^k, f = x);
* ``TruncatedPolynomialRing(p, k)`` -- Z_p[x]/(x^k), k >= 2 (b = p,
  f = x^k); for k = 2 this is the nilpotent-extension ring with elements
  written ``c*a + d*b`` where a = x (a^2 = 0) and b = 1 is the unity;
* ``GaloisField(p, n)``       -- F_{p^n} (b = p, f the smallest monic
  irreducible modulus, coefficients compared from the leading power down).

All three share one implementation and one element format: a tuple of the
d coefficients mod b, low degree first, so an element of Z_{p^k} is a
1-tuple.  An element's integer sort key is its index in `elements()`, and
its digits are the additive coordinates that Cayley graphs are built on.

Products are kept in a canonical order (residue field size descending, then
factor order descending, then token), and a ring spelled ``Z12`` is
factored into ``Z3 x Z4`` on construction, so equal rings always have equal
canonical forms.  Elements are tuples of per-factor coefficient tuples;
rings whose factors are Z_{p^k} with distinct p display elements as the
CRT integer.

The spec string grammar:  ``SPEC := FACTOR (" x " FACTOR)*`` with
``FACTOR := Z<n> | GF(<prime power>) | G(<prime>) | Zp[<prime>,<k>]``.
"""

from __future__ import annotations

import itertools
import re

from .errors import InconsistencyError, SizeCapExceeded
from .intpoly import factorize

DEFAULT_ORDER_CAP = 36

__all__ = [
    "DEFAULT_ORDER_CAP", "ProductRing", "RingElement", "ConnectionSet",
    "ResidueRing", "TruncatedPolynomialRing", "GaloisField", "make_ring",
    "enumerate_rings", "units", "square_units", "quadratic_connection",
    "is_s_ring", "local_catalog",
]


def _is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def _prime_power(n: int) -> tuple[int, int] | None:
    f = factorize(n)
    return f[0] if len(f) == 1 else None


# -- polynomial helpers over Z/b (dense lists, constant first) -------------

def _pmul_mod(a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return out


def _prem_mod(a, mod, m):
    """Remainder of a modulo the monic polynomial mod, over Z/m."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % m
    return a[:dm]


def _monic_polys(deg, p):
    for tail in itertools.product(range(p), repeat=deg):
        yield list(tail) + [1]


def _is_irreducible(poly, p) -> bool:
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for g in _monic_polys(d, p):
            r = _prem_mod(poly, g, p)
            if not any(r):
                return False
    return True


def _poly_elt_str(coeffs, var: str) -> str:
    if not any(coeffs):
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            body = str(c)
        else:
            xp = var if i == 1 else f"{var}^{i}"
            body = xp if c == 1 else f"{c}{xp}"
        parts.append(body)
    return "+".join(parts)


# -- local factors ---------------------------------------------------------

class _LocalRing:
    """(Z/b)[x]/(f) for a monic f of degree d, the body of every local factor.

    Elements are coefficient tuples of length d, low degree first, so
    (R, +) is (Z_b)^d coordinate by coordinate.  The families differ only
    in b, f and the size of the maximal ideal, which `is_unit` needs:
    an element of a field is a unit when it is non-zero, otherwise when
    its constant term is a unit mod p.
    """

    def __init__(self, p: int, b: int, f, ideal_size: int):
        self.p, self.b, self.f = p, b, tuple(f)
        d = len(self.f) - 1
        self.order = b ** d
        self.ideal_size = ideal_size
        self.residue_size = self.order // ideal_size
        self.moduli = (b,) * d
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)

    def elements(self):
        return (t[::-1] for t in
                itertools.product(range(self.b), repeat=len(self.moduli)))

    def add(self, x, y):
        return tuple([(a + c) % self.b for a, c in zip(x, y)])

    def neg(self, x):
        return tuple([-a % self.b for a in x])

    def mul(self, x, y):
        return tuple(_prem_mod(_pmul_mod(x, y, self.b), self.f, self.b))

    def is_unit(self, x) -> bool:
        return any(x) if self.ideal_size == 1 else x[0] % self.p != 0

    def sort_key(self, x):
        return sum(c * self.b ** i for i, c in enumerate(x))

    def residue_field(self):
        return self if self.ideal_size == 1 else ResidueRing(self.p, 1)

    def residue(self, x):
        """The image of x in `residue_field()`: x itself in a field, else
        its constant term mod p."""
        return x if self.ideal_size == 1 else (x[0] % self.p,)

    def __repr__(self):
        return self.token


class ResidueRing(_LocalRing):
    """Z_{p^k}: b = p^k, f = x.  Elements are 1-tuples (c,), 0 <= c < p^k."""

    kind = "Z"

    def __init__(self, p: int, k: int):
        if not _is_prime(p) or k < 1:
            raise ValueError(f"Z_(p^k) needs a prime p and k >= 1, got {p}^{k}")
        self.k = k
        super().__init__(p, p ** k, (0, 1), p ** (k - 1))
        self.token = f"Z{self.order}"
        self.signature = ("Z", p, k)

    def elt_str(self, x) -> str:
        return str(x[0])


class TruncatedPolynomialRing(_LocalRing):
    """Z_p[x]/(x^k) for k >= 2: b = p, f = x^k.

    The k = 2 case prints elements in the a/b presentation: a = x is the
    nilpotent generator, b = 1 the unity, so the units of G(2) are b, a+b.
    """

    kind = "P"

    def __init__(self, p: int, k: int):
        if not _is_prime(p) or k < 2:
            raise ValueError(f"Z_p[x]/(x^k) needs a prime p and k >= 2, got {p},{k}")
        self.k = k
        super().__init__(p, p, (0,) * k + (1,), p ** (k - 1))
        self.token = f"G({p})" if k == 2 else f"Zp[{p},{k}]"
        self.signature = ("P", p, k)

    def elt_str(self, x) -> str:
        if self.k == 2:
            b, a = x
            if not a and not b:
                return "0"
            parts = []
            if a:
                parts.append("a" if a == 1 else f"{a}a")
            if b:
                parts.append("b" if b == 1 else f"{b}b")
            return "+".join(parts)
        return _poly_elt_str(x, "x")


class GaloisField(_LocalRing):
    """F_{p^n}, n >= 2: b = p, f the irreducible modulus, in t."""

    kind = "GF"

    def __init__(self, p: int, n: int):
        if not _is_prime(p) or n < 2:
            raise ValueError(f"GF needs a prime p and n >= 2, got {p}^{n}")
        self.n = n
        self.modulus = tuple(self._smallest_irreducible(p, n))
        super().__init__(p, p, self.modulus, 1)
        self.token = f"GF({self.order})"
        self.signature = ("GF", p, n, self.modulus)

    @staticmethod
    def _smallest_irreducible(p, n):
        for val in range(p ** n):
            cand = [(val // p ** i) % p for i in range(n)] + [1]
            if _is_irreducible(cand, p):
                return cand
        raise InconsistencyError(f"no irreducible polynomial of degree {n} "
                                 f"over Z_{p}")

    def elt_str(self, x) -> str:
        return _poly_elt_str(x, "t")


def _factor_sort_key(f):
    return (-f.residue_size, -f.order, f.token)


# -- product rings ---------------------------------------------------------

class RingElement:
    """An element of a ProductRing: a tuple of per-factor coefficient tuples."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: "ProductRing", comps: tuple):
        self.ring = ring
        self.comps = comps

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring.signature != self.ring.signature:
            raise ValueError("elements belong to different rings")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, tuple(
            f.add(a, b) for f, a, b in zip(self.ring.factors, self.comps, other.comps)))

    def __neg__(self):
        return RingElement(self.ring, tuple(
            f.neg(a) for f, a in zip(self.ring.factors, self.comps)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, tuple(
            f.mul(a, b) for f, a, b in zip(self.ring.factors, self.comps, other.comps)))

    def is_unit(self) -> bool:
        return all(f.is_unit(a) for f, a in zip(self.ring.factors, self.comps))

    def sort_key(self) -> int:
        if self.ring.crt_display:
            return self.ring.to_integer(self)
        key = 0
        for f, a in zip(self.ring.factors, self.comps):
            key = key * f.order + f.sort_key(a)
        return key

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.ring.signature == other.ring.signature
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.ring.signature, self.comps))

    def __lt__(self, other):
        self._check(other)
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if self.ring.crt_display:
            return str(self.ring.to_integer(self))
        parts = [f.elt_str(a) for f, a in zip(self.ring.factors, self.comps)]
        if len(parts) == 1:
            return parts[0]
        return "(" + ", ".join(parts) + ")"

    def __repr__(self):
        return f"<{self} in {self.ring.token}>"


class ProductRing:
    """A finite commutative ring with identity in canonical product form."""

    def __init__(self, factors):
        factors = sorted(factors, key=_factor_sort_key)
        if not factors:
            raise ValueError("a ring needs at least one local factor")
        self.factors = tuple(factors)
        self.signature = tuple(f.signature for f in self.factors)
        self.token = " x ".join(f.token for f in self.factors)
        self.order = 1
        for f in self.factors:
            self.order *= f.order
        self.residues = tuple(f.residue_size for f in self.factors)
        self.ideal_sizes = tuple(f.ideal_size for f in self.factors)
        # CRT integer labels need pairwise coprime Z_{p^k} factors
        primes = [f.p for f in self.factors]
        self.crt_display = (all(f.kind == "Z" for f in self.factors)
                            and len(set(primes)) == len(primes))
        # (R, +) is the product of the Z_m over these, one per digit of
        # the sort key (Z_n itself under CRT labels)
        self.additive_moduli = ((self.order,) if self.crt_display else
                                tuple(m for f in self.factors for m in f.moduli))
        self._elements = None
        self._units = None

    # -- structure ---------------------------------------------------------

    @property
    def is_local(self) -> bool:
        return len(self.factors) == 1

    def unit_count(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order - f.ideal_size
        return out

    def residue_ring(self) -> "ProductRing":
        return ProductRing([f.residue_field() for f in self.factors])

    # -- elements ----------------------------------------------------------

    def element(self, comps) -> RingElement:
        return RingElement(self, tuple(comps))

    def zero(self) -> RingElement:
        return self.element(f.zero for f in self.factors)

    def one(self) -> RingElement:
        return self.element(f.one for f in self.factors)

    def elements(self) -> tuple:
        if self._elements is None:
            elts = [self.element(c) for c in
                    itertools.product(*(f.elements() for f in self.factors))]
            elts.sort(key=RingElement.sort_key)
            self._elements = tuple(elts)
        return self._elements

    def units_list(self) -> tuple:
        if self._units is None:
            self._units = tuple(e for e in self.elements() if e.is_unit())
        return self._units

    def to_integer(self, elt: RingElement) -> int:
        """CRT integer label; defined when factors are coprime Z_{p^k}."""
        if not self.crt_display:
            raise ValueError("no CRT integer labels for this ring")
        x, mod = 0, 1
        for f, c in zip(self.factors, elt.comps):
            # solve x' = x (mod mod), x' = c[0] (mod f.order)
            t = (c[0] - x) * pow(mod, -1, f.order) % f.order
            x += mod * t
            mod *= f.order
        return x

    def from_integer(self, n: int) -> RingElement:
        if not self.crt_display:
            raise ValueError("no CRT integer labels for this ring")
        return self.element((n % f.order,) for f in self.factors)

    def __eq__(self, other):
        return isinstance(other, ProductRing) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def __repr__(self):
        return f"ProductRing({self.token})"


# -- connection sets -------------------------------------------------------

class ConnectionSet:
    """A symmetric, zero-free subset of a ring, used to build Cayley graphs."""

    def __init__(self, ring: ProductRing, label: str, elements):
        elements = sorted(elements, key=RingElement.sort_key)
        self.ring = ring
        self.label = label
        self.elements = tuple(elements)
        self._comps = frozenset(e.comps for e in elements)
        zero = ring.zero()
        if zero.comps in self._comps:
            raise ValueError("connection set contains zero")
        for e in self.elements:
            if (-e).comps not in self._comps:
                raise ValueError(f"connection set is not symmetric at {e}")

    def __contains__(self, elt: RingElement) -> bool:
        return elt.comps in self._comps

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"ConnectionSet({self.ring.token}, {self.label}, size {len(self)})"


def units(ring: ProductRing) -> ConnectionSet:
    """The unit group R^x as a connection set (units come in +/- pairs)."""
    return ConnectionSet(ring, "units", ring.units_list())


def square_units(ring: ProductRing) -> tuple:
    """Q_R: the squares of the units, sorted."""
    out = {u * u for u in ring.units_list()}
    return tuple(sorted(out, key=RingElement.sort_key))


def quadratic_connection(ring: ProductRing) -> ConnectionSet:
    """T_R = Q_R union -Q_R, the symmetrized square-units connection set."""
    q = square_units(ring)
    sym = {e for e in q} | {-e for e in q}
    return ConnectionSet(ring, "quadratic-units", sym)


def is_s_ring(ring: ProductRing) -> bool:
    """True iff at most one local factor has residue field of size 2.

    Equivalent to the unitary Cayley graph being connected (cross-checked
    in the test suite).
    """
    return sum(1 for q in ring.residues if q == 2) <= 1


# -- construction ----------------------------------------------------------

_FACTOR_RE = re.compile(
    r"^(?:Z(?P<Z>\d+)|GF\((?P<GF>\d+)\)|G\((?P<G>\d+)\)|Zp\[(?P<p>\d+),(?P<Zp>\d+)\])$")


def _parse_factor(part: str) -> tuple:
    """(kind, base, exponent) of one factor: its order is base ** exponent."""
    m = _FACTOR_RE.match(part)
    if not m:
        raise ValueError(f"cannot parse ring factor {part!r}")
    kind = m.lastgroup  # the last group matched names the factor's kind
    if kind == "Zp":
        return kind, int(m["p"]), int(m["Zp"])
    return kind, int(m[kind]), 2 if kind == "G" else 1


def _build_factor(kind: str, base: int, exponent: int) -> list:
    if kind == "Z":
        if base < 2:
            raise ValueError(f"Z{base} is not a ring with identity of order >= 2")
        return [ResidueRing(p, k) for p, k in factorize(base)]
    if kind == "GF":
        pw = _prime_power(base)
        if pw is None:
            raise ValueError(f"GF({base}) needs a prime power")
        p, n = pw
        return [ResidueRing(p, 1) if n == 1 else GaloisField(p, n)]
    if not _is_prime(base):
        name = f"G({base})" if kind == "G" else f"Zp[{base},{exponent}]"
        raise ValueError(f"{name} needs a prime")
    if exponent < 1:
        raise ValueError("Zp[p,k] needs k >= 1")
    return [ResidueRing(base, 1) if exponent == 1
            else TruncatedPolynomialRing(base, exponent)]


def make_ring(spec: str, cap: int | None = None) -> ProductRing:
    """Build a ring from its spec string, e.g. "Z12", "GF(4) x Z3", "G(2)".

    With a cap, a spec whose order exceeds it raises SizeCapExceeded; each
    factor's order is checked before that factor is factored or tested for
    primality, and without powers past the cap: a base >= 2 raised past
    cap.bit_length() (at least 1, so Z0 stays 0) already exceeds it.
    Without a cap, any order is built.
    """
    factors = []
    order = 1
    for part in spec.split("x"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty factor in ring spec {spec!r}")
        kind, base, exponent = _parse_factor(part)
        if cap is not None:
            order *= min(base ** min(exponent, cap.bit_length() or 1), cap + 1)
            if order > cap:
                raise SizeCapExceeded(f"ring {spec!r} exceeds the order cap {cap}")
        factors.extend(_build_factor(kind, base, exponent))
    return ProductRing(factors)


def local_catalog(order: int) -> list:
    """The catalog of local rings of a given prime-power order."""
    pw = _prime_power(order)
    if pw is None:
        return []
    p, k = pw
    if k == 1:
        return [ResidueRing(p, 1)]
    return [ResidueRing(p, k), TruncatedPolynomialRing(p, k), GaloisField(p, k)]


def enumerate_rings(max_order: int, cap: int | None = None) -> list[ProductRing]:
    """All rings in the catalog with order in [2, max_order], sorted.

    Rings are products of catalog local factors; CRT-equal spellings appear
    once.  Sorted by (order, canonical token).
    """
    if cap is None:
        cap = DEFAULT_ORDER_CAP
    if max_order > cap:
        raise SizeCapExceeded(f"max_order {max_order} exceeds cap {cap}")
    pools = []
    for n in range(2, max_order + 1):
        for f in local_catalog(n):
            pools.append(f)
    pools.sort(key=lambda f: (f.order, f.token))
    found = {}

    def extend(start: int, chosen: list, order: int):
        if chosen:
            ring = ProductRing(list(chosen))
            found.setdefault(ring.signature, ring)
        for i in range(start, len(pools)):
            f = pools[i]
            if order * f.order > max_order:
                continue
            chosen.append(f)
            extend(i, chosen, order * f.order)
            chosen.pop()

    extend(0, [], 1)
    return sorted(found.values(), key=lambda r: (r.order, r.token))
