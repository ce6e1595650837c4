"""Exact arithmetic in real multiquadratic extensions of the rationals.

A :class:`Surd` is a finite sum ``q0 + q1*sqrt(d1) + q2*sqrt(d2) + ...``
with rational coefficients and pairwise distinct squarefree radicands
``di > 1``.  Radicands are stored as frozensets of their prime factors, so
``sqrt(12)`` normalises to ``2*sqrt(3)`` and products reduce by cancelling
repeated primes (symmetric difference of the prime sets).  Every value has a
unique normal form: zero coefficients are dropped, and a Surd with no radical
terms is interchangeable with a plain :class:`~fractions.Fraction`.

This is all the field arithmetic the walk machinery needs: eigenvalues of
the graphs under study are rational or quadratic, and the closed-form
spectra of product rings live in multiquadratic fields.  Division is by
rationals only, which is all the classifier needs ((t +- sqrt(d))/2 and
lambda/k); dividing by an irrational Surd is not supported.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod, sqrt
from typing import Union

from .intpoly import factorize

Rational = Union[int, Fraction]

_RAT = frozenset()  # key of the rational term


def _factor_squarefree(n: int) -> tuple[int, frozenset[int]]:
    """Write n > 0 as f*f*d with d squarefree; return (f, primes of d)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    pairs = factorize(n)
    return (prod(p ** (e // 2) for p, e in pairs),
            frozenset(p for p, e in pairs if e % 2))


class Surd:
    """Immutable exact value in a real multiquadratic field."""

    __slots__ = ("_terms",)

    def __init__(self, value: Rational = 0, _terms: dict | None = None):
        if _terms is not None:
            self._terms = {k: v for k, v in _terms.items() if v}
        else:
            self._terms = {}
            q = Fraction(value)
            if q:
                self._terms[_RAT] = q

    @classmethod
    def sqrt(cls, n: int) -> "Surd":
        """Exact square root of a positive integer."""
        f, primes = _factor_squarefree(n)
        if not primes:
            return cls(f)
        return cls(_terms={primes: Fraction(f)})

    # -- inspection --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(k == _RAT for k in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self._terms.get(_RAT, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Surd | None":
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for k, v in o._terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return Surd(_terms=terms)

    __radd__ = __add__

    def __neg__(self):
        return Surd(_terms={k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for ka, va in self._terms.items():
            for kb, vb in o._terms.items():
                key = ka ^ kb
                coeff = va * vb * prod(ka & kb)
                terms[key] = terms.get(key, Fraction(0)) + coeff
        return Surd(_terms=terms)

    __rmul__ = __mul__

    def _conjugate(self, p: int) -> "Surd":
        # flip the sign of sqrt(p)
        return Surd(_terms={k: (-v if p in k else v) for k, v in self._terms.items()})

    def conjugates(self) -> tuple:
        """The Galois orbit: every value reached by flipping the signs of
        the square roots in self, self first.  The product of x minus each
        conjugate is the minimal polynomial over the rationals."""
        orbit = [self]
        for p in sorted(set().union(*self._terms)):
            orbit += [x._conjugate(p) for x in orbit]
        return tuple(dict.fromkeys(orbit))

    def __truediv__(self, other):
        """Division by a rational; an irrational divisor is not supported."""
        o = self._coerce(other)
        if o is None or not o.is_rational:
            return NotImplemented
        q = o.as_fraction()
        return Surd(_terms={k: v / q for k, v in self._terms.items()})

    # -- comparison / hashing ---------------------------------------------

    def _key(self):
        return tuple(sorted((tuple(sorted(k)), v) for k, v in self._terms.items()))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a rational Surd equals, so must hash as, the Fraction it is
        return hash(self.as_fraction() if self.is_rational else self._key())

    def __bool__(self):
        return bool(self._terms)

    def __float__(self):
        return float(sum(v * sqrt(prod(k)) for k, v in self._terms.items()))

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        # common denominator, terms ordered: rational part, then radicands
        keys = sorted(self._terms, key=prod)
        den = 1
        for v in self._terms.values():
            den = den * v.denominator // gcd(den, v.denominator)
        parts = []
        for k in keys:
            v = self._terms[k]
            c = v.numerator * (den // v.denominator)
            if k == _RAT:
                parts.append((c, None))
            else:
                parts.append((c, prod(k)))
        out = ""
        for i, (c, rad) in enumerate(parts):
            sign = "-" if c < 0 else ("+" if i else "")
            mag = abs(c)
            if rad is None:
                body = str(mag)
            elif mag == 1:
                body = f"sqrt({rad})"
            else:
                body = f"{mag}*sqrt({rad})"
            out += sign + body
        if den == 1:
            return out
        if len(parts) > 1:
            return f"({out})/{den}"
        return f"{out}/{den}"

    def __repr__(self):
        return f"Surd({self})"


def exact_str(value) -> str:
    """Canonical string for a Fraction, int, or Surd."""
    if isinstance(value, Surd):
        return str(value)
    return str(Fraction(value))


def sort_key(value):
    """Deterministic ordering key (descending numeric) for exact values."""
    return (-float(as_surd(value)), exact_str(value))


def as_surd(value) -> Surd:
    return value if isinstance(value, Surd) else Surd(value)
