"""Exact scalar arithmetic: rationals, Pochhammer products, primality,
p-adic valuations, and p-adic residues.

Every scalar in this package is an exact :class:`fractions.Fraction`; nothing
here (or anywhere downstream) touches floating point, and ``_exact`` refuses a
float handed to any entry point with ``TypeError``.  ``Fraction`` already
guarantees the normal form we rely on: positive denominator, gcd removed,
zero stored as 0/1, so equality is structural and valuations are cheap.
A Pochhammer product is one integer product over d^k, with a single gcd.

:class:`Residue` is the p-adic residue layer: a nonzero rational written as
p^v * u with u a unit kept mod p^N (N = ``_RESIDUE_DIGITS``).  Its parts are
Python ints, so it too is exact; it gives the valuation of a difference in
O(1) integer operations whenever the two sides differ mod p^(v+N), and says
so when they do not, so that a caller falls back to the exact ``Fraction``.

All functions are pure and all values immutable, so everything is safe to
share between concurrent tasks.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod
from typing import Union

# Trial division by divisors up to 10**6 certifies primality below this bound.
_PRIMALITY_CERTIFIED_BOUND = 10**12

# Digits of p that a residue search keeps: unit parts live mod
# p**_RESIDUE_DIGITS.  Read at call time, when a residue is made from a
# rational (Residue.of) and when H2_REFLECT steps H2(j) (harness).
_RESIDUE_DIGITS = 8


class NotPrimeError(ValueError):
    """An argument that must be a prime is not one."""


class _Infinity:
    """Valuation of zero: a distinguished symbol ordered above every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("padic valuation of zero")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True


#: Singleton valuation of 0.  ``INFINITY > n`` and ``n < INFINITY`` hold for
#: every integer n; ``INFINITY >= INFINITY`` holds; ``INFINITY > INFINITY``
#: does not.
INFINITY = _Infinity()

Valuation = Union[int, _Infinity]


def _exact(x) -> Fraction:
    """x as a Fraction; a float is refused, since it is a binary fraction, not the rational meant."""
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic takes rationals, got the float {x!r}")
    return Fraction(x)


def rising_factorial(a, k: int) -> Fraction:
    """(a)_k = a(a+1)...(a+k-1), 1 for k = 0 and 0 if a factor is 0; with a = n/d
    it is the integer product n(n+d)...(n+(k-1)d) over d^k, normalised by one gcd."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    n, d = _exact(a).as_integer_ratio()
    return Fraction(prod(range(n, n + k * d, d)), d**k)


def is_prime(n: int) -> bool:
    """Deterministic trial division, certified for n <= 10**12."""
    if n > _PRIMALITY_CERTIFIED_BOUND:
        raise ValueError(f"primality by trial division is only certified up to {_PRIMALITY_CERTIFIED_BOUND}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    top = isqrt(n)
    while d <= top:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    """Raise NotPrimeError unless p is prime."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _split_power(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and p not dividing u; n != 0, sign kept in u."""
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v, n


def padic_valuation(x, p: int) -> Valuation:
    """Exact p-adic valuation of a rational (may be negative); INFINITY iff x = 0."""
    check_prime(p)
    x = _exact(x)
    if x == 0:
        return INFINITY
    return _split_power(x.numerator, p)[0] - _split_power(x.denominator, p)[0]


class Residue:
    """A nonzero rational p**v * num/den, with num and den units kept mod p**N.

    A product by an integer ratio steps v, num and den; no inverse mod p**N
    is taken, because a difference compares the units by cross-multiplication.
    Both operands of a difference must share p and N.
    """

    __slots__ = ("p", "modulus", "v", "num", "den")

    def __init__(self, p: int, modulus: int, v: int, num: int, den: int):
        self.p, self.modulus, self.v, self.num, self.den = p, modulus, v, num, den

    @classmethod
    def of(cls, x, p: int) -> Residue:
        """The residue of a nonzero rational x at the prime p."""
        x = _exact(x)
        if x == 0:
            raise ValueError("zero has no p-adic unit part")
        modulus = p**_RESIDUE_DIGITS
        vn, num = _split_power(x.numerator, p)
        vd, den = _split_power(x.denominator, p)
        return cls(p, modulus, vn - vd, num % modulus, den % modulus)

    def scaled(self, n: int, d: int) -> Residue:
        """This residue times the ratio n/d of nonzero integers."""
        p, modulus, v = self.p, self.modulus, self.v
        if n % p == 0:
            vn, n = _split_power(n, p)
            v += vn
        if d % p == 0:
            vd, d = _split_power(d, p)
            v -= vd
        return Residue(p, modulus, v, self.num * n % modulus, self.den * d % modulus)

    def difference_valuation(self, other: Residue) -> int | None:
        """v_p(self - other), or None if the two agree in all N kept digits.

        Unequal valuations give the smaller one.  Equal ones give v plus the
        valuation of the cross-multiplied units, which is exact below N.
        """
        if self.v != other.v:
            return min(self.v, other.v)
        unit_gap = (self.num * other.den - other.num * self.den) % self.modulus
        if unit_gap == 0:
            return None
        return self.v + _split_power(unit_gap, self.p)[0]

