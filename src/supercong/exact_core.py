"""Exact scalar arithmetic: rationals, Pochhammer products, primality,
p-adic valuations.

Every scalar in this package is an exact :class:`fractions.Fraction`; nothing
here (or anywhere downstream) touches floating point.  ``Fraction`` already
guarantees the normal form we rely on: positive denominator, gcd removed,
zero stored as 0/1, so equality is structural and valuations are cheap.

All functions are pure and all values immutable, so everything is safe to
share between concurrent tasks.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rational = Fraction

# Trial division by divisors up to 10**6 certifies primality below this bound.
_PRIMALITY_CERTIFIED_BOUND = 10**12


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


def rising_factorial(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a(a+1)...(a+k-1); the empty product 1 for k=0.

    Zero factors are legal and make the product 0.
    """
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


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


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    n = abs(n)
    while n % p == 0:
        v += 1
        n //= p
    return v


def padic_valuation(x, p: int) -> Valuation:
    """Exact p-adic valuation of a rational (may be negative); INFINITY iff x = 0."""
    check_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)

