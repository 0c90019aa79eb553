"""Exact scalar arithmetic: rationals, Pochhammer products, the central
ratios and order-2 harmonic sums, primality, p-adic valuations.

Every scalar in this package is an exact :class:`fractions.Fraction`; nothing
here (or anywhere downstream) touches floating point.  ``Fraction`` already
guarantees the normal form we rely on: positive denominator, gcd removed,
zero stored as 0/1, so equality is structural and valuations are cheap.

All functions are pure and all values immutable, so everything is safe to
share between concurrent tasks.  The central ratios (1/2)_k/k! and H2(k) do
not depend on p, so each is one table per process that grows only when a
larger index is asked for; a reader always gets a fresh, consistent prefix.
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


class _PrefixTable:
    """A sequence x_0, x_1, ... that does not depend on p, built once per process.

    ``x_k = step(x_{k-1}, k)``.  The table grows only when a larger index is
    asked for; a grown table is a new list, never the published one mutated,
    so every reader gets a consistent prefix.
    """

    def __init__(self, first, step):
        self._values = [first]
        self._step = step

    def prefix(self, kmax: int) -> list:
        """A fresh list of x_0..x_kmax."""
        values = self._values
        if len(values) <= kmax:
            grown = values[:]
            for k in range(len(values), kmax + 1):
                grown.append(self._step(grown[-1], k))
            self._values = values = grown
        return values[: kmax + 1]


_CENTRAL_RATIOS = _PrefixTable(Fraction(1), lambda c, k: c * Fraction(2 * k - 1, 2 * k))
_HARMONIC2 = _PrefixTable(Fraction(0), lambda h, j: h + Fraction(1, j * j))


def central_ratios(kmax: int) -> list[Fraction]:
    """c_0..c_kmax with c_k = (1/2)_k / k!, read off one table per process."""
    return _CENTRAL_RATIOS.prefix(kmax)


def harmonic2_table(kmax: int) -> list[Fraction]:
    """H2(0)..H2(kmax), H2(k) = sum_{j<=k} 1/j^2, read off one table per process."""
    return _HARMONIC2.prefix(kmax)


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


def congruent_mod_power(a, b, p: int, n: int) -> bool:
    """True iff v_p(a - b) >= n, the congruence a = b mod p^n on rationals.

    Operands need not be p-integral; the valuation of the difference decides.
    """
    if n < 1:
        raise ValueError("modulus exponent must be a positive integer")
    return padic_valuation(Fraction(a) - Fraction(b), p) >= n
