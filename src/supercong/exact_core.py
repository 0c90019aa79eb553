"""Exact scalar arithmetic: rationals, Pochhammer products, primality and
p-adic valuations.

Every scalar in this package is an exact :class:`fractions.Fraction`; nothing
here (or anywhere downstream) touches floating point, and ``_exact`` refuses a
float or a bool handed to any entry point with ``TypeError``; it returns a
``Fraction`` as it is, so the hot paths pay no rebuild.  ``Fraction`` already
guarantees the normal form we rely on: positive denominator, gcd removed,
zero stored as 0/1, so equality is structural and valuations are cheap.
A Pochhammer product is one integer product over d^k, with a single gcd.

``_split_power`` writes a nonzero integer as p^v * u with p not dividing u.

All functions are pure and all values immutable, so everything is safe to
share between concurrent tasks.  The package's records are tuples:
``checked_record`` is the base of those whose constructor checks its fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt, prod
from typing import Union

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


def _exact(x) -> Fraction:
    """x as a Fraction, and a Fraction as it is.  A float is refused, since it
    is a binary fraction, not the rational meant, and so is a bool, which is
    a truth value, not the integer 0 or 1."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"exact arithmetic takes rationals, got the {type(x).__name__} {x!r}")
    return Fraction(x)


def checked_record(name: str, fields: str) -> type:
    """A ``collections.namedtuple`` base for a record whose ``__new__`` checks
    its fields.  The subclass declares ``__slots__ = ()`` and that ``__new__``;
    this base's ``_make``, and so the copy ``_replace``, builds through it, so
    a copy is refused exactly as a new record is.  The tuple's ``+`` and
    ``*`` are refused too: they would build a bare tuple, not a record."""

    def _make(cls, iterable):
        return cls(*iterable)

    def no_arithmetic(self, other):
        raise TypeError(f"a {type(self).__name__} is a record, not a sequence: it has no + or *")

    base = namedtuple(name, fields)
    base._make = classmethod(_make)
    base.__add__ = base.__radd__ = base.__mul__ = base.__rmul__ = no_arithmetic
    return base


def rising_factorial(a, k: int) -> Fraction:
    """(a)_k = a(a+1)...(a+k-1), 1 for k = 0 and 0 if a factor is 0; with a = n/d
    it is the integer product n(n+d)...(n+(k-1)d) over d^k, normalised by one gcd."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"the rising factorial's k must be an int, got {k!r}")
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
    """(v, u) with n = p**v * u and p not dividing u, sign kept in u; a zero n,
    which every power of p divides, raises ValueError."""
    if not n:
        raise ValueError("zero has no p-adic unit part")
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
