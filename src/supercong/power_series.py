"""Truncated univariate formal power series over exact rationals.

A :class:`TruncSeries`, an immutable tuple record, holds the coefficients
c0..cD of a series known modulo x^(D+1); it is the value that series sums
return, and its ``coeffs[d]`` is the coefficient of x^d.  The sums
themselves are evaluated by binary splitting over integer polynomials in the
hypergeometric module, and series algebra (products, inverses, sums) lives
with the test oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import _exact, checked_record


class TruncSeries(checked_record("TruncSeries", "coeffs")):
    """Coefficients c0..cD of a series truncated after degree D = len(coeffs) - 1."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[Fraction, ...]):
        if len(coeffs) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        return super().__new__(cls, tuple(_exact(c) for c in coeffs))
