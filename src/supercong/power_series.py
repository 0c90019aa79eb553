"""Truncated univariate formal power series over exact rationals.

A :class:`TruncSeries` holds the coefficients c0..cD of a series known modulo
x^(D+1).  Binary operations truncate to the smaller order of their operands,
so a result is reliable exactly up to the order it carries.  Everything is a
plain immutable value; instances here are tiny (order <= 8), so the
representation is dense and all evaluation is eager.

No hot path is left here: series sums are evaluated by binary splitting over
integer polynomials in the hypergeometric module, which returns its result
as a TruncSeries.  :func:`mul_binomial` and :func:`div_binomial` multiply or
divide a dense coefficient list in place by a factor c + s*x^lag, at
O(order) cost per factor; the harness steps a per-term check with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients c0..cD of a series truncated after degree D = order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # Light operator sugar: sums and scalar multiples.
    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        d = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(d + 1)))

    def __mul__(self, other):
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncSeries":
        c = Fraction(c)
        return TruncSeries(tuple(c * x for x in self.coeffs))


def series(coeffs, order: int | None = None) -> TruncSeries:
    """Build a TruncSeries from an iterable, zero-padding/truncating to ``order``."""
    cs = [Fraction(c) for c in coeffs]
    if order is not None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = (cs + [Fraction(0)] * (order + 1))[: order + 1]
    return TruncSeries(tuple(cs))


def coefficient(s: TruncSeries, d: int) -> Fraction:
    """Coefficient of x^d; an error to ask beyond the truncation order."""
    if d < 0 or d > s.order:
        raise ValueError(f"degree {d} exceeds truncation order {s.order}")
    return s.coeffs[d]


def mul_binomial(coeffs: list, c, s, lag: int = 1) -> None:
    """Multiply the dense coefficient list in place by c + s*x^lag, mod x^len."""
    for d in range(len(coeffs) - 1, lag - 1, -1):
        coeffs[d] = c * coeffs[d] + s * coeffs[d - lag]
    for d in range(min(lag, len(coeffs))):
        coeffs[d] = c * coeffs[d]


def div_binomial(coeffs: list, c, s, lag: int = 1) -> None:
    """Divide the dense coefficient list in place by c + s*x^lag, mod x^len.

    Back-substitution from the constant term up: q_d = (a_d - s*q_{d-lag})/c;
    a zero c raises ZeroDivisionError.
    """
    for d in range(len(coeffs)):
        a = coeffs[d] - s * coeffs[d - lag] if d >= lag else coeffs[d]
        coeffs[d] = a / c
