"""Truncated univariate formal power series over exact rationals.

A :class:`TruncSeries` holds the coefficients c0..cD of a series known modulo
x^(D+1).  Binary operations truncate to the smaller order of their operands,
so a result is reliable exactly up to the order it carries.  Everything is a
plain immutable value; instances here are tiny (order <= 8), so the
representation is dense and all evaluation is eager.

Series sums are evaluated by carrying one term forward by its term ratio:
:func:`mul_binomial` and :func:`div_binomial` multiply or divide a dense
coefficient list in place by a factor c + s*x^lag, at O(order) cost per
factor.  The Pochhammer builders and :func:`ps_invert` construct a term from
scratch; they are exact reference implementations, not the hot path.
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

    # Light operator sugar over the functional API below.
    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        d = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(d + 1)))

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return ps_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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


def constant(c, order: int) -> TruncSeries:
    """The constant c as a series of the given order."""
    return series([c], order)


def coefficient(s: TruncSeries, d: int) -> Fraction:
    """Coefficient of x^d; an error to ask beyond the truncation order."""
    if d < 0 or d > s.order:
        raise ValueError(f"degree {d} exceeds truncation order {s.order}")
    return s.coeffs[d]


def ps_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    d = min(a.order, b.order)
    out = [Fraction(0)] * (d + 1)
    for i, ca in enumerate(a.coeffs[: d + 1]):
        if ca == 0:
            continue
        for j in range(d + 1 - i):
            cb = b.coeffs[j]
            if cb != 0:
                out[i + j] += ca * cb
    return TruncSeries(tuple(out))


def ps_invert(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse up to order(a); requires a nonzero constant term."""
    c0 = a.coeffs[0]
    if c0 == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    inv0 = 1 / c0
    out = [inv0] + [Fraction(0)] * a.order
    for d in range(1, a.order + 1):
        acc = Fraction(0)
        for i in range(1, d + 1):
            acc += a.coeffs[i] * out[d - i]
        out[d] = -inv0 * acc
    return TruncSeries(tuple(out))


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


def pochhammer_series(a0, slope, k: int, order: int) -> TruncSeries:
    """Expansion in x of the deformed rising factorial (a0 + slope*x)_k.

    The product of the k linear factors (a0 + i) + slope*x, truncated at the
    requested order; the empty product (k = 0) is 1.
    """
    if k < 0:
        raise ValueError("pochhammer series needs k >= 0")
    a0 = Fraction(a0)
    slope = Fraction(slope)
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for i in range(k):
        c = a0 + i
        for d in range(order, 0, -1):
            out[d] = c * out[d] + slope * out[d - 1]
        out[0] = c * out[0]
    return TruncSeries(tuple(out))


def pochhammer_norm_series(a0, slope, k: int, order: int) -> TruncSeries:
    """Expansion of the norm of a conjugate pair of deformed rising factorials.

    The pair with deformation slopes +/- i*slope multiplies out to the real
    polynomial prod_{i<k} ((a0 + i)^2 + slope^2 * x^2), which is what this
    returns; its constant term is (a0)_k ** 2.
    """
    if k < 0:
        raise ValueError("pochhammer series needs k >= 0")
    a0 = Fraction(a0)
    s2 = Fraction(slope) ** 2
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for i in range(k):
        c2 = (a0 + i) ** 2
        for d in range(order, 1, -1):
            out[d] = c2 * out[d] + s2 * out[d - 2]
        if order >= 1:
            out[1] = c2 * out[1]
        out[0] = c2 * out[0]
    return TruncSeries(tuple(out))
