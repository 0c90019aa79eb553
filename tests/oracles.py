"""Reference implementations the tests compare the package against, and
helpers that only the tests use.

The harness reads c_k and H2(k) off its shared per-process tables; the tests
check those tables, and the cases built on them, against the direct sums
here.  The series helpers rebuild what the package computes by binary
splitting: term by term, by stepping each term by its ratio, or from
Pochhammer products over an inverted denominator.  The eta helpers expand
the product from its Euler factors, multiplied out one binomial at a time or
written down by the pentagonal theorem and multiplied by seven Kronecker
products, where the package takes one product of pentagonal-times-Jacobi
series.
"""

from fractions import Fraction
from math import factorial
from typing import Mapping

from supercong.exact_core import padic_valuation, rising_factorial
from supercong.harness import eq10_series_spec, six_f_five_series_spec, thm3_deformed_spec
from supercong.hypergeometric import (
    AffineParam,
    HypSum,
    IdentityId,
    _check_lower_poles,
    identity_sides,
)
from supercong.modular_form import _poly_mul_trunc
from supercong.power_series import TruncSeries, div_binomial, mul_binomial, series


def central_half_ratio(k: int) -> Fraction:
    """(1/2)_k / k!, which also equals 4**-k * C(2k, k)."""
    return rising_factorial(Fraction(1, 2), k) / factorial(k)


def harmonic2(k: int) -> Fraction:
    """Generalized harmonic number of order two: sum of 1/j^2 for 1 <= j <= k."""
    if k < 0:
        raise ValueError("harmonic sum needs k >= 0")
    return sum((Fraction(1, j * j) for j in range(1, k + 1)), Fraction(0))


def odd_harmonic2(k: int) -> Fraction:
    """Sum of 1/(2j-1)^2 for 1 <= j <= k (squares of odd reciprocals)."""
    if k < 0:
        raise ValueError("harmonic sum needs k >= 0")
    return sum((Fraction(1, (2 * j - 1) ** 2) for j in range(1, k + 1)), Fraction(0))


def congruent_mod_power(a, b, p: int, n: int) -> bool:
    """True iff v_p(a - b) >= n, the congruence a = b mod p^n on rationals.

    Operands need not be p-integral; the valuation of the difference decides.
    """
    if n < 1:
        raise ValueError("modulus exponent must be a positive integer")
    return padic_valuation(Fraction(a) - Fraction(b), p) >= n


# --------------------------------------------------------------------------
# truncated power series
# --------------------------------------------------------------------------


def constant(c, order: int) -> TruncSeries:
    """The constant c as a series of the given order."""
    return series([c], order)


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


# --------------------------------------------------------------------------
# hypergeometric sums
# --------------------------------------------------------------------------


def specialize(s: HypSum, x0) -> HypSum:
    """The sum with the deformation variable pinned to the value x0."""
    x0 = Fraction(x0)
    return HypSum(
        upper=tuple(AffineParam(u.base + u.slope * x0) for u in s.upper),
        lower=tuple(AffineParam(l.base + l.slope * x0) for l in s.lower),
        argument=s.argument,
        truncation=s.truncation,
        weight=s.weight,
    )


def scalarized(s: HypSum) -> HypSum:
    """The same sum with every deformation slope set to zero (x = 0)."""
    return specialize(s, 0)


def check_identity(identity: IdentityId, params: Mapping) -> bool:
    """True iff both sides of the identity agree exactly at the parameters."""
    lhs, rhs = identity_sides(identity, params)
    return lhs == rhs


def stepping_eval_hyp_sum_series(s: HypSum, order: int) -> TruncSeries:
    """The sum as a series in x, one term at a time, each stepped by its ratio.

    Undeformed factors fold into one rational scale, each deformed upper
    factor (u + k) + slope*x multiplies the coefficient list and each
    deformed lower factor divides it by back-substitution; O(K * order)
    Fraction operations, each with its own gcd.
    """
    _check_lower_poles(s)
    w1, w0 = s.weight
    total = [Fraction(0)] * (order + 1)
    core = [Fraction(1)] + [Fraction(0)] * order
    for k in range(s.truncation + 1):
        w = w1 * k + w0
        for d in range(order + 1):
            total[d] += w * core[d]
        if k == s.truncation:
            break
        scale = s.argument / (k + 1)
        for u in s.upper:
            if u.slope:
                mul_binomial(core, u.base + k, u.slope)
            else:
                scale *= u.base + k
        for l in s.lower:
            if l.slope:
                div_binomial(core, l.base + k, l.slope)
            else:
                scale /= l.base + k
        for d in range(order + 1):
            core[d] *= scale
    return TruncSeries(tuple(total))


def series_case_specs(p: int) -> dict[str, HypSum]:
    """The HypSum-backed deformation specs, keyed by case tag."""
    return {
        "EQ10_A2": eq10_series_spec(p),
        "SIX_F_FIVE_COEFFS": six_f_five_series_spec(p),
        "THM3_QUOTIENT_X2": thm3_deformed_spec(p),
    }


def lem_thm1_term_series(k: int, order: int = 4) -> TruncSeries:
    """Term k of LEM_THM1_B2K's conjugate-deformed quartic sum, as a series in x.

    Term k is (1/2)_k^2 (1/2+x/2)_k (1/2-x/2)_k / (k!^2 * |(1 + i x/2)_k|^2);
    the conjugate pairs multiply out to real quadratics, so the term ratio is
    ((j+1/2)/(j+1))^2 * ((j+1/2)^2 - x^2/4) / ((j+1)^2 + x^2/4).
    """
    if k < 0:
        raise ValueError("term index must be nonnegative")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    core = [Fraction(1)] + [Fraction(0)] * order
    for j in range(k):
        a = j + half
        mul_binomial(core, a * a, -quarter, lag=2)
        div_binomial(core, Fraction((j + 1) ** 2), quarter, lag=2)
        scale = (a / (j + 1)) ** 2
        for d in range(order + 1):
            core[d] *= scale
    return TruncSeries(tuple(core))


# --------------------------------------------------------------------------
# eta-product expansion
# --------------------------------------------------------------------------


def euler_factor_product(step: int, deg: int) -> list[int]:
    """Dense coefficients of prod_{n>=1} (1 - q^(step*n)) modulo q^(deg+1).

    Multiplied out one binomial factor at a time, in O(deg^2 / step).
    """
    c = [0] * (deg + 1)
    c[0] = 1
    top = 0  # degree of the partial product so far
    m = step
    while m <= deg:
        top = min(deg, top + m)
        for i in range(top, m - 1, -1):
            c[i] -= c[i - m]
        m += step
    return c


def pentagonal_factor_product(step: int, deg: int) -> list[int]:
    """Dense coefficients of prod_{n>=1} (1 - q^(step*n)) modulo q^(deg+1).

    Euler's pentagonal theorem: +-1 at the exponents step*k(3k-+1)/2.
    """
    c = [0] * (deg + 1)
    k, sign = 0, 1
    while (low := step * k * (3 * k - 1) // 2) <= deg:
        c[low] = sign
        if low + step * k <= deg:  # step*k(3k+1)/2
            c[low + step * k] = sign
        k, sign = k + 1, -sign
    return c


def kronecker_eta_coefficients(N: int) -> list[int]:
    """a_1..a_N of q * prod (1-q^(2n))^4 (1-q^(4n))^4 by seven full-length
    Kronecker products of the pentagonal Euler factors.
    """
    deg = N - 1
    e2 = pentagonal_factor_product(2, deg)
    e4 = pentagonal_factor_product(4, deg)
    e2_4 = _poly_mul_trunc(_poly_mul_trunc(e2, e2, deg), _poly_mul_trunc(e2, e2, deg), deg)
    e4_4 = _poly_mul_trunc(_poly_mul_trunc(e4, e4, deg), _poly_mul_trunc(e4, e4, deg), deg)
    return _poly_mul_trunc(e2_4, e4_4, deg)  # a_n is [n - 1]


def schoolbook_mul_trunc(a: list[int], b: list[int], deg: int) -> list[int]:
    """Product of integer polynomials truncated at q^deg, term by term,
    skipping the zero coefficients of a."""
    out = [0] * (deg + 1)
    for i, x in enumerate(a[: deg + 1]):
        if x:
            for j, y in enumerate(b[: deg + 1 - i]):
                out[i + j] += x * y
    return out


def eta_coefficients_from_factors(N: int) -> list[int]:
    """a_1..a_N of q * prod (1-q^(2n))^4 (1-q^(4n))^4, with no Kronecker products.

    Both Euler factors come from ``euler_factor_product``; their eight copies
    multiply into the result by schoolbook products that skip the factors'
    zero coefficients.
    """
    deg = N - 1
    out = [1] + [0] * deg
    for step in (2, 4):
        factor = euler_factor_product(step, deg)
        terms = [(e, c) for e, c in enumerate(factor) if c]
        for _ in range(4):
            acc = [0] * (deg + 1)
            for e, c in terms:
                for i in range(deg + 1 - e):
                    acc[i + e] += c * out[i]
            out = acc
    return out  # a_n is out[n - 1]
