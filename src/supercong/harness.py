"""One table binding every verified congruence, exact identity, and series
divisibility claim to a runnable case producing a VerificationRecord.

Throughout, p is an odd prime, m = (p-1)/2 (or (p^r-1)/2 where r appears),
c_k = (1/2)_k / k!, H2(k) = sum_{j<=k} 1/j^2, and OH2(k) = sum_{j<=k}
1/(2j-1)^2.  "v >= b" means the p-adic valuation of lhs - rhs is at least b.

Congruence cases (pass iff the achieved valuation meets the bound):

  EQ0          sum_{k<=m} (4k+1) c_k^3 (-1)^k   vs (-1)^m p            v >= 3
  THM1(r)      sum_{k<=(p^r-1)/2} (4k+1) c_k^4  vs p^r                 v >= 3+r
  THM2         sum_{k<=m} (4k+1) c_k^6          vs p * a_p             v >= 4
  KILBOURN     sum_{k<=m} c_k^4                 vs a_p                 v >= 3   (p >= 3)
  CONJ1(r)     sum_{k<=(p^r-1)/2} (4k+1) c_k^6  vs p^r * a_{p^r}       v >= 3+r (conjectural)
  THM3         sum_{k<=m} (6k+1) c_k^3 4^-k     vs (-1)^m p            v >= 4
  THM4         sum_{k<=m} (6k+1) c_k^3 (-1/8)^k vs e(p) p              v >= 2
  THM4_STRONG  same sum and target                                     v >= 3   (conjectural)
  COMCONJ2     sum_{k<=m} (6k+1) c_k^3 (OH2(k) - H2(k)/16) (-1/8)^k    v >= 1   (conjectural)
  CAI(r)       (-1)^M binom(p^r-1, M), M=(p^r-1)/2  vs c_M^2           v >= 3
  BINOM_NEG(r) (-1)^k binom(M, k)      vs c_k   for 1 <= k <= M        v >= 1 each
  BINOM_POS(r) binom(M+k, k)           vs c_k   for 1 <= k <= M        v >= 1 each
  BINOM_PROD(r)(-1)^k binom(M,k) binom(M+k,k) vs c_k^2 for 1<=k<=M     v >= 2 each
  H2_HALF      H2(m)                   vs 0                            v >= 1
  ODDH2_HALF   OH2(m)                  vs 0                            v >= 1
  H2_REFLECT   H2(k) + H2(p-1-k)       vs 0     for 1 <= k <= p-2      v >= 1 each
  THMKEY(s)    sum_{k<=m} c_k^(2s) H2(2k) vs 0                         v >= 1

where a_n is the eta-product coefficient (modular_form module) and
e(p) = (-1)^((p^2-1)/8 + (p-1)/2).

Exact cases (pass iff both sides agree exactly):

  COMIDEN0(n)  (2n+1) sum_{k<=n} (-1)^k binom(n,k) binom(n+k,k)/(2k+1) = 1,  n >= 2
  COMIDEN1(n)  (3/2-n/4)_m (1-n/2)_m / ((2-n/2)_m (1-n/4)_m) = (-1)^m n,  odd n, m=(n-1)/2
  COMIDEN2(n)  (3/2-n/4)_m / (2-n/2)_m * 2^m = e(n) n,  odd n
  LEMMA10      sum_{k<=m} (6k+1) (1/2)_k (1/2-p/2)_k (1/2+p/2)_k
               / ((1)_k (1+p/4)_k (1-p/4)_k) * 4^-k  =  (-1)^m p
  LEMMA12      same weights with argument -1/8      =  e(p) p
  WHIPPLE_4F3, WHIPPLE_6F5, WHIPPLE_7F6, GESSEL_31_1, GOSPER_STRANGE,
  GESSEL_P544  randomized exact checks of the six evaluation identities,
               one record per fixed-seed draw (param = draw index, p = 0)

Series cases (x-deformations, expanded to order 4):

  EQ10_A2           x^2 coefficient A2 of the deformed alternating (4k+1)
                    sum (upper 1/2, (1-x)/2, (1+x)/2; lower 1 +/- x/2)
                    has v >= 1; odd coefficients must vanish
  SIX_F_FIVE_COEFFS every coefficient of the companion deformed sum (extra
                    upper (1-p)/2 and 1, extra lower 1+p/2) has v >= 1, and
                    its constant term matches EQ10's constant term mod p
  LEM_THM1_B2K      per-term x^2 coefficient of the conjugate-deformed
                    quartic sum equals -c_k^4 H2(2k) exactly, and the summed
                    x^2 coefficient has v >= 1
  THM3_QUOTIENT_X2  deformed (6k+1) 4^-k sum divided by its scalar value is
                    even in x with p-integral coefficients and its x^2
                    coefficient has v >= 1
  EXACT_DIV_P       v_p((3/4)_m (5/4)_m / (m!)^2) recorded and required to
                    equal 1 exactly

Conjectural cases carry ``conjectural: True`` into their records and are
ignored by the CLI's pass/fail exit code.  Cases whose hypotheses require
p > 3 skip p = 3; KILBOURN is the lone odd-prime exception.  All cases are
independent pure computations; run_suite's output order is canonical (the
order of the case table, then p, then the integer parameter) regardless of
execution order.

Every fact about a case (kind, computation, requirement, minimum prime,
parameter domain, caps, conjectural flag, eta index) lives in its one row of
the table ``CASES``; a new family of congruences is one new row.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from typing import Callable, Sequence

from .exact_core import (
    INFINITY,
    Valuation,
    central_ratios,
    check_prime,
    harmonic2_table,
    is_prime,
    padic_valuation,
    rising_factorial,
)
from .hypergeometric import (
    HypSum,
    IdentityId,
    PoleError,
    _split_series,
    eval_hyp_sum,
    eval_hyp_sum_series,
    hyp_sum,
    identity_sides,
    sample_identity_params,
)
from .modular_form import DEFAULT_BUDGET, prime_power_coefficient, widest_expansion
from .power_series import TruncSeries, coefficient, div_binomial, mul_binomial

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
ZERO = Fraction(0)

#: Truncation order used for all deformation series (x^2 is what matters;
#: x^3 and x^4 are kept so parity assertions actually see something).
SERIES_ORDER = 4

#: Number of fixed-seed draws per identity in the randomized suite.
IDENTITY_DRAWS = 50

#: COMIDEN0 instances run over this n range in the full suite.
COMIDEN0_RANGE = range(2, 201)

THMKEY_EXPONENTS = (1, 2, 3)

#: The smallest prime of a case whose hypotheses require p > 3.
_P_MIN = 5


@dataclass(frozen=True)
class Requirement:
    """What a case demands: a valuation bound, an exact valuation, or equality."""

    kind: str  # "val_ge" | "val_eq" | "exact"
    bound: int | None = None

    def render(self) -> str:
        if self.kind == "val_ge":
            return f"v>={self.bound}"
        if self.kind == "val_eq":
            return f"v=={self.bound}"
        return "exact"

    def met_by(self, achieved) -> bool:
        if self.kind == "val_ge":
            return achieved >= self.bound
        if self.kind == "val_eq":
            return achieved == self.bound
        return achieved == "EQUAL"


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one case at one parameter point.

    ``achieved`` is the exact valuation (never clamped, so stronger-than-
    required congruences stay visible), the string EQUAL/UNEQUAL for exact
    cases, or an ``error:<Type>`` marker when the case computation raised;
    ``error`` then keeps the exception's message, which the report leaves
    out.  For the per-k family cases, lhs and rhs belong to the k of weakest
    valuation.
    """

    case: str
    p: int
    param: int
    required: Requirement
    achieved: object
    lhs: Fraction | None
    rhs: Fraction | None
    passed: bool
    conjectural: bool
    error: str | None = None

    def achieved_str(self) -> str:
        if self.achieved is INFINITY:
            return "INF"
        return str(self.achieved)


def _fraction_str(x: Fraction | None) -> str:
    return "" if x is None else str(x)


def report_entry(rec: VerificationRecord) -> dict:
    """Serialize a record to the fixed report schema (exact strings, no floats)."""
    return {
        "case": rec.case,
        "p": rec.p,
        "param": rec.param,
        "required": rec.required.render(),
        "achieved": rec.achieved_str(),
        "lhs": _fraction_str(rec.lhs),
        "rhs": _fraction_str(rec.rhs),
        "pass": rec.passed,
        "conjectural": rec.conjectural,
    }


def _weakest(pairs, p) -> tuple[Fraction, Fraction, Valuation]:
    """The first pair of a family with the least valuation of lhs - rhs, and that valuation."""
    return min(((lhs, rhs, padic_valuation(lhs - rhs, p)) for lhs, rhs in pairs), key=lambda t: t[2])


def _sign_half(n: int) -> int:
    """(-1)^((n-1)/2) for odd n."""
    return -1 if ((n - 1) // 2) % 2 else 1


def _sign_eight(n: int) -> int:
    """(-1)^((n^2-1)/8 + (n-1)/2) for odd n."""
    return -1 if ((n * n - 1) // 8 + (n - 1) // 2) % 2 else 1


# --------------------------------------------------------------------------
# Sum specs (data, not code); the deformed ones belong to the series cases
# --------------------------------------------------------------------------


def sum_eq0(p: int) -> HypSum:
    return hyp_sum([HALF] * 3, [1, 1], z=-1, K=(p - 1) // 2, weight=(4, 1))


def sum_thm1(p: int, r: int) -> HypSum:
    return hyp_sum([HALF] * 4, [1] * 3, z=1, K=(p**r - 1) // 2, weight=(4, 1))


def sum_sixth_power(p: int, r: int) -> HypSum:
    return hyp_sum([HALF] * 6, [1] * 5, z=1, K=(p**r - 1) // 2, weight=(4, 1))


def sum_kilbourn(p: int) -> HypSum:
    return hyp_sum([HALF] * 4, [1] * 3, z=1, K=(p - 1) // 2, weight=(0, 1))


def sum_thm3(p: int) -> HypSum:
    return hyp_sum([HALF] * 3, [1, 1], z=QUARTER, K=(p - 1) // 2, weight=(6, 1))


def sum_thm4(p: int) -> HypSum:
    return hyp_sum([HALF] * 3, [1, 1], z=Fraction(-1, 8), K=(p - 1) // 2, weight=(6, 1))


def sum_lemma10(p: int, z=QUARTER) -> HypSum:
    half_p = Fraction(p, 2)
    quarter_p = Fraction(p, 4)
    return hyp_sum(
        [HALF, HALF - half_p, HALF + half_p],
        [1 + quarter_p, 1 - quarter_p],
        z=z,
        K=(p - 1) // 2,
        weight=(6, 1),
    )


def eq10_series_spec(p: int) -> HypSum:
    """Deformed alternating (4k+1) sum; at x = p its value is (-1)^m p exactly."""
    return hyp_sum(
        [HALF, (HALF, -HALF), (HALF, HALF)],
        [(1, HALF), (1, -HALF)],
        z=-1,
        K=(p - 1) // 2,
        weight=(4, 1),
    )


def six_f_five_series_spec(p: int) -> HypSum:
    """Companion deformed sum whose every x-coefficient lies in p*Z_p."""
    return hyp_sum(
        [(HALF, -HALF), (HALF, HALF), Fraction(1 - p, 2), 1],
        [(1, HALF), (1, -HALF), 1 + Fraction(p, 2)],
        z=-1,
        K=(p - 1) // 2,
        weight=(4, 1),
    )


def thm3_deformed_spec(p: int) -> HypSum:
    """Deformed (6k+1) 4^-k sum; numerator of the quotient-series case."""
    return hyp_sum(
        [HALF, (HALF, -HALF), (HALF, HALF)],
        [(1, QUARTER), (1, -QUARTER)],
        z=QUARTER,
        K=(p - 1) // 2,
        weight=(6, 1),
    )


# --------------------------------------------------------------------------
# Congruence cases: compute(p, param, budget) -> (lhs, rhs[, achieved[, ok]])
# --------------------------------------------------------------------------


def _eq0(p, _param, _budget):
    return eval_hyp_sum(sum_eq0(p)), Fraction(_sign_half(p) * p)


def _thm1(p, r, _budget):
    return eval_hyp_sum(sum_thm1(p, r)), Fraction(p**r)


def _thm2(p, _param, budget):
    return eval_hyp_sum(sum_sixth_power(p, 1)), Fraction(p * prime_power_coefficient(p, 1, budget))


def _kilbourn(p, _param, budget):
    return eval_hyp_sum(sum_kilbourn(p)), Fraction(prime_power_coefficient(p, 1, budget))


def _conj1(p, r, budget):
    lhs = eval_hyp_sum(sum_sixth_power(p, r))
    return lhs, Fraction(p**r * prime_power_coefficient(p, r, budget))


def _thm3(p, _param, _budget):
    return eval_hyp_sum(sum_thm3(p)), Fraction(_sign_half(p) * p)


def _thm4(p, _param, _budget):
    # THM4 and THM4_STRONG: the same sum and target under different bounds
    return eval_hyp_sum(sum_thm4(p)), Fraction(_sign_eight(p) * p)


def _comconj2(p, _param, _budget):
    m = (p - 1) // 2
    ratios = central_ratios(m)
    h2 = harmonic2_table(2 * m)
    total = Fraction(0)
    zk = Fraction(1)  # (-1/8)^k
    for k in range(m + 1):
        # OH2(k) - H2(k)/16 with OH2(k) = H2(2k) - H2(k)/4
        total += (6 * k + 1) * ratios[k] ** 3 * (h2[2 * k] - h2[k] * Fraction(5, 16)) * zk
        zk *= Fraction(-1, 8)
    return total, ZERO


def _cai(p, r, _budget):
    m = (p**r - 1) // 2
    lhs = Fraction((-1) ** m * comb(p**r - 1, m))
    return lhs, central_ratios(m)[m] ** 2


def _binom_family(p, r, make_pair):
    m = (p**r - 1) // 2
    ratios = central_ratios(m)
    return _weakest([make_pair(m, k, ratios[k]) for k in range(1, m + 1)], p)


def _binom_neg(p, r, _budget):
    return _binom_family(p, r, lambda m, k, c: (Fraction((-1) ** k * comb(m, k)), c))


def _binom_pos(p, r, _budget):
    return _binom_family(p, r, lambda m, k, c: (Fraction(comb(m + k, k)), c))


def _binom_prod(p, r, _budget):
    return _binom_family(p, r, lambda m, k, c: (Fraction((-1) ** k * comb(m, k) * comb(m + k, k)), c * c))


def _h2_half(p, _param, _budget):
    m = (p - 1) // 2
    return harmonic2_table(m)[m], ZERO


def _oddh2_half(p, _param, _budget):
    m = (p - 1) // 2
    h2 = harmonic2_table(2 * m)
    # OH2(m) = H2(2m) - H2(m)/4: the even squares 1/(2j)^2 are H2(m)/4
    return h2[2 * m] - h2[m] / 4, ZERO


def _h2_reflect(p, _param, _budget):
    # k and p-1-k give the same sum, so k <= (p-1)/2 meets every pair once
    table = harmonic2_table(p - 2)
    return _weakest([(table[k] + table[p - 1 - k], ZERO) for k in range(1, (p - 1) // 2 + 1)], p)


def _thmkey(p, s, _budget):
    m = (p - 1) // 2
    ratios = central_ratios(m)
    table = harmonic2_table(2 * m)
    return sum((ratios[k] ** (2 * s) * table[2 * k] for k in range(m + 1)), Fraction(0)), ZERO


# --------------------------------------------------------------------------
# Exact cases: compute(p, param, params) -> (lhs, rhs)
# --------------------------------------------------------------------------


def _comiden0(_p, n, _params):
    terms = (Fraction((-1) ** k * comb(n, k) * comb(n + k, k), 2 * k + 1) for k in range(n + 1))
    return (2 * n + 1) * sum(terms, Fraction(0)), Fraction(1)


def _comiden_ratio(n: int, m: int) -> Fraction:
    # (3/2 - n/4)_m / (2 - n/2)_m, the factor COMIDEN1 and COMIDEN2 share
    return rising_factorial(Fraction(3, 2) - Fraction(n, 4), m) / rising_factorial(2 - Fraction(n, 2), m)


def _comiden1(_p, n, _params):
    m = (n - 1) // 2
    rest = rising_factorial(1 - Fraction(n, 2), m) / rising_factorial(1 - Fraction(n, 4), m)
    return _comiden_ratio(n, m) * rest, Fraction(_sign_half(n) * n)


def _comiden2(_p, n, _params):
    m = (n - 1) // 2
    return _comiden_ratio(n, m) * Fraction(2) ** m, Fraction(_sign_eight(n) * n)


def _lemma10(p, _param, _params):
    return eval_hyp_sum(sum_lemma10(p)), Fraction(_sign_half(p) * p)


def _lemma12(p, _param, _params):
    return eval_hyp_sum(sum_lemma10(p, z=Fraction(-1, 8))), Fraction(_sign_eight(p) * p)


def _identity(identity, _p, index, params):
    if params is None:
        params = sample_identity_params(identity, IDENTITY_DRAWS)[index]
    return identity_sides(identity, params)


# --------------------------------------------------------------------------
# Series cases: compute(p) -> (lhs, rhs[, achieved[, ok]])
# --------------------------------------------------------------------------


def _odd_coeffs_vanish(ser) -> bool:
    return all(c == 0 for c in ser.coeffs[1::2])


@lru_cache(maxsize=None)
def _eq10_series(p: int) -> TruncSeries:
    # EQ10_A2 reads this series and SIX_F_FIVE_COEFFS compares against it.
    return eval_hyp_sum_series(eq10_series_spec(p), SERIES_ORDER)


def _eq10_a2(p):
    ser = _eq10_series(p)
    a2 = coefficient(ser, 2)
    return a2, ZERO, padic_valuation(a2, p), _odd_coeffs_vanish(ser)


def _six_f_five(p):
    ser10 = _eq10_series(p)
    ser65 = eval_hyp_sum_series(six_f_five_series_spec(p), SERIES_ORDER)
    vals = [padic_valuation(c, p) for c in ser65.coeffs]
    vals.append(padic_valuation(ser10.coeffs[0] - ser65.coeffs[0], p))
    return ser65.coeffs[0], ser10.coeffs[0], min(vals), _odd_coeffs_vanish(ser65)


def _lem_thm1_ratio(k: int) -> tuple[list[int], list[int]]:
    """Term ratio t_k / t_{k-1} of the conjugate-deformed quartic sum.

    Term k is (1/2)_k^2 (1/2+x/2)_k (1/2-x/2)_k / (k!^2 * |(1 + i x/2)_k|^2);
    the conjugate pairs multiply out to real quadratics, so the ratio is
    a^2 (a^2 - x^2) / (b^2 (b^2 + x^2)) with a = 2k-1 and b = 2k.
    """
    a, b = (2 * k - 1) ** 2, (2 * k) ** 2
    pad = [0] * (SERIES_ORDER - 2)
    return [a * a, 0, -a, *pad], [b * b, 0, b, *pad]


def _lem_thm1_b2k(p):
    m = (p - 1) // 2
    ratios = central_ratios(m)
    h2 = harmonic2_table(2 * m)
    # term_k / c_k^4 = prod_{j<k} (1 - x^2/(2j+1)^2) / (1 + x^2/(2j+2)^2),
    # whose x^2 coefficient is -H2(2k).  The check reads x^2 and the odd
    # coefficients below x^4, and no coefficient depends on higher ones, so
    # the product is kept mod x^4, where its denominators stay small.
    norm = [Fraction(1), ZERO, ZERO, ZERO]
    per_term_exact = True
    for k in range(m + 1):
        if norm[2] != -h2[2 * k] or any(norm[1::2]):
            per_term_exact = False
        mul_binomial(norm, 1, Fraction(-1, (2 * k + 1) ** 2), lag=2)
        div_binomial(norm, 1, Fraction(1, (2 * k + 2) ** 2), lag=2)
    a2 = _split_series(_lem_thm1_ratio, m, SERIES_ORDER, (ZERO, Fraction(1)))[2]
    expected = -sum((ratios[k] ** 4 * h2[2 * k] for k in range(m + 1)), ZERO)
    return a2, expected, padic_valuation(a2, p), per_term_exact and a2 == expected


def _thm3_quotient(p):
    num = eval_hyp_sum_series(thm3_deformed_spec(p), SERIES_ORDER)
    scalar = coefficient(num, 0)
    quotient = num.scale(1 / scalar)
    integral = all(padic_valuation(c, p) >= 0 for c in quotient.coeffs)
    c2 = coefficient(quotient, 2)
    return c2, ZERO, padic_valuation(c2, p), integral and _odd_coeffs_vanish(quotient)


def _exact_div_p(p):
    m = (p - 1) // 2
    numerator = rising_factorial(Fraction(3, 4), m) * rising_factorial(Fraction(5, 4), m)
    return numerator / factorial(m) ** 2, ZERO


# --------------------------------------------------------------------------
# The case table
# --------------------------------------------------------------------------

#: Parameter domains.  A case without a parameter takes param 0.
_NO_PARAM = range(1)
_FROM_1 = range(1, sys.maxsize)
_FROM_2 = range(2, sys.maxsize)
_ODD = range(1, sys.maxsize, 2)

_EXACT = Requirement("exact")


def _ge(bound: int) -> Requirement:
    return Requirement("val_ge", bound)


@dataclass(frozen=True)
class Case:
    """Everything the harness knows about one case tag.

    ``compute`` takes ``(p, param, budget)`` for a congruence, ``(p, param,
    params)`` for an exact case and ``(p)`` for a series case, and returns
    ``(lhs, rhs[, achieved[, ok]])``.  ``achieved`` defaults to v_p(lhs - rhs)
    or EQUAL/UNEQUAL; a record passes iff ``ok`` and ``requirement(param)`` hold.
    """

    tag: str
    kind: str  # "congruence" | "exact" | "series"
    compute: Callable
    required: Requirement
    #: THM1/CONJ1: the bound is required.bound + r.
    bound_adds_param: bool = False
    #: Smallest prime the case runs at; 0 if it takes no prime (records have p = 0).
    min_prime: int = _P_MIN
    #: Accepted params; a direct call without one gets the first.
    domain: range = _NO_PARAM
    #: COMIDEN*: a direct call must give n.
    needs_param: bool = False
    #: The identity tags: a direct call may give an explicit parameter record.
    takes_params: bool = False
    #: Params run_suite runs at each prime (once without a prime); None: n runs over the primes >= 5.
    suite: Sequence[int] | None = (0,)
    #: Exponent r -> largest prime run_suite runs it at (None: no cap); run_suite skips other r.
    r_caps: dict | None = None
    conjectural: bool = False
    #: (p, param) -> the index n of the eta coefficient a_n the case reads.
    eta_index: Callable | None = None

    def requirement(self, param: int) -> Requirement:
        if self.bound_adds_param:
            return Requirement(self.required.kind, self.required.bound + param)
        return self.required


#: One row per case tag, in canonical report order.
CASES = {
    case.tag: case
    for case in (
        Case("EQ0", "congruence", _eq0, _ge(3)),
        Case(
            "THM1", "congruence", _thm1, _ge(3), bound_adds_param=True, domain=_FROM_1,
            r_caps={1: None, 2: 31},
        ),
        Case("THM2", "congruence", _thm2, _ge(4), eta_index=lambda p, _param: p),
        Case("KILBOURN", "congruence", _kilbourn, _ge(3), min_prime=3, eta_index=lambda p, _param: p),
        Case(
            "CONJ1", "congruence", _conj1, _ge(3), bound_adds_param=True, domain=_FROM_1,
            r_caps={1: None, 2: 19}, conjectural=True, eta_index=lambda p, r: p**r,
        ),
        Case("THM3", "congruence", _thm3, _ge(4)),
        Case("THM4", "congruence", _thm4, _ge(2)),
        Case("THM4_STRONG", "congruence", _thm4, _ge(3), conjectural=True),
        Case("COMCONJ2", "congruence", _comconj2, _ge(1), conjectural=True),
        Case("CAI", "congruence", _cai, _ge(3), domain=_FROM_1, r_caps={1: None, 2: 31}),
        Case("BINOM_NEG", "congruence", _binom_neg, _ge(1), domain=_FROM_1, r_caps={1: None, 2: 31}),
        Case("BINOM_POS", "congruence", _binom_pos, _ge(1), domain=_FROM_1, r_caps={1: None, 2: 31}),
        Case("BINOM_PROD", "congruence", _binom_prod, _ge(2), domain=_FROM_1, r_caps={1: None, 2: 31}),
        Case("H2_HALF", "congruence", _h2_half, _ge(1)),
        Case("ODDH2_HALF", "congruence", _oddh2_half, _ge(1)),
        Case("H2_REFLECT", "congruence", _h2_reflect, _ge(1)),
        Case("THMKEY", "congruence", _thmkey, _ge(1), domain=_FROM_1, suite=THMKEY_EXPONENTS),
        Case(
            "COMIDEN0", "exact", _comiden0, _EXACT, min_prime=0, domain=_FROM_2, needs_param=True,
            suite=COMIDEN0_RANGE,
        ),
        Case("COMIDEN1", "exact", _comiden1, _EXACT, min_prime=0, domain=_ODD, needs_param=True, suite=None),
        Case("COMIDEN2", "exact", _comiden2, _EXACT, min_prime=0, domain=_ODD, needs_param=True, suite=None),
        Case("LEMMA10", "exact", _lemma10, _EXACT),
        Case("LEMMA12", "exact", _lemma12, _EXACT),
        *(
            Case(
                i.value, "exact", partial(_identity, i), _EXACT, min_prime=0, domain=range(IDENTITY_DRAWS),
                takes_params=True, suite=range(IDENTITY_DRAWS),
            )
            for i in IdentityId
        ),
        Case("EQ10_A2", "series", _eq10_a2, _ge(1)),
        Case("SIX_F_FIVE_COEFFS", "series", _six_f_five, _ge(1)),
        Case("LEM_THM1_B2K", "series", _lem_thm1_b2k, _ge(1)),
        Case("THM3_QUOTIENT_X2", "series", _thm3_quotient, _ge(1)),
        Case("EXACT_DIV_P", "series", _exact_div_p, Requirement("val_eq", 1)),
    )
}

#: Canonical report order of all case tags.
CASE_ORDER = tuple(CASES)

#: Largest prime run_suite verifies per exponent r, for the cases that take r.
R_CAPS = {tag: case.r_caps for tag, case in CASES.items() if case.r_caps is not None}

CONJECTURAL_CASES = frozenset(tag for tag, case in CASES.items() if case.conjectural)


# --------------------------------------------------------------------------
# Entry points and the suite driver
# --------------------------------------------------------------------------


def _record(case, p, param, lhs=None, rhs=None, achieved=None, ok=True, error=None):
    """The record of one case instance, with requirement and flag from the table."""
    required = case.requirement(param)
    if error is not None:
        achieved, ok = f"error:{type(error).__name__}", False
    elif achieved is None and required.kind == "exact":
        achieved = "EQUAL" if lhs == rhs else "UNEQUAL"
    elif achieved is None:
        achieved = padic_valuation(lhs - rhs, p)
    return VerificationRecord(
        case=case.tag,
        p=p,
        param=param,
        required=required,
        achieved=achieved,
        lhs=lhs,
        rhs=rhs,
        passed=bool(ok and required.met_by(achieved)),
        conjectural=case.conjectural,
        error=None if error is None else str(error),
    )


def _prepare(tag: str, kind: str, p, param) -> tuple[Case, int]:
    """The table row of a ``kind`` case, with p and param checked against it, and the param."""
    case = CASES.get(tag)
    if case is None or case.kind != kind:
        raise KeyError(f"unknown {kind} case {tag!r}")
    if case.min_prime:
        if p is None:
            raise ValueError(f"{tag} needs the prime p")
        check_prime(p)
        if p < case.min_prime:
            raise ValueError(f"case {tag} requires p >= {case.min_prime}")
    elif p is not None:
        raise ValueError(f"case {tag} takes no prime p")
    if param is None and case.needs_param:
        raise ValueError(f"{tag} needs the integer parameter n")
    param = case.domain.start if param is None else int(param)
    if param not in case.domain:
        shown = ", ".join(map(str, case.domain[:3])) + (", ..." if len(case.domain) > 3 else "")
        raise ValueError(f"case {tag} takes param in {{{shown}}}, got {param}")
    return case, param


def verify_congruence_case(
    tag: str, p: int, param: int | None = None, *, budget: int = DEFAULT_BUDGET
) -> VerificationRecord:
    """Run one congruence case at prime p.

    ``param`` is the exponent r for THM1/CONJ1/CAI/BINOM_*, the power s for
    THMKEY (both default to 1), and 0 or None elsewhere.
    """
    case, param = _prepare(tag, "congruence", p, param)
    return _record(case, p, param, *case.compute(p, param, budget))


def verify_exact_case(
    tag: str,
    param: int | None = None,
    *,
    p: int | None = None,
    params: dict | None = None,
) -> VerificationRecord:
    """Run one exact-equality case.

    COMIDEN* take ``param`` = n; LEMMA10/12 take ``p``; the six identity tags
    take either an explicit parameter record ``params`` or a fixed-seed draw
    index ``param`` in 0..IDENTITY_DRAWS-1.  An input the case does not use
    raises ``ValueError``.
    """
    case, param = _prepare(tag, "exact", p, param)
    if params is not None and not case.takes_params:
        raise ValueError(f"case {tag} takes no parameter record")
    p = p if case.min_prime else 0
    return _record(case, p, param, *case.compute(p, param, params))


def verify_series_case(tag: str, p: int) -> VerificationRecord:
    """Run one deformation-series case at prime p."""
    case, param = _prepare(tag, "series", p, None)
    return _record(case, p, param, *case.compute(p))


def _instances(case: Case, primes: list[int], rs: list[int]) -> list[tuple[int, int]]:
    """(p, param) of every instance of a case that run_suite runs, in order."""
    if case.suite is None:
        return [(0, n) for n in primes if n >= _P_MIN]
    if not case.min_prime:
        return [(0, n) for n in case.suite]
    applicable = [p for p in primes if p >= case.min_prime]
    if case.r_caps is None:
        return [(p, s) for p in applicable for s in case.suite]
    caps = case.r_caps
    return [(p, r) for p in applicable for r in rs if r in caps and (caps[r] is None or p <= caps[r])]


def _run(case: Case, p: int, param: int, budget: int) -> VerificationRecord:
    # Looked up as module globals at call time, so a wrapped entry point is used.
    if case.kind == "congruence":
        return verify_congruence_case(case.tag, p, param, budget=budget)
    if case.kind == "series":
        return verify_series_case(case.tag, p)
    return verify_exact_case(case.tag, param, p=p if case.min_prime else None)


def select_cases(names) -> list[str]:
    """Normalize a case-name selection, preserving canonical order."""
    if names is None:
        return list(CASE_ORDER)
    wanted = set()
    for name in names:
        tag = str(name).strip().upper()
        if tag not in CASE_ORDER:
            raise KeyError(f"unknown case {name!r}")
        wanted.add(tag)
    return [tag for tag in CASE_ORDER if tag in wanted]


def run_suite(
    primes,
    rs=(1,),
    budget: int = DEFAULT_BUDGET,
    cases=None,
) -> list[VerificationRecord]:
    """Run every applicable case instance, in canonical order.

    ``primes`` is any iterable of candidate integers; non-primes and p < 3
    are dropped (p = 3 reaches only KILBOURN).  ``rs`` selects the exponents
    for the cases that take one, subject to R_CAPS.  Domain errors (a
    ``ValueError`` such as ``BudgetError`` or ``NotPrimeError``, or a
    ``PoleError``) become failed records that keep the message; any other
    exception is a bug and propagates.  An empty prime selection yields an
    empty record list.  Before any case runs, the eta expansion is widened
    once to the largest a_{p^r} the run reads within ``budget``.
    """
    prime_list = sorted({int(p) for p in primes if int(p) >= 3 and is_prime(int(p))})
    tags = select_cases(cases)
    if not prime_list:
        return []
    r_list = sorted({int(r) for r in rs})
    instances = [
        (CASES[tag], p, param) for tag in tags for p, param in _instances(CASES[tag], prime_list, r_list)
    ]
    # One eta expansion serves the whole run: the largest p^r within budget.
    eta_indices = [case.eta_index(p, param) for case, p, param in instances if case.eta_index]
    widest = max((n for n in eta_indices if n <= budget), default=None)
    if widest is not None:
        widest_expansion(widest)
    records: list[VerificationRecord] = []
    for case, p, param in instances:
        try:
            records.append(_run(case, p, param, budget))
        except (ValueError, PoleError) as exc:
            records.append(_record(case, p, param, error=exc))
    return records
