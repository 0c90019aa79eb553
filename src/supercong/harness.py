"""Registry binding every verified congruence, exact identity, and series
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
independent pure computations; run_suite's output order is canonical (case
registry order, then p, then the integer parameter) regardless of execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact_core import (
    INFINITY,
    Valuation,
    check_prime,
    harmonic2,
    is_prime,
    odd_harmonic2,
    padic_valuation,
    rising_factorial,
)
from .hypergeometric import (
    HypSum,
    IdentityId,
    PoleError,
    eval_hyp_sum,
    eval_hyp_sum_series,
    hyp_sum,
    identity_sides,
    sample_identity_params,
)
from .modular_form import DEFAULT_BUDGET, prime_power_coefficient
from .power_series import (
    TruncSeries,
    coefficient,
    constant,
    div_binomial,
    mul_binomial,
    ps_invert,
    ps_mul,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

#: Truncation order used for all deformation series (x^2 is what matters;
#: x^3 and x^4 are kept so parity assertions actually see something).
SERIES_ORDER = 4

#: Number of fixed-seed draws per identity in the randomized suite.
IDENTITY_DRAWS = 50

#: COMIDEN0 instances run over this n range in the full suite.
COMIDEN0_RANGE = range(2, 201)

#: Largest prime verified per exponent r, for the cases that take r.
#: r values without an entry are skipped by run_suite (quadratic blowup with
#: no extra coverage); direct calls may still request them.
R_CAPS = {
    "THM1": {1: None, 2: 31},
    "CAI": {1: None, 2: 31},
    "BINOM_NEG": {1: None, 2: 31},
    "BINOM_POS": {1: None, 2: 31},
    "BINOM_PROD": {1: None, 2: 31},
    "CONJ1": {1: None, 2: 19},
}

THMKEY_EXPONENTS = (1, 2, 3)

CONGRUENCE_CASES = (
    "EQ0",
    "THM1",
    "THM2",
    "KILBOURN",
    "CONJ1",
    "THM3",
    "THM4",
    "THM4_STRONG",
    "COMCONJ2",
    "CAI",
    "BINOM_NEG",
    "BINOM_POS",
    "BINOM_PROD",
    "H2_HALF",
    "ODDH2_HALF",
    "H2_REFLECT",
    "THMKEY",
)

EXACT_CASES = (
    "COMIDEN0",
    "COMIDEN1",
    "COMIDEN2",
    "LEMMA10",
    "LEMMA12",
) + tuple(i.value for i in IdentityId)

SERIES_CASES = (
    "EQ10_A2",
    "SIX_F_FIVE_COEFFS",
    "LEM_THM1_B2K",
    "THM3_QUOTIENT_X2",
    "EXACT_DIV_P",
)

#: Canonical report order of all case tags.
CASE_ORDER = CONGRUENCE_CASES + EXACT_CASES + SERIES_CASES

CONJECTURAL_CASES = frozenset({"CONJ1", "THM4_STRONG", "COMCONJ2"})

_MIN_PRIME = {tag: 5 for tag in CASE_ORDER}
_MIN_PRIME["KILBOURN"] = 3


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
    cases, or an ``error:...`` marker when the case computation raised.  For
    the per-k family cases, lhs and rhs belong to the k of weakest valuation.
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


def _congruence_record(tag, p, param, lhs, rhs, bound, extra_ok=True) -> VerificationRecord:
    req = Requirement("val_ge", bound)
    achieved = padic_valuation(lhs - rhs, p)
    return VerificationRecord(
        case=tag,
        p=p,
        param=param,
        required=req,
        achieved=achieved,
        lhs=lhs,
        rhs=rhs,
        passed=bool(req.met_by(achieved) and extra_ok),
        conjectural=tag in CONJECTURAL_CASES,
    )


def _exact_record(tag, p, param, lhs, rhs) -> VerificationRecord:
    equal = lhs == rhs
    return VerificationRecord(
        case=tag,
        p=p,
        param=param,
        required=Requirement("exact"),
        achieved="EQUAL" if equal else "UNEQUAL",
        lhs=lhs,
        rhs=rhs,
        passed=equal,
        conjectural=False,
    )


def _weakest(pairs, p) -> tuple[Valuation, Fraction, Fraction]:
    """Minimum valuation of lhs - rhs over a family, with the witnessing pair."""
    best_v: Valuation = INFINITY
    best = pairs[0]
    for lhs, rhs in pairs:
        v = padic_valuation(lhs - rhs, p)
        if v < best_v:
            best_v = v
            best = (lhs, rhs)
    return best_v, best[0], best[1]


def _sign_half(n: int) -> int:
    """(-1)^((n-1)/2) for odd n."""
    return -1 if ((n - 1) // 2) % 2 else 1


def _sign_eight(n: int) -> int:
    """(-1)^((n^2-1)/8 + (n-1)/2) for odd n."""
    return -1 if ((n * n - 1) // 8 + (n - 1) // 2) % 2 else 1


def _central_ratios(kmax: int):
    """c_0..c_kmax with c_k = (1/2)_k / k!, computed incrementally."""
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        out.append(out[-1] * Fraction(2 * k - 1, 2 * k))
    return out


def _harmonic2_table(kmax: int):
    """H2(0)..H2(kmax), computed incrementally."""
    out = [Fraction(0)]
    for j in range(1, kmax + 1):
        out.append(out[-1] + Fraction(1, j * j))
    return out


# --------------------------------------------------------------------------
# Sum specs owned by the congruence/exact cases (data, not code)
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


# --------------------------------------------------------------------------
# Deformed sum specs owned by the series cases
# --------------------------------------------------------------------------


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


def series_case_specs(p: int) -> dict[str, HypSum]:
    """The HypSum-backed deformation specs, keyed by case tag."""
    return {
        "EQ10_A2": eq10_series_spec(p),
        "SIX_F_FIVE_COEFFS": six_f_five_series_spec(p),
        "THM3_QUOTIENT_X2": thm3_deformed_spec(p),
    }


# --------------------------------------------------------------------------
# Congruence case runners
# --------------------------------------------------------------------------


def _run_eq0(p, _param, _budget):
    lhs = eval_hyp_sum(sum_eq0(p))
    return _congruence_record("EQ0", p, 0, lhs, Fraction(_sign_half(p) * p), 3)


def _run_thm1(p, r, _budget):
    lhs = eval_hyp_sum(sum_thm1(p, r))
    return _congruence_record("THM1", p, r, lhs, Fraction(p**r), 3 + r)


def _run_thm2(p, _param, budget):
    lhs = eval_hyp_sum(sum_sixth_power(p, 1))
    rhs = Fraction(p * prime_power_coefficient(p, 1, budget))
    return _congruence_record("THM2", p, 0, lhs, rhs, 4)


def _run_kilbourn(p, _param, budget):
    lhs = eval_hyp_sum(sum_kilbourn(p))
    rhs = Fraction(prime_power_coefficient(p, 1, budget))
    return _congruence_record("KILBOURN", p, 0, lhs, rhs, 3)


def _run_conj1(p, r, budget):
    lhs = eval_hyp_sum(sum_sixth_power(p, r))
    rhs = Fraction(p**r * prime_power_coefficient(p, r, budget))
    return _congruence_record("CONJ1", p, r, lhs, rhs, 3 + r)


def _run_thm3(p, _param, _budget):
    lhs = eval_hyp_sum(sum_thm3(p))
    return _congruence_record("THM3", p, 0, lhs, Fraction(_sign_half(p) * p), 4)


def _run_thm4(p, _param, _budget):
    lhs = eval_hyp_sum(sum_thm4(p))
    return _congruence_record("THM4", p, 0, lhs, Fraction(_sign_eight(p) * p), 2)


def _run_thm4_strong(p, _param, _budget):
    lhs = eval_hyp_sum(sum_thm4(p))
    return _congruence_record("THM4_STRONG", p, 0, lhs, Fraction(_sign_eight(p) * p), 3)


def _run_comconj2(p, _param, _budget):
    m = (p - 1) // 2
    ratios = _central_ratios(m)
    total = Fraction(0)
    odd_h2 = Fraction(0)
    h2 = Fraction(0)
    zk = Fraction(1)
    for k in range(m + 1):
        if k:
            odd_h2 += Fraction(1, (2 * k - 1) ** 2)
            h2 += Fraction(1, k * k)
            zk *= Fraction(-1, 8)
        total += (6 * k + 1) * ratios[k] ** 3 * (odd_h2 - h2 / 16) * zk
    return _congruence_record("COMCONJ2", p, 0, total, Fraction(0), 1)


def _run_cai(p, r, _budget):
    m = (p**r - 1) // 2
    lhs = Fraction((-1) ** m * comb(p**r - 1, m))
    ratios = _central_ratios(m)
    return _congruence_record("CAI", p, r, lhs, ratios[m] ** 2, 3)


def _binom_family(p, r, make_pair, tag, bound):
    m = (p**r - 1) // 2
    ratios = _central_ratios(m)
    pairs = [make_pair(m, k, ratios[k]) for k in range(1, m + 1)]
    v, lhs, rhs = _weakest(pairs, p)
    req = Requirement("val_ge", bound)
    return VerificationRecord(
        case=tag,
        p=p,
        param=r,
        required=req,
        achieved=v,
        lhs=lhs,
        rhs=rhs,
        passed=req.met_by(v),
        conjectural=False,
    )


def _run_binom_neg(p, r, _budget):
    return _binom_family(
        p, r, lambda m, k, c: (Fraction((-1) ** k * comb(m, k)), c), "BINOM_NEG", 1
    )


def _run_binom_pos(p, r, _budget):
    return _binom_family(
        p, r, lambda m, k, c: (Fraction(comb(m + k, k)), c), "BINOM_POS", 1
    )


def _run_binom_prod(p, r, _budget):
    return _binom_family(
        p,
        r,
        lambda m, k, c: (Fraction((-1) ** k * comb(m, k) * comb(m + k, k)), c * c),
        "BINOM_PROD",
        2,
    )


def _run_h2_half(p, _param, _budget):
    return _congruence_record("H2_HALF", p, 0, harmonic2((p - 1) // 2), Fraction(0), 1)


def _run_oddh2_half(p, _param, _budget):
    return _congruence_record("ODDH2_HALF", p, 0, odd_harmonic2((p - 1) // 2), Fraction(0), 1)


def _run_h2_reflect(p, _param, _budget):
    table = _harmonic2_table(p - 2)
    pairs = [(table[k] + table[p - 1 - k], Fraction(0)) for k in range(1, p - 1)]
    v, lhs, rhs = _weakest(pairs, p)
    req = Requirement("val_ge", 1)
    return VerificationRecord(
        case="H2_REFLECT",
        p=p,
        param=0,
        required=req,
        achieved=v,
        lhs=lhs,
        rhs=rhs,
        passed=req.met_by(v),
        conjectural=False,
    )


def _run_thmkey(p, s, _budget):
    m = (p - 1) // 2
    ratios = _central_ratios(m)
    table = _harmonic2_table(2 * m)
    total = sum(
        (ratios[k] ** (2 * s) * table[2 * k] for k in range(m + 1)), Fraction(0)
    )
    return _congruence_record("THMKEY", p, s, total, Fraction(0), 1)


_CONGRUENCE_RUNNERS = {
    "EQ0": _run_eq0,
    "THM1": _run_thm1,
    "THM2": _run_thm2,
    "KILBOURN": _run_kilbourn,
    "CONJ1": _run_conj1,
    "THM3": _run_thm3,
    "THM4": _run_thm4,
    "THM4_STRONG": _run_thm4_strong,
    "COMCONJ2": _run_comconj2,
    "CAI": _run_cai,
    "BINOM_NEG": _run_binom_neg,
    "BINOM_POS": _run_binom_pos,
    "BINOM_PROD": _run_binom_prod,
    "H2_HALF": _run_h2_half,
    "ODDH2_HALF": _run_oddh2_half,
    "H2_REFLECT": _run_h2_reflect,
    "THMKEY": _run_thmkey,
}

_DEFAULT_CONGRUENCE_PARAM = {
    "THM1": 1,
    "CONJ1": 1,
    "CAI": 1,
    "BINOM_NEG": 1,
    "BINOM_POS": 1,
    "BINOM_PROD": 1,
    "THMKEY": 1,
}


def verify_congruence_case(
    tag: str, p: int, param: int | None = None, *, budget: int = DEFAULT_BUDGET
) -> VerificationRecord:
    """Run one congruence case at prime p.

    ``param`` is the exponent r for THM1/CONJ1/CAI/BINOM_*, the power s for
    THMKEY, and ignored elsewhere.
    """
    if tag not in _CONGRUENCE_RUNNERS:
        raise KeyError(f"unknown congruence case {tag!r}")
    check_prime(p)
    if p < _MIN_PRIME[tag]:
        raise ValueError(f"case {tag} requires p >= {_MIN_PRIME[tag]}")
    if param is None:
        param = _DEFAULT_CONGRUENCE_PARAM.get(tag, 0)
    return _CONGRUENCE_RUNNERS[tag](p, param, budget)


# --------------------------------------------------------------------------
# Exact case runners
# --------------------------------------------------------------------------


def _run_comiden0(n: int) -> VerificationRecord:
    if n < 2:
        raise ValueError("COMIDEN0 requires n > 1")
    total = sum(
        (
            Fraction((-1) ** k * comb(n, k) * comb(n + k, k), 2 * k + 1)
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    return _exact_record("COMIDEN0", 0, n, (2 * n + 1) * total, Fraction(1))


def _comiden_m(n: int) -> int:
    if n < 1 or n % 2 == 0:
        raise ValueError("this identity requires a positive odd n")
    return (n - 1) // 2


def _run_comiden1(n: int) -> VerificationRecord:
    m = _comiden_m(n)
    q = Fraction(n, 4)
    lhs = (
        rising_factorial(Fraction(3, 2) - q, m)
        * rising_factorial(1 - Fraction(n, 2), m)
        / (rising_factorial(2 - Fraction(n, 2), m) * rising_factorial(1 - q, m))
    )
    return _exact_record("COMIDEN1", 0, n, lhs, Fraction(_sign_half(n) * n))


def _run_comiden2(n: int) -> VerificationRecord:
    m = _comiden_m(n)
    lhs = (
        rising_factorial(Fraction(3, 2) - Fraction(n, 4), m)
        / rising_factorial(2 - Fraction(n, 2), m)
        * Fraction(2) ** m
    )
    return _exact_record("COMIDEN2", 0, n, lhs, Fraction(_sign_eight(n) * n))


def _run_lemma10(p: int) -> VerificationRecord:
    lhs = eval_hyp_sum(sum_lemma10(p))
    return _exact_record("LEMMA10", p, 0, lhs, Fraction(_sign_half(p) * p))


def _run_lemma12(p: int) -> VerificationRecord:
    lhs = eval_hyp_sum(sum_lemma10(p, z=Fraction(-1, 8)))
    return _exact_record("LEMMA12", p, 0, lhs, Fraction(_sign_eight(p) * p))


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
    index ``param`` (0..49 by default).
    """
    if tag in ("COMIDEN0", "COMIDEN1", "COMIDEN2"):
        if param is None:
            raise ValueError(f"{tag} needs the integer parameter n")
        if tag == "COMIDEN0":
            return _run_comiden0(int(param))
        if tag == "COMIDEN1":
            return _run_comiden1(int(param))
        return _run_comiden2(int(param))
    if tag in ("LEMMA10", "LEMMA12"):
        if p is None:
            raise ValueError(f"{tag} needs the prime p")
        check_prime(p)
        if p < 5:
            raise ValueError(f"case {tag} requires p >= 5")
        return _run_lemma10(p) if tag == "LEMMA10" else _run_lemma12(p)
    try:
        identity = IdentityId(tag)
    except ValueError:
        raise KeyError(f"unknown exact case {tag!r}") from None
    if params is None:
        index = int(param or 0)
        draws = sample_identity_params(identity, max(IDENTITY_DRAWS, index + 1))
        params = draws[index]
    else:
        index = int(param or 0)
    lhs, rhs = identity_sides(identity, params)
    return _exact_record(tag, 0, index, lhs, rhs)


# --------------------------------------------------------------------------
# Series case runners
# --------------------------------------------------------------------------


def _odd_coeffs_vanish(ser) -> bool:
    return all(c == 0 for c in ser.coeffs[1::2])


@lru_cache(maxsize=None)
def _eq10_series(p: int) -> TruncSeries:
    # EQ10_A2 reads this series and SIX_F_FIVE_COEFFS compares against it.
    return eval_hyp_sum_series(eq10_series_spec(p), SERIES_ORDER)


def _run_eq10_a2(p: int) -> VerificationRecord:
    ser = _eq10_series(p)
    a2 = coefficient(ser, 2)
    return _congruence_record(
        "EQ10_A2", p, 0, a2, Fraction(0), 1, extra_ok=_odd_coeffs_vanish(ser)
    )


def _run_six_f_five(p: int) -> VerificationRecord:
    ser10 = _eq10_series(p)
    ser65 = eval_hyp_sum_series(six_f_five_series_spec(p), SERIES_ORDER)
    vals = [padic_valuation(c, p) for c in ser65.coeffs]
    vals.append(padic_valuation(ser10.coeffs[0] - ser65.coeffs[0], p))
    achieved = min(vals)
    req = Requirement("val_ge", 1)
    return VerificationRecord(
        case="SIX_F_FIVE_COEFFS",
        p=p,
        param=0,
        required=req,
        achieved=achieved,
        lhs=ser65.coeffs[0],
        rhs=ser10.coeffs[0],
        passed=bool(req.met_by(achieved) and _odd_coeffs_vanish(ser65)),
        conjectural=False,
    )


def _lem_thm1_terms(kmax: int, order: int = SERIES_ORDER):
    """Terms 0..kmax of the conjugate-deformed quartic sum, as series in x.

    Term k is (1/2)_k^2 (1/2+x/2)_k (1/2-x/2)_k / (k!^2 * |(1 + i x/2)_k|^2);
    the conjugate pairs multiply out to real quadratics, so the term ratio is
    ((k+1/2)/(k+1))^2 * ((k+1/2)^2 - x^2/4) / ((k+1)^2 + x^2/4).
    """
    core = [Fraction(1)] + [Fraction(0)] * order
    for k in range(kmax + 1):
        yield TruncSeries(tuple(core))
        if k == kmax:
            break
        a = k + HALF
        mul_binomial(core, a * a, -QUARTER, lag=2)
        div_binomial(core, Fraction((k + 1) ** 2), QUARTER, lag=2)
        scale = (a / (k + 1)) ** 2
        for d in range(order + 1):
            core[d] *= scale


def lem_thm1_term_series(k: int, order: int = SERIES_ORDER):
    """Term k of the conjugate-deformed quartic sum as a series in x.

    (1/2)_k^2 (1/2+x/2)_k (1/2-x/2)_k / (k!^2 * |(1 + i x/2)_k|^2); the
    conjugate lower pair multiplies out to prod_j (j^2 + x^2/4).
    """
    if k < 0:
        raise ValueError("term index must be nonnegative")
    *_, term = _lem_thm1_terms(k, order)
    return term


def _run_lem_thm1_b2k(p: int) -> VerificationRecord:
    m = (p - 1) // 2
    ratios = _central_ratios(m)
    h2 = _harmonic2_table(2 * m)
    a2 = Fraction(0)
    expected = Fraction(0)
    per_term_exact = True
    for k, term in enumerate(_lem_thm1_terms(m)):
        c2 = coefficient(term, 2)
        want = -(ratios[k] ** 4) * h2[2 * k]
        if c2 != want or not _odd_coeffs_vanish(term):
            per_term_exact = False
        a2 += c2
        expected += want
    req = Requirement("val_ge", 1)
    achieved = padic_valuation(a2, p)
    return VerificationRecord(
        case="LEM_THM1_B2K",
        p=p,
        param=0,
        required=req,
        achieved=achieved,
        lhs=a2,
        rhs=expected,
        passed=bool(per_term_exact and a2 == expected and req.met_by(achieved)),
        conjectural=False,
    )


def _run_thm3_quotient(p: int) -> VerificationRecord:
    num = eval_hyp_sum_series(thm3_deformed_spec(p), SERIES_ORDER)
    scalar = coefficient(num, 0)
    quotient = ps_mul(num, ps_invert(constant(scalar, SERIES_ORDER)))
    integral = all(padic_valuation(c, p) >= 0 for c in quotient.coeffs)
    c2 = coefficient(quotient, 2)
    return _congruence_record(
        "THM3_QUOTIENT_X2",
        p,
        0,
        c2,
        Fraction(0),
        1,
        extra_ok=integral and _odd_coeffs_vanish(quotient),
    )


def _run_exact_div_p(p: int) -> VerificationRecord:
    m = (p - 1) // 2
    value = (
        rising_factorial(Fraction(3, 4), m)
        * rising_factorial(Fraction(5, 4), m)
        / Fraction(factorial(m)) ** 2
    )
    req = Requirement("val_eq", 1)
    achieved = padic_valuation(value, p)
    return VerificationRecord(
        case="EXACT_DIV_P",
        p=p,
        param=0,
        required=req,
        achieved=achieved,
        lhs=value,
        rhs=Fraction(0),
        passed=req.met_by(achieved),
        conjectural=False,
    )


_SERIES_RUNNERS = {
    "EQ10_A2": _run_eq10_a2,
    "SIX_F_FIVE_COEFFS": _run_six_f_five,
    "LEM_THM1_B2K": _run_lem_thm1_b2k,
    "THM3_QUOTIENT_X2": _run_thm3_quotient,
    "EXACT_DIV_P": _run_exact_div_p,
}


def verify_series_case(tag: str, p: int) -> VerificationRecord:
    """Run one deformation-series case at prime p."""
    if tag not in _SERIES_RUNNERS:
        raise KeyError(f"unknown series case {tag!r}")
    check_prime(p)
    if p < 5:
        raise ValueError(f"case {tag} requires p >= 5")
    return _SERIES_RUNNERS[tag](p)


# --------------------------------------------------------------------------
# Suite driver
# --------------------------------------------------------------------------


def _nominal_requirement(tag: str, param: int) -> Requirement:
    if tag in ("THM1", "CONJ1"):
        return Requirement("val_ge", 3 + param)
    bounds = {
        "EQ0": 3,
        "THM2": 4,
        "KILBOURN": 3,
        "THM3": 4,
        "THM4": 2,
        "THM4_STRONG": 3,
        "COMCONJ2": 1,
        "CAI": 3,
        "BINOM_NEG": 1,
        "BINOM_POS": 1,
        "BINOM_PROD": 2,
        "H2_HALF": 1,
        "ODDH2_HALF": 1,
        "H2_REFLECT": 1,
        "THMKEY": 1,
    }
    if tag in bounds:
        return Requirement("val_ge", bounds[tag])
    if tag == "EXACT_DIV_P":
        return Requirement("val_eq", 1)
    if tag in SERIES_CASES:
        return Requirement("val_ge", 1)
    return Requirement("exact")


def _error_record(tag, p, param, exc) -> VerificationRecord:
    return VerificationRecord(
        case=tag,
        p=p,
        param=param,
        required=_nominal_requirement(tag, param),
        achieved=f"error:{type(exc).__name__}",
        lhs=None,
        rhs=None,
        passed=False,
        conjectural=tag in CONJECTURAL_CASES,
    )


def _case_instances(tag: str, primes: list[int], rs: list[int], budget: int):
    """Yield (p, param, thunk) triples for every applicable instance of a case."""
    applicable = [p for p in primes if p >= _MIN_PRIME[tag]]
    if tag in _CONGRUENCE_RUNNERS:
        if tag in R_CAPS:
            caps = R_CAPS[tag]
            valid_rs = [r for r in rs if r in caps]
            for p in applicable:
                for r in valid_rs:
                    cap = caps[r]
                    if cap is not None and p > cap:
                        continue
                    yield p, r, (lambda p=p, r=r: verify_congruence_case(tag, p, r, budget=budget))
        elif tag == "THMKEY":
            for p in applicable:
                for s in THMKEY_EXPONENTS:
                    yield p, s, (lambda p=p, s=s: verify_congruence_case(tag, p, s, budget=budget))
        else:
            for p in applicable:
                yield p, 0, (lambda p=p: verify_congruence_case(tag, p, budget=budget))
    elif tag == "COMIDEN0":
        for n in COMIDEN0_RANGE:
            yield 0, n, (lambda n=n: verify_exact_case(tag, n))
    elif tag in ("COMIDEN1", "COMIDEN2"):
        for p in applicable:
            yield 0, p, (lambda p=p: verify_exact_case(tag, p))
    elif tag in ("LEMMA10", "LEMMA12"):
        for p in applicable:
            yield p, 0, (lambda p=p: verify_exact_case(tag, p=p))
    elif tag in set(i.value for i in IdentityId):
        for index in range(IDENTITY_DRAWS):
            yield 0, index, (lambda index=index: verify_exact_case(tag, index))
    elif tag in _SERIES_RUNNERS:
        for p in applicable:
            yield p, 0, (lambda p=p: verify_series_case(tag, p))
    else:  # pragma: no cover - registry and CASE_ORDER are kept in sync
        raise KeyError(f"unknown case {tag!r}")


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
    ``PoleError``) become failed records instead of aborting the suite; any
    other exception is a bug and propagates.  An empty prime selection
    yields an empty record list.
    """
    prime_list = sorted({int(p) for p in primes if int(p) >= 3 and is_prime(int(p))})
    tags = select_cases(cases)
    if not prime_list:
        return []
    r_list = sorted({int(r) for r in rs})
    records: list[VerificationRecord] = []
    for tag in tags:
        for p, parameter, thunk in _case_instances(tag, prime_list, r_list, budget):
            try:
                records.append(thunk())
            except (ValueError, PoleError) as exc:
                records.append(_error_record(tag, p, parameter, exc))
    return records
