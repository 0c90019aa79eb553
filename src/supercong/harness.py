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
               read as -[x^2] of the z = -1/8 deformation (thm3_deformed_spec)
  CAI(r)       (-1)^M binom(p^r-1, M), M=(p^r-1)/2  vs c_M^2           v >= 3
  BINOM_NEG(r) (-1)^k binom(M, k)      vs c_k   for 1 <= k <= M        v >= 1 each
  BINOM_POS(r) binom(M+k, k)           vs c_k   for 1 <= k <= M        v >= 1 each
  BINOM_PROD(r)(-1)^k binom(M,k) binom(M+k,k) vs c_k^2 for 1<=k<=M     v >= 2 each
  H2_HALF      H2(m)                   vs 0                            v >= 1
  ODDH2_HALF   OH2(m)                  vs 0                            v >= 1
  H2_REFLECT   H2(k) + H2(p-1-k)       vs 0     for 1 <= k <= p-2      v >= 1 each
  THMKEY(s)    sum_{k<=m} c_k^(2s) H2(2k) vs 0                         v >= 1
               read as -[x^2] of sum c_k^(2s) prod_{j<=2k} (1 - x^2/j^2)

where a_n is the eta-product coefficient (modular_form module) and
e(p) = (-1)^((p^2-1)/8 + (p-1)/2).  Every sum of c_k^e above is one
``central_sum(e, K, z, weight)``, read through ``_central`` as a prefix of
one running split per (e, z, weight) that all primes and cases of a process
share (hypergeometric.PrefixSums).  H2_HALF, ODDH2_HALF and H2_REFLECT
read H2 and OH2 the same way, as running prefixes of the 3F2 sums whose
term k is 1/(k+1)^2 and 1/(2k+1)^2, and COMCONJ2, EQ10_A2 and
THM3_QUOTIENT_X2 read their deformed sums, which depend on p only through
m, as prefixes of running series splits.  ``_family`` is the one cache of
these splits, keyed on a spec builder and its arguments.  LEM_THM1_B2K
reads a running series split over its term ratio that also checks each
step once; only THMKEY and SIX_F_FIVE_COEFFS still sum their series per
prime.  A per-k family record keeps the first k of least valuation,
found by one search (``_weakest_k``) over a list of per-k valuations read
mod p^N.  BINOM_* step their ratio to c_k^e on plain ints, and H2_REFLECT
steps H2(j); the search builds only the weakest k's lhs and rhs as exact
fractions.

Exact cases (pass iff both sides agree exactly):

  COMIDEN0(n)  (2n+1) sum_{k<=n} (-1)^k binom(n,k) binom(n+k,k)/(2k+1) = 1,  n >= 2
               evaluated as (2n+1) 3F2(-n, n+1, 1/2; 1, 3/2; 1) by binary splitting
  COMIDEN1(n)  (3/2-n/4)_m (1-n/2)_m / ((2-n/2)_m (1-n/4)_m) = (-1)^m n,  odd n, m=(n-1)/2
  COMIDEN2(n)  (3/2-n/4)_m / (2-n/2)_m * 2^m = e(n) n,  odd n
  LEMMA10      sum_{k<=m} (6k+1) (1/2)_k (1/2-p/2)_k (1/2+p/2)_k
               / ((1)_k (1+p/4)_k (1-p/4)_k) * 4^-k  =  (-1)^m p
               evaluated as thm3_deformed_spec pinned at x = p (specialize)
  LEMMA12      same weights with argument -1/8      =  e(p) p
  WHIPPLE_4F3, WHIPPLE_6F5, WHIPPLE_7F6, GESSEL_31_1, GOSPER_STRANGE,
  GESSEL_P544  randomized exact checks of the six evaluation identities of
               hypergeometric.IDENTITIES, one record per fixed-seed draw
               (param = draw index, p = 0); a record reports the sides that
               rejection sampling evaluated at its draw

Series cases (x-deformations, expanded to order 4):

  EQ10_A2           x^2 coefficient A2 of the deformed alternating (4k+1)
                    sum (upper 1/2, (1-x)/2, (1+x)/2; lower 1 +/- x/2)
                    has v >= 1; odd coefficients must vanish
  SIX_F_FIVE_COEFFS every coefficient of the companion deformed sum (extra
                    upper (1-p)/2 and 1, extra lower 1+p/2) has v >= 1, and
                    its constant term matches EQ0's sum (EQ10's constant
                    term) mod p
  LEM_THM1_B2K      every term ratio the split sums is even in x, with
                    constant ((2k-1)/(2k))^4 and x^2 step -(1/(2k-1)^2 +
                    1/(2k)^2), so term k of the conjugate-deformed quartic
                    sum is c_k^4 (1 - H2(2k) x^2) mod x^4; the summed x^2
                    coefficient equals that of THMKEY(2)'s deformation, and
                    it has v >= 1
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
the table ``CASES``, a ``Case`` named tuple; a new family of congruences is
one new row.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from typing import Callable, NamedTuple, Sequence

from . import exact_core
from .exact_core import INFINITY, _split_power, check_prime, is_prime, padic_valuation, rising_factorial
from .hypergeometric import (
    IDENTITIES,
    IDENTITY_DRAWS,
    HypSum,
    PoleError,
    PrefixSums,
    eval_hyp_sum,
    eval_hyp_sum_series,
    hyp_sum,
    sample_identity_params,
    specialize,
)
from .modular_form import EXPANSION_CEILING, prime_power_coefficient, widest_expansion
from .power_series import coefficient

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
ZERO = Fraction(0)

#: Truncation order used for all deformation series (x^2 is what matters;
#: x^3 and x^4 are kept so parity assertions actually see something).
SERIES_ORDER = 4

#: COMIDEN0 instances run over this n range in the full suite.
COMIDEN0_RANGE = range(2, 201)

THMKEY_EXPONENTS = (1, 2, 3)

#: The smallest prime of a case whose hypotheses require p > 3.
_P_MIN = 5


class Requirement(NamedTuple):
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


class VerificationRecord(NamedTuple):
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


#: The keys of a report entry, in report order (the CSV header).
REPORT_KEYS = ("case", "p", "param", "required", "achieved", "lhs", "rhs", "pass", "conjectural")


def report_entry(rec: VerificationRecord) -> dict:
    """Serialize a record to the fixed report schema (exact strings, no floats)."""
    values = (
        rec.case,
        rec.p,
        rec.param,
        rec.required.render(),
        rec.achieved_str(),
        _fraction_str(rec.lhs),
        _fraction_str(rec.rhs),
        rec.passed,
        rec.conjectural,
    )
    return dict(zip(REPORT_KEYS, values))


def _sign_half(n: int) -> int:
    """(-1)^((n-1)/2) for odd n."""
    return -1 if ((n - 1) // 2) % 2 else 1


def _sign_eight(n: int) -> int:
    """(-1)^((n^2-1)/8 + (n-1)/2) for odd n."""
    return -1 if ((n * n - 1) // 8 + (n - 1) // 2) % 2 else 1


# --------------------------------------------------------------------------
# Sum specs: the c_k^e family, and Long's x-deformations of it
# --------------------------------------------------------------------------


def central_sum(e: int, K: int, z=1, weight=(0, 1)) -> HypSum:
    """sum_{k<=K} (w1 k + w0) c_k^e z^k, with (w1, w0) = weight."""
    return hyp_sum([HALF] * e, [1] * (e - 1), z=z, K=K, weight=weight)


@lru_cache(maxsize=None)
def _family(build: Callable, *args, order=None) -> PrefixSums:
    # One running split per sum whose parameters depend on p at most through
    # its truncation, at x = 0 or, given an order, mod x^(order+1), shared by
    # every prime and case of a process.  Keyed on the spec builder and its
    # arguments, never on a HypSum; the built spec's truncation is not read.
    return PrefixSums.of(build(*args), order)


def _central(e: int, K: int, z=1, weight=(0, 1)) -> Fraction:
    """The value of central_sum(e, K, z, weight), read off its family's running split."""
    return _family(central_sum, e, 0, z, weight).at(K)


def eq10_series_spec(p: int) -> HypSum:
    """Deformed alternating (4k+1) sum; at x = 0 it is EQ0's sum, at x = p it is (-1)^m p exactly."""
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


def thm3_deformed_spec(p: int, z=QUARTER) -> HypSum:
    """Deformed (6k+1) z^k sum; at z = 1/4 the numerator of the quotient-series case.

    Term k is (6k+1) c_k^3 z^k prod_{j<=k} (1 - x^2/(2j-1)^2) / (1 - x^2/(16j^2)),
    so its x^2 coefficient is -(6k+1) c_k^3 z^k (OH2(k) - H2(k)/16).
    """
    return hyp_sum(
        [HALF, (HALF, -HALF), (HALF, HALF)],
        [(1, QUARTER), (1, -QUARTER)],
        z=z,
        K=(p - 1) // 2,
        weight=(6, 1),
    )


def thmkey_series_spec(p: int, s: int) -> HypSum:
    """Deformed sum of c_k^(2s) prod_{j<=2k} (1 - x^2/j^2), whose x^2 coefficient is -THMKEY(s).

    (1/2 -+ x/2)_k (1 -+ x/2)_k multiply out to (1/2)_k^2 k!^2 prod_{j<=2k} (1 - x^2/j^2).
    """
    return hyp_sum(
        [HALF] * (2 * s - 2) + [(HALF, -HALF), (HALF, HALF), (1, -HALF), (1, HALF)],
        [1] * (2 * s + 1),
        z=1,
        K=(p - 1) // 2,
    )


@lru_cache(maxsize=None)
def _thmkey_x2(p: int, s: int) -> Fraction:
    # THMKEY(2) and LEM_THM1_B2K's expected side read this sum at the same p.
    # Keyed on (p, s), not on the spec: 372 HypSum keys held 0.9 MB on a
    # sweep to p = 499 that never reads them again.
    return coefficient(eval_hyp_sum_series(thmkey_series_spec(p, s), 2), 2)


# --------------------------------------------------------------------------
# Congruence cases
# --------------------------------------------------------------------------


def _eq0(p, _param):
    return _central(3, (p - 1) // 2, -1, (4, 1)), Fraction(_sign_half(p) * p)


def _thm1(p, r):
    return _central(4, (p**r - 1) // 2, 1, (4, 1)), Fraction(p**r)


# THM2, KILBOURN and CONJ1 read a_{p^r} before the sum, so that an index
# above the expansion ceiling fails before (p^r-1)/2 terms are summed.


def _thm2(p, _param):
    rhs = Fraction(p * prime_power_coefficient(p, 1))
    return _central(6, (p - 1) // 2, 1, (4, 1)), rhs


def _kilbourn(p, _param):
    rhs = Fraction(prime_power_coefficient(p, 1))
    return _central(4, (p - 1) // 2), rhs


def _conj1(p, r):
    rhs = Fraction(p**r * prime_power_coefficient(p, r))
    # at r = 1 this is THM2's sum, read from the same family
    return _central(6, (p**r - 1) // 2, 1, (4, 1)), rhs


def _thm3(p, _param):
    return _central(3, (p - 1) // 2, QUARTER, (6, 1)), Fraction(_sign_half(p) * p)


def _thm4(p, _param):
    # THM4 and THM4_STRONG: the same sum and target under different bounds
    return _central(3, (p - 1) // 2, Fraction(-1, 8), (6, 1)), Fraction(_sign_eight(p) * p)


def _comconj2(p, _param):
    # Long's z = -1/8 deformation; thm3_deformed_spec gives the x^2 coefficient
    # of each term, and depends on p only through m, so any prime builds its family
    return -_family(thm3_deformed_spec, _P_MIN, Fraction(-1, 8), order=2).at((p - 1) // 2)[2], ZERO


def _cai(p, r):
    m = (p**r - 1) // 2
    lhs = Fraction((-1) ** m * comb(p**r - 1, m))
    return lhs, Fraction(comb(2 * m, m), 4**m) ** 2


def _binom_pair(uppers, k: int) -> tuple[Fraction, Fraction]:
    """A BINOM_* family's exact lhs = prod over a in ``uppers`` of (a)_k/k! and rhs = c_k^len(uppers)."""
    lhs = 1
    for a in uppers:
        # (a)_k/k! is C(a+k-1, k), or (-1)^k C(-a, k) for a <= 0
        lhs *= comb(a + k - 1, k) if a > 0 else (-1) ** k * comb(-a, k)
    return Fraction(lhs), Fraction(comb(2 * k, k), 4**k) ** len(uppers)


def _binom_valuations(p: int, m: int, uppers) -> list:
    """v_p(lhs_k - rhs_k) of a BINOM_* family (see _binom_pair), k = 1..m in order.

    With e = len(uppers), lhs_k = c_k^e w_k, where w_k = prod_{j<=k} prod_a
    (2a + 2j - 2)/(2j - 1); so v_p(lhs_k - rhs_k) = e v_p(c_k) + v_p(w_k - 1).
    w_k is stepped on plain ints as p^v num/den, with num and den units kept
    mod p^N, and v_p(c_k) as a counter.  A k whose w_k agrees with 1 in all N
    digits takes its valuation from its exact pair.
    """
    modulus = p**exact_core._RESIDUE_DIGITS
    e = len(uppers)
    shifts = [2 * a - 2 for a in uppers]
    vc = vw = 0  # v_p(c_k), v_p(w_k)
    num = den = 1
    valuations = []
    for k in range(1, m + 1):
        odd = 2 * k - 1
        if odd % p == 0:
            t, odd = _split_power(odd, p)
            vc += t
            vw -= e * t
        if k % p == 0:
            vc -= _split_power(k, p)[0]
        step = 1
        for s in shifts:
            step *= s + 2 * k
        if step % p == 0:
            t, step = _split_power(step, p)
            vw += t
        num = num * step % modulus
        den = den * odd**e % modulus
        gap = (num - den) % modulus
        if vw:  # then w_k - 1 has the lesser valuation of w_k and 1
            valuations.append(e * vc + min(vw, 0))
        elif gap:
            valuations.append(e * vc + _split_power(gap, p)[0])
        else:
            lhs, rhs = _binom_pair(uppers, k)
            valuations.append(padic_valuation(lhs - rhs, p))
    return valuations


def _weakest_k(p: int, valuations: list, exact_pair: Callable):
    """The first k of least v_p(lhs_k - rhs_k), with that k's exact lhs, rhs and valuation.

    ``valuations`` holds the searched valuation of k = 1, 2, ... in order,
    and ``exact_pair(k)`` builds k's exact (lhs, rhs).  Only the weakest k is
    built, and its valuation must match the search's; a mismatch is a bug
    and raises AssertionError.
    """
    v = min(valuations)
    k = valuations.index(v) + 1
    lhs, rhs = exact_pair(k)
    achieved = padic_valuation(lhs - rhs, p)
    if achieved != v:
        raise AssertionError(f"p={p} k={k}: residue valuation {v}, exact valuation {achieved}")
    return lhs, rhs, achieved


def _binom_family(p, r, uppers_of):
    """The weakest k <= M of a BINOM_* family, M = (p^r-1)/2; ``uppers_of(M)``
    gives its upper parameters (see _binom_pair and _binom_valuations)."""
    m = (p**r - 1) // 2
    uppers = uppers_of(m)
    return _weakest_k(p, _binom_valuations(p, m, uppers), partial(_binom_pair, uppers))


def _binom_neg(p, r):
    return _binom_family(p, r, lambda m: (-m,))  # (-M)_k/k! = (-1)^k C(M, k)


def _binom_pos(p, r):
    return _binom_family(p, r, lambda m: (m + 1,))  # (M+1)_k/k! = C(M+k, k)


def _binom_prod(p, r):
    return _binom_family(p, r, lambda m: (-m, m + 1))


def _h2(k: int) -> Fraction:
    """H2(k) for k >= 1: term j of the family is 1/(j+1)^2, so j <= k - 1 sums to H2(k)."""
    return _family(hyp_sum, (1, 1, 1), (2, 2), 1, 0).at(k - 1)


def _h2_half(p, _param):
    return _h2((p - 1) // 2), ZERO


def _oddh2_half(p, _param):
    # term k is 1/(2k+1)^2, so k <= m - 1 sums to OH2(m)
    return _family(hyp_sum, (HALF, HALF, 1), (Fraction(3, 2), Fraction(3, 2)), 1, 0).at((p - 3) // 2), ZERO


def _h2_reflect_valuations(p: int) -> list:
    """v_p(H2(k) + H2(p-1-k)), k = 1..(p-1)/2 in order.

    For j <= p-2 each 1/j^2 is a unit, so H2(j) is stepped mod p^N as num[j]
    / den[j] with den[j] = (j!)^2, and a pair's valuation is that of
    num[k] den[p-1-k] + num[p-1-k] den[k].  A pair that vanishes in all N
    digits takes its valuation from its exact sum.
    """
    modulus = p**exact_core._RESIDUE_DIGITS
    num, den = [0], [1]
    n, d = 0, 1
    for j in range(1, p - 1):
        jj = j * j
        n, d = (n * jj + d) % modulus, d * jj % modulus
        num.append(n)
        den.append(d)
    valuations = []
    for k in range(1, (p + 1) // 2):
        pair = (num[k] * den[p - 1 - k] + num[p - 1 - k] * den[k]) % modulus
        valuations.append(_split_power(pair, p)[0] if pair else padic_valuation(_h2(k) + _h2(p - 1 - k), p))
    return valuations


def _h2_reflect(p, _param):
    # k and p-1-k give the same sum, so k <= (p-1)/2 meets every pair once
    return _weakest_k(p, _h2_reflect_valuations(p), lambda k: (_h2(k) + _h2(p - 1 - k), ZERO))


def _thmkey(p, s):
    return -_thmkey_x2(p, s), ZERO


# --------------------------------------------------------------------------
# Exact cases
# --------------------------------------------------------------------------


def _comiden0(_p, n):
    return (2 * n + 1) * eval_hyp_sum(hyp_sum([-n, n + 1, HALF], [1, Fraction(3, 2)], 1, K=n)), Fraction(1)


def _comiden_ratio(n: int, m: int) -> Fraction:
    # (3/2 - n/4)_m / (2 - n/2)_m, the factor COMIDEN1 and COMIDEN2 share
    return rising_factorial(Fraction(3, 2) - Fraction(n, 4), m) / rising_factorial(2 - Fraction(n, 2), m)


def _comiden1(_p, n):
    m = (n - 1) // 2
    rest = rising_factorial(1 - Fraction(n, 2), m) / rising_factorial(1 - Fraction(n, 4), m)
    return _comiden_ratio(n, m) * rest, Fraction(_sign_half(n) * n)


def _comiden2(_p, n):
    m = (n - 1) // 2
    return _comiden_ratio(n, m) * Fraction(2) ** m, Fraction(_sign_eight(n) * n)


def _lemma10(p, _param):
    return eval_hyp_sum(specialize(thm3_deformed_spec(p), p)), Fraction(_sign_half(p) * p)


def _lemma12(p, _param):
    return eval_hyp_sum(specialize(thm3_deformed_spec(p, Fraction(-1, 8)), p)), Fraction(_sign_eight(p) * p)


def _identity(tag, _p, index):
    # A draw keeps the sides that rejection sampling evaluated at it.
    _params, lhs, rhs = sample_identity_params(tag)[index]
    return lhs, rhs


# --------------------------------------------------------------------------
# Series cases
# --------------------------------------------------------------------------


def _odd_coeffs_vanish(coeffs) -> bool:
    return all(c == 0 for c in coeffs[1::2])


def _eq10_a2(p, _param):
    # the spec depends on p only through m, so any prime builds its family
    coeffs = _family(eq10_series_spec, _P_MIN, order=SERIES_ORDER).at((p - 1) // 2)
    a2 = coeffs[2]
    return a2, ZERO, padic_valuation(a2, p), _odd_coeffs_vanish(coeffs)


def _six_f_five(p, _param):
    # EQ0's sum is EQ10's constant term, the deformation at x = 0
    eq0, _target = _eq0(p, 0)
    ser = eval_hyp_sum_series(six_f_five_series_spec(p), SERIES_ORDER)
    vals = [padic_valuation(c, p) for c in ser.coeffs]
    vals.append(padic_valuation(eq0 - ser.coeffs[0], p))
    return ser.coeffs[0], eq0, min(vals), _odd_coeffs_vanish(ser.coeffs)


def _lem_thm1_ratio(k: int) -> tuple[list[int], list[int]]:
    """Term ratio t_k / t_{k-1} of the conjugate-deformed quartic sum.

    Term k is (1/2)_k^2 (1/2+x/2)_k (1/2-x/2)_k / (k!^2 * |(1 + i x/2)_k|^2);
    the conjugate pairs multiply out to real quadratics, so the ratio is
    a^2 (a^2 - x^2) / (b^2 (b^2 + x^2)) with a = 2k-1 and b = 2k.
    """
    a, b = (2 * k - 1) ** 2, (2 * k) ** 2
    pad = [0] * (SERIES_ORDER - 2)
    return [a * a, 0, -a, *pad], [b * b, 0, b, *pad]


def _lem_thm1_step_exact(k: int) -> bool:
    """Whether ratio k is even in x, with constant ((2k-1)/(2k))^4 and x^2
    step num[2]/num[0] - den[2]/den[0] = -(1/(2k-1)^2 + 1/(2k)^2).

    Both equalities are checked with denominators cleared, on integers.
    """
    num, den = _lem_thm1_ratio(k)
    a, b = (2 * k - 1) ** 2, (2 * k) ** 2
    return (
        not any(num[1::2])
        and not any(den[1::2])
        and den[0] != 0
        and num[0] * b * b == den[0] * a * a
        and (num[2] * den[0] - den[2] * num[0]) * a * b == -(a + b) * num[0] * den[0]
    )


@lru_cache(maxsize=None)
def _lem_thm1_family(ratio: Callable) -> tuple[PrefixSums, list[bool]]:
    """The running split of ``ratio`` and its step checks: entry k of the
    list says whether ``_lem_thm1_step_exact`` passed for every step j <= k.

    Keyed on the ratio, so a replaced ratio gets its own split and checks.
    """
    return PrefixSums.of_ratio(ratio, SERIES_ORDER, (ZERO, Fraction(1))), [True]


def _lem_thm1_b2k(p, _param):
    m = (p - 1) // 2
    sums, steps_exact = _lem_thm1_family(_lem_thm1_ratio)
    # Mod x^4, term k is the product of the ratios up to k (t_0 = 1), so it
    # equals c_k^4 (1 - H2(2k) x^2) exactly when every step passes; each
    # step is checked once per family, the first time a prime reaches it.
    for k in range(len(steps_exact), m + 1):
        steps_exact.append(steps_exact[-1] and _lem_thm1_step_exact(k))
    per_term_exact = steps_exact[m]
    a2 = sums.at(m)[2]
    # sum -c_k^4 H2(2k), read off the other deformation, prod (1 - x^2/j^2)
    expected = _thmkey_x2(p, 2)
    return a2, expected, padic_valuation(a2, p), per_term_exact and a2 == expected


def _thm3_quotient(p, _param):
    num = _family(thm3_deformed_spec, _P_MIN, QUARTER, order=SERIES_ORDER).at((p - 1) // 2)
    quotient = [c / num[0] for c in num]
    integral = all(padic_valuation(c, p) >= 0 for c in quotient)
    c2 = quotient[2]
    return c2, ZERO, padic_valuation(c2, p), integral and _odd_coeffs_vanish(quotient)


def _exact_div_p(p, _param):
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


class Case(NamedTuple):
    """Everything the harness knows about one case tag.

    ``compute(p, param)`` returns ``(lhs, rhs[, achieved[, ok]])``, with p = 0
    for a case that takes no prime.  ``achieved`` defaults to v_p(lhs - rhs)
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
                tag, "exact", partial(_identity, tag), _EXACT, min_prime=0, domain=range(IDENTITY_DRAWS),
                suite=range(IDENTITY_DRAWS),
            )
            for tag in IDENTITIES
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
    if param is None:
        param = case.domain.start
    elif not isinstance(param, int) or isinstance(param, bool):
        raise ValueError(f"case {tag} takes an integer param, got {param!r}")
    if param not in case.domain:
        shown = ", ".join(map(str, case.domain[:3])) + (", ..." if len(case.domain) > 3 else "")
        raise ValueError(f"case {tag} takes param in {{{shown}}}, got {param}")
    return case, param


def verify_congruence_case(tag: str, p: int, param: int | None = None) -> VerificationRecord:
    """Run one congruence case at prime p.

    ``param`` is the exponent r for THM1/CONJ1/CAI/BINOM_*, the power s for
    THMKEY (both default to 1), and 0 or None elsewhere.
    """
    case, param = _prepare(tag, "congruence", p, param)
    return _record(case, p, param, *case.compute(p, param))


def verify_exact_case(tag: str, param: int | None = None, *, p: int | None = None) -> VerificationRecord:
    """Run one exact-equality case.

    COMIDEN* take ``param`` = n; LEMMA10/12 take ``p``; the six identity tags
    take a fixed-seed draw index ``param`` in 0..IDENTITY_DRAWS-1 (to check an
    identity at a point of one's own, call ``hypergeometric.identity_sides``).
    An input the case does not use raises ``ValueError``.
    """
    case, param = _prepare(tag, "exact", p, param)
    p = p if case.min_prime else 0
    return _record(case, p, param, *case.compute(p, param))


def verify_series_case(tag: str, p: int) -> VerificationRecord:
    """Run one deformation-series case at prime p."""
    case, param = _prepare(tag, "series", p, None)
    return _record(case, p, param, *case.compute(p, param))


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


def _run(case: Case, p: int, param: int) -> VerificationRecord:
    # Looked up as module globals at call time, so a wrapped entry point is used.
    if case.kind == "congruence":
        return verify_congruence_case(case.tag, p, param)
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


def _integers(values, what: str) -> list[int]:
    """``values`` as a list, refusing any value that is not an int (a bool is not)."""
    values = list(values)
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"run_suite takes integer {what}, got {value!r}")
    return values


def run_suite(primes, rs=(1,), cases=None) -> list[VerificationRecord]:
    """Run every applicable case instance, in canonical order.

    ``primes`` is any iterable of candidate integers; non-primes and p < 3
    are dropped (p = 3 reaches only KILBOURN).  ``rs`` selects the exponents
    for the cases that take one, subject to R_CAPS.  A prime or exponent that
    is not an int (a bool, float or str) raises ``ValueError``.  Domain errors
    (a ``ValueError`` such as ``BudgetError`` or ``NotPrimeError``, or a
    ``PoleError``) become failed records that keep the message; any other
    exception is a bug and propagates.  An empty prime selection yields an
    empty record list.  Before any case runs, the eta expansion is widened
    once to the largest a_{p^r} the run reads within EXPANSION_CEILING; a
    case that needs an index above it gets an ``error:BudgetError`` record.
    """
    prime_list = sorted({p for p in _integers(primes, "primes") if p >= 3 and is_prime(p)})
    r_list = sorted(set(_integers(rs, "exponents")))
    tags = select_cases(cases)
    if not prime_list:
        return []
    instances = [
        (CASES[tag], p, param) for tag in tags for p, param in _instances(CASES[tag], prime_list, r_list)
    ]
    # One eta expansion serves the whole run: the largest p^r within the ceiling.
    eta_indices = [case.eta_index(p, param) for case, p, param in instances if case.eta_index]
    widest = max((n for n in eta_indices if n <= EXPANSION_CEILING), default=None)
    if widest is not None:
        widest_expansion(widest)
    records: list[VerificationRecord] = []
    for case, p, param in instances:
        try:
            records.append(_run(case, p, param))
        except (ValueError, PoleError) as exc:
            records.append(_record(case, p, param, error=exc))
    return records
