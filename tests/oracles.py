"""Reference implementations the tests compare the package against, and
helpers that only the tests use.

The harness reads its harmonic-weighted sums (THMKEY, COMCONJ2 and
LEM_THM1_B2K's expected side) off the x^2 coefficients of deformed sums; the
tests check them against the term-by-term sums here, built from the direct
definitions of c_k, H2(k) and OH2(k).  The BINOM_* and H2_REFLECT records
are checked against the exact loops that valuate every k's pair as a
``Fraction``, where the harness searches on p-adic residues.  The r = 1
congruence sums are also summed term by term in Z/p^N, with no ``Fraction``
and no binary splitting, to check their achieved valuations capped at N.
Rising factorials are multiplied out one factor at a time, where the package
takes one integer product; the identities' right sides are Gamma ratios,
reduced here by pairing their arguments on ``Fraction``s, where the package
writes each as a ratio of rising factorials; and COMIDEN0's sum is summed term by term, where
the harness evaluates it as a 3F2 by binary splitting.  The series helpers rebuild what the
package computes by binary splitting: term by term, by stepping each term by
its ratio, or from Pochhammer products over an inverted denominator; and
the split's earlier last step, which cleared the root's denominator by
powers of its constant term, is kept to check the series division.  The
running-split tests share their random specs, their asked orders of
truncations and their counter of root splits here.  The
package's ``TruncSeries`` is a plain value, so the series algebra these
helpers need (construction, sums, scalar multiples, products, inverses and
in-place binomial steps) lives here too.  The
eta helpers expand the product from its Euler factors, multiplied out one
binomial at a time or written down by the pentagonal theorem and multiplied
by seven Kronecker products, where the package takes two half-length products
of pentagonal-times-Jacobi series.  The package's Kronecker product packs
signed coefficients into one big integer per operand; the tests check it
against the schoolbook product and against the older kernel that split each
operand by sign and made four unsigned products.
"""

import random
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import Mapping

from supercong.exact_core import _exact, padic_valuation, rising_factorial
from supercong import hypergeometric
from supercong.harness import eq10_series_spec, six_f_five_series_spec, thm3_deformed_spec
from supercong.hypergeometric import (
    AffineParam,
    HypSum,
    PoleError,
    _check_lower_poles,
    _integer_weight,
    hyp_sum,
    identity_sides,
)
from supercong.modular_form import _poly_mul_trunc, prime_power_coefficient
from supercong.power_series import TruncSeries


def stepwise_rising_factorial(a, k: int) -> Fraction:
    """(a)_k multiplied out one ``Fraction`` factor at a time, with a gcd per factor."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


class UnpairableError(ValueError):
    """Gamma-ratio arguments cannot be paired up to integer shifts."""


def fraction_gamma_ratio_value(numerator_args, denominator_args) -> Fraction:
    """prod G(numerator_args) / prod G(denominator_args) on ``Fraction``s, for
    arguments that pair up to integer shifts: they are grouped by their
    fractional part as a ``Fraction``, and each pair's rising factorial, a
    ``Fraction``, is multiplied into a ``Fraction`` product, with a gcd per
    pair.  A nonpositive-integer argument raises the package's PoleError."""
    numerator_args = [_exact(x) for x in numerator_args]
    denominator_args = [_exact(x) for x in denominator_args]
    for x in (*numerator_args, *denominator_args):
        if x.denominator == 1 and x <= 0:
            raise PoleError(f"Gamma argument {x} is a nonpositive integer")
    groups: dict[Fraction, tuple[list[Fraction], list[Fraction]]] = {}
    for x in numerator_args:
        groups.setdefault(x - (x.numerator // x.denominator), ([], []))[0].append(x)
    for x in denominator_args:
        groups.setdefault(x - (x.numerator // x.denominator), ([], []))[1].append(x)
    value = Fraction(1)
    for frac, (nums, dens) in groups.items():
        if len(nums) != len(dens):
            raise UnpairableError(
                f"fractional part {frac}: {len(nums)} numerator vs {len(dens)} denominator arguments"
            )
        for nx, dx in zip(sorted(nums), sorted(dens)):
            m = int(nx - dx)
            if m >= 0:
                value *= rising_factorial(dx, m)
            else:
                value /= rising_factorial(nx, -m)
    return value


def central_half_ratio(k: int) -> Fraction:
    """(1/2)_k / k!, which also equals 4**-k * C(2k, k)."""
    return stepwise_rising_factorial(Fraction(1, 2), k) / factorial(k)


def comiden0_term_sum(n: int) -> Fraction:
    """sum_{k<=n} (-1)^k C(n,k) C(n+k,k)/(2k+1), summed term by term; COMIDEN0 is (2n+1) times it."""
    terms = (Fraction((-1) ** k * comb(n, k) * comb(n + k, k), 2 * k + 1) for k in range(n + 1))
    return sum(terms, Fraction(0))


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


def thmkey_partial_sums(kmax: int, s: int) -> list[Fraction]:
    """sum_{k<=m} c_k^(2s) H2(2k) for every m <= kmax, one term at a time.

    These are THMKEY(s) at m = (p-1)/2; LEM_THM1_B2K's expected side is minus
    the s = 2 entry.
    """
    return list(accumulate(central_half_ratio(k) ** (2 * s) * harmonic2(2 * k) for k in range(kmax + 1)))


def comconj2_partial_sums(kmax: int) -> list[Fraction]:
    """sum_{k<=m} (6k+1) c_k^3 (OH2(k) - H2(k)/16) (-1/8)^k for every m <= kmax."""
    return list(
        accumulate(
            (6 * k + 1) * central_half_ratio(k) ** 3 * (odd_harmonic2(k) - harmonic2(k) / 16) * Fraction(-1, 8) ** k
            for k in range(kmax + 1)
        )
    )


def binom_pair(tag: str, M: int, k: int) -> tuple[Fraction, Fraction]:
    """The exact (lhs, rhs) of a BINOM_* family at k, from the closed forms."""
    c = Fraction(comb(2 * k, k), 4**k)
    if tag == "BINOM_NEG":
        return Fraction((-1) ** k * comb(M, k)), c
    if tag == "BINOM_POS":
        return Fraction(comb(M + k, k)), c
    return Fraction((-1) ** k * comb(M, k) * comb(M + k, k)), c * c


def weakest_binom_pair(tag: str, p: int, r: int) -> tuple[Fraction, Fraction, object]:
    """(lhs, rhs, v_p(lhs - rhs)) of the first k <= M = (p^r-1)/2 of least valuation.

    Every k's pair is built and valuated exactly, O(M^2) bit work in all;
    the harness finds the same k on residues mod p^N.
    """
    M = (p**r - 1) // 2
    weakest = None
    for k in range(1, M + 1):
        lhs, rhs = binom_pair(tag, M, k)
        v = padic_valuation(lhs - rhs, p)
        if weakest is None or v < weakest[2]:
            weakest = (lhs, rhs, v)
    return weakest


def weakest_h2_reflect_pair(p: int) -> tuple[Fraction, Fraction, object]:
    """(lhs, rhs, v_p(lhs - rhs)) of H2_REFLECT's first k <= (p-1)/2 of least valuation.

    Every partial sum H2(j), j <= p-2, and every pair H2(k) + H2(p-1-k) is a
    ``Fraction``, each pair valuated exactly: quadratic bit work in all; the
    harness finds the same k on H2(j) stepped mod p^N.
    """
    h2 = [Fraction(0)]
    for j in range(1, p - 1):
        h2.append(h2[-1] + Fraction(1, j * j))
    pairs = [(h2[k] + h2[p - 1 - k], Fraction(0)) for k in range(1, (p - 1) // 2 + 1)]
    return min(((lhs, rhs, padic_valuation(lhs - rhs, p)) for lhs, rhs in pairs), key=lambda t: t[2])


def residue_case_gap(tag: str, p: int, param: int, digits: int) -> int:
    """(lhs - rhs) mod p^digits of an r = 1 congruence case, summed term by term in Z/p^digits.

    Every term with k <= (p-1)/2 of these sums is p-integral: c_k =
    C(2k, k)/4^k and the harmonic sums H2(2k), H2(k) and OH2(k) have only
    denominators below p.  So each term is stepped as a residue, with an
    inverse mod p^digits per step; ``param`` is THMKEY's s and ignored
    elsewhere, and a_p is read from the eta expansion.
    """
    modulus = p**digits

    def unit(n: int, d: int = 1) -> int:
        return n * pow(d, -1, modulus) % modulus

    m = (p - 1) // 2
    sign_half = -1 if m % 2 else 1
    sign_eight = -1 if ((p * p - 1) // 8 + m) % 2 else 1
    a_p = prime_power_coefficient(p, 1) if tag in ("THM2", "KILBOURN") else 0
    # tag -> (power e of c_k, z, weight (w1, w0), rhs); THMKEY's and COMCONJ2's
    # terms also carry a harmonic factor
    e, z, (w1, w0), rhs = {
        "EQ0": (3, -1, (4, 1), sign_half * p),
        "THM1": (4, 1, (4, 1), p),
        "THM2": (6, 1, (4, 1), p * a_p),
        "KILBOURN": (4, 1, (0, 1), a_p),
        "THM3": (3, unit(1, 4), (6, 1), sign_half * p),
        "THM4": (3, unit(-1, 8), (6, 1), sign_eight * p),
        "THM4_STRONG": (3, unit(-1, 8), (6, 1), sign_eight * p),
        "COMCONJ2": (3, unit(-1, 8), (6, 1), 0),
        "THMKEY": (2 * param, 1, (0, 1), 0),
    }[tag]
    c = zk = 1  # c_k and z^k
    h2 = oh2 = h2_even = 0  # H2(k), OH2(k) and H2(2k)
    total = 0
    for k in range(m + 1):
        if k:
            c = c * unit(2 * k - 1, 2 * k) % modulus
            zk = zk * z % modulus
            h2 = (h2 + unit(1, k * k)) % modulus
            oh2 = (oh2 + unit(1, (2 * k - 1) ** 2)) % modulus
            h2_even = (h2_even + unit(1, (2 * k - 1) ** 2) + unit(1, (2 * k) ** 2)) % modulus
        harmonic = {"THMKEY": h2_even, "COMCONJ2": oh2 - unit(h2, 16)}.get(tag, 1)
        total += (w1 * k + w0) * pow(c, e, modulus) * zk * harmonic
    return (total - rhs) % modulus


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


def ps_add(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Sum truncated at min(order(a), order(b))."""
    d = min(a.order, b.order)
    return TruncSeries(tuple(a.coeffs[i] + b.coeffs[i] for i in range(d + 1)))


def ps_scale(a: TruncSeries, c) -> TruncSeries:
    """The scalar multiple c * a."""
    c = Fraction(c)
    return TruncSeries(tuple(c * x for x in a.coeffs))


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


def check_identity(tag: str, params: Mapping) -> bool:
    """True iff both sides of the identity agree exactly at the parameters."""
    lhs, rhs = identity_sides(tag, params)
    return lhs == rhs


def stepping_eval_hyp_sum_series(s: HypSum, order: int) -> TruncSeries:
    """The sum as a series in x, one term at a time, each stepped by its ratio.

    Undeformed factors fold into one rational scale, each deformed upper
    factor (u + k) + slope*x multiplies the coefficient list and each
    deformed lower factor divides it by back-substitution; O(K * order)
    Fraction operations, each with its own gcd.
    """
    _check_lower_poles(s.lower, s.truncation)
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


def q0_power_split_series(ratio, truncation: int, order: int, weight) -> tuple[Fraction, ...]:
    """The root series split of ``hypergeometric.PrefixSums.of_ratio`` with its earlier last step.

    The split forms the same products, with an unfused merge.  With S = T/Q
    and q0 = Q_0, N_d = S_d * q0^(d+1)
    is the integer T_d q0^d - sum_{i>=1} Q_i q0^(i-1) N_{d-i}, so each
    coefficient is one exact division N_d / (q0^(d+1) wden), a gcd on
    numbers d+1 times the size of q0.
    """
    n = order + 1
    a1, a0, wden = _integer_weight(weight)

    def mul(a, b):
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    out[i + j] += ai * b[j]
        return out

    def split(a: int, b: int):
        if b - a == 1:
            if a == 0:
                unit = [1] + [0] * order
                return unit, unit, [a0] + [0] * order
            p, q = ratio(a)
            w = a1 * a + a0
            return p, q, [w * c for c in p]
        mid = (a + b) // 2
        p1, q1, t1 = split(a, mid)
        p2, q2, t2 = split(mid, b)
        return mul(p1, p2), mul(q1, q2), [x + y for x, y in zip(mul(t1, q2), mul(p1, t2))]

    _p, q, t = split(0, truncation + 1)
    q0 = q[0]
    nums = []
    for d in range(n):
        acc = t[d] * q0**d
        for i in range(1, d + 1):
            if q[i]:
                acc -= q[i] * q0 ** (i - 1) * nums[d - i]
        nums.append(acc)
    return tuple(Fraction(nd, q0 ** (d + 1) * wden) for d, nd in enumerate(nums))


# --------------------------------------------------------------------------
# running splits: the helpers of tests/test_prefix_sums.py and
# tests/test_prefix_series.py, which test hypergeometric.PrefixSums in both rings
# --------------------------------------------------------------------------

#: The orders in which a running split is asked for its truncations.
TRUNCATION_ORDERS = ("ascending", "descending", "shuffled")


def random_prefix_spec(rng: random.Random, deformed: bool = False) -> HypSum:
    """A spec whose sums meet the regimes of the running split.

    Half of them meet a lower pole within K <= 300, and some have terms that
    stop mid-range.  A deformed spec gives most parameters a slope.
    """

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 7))

    def slope():
        return rational() if deformed and rng.random() < 0.6 else Fraction(0)

    upper = [(rational(), slope()) for _ in range(rng.randint(1, 3))]
    lower = [(rational(), slope()) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        lower.append((Fraction(-rng.randint(0, 250)), slope()))  # a pole from K = n + 1, or at every K
    if rng.random() < 0.3:
        upper.append(Fraction(-rng.randint(0, 250)))  # the terms stop mid-range
    z = -abs(rational()) if rng.random() < 0.5 else rational()
    weight = (rational(), rational())
    return hyp_sum(upper, lower, z=z, K=0, weight=weight)


def outcome(evaluate, *args):
    """``evaluate(*args)``, or ``PoleError`` if it raised one."""
    try:
        return evaluate(*args)
    except PoleError:
        return PoleError


def truncations(order: str, top: int) -> list[int]:
    """The truncations 0..top in one of ``TRUNCATION_ORDERS``."""
    ks = list(range(top + 1))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        random.Random(top).shuffle(ks)
    return ks


def assert_prefixes_match(make, one_shot, top: int) -> None:
    """``make()``'s running split asked for K <= top in every order equals ``one_shot(K)``."""
    want = [outcome(one_shot, K) for K in range(top + 1)]
    for order in TRUNCATION_ORDERS:
        sums = make()
        got = {K: outcome(sums.at, K) for K in truncations(order, top)}
        assert [got[K] for K in range(top + 1)] == want, order
        # asked again, every value is read from what the first pass made
        assert [outcome(sums.at, K) for K in range(top + 1)] == want, order


def record_roots(monkeypatch, split: str) -> list[tuple[int, int, bool]]:
    """Patch ``hypergeometric.<split>`` to record (a, b, need_p) of each outermost call.

    A running split takes its ring's split when it is built, so build it
    after this, and drop it (or the cache that holds it) when done.
    """
    real, depth, roots = getattr(hypergeometric, split), [0], []

    def counting(terms, a, b, need_p):
        if not depth[0]:
            roots.append((a, b, need_p))
        depth[0] += 1
        try:
            return real(terms, a, b, need_p)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hypergeometric, split, counting)
    return roots


def assert_splits_only_the_new_terms(roots: list, sums) -> None:
    """A running split built after ``record_roots`` splits each term once, and a
    K below its frontier once from k = 0."""
    for K in (10, 20, 15, 20, 10, 15):
        sums.at(K)
    # 10 and 20 extend the state; 15 lies below the frontier and is summed once, from k = 0
    assert roots == [(0, 11, True), (11, 21, True), (0, 16, False)]


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


def sign_split_mul_trunc(a: list[int], b: list[int], deg: int) -> list[int]:
    """Product of integer polynomials truncated at q^deg, by four unsigned
    Kronecker products.

    Each operand is split into its positive and negative parts; each part is
    packed into fixed-width slots of one nonnegative big integer, the four
    cross products are multiplied and unpacked, and their slots are combined
    with signs.  The slot width is the package's, so the two kernels face the
    same slot bound.
    """
    n = deg + 1
    max_a = max((abs(x) for x in a), default=0)
    max_b = max((abs(x) for x in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * n
    bits = max_a.bit_length() + max_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8

    def pack(poly: list[int]) -> int:
        return int.from_bytes(
            b"".join(x.to_bytes(width, "little") for x in poly), "little"
        )

    def unpack(value: int) -> list[int]:
        raw = value.to_bytes(max((value.bit_length() + 7) // 8, n * width), "little")
        return [
            int.from_bytes(raw[i * width : (i + 1) * width], "little")
            for i in range(n)
        ]

    a_pos = [x if x > 0 else 0 for x in a]
    a_neg = [-x if x < 0 else 0 for x in a]
    b_pos = [x if x > 0 else 0 for x in b]
    b_neg = [-x if x < 0 else 0 for x in b]
    pp = unpack(pack(a_pos) * pack(b_pos))
    nn = unpack(pack(a_neg) * pack(b_neg))
    pn = unpack(pack(a_pos) * pack(b_neg))
    np_ = unpack(pack(a_neg) * pack(b_pos))
    return [pp[i] + nn[i] - pn[i] - np_[i] for i in range(n)]


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
