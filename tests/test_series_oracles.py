"""Differential tests of the term-ratio series evaluators against the
from-scratch construction: every term rebuilt as a product of Pochhammer
series over an inverted denominator, which costs O(K^2) but shares no
recurrence with the code under test."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from supercong.exact_core import is_prime, rising_factorial
from supercong.harness import lem_thm1_term_series, series_case_specs
from supercong.hypergeometric import (
    HypSum,
    PoleError,
    eval_hyp_sum_series,
    hyp_sum,
)
from supercong.power_series import (
    TruncSeries,
    constant,
    pochhammer_norm_series,
    pochhammer_series,
    ps_invert,
    ps_mul,
)

HALF = F(1, 2)


def slow_eval_hyp_sum_series(s: HypSum, order: int) -> TruncSeries:
    """Sum of the terms (w1 k + w0) z^k prod (u)_k / (k! prod (l)_k), each
    expanded from its Pochhammer factors; a denominator whose constant term
    vanishes is a pole."""
    w1, w0 = s.weight
    total = constant(0, order)
    zk = F(1)
    for k in range(s.truncation + 1):
        num = constant(1, order)
        for u in s.upper:
            num = ps_mul(num, pochhammer_series(u.base, u.slope, k, order))
        den = constant(factorial(k), order)
        for l in s.lower:
            den = ps_mul(den, pochhammer_series(l.base, l.slope, k, order))
        try:
            inv = ps_invert(den)
        except ZeroDivisionError as exc:
            raise PoleError(f"denominator of term {k} vanishes at x = 0") from exc
        total = total + ((w1 * k + w0) * zk) * ps_mul(num, inv)
        zk *= s.argument
    return total


def slow_lem_thm1_term_series(k: int, order: int = 4) -> TruncSeries:
    """(1/2)_k^2 (1/2+x/2)_k (1/2-x/2)_k / (k!^2 * prod_{j<=k} (j^2 + x^2/4))."""
    scalar = rising_factorial(HALF, k) ** 2 / F(factorial(k)) ** 2
    num = ps_mul(
        pochhammer_series(HALF, HALF, k, order),
        pochhammer_series(HALF, -HALF, k, order),
    )
    den = pochhammer_norm_series(1, HALF, k, order)
    return scalar * ps_mul(num, ps_invert(den))


def _outcome(evaluate, spec, order):
    try:
        return evaluate(spec, order)
    except PoleError:
        return PoleError


def _random_spec(rng: random.Random) -> HypSum:
    K = rng.randint(0, 15)

    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 6))

    def slope(p_deformed):
        return rational() if rng.random() < p_deformed else F(0)

    upper = []
    for _ in range(rng.randint(0, 4)):
        # a base -n with n < K makes the undeformed factor reach 0 mid-sum
        base = F(-rng.randint(0, max(K - 1, 0))) if rng.random() < 0.25 else rational()
        upper.append((base, slope(0.5)))
    lower = []
    for _ in range(rng.randint(0, 3)):
        # nonpositive integer bases are poles when they lie in (-K, 0]
        base = F(-rng.randint(0, K + 1)) if rng.random() < 0.15 else rational()
        lower.append((base, slope(0.6)))
    z = rational() if rng.random() < 0.9 else F(0)
    weight = (rng.randint(-6, 6), rng.randint(-3, 3))
    return hyp_sum(upper, lower, z=z, K=K, weight=weight)


def test_series_recurrence_matches_pochhammer_oracle_on_random_specs():
    rng = random.Random(20091201)
    poles = deformed_lower = upper_zeros = negative_z = 0
    for _ in range(400):
        spec = _random_spec(rng)
        order = rng.randint(0, 6)
        fast = _outcome(eval_hyp_sum_series, spec, order)
        slow = _outcome(slow_eval_hyp_sum_series, spec, order)
        assert fast == slow, spec
        if fast is PoleError:
            poles += 1
            continue
        assert fast.order == order
        deformed_lower += any(l.slope != 0 for l in spec.lower)
        upper_zeros += any(
            u.base.denominator == 1 and -spec.truncation < u.base <= 0 for u in spec.upper
        )
        negative_z += spec.argument < 0
    # the draw reaches every regime the recurrence treats specially
    assert min(poles, deformed_lower, upper_zeros, negative_z) >= 20


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_series_recurrence_matches_pochhammer_oracle_on_case_specs(p):
    for tag, spec in series_case_specs(p).items():
        assert eval_hyp_sum_series(spec, 4) == slow_eval_hyp_sum_series(spec, 4), tag


def test_pole_detection_agrees_with_vanishing_denominators():
    for lower, K in [((0, 1), 1), ((0, 0), 2), ((-2, HALF), 3), ((-2, 0), 3)]:
        spec = hyp_sum([HALF, (HALF, 1)], [lower], z=-1, K=K)
        for evaluate in (eval_hyp_sum_series, slow_eval_hyp_sum_series):
            with pytest.raises(PoleError):
                evaluate(spec, 3)
    # -2 is harmless while the sum stops before the factor (-2 + 2) appears
    spec = hyp_sum([HALF, (HALF, 1)], [(-2, HALF)], z=-1, K=2)
    assert eval_hyp_sum_series(spec, 3) == slow_eval_hyp_sum_series(spec, 3)


def test_lem_thm1_recurrence_matches_pochhammer_oracle():
    for k in range(61):
        assert lem_thm1_term_series(k) == slow_lem_thm1_term_series(k), k
    for order in (0, 1, 2, 5):
        assert lem_thm1_term_series(7, order) == slow_lem_thm1_term_series(7, order)
    with pytest.raises(ValueError):
        lem_thm1_term_series(-1)
