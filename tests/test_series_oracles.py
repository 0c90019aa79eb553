"""Differential tests of the binary-splitting series evaluator against two
oracles: the term-stepping evaluator it replaced, and the from-scratch
construction, in which every term is rebuilt as a product of Pochhammer
series over an inverted denominator, which costs O(K^2) but shares no
recurrence with the code under test."""

import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.exact_core import is_prime, rising_factorial
from supercong.harness import SERIES_ORDER, _lem_thm1_ratio, thm3_deformed_spec, thmkey_series_spec
from supercong.hypergeometric import (
    HypSum,
    PoleError,
    PrefixSums,
    _series_ratio,
    eval_hyp_sum_series,
)
from supercong.power_series import TruncSeries

from oracles import (
    constant,
    lem_thm1_term_series,
    pochhammer_norm_series,
    pochhammer_series,
    ps_add,
    ps_invert,
    ps_mul,
    ps_scale,
    q0_power_split_series,
    series_case_specs,
    stepping_eval_hyp_sum_series,
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
        total = ps_add(total, ps_scale(ps_mul(num, inv), (w1 * k + w0) * zk))
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
    return ps_scale(ps_mul(num, ps_invert(den)), scalar)


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
    return HypSum(upper, lower, argument=z, truncation=K, weight=weight)


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
        assert len(fast.coeffs) - 1 == order
        assert all(type(c) is F for c in fast.coeffs), spec
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
        spec = HypSum([HALF, (HALF, 1)], [lower], argument=-1, truncation=K)
        for evaluate in (eval_hyp_sum_series, slow_eval_hyp_sum_series):
            with pytest.raises(PoleError):
                evaluate(spec, 3)
    # -2 is harmless while the sum stops before the factor (-2 + 2) appears
    spec = HypSum([HALF, (HALF, 1)], [(-2, HALF)], argument=-1, truncation=2)
    assert eval_hyp_sum_series(spec, 3) == slow_eval_hyp_sum_series(spec, 3)


def test_lem_thm1_recurrence_matches_pochhammer_oracle():
    for k in range(61):
        assert lem_thm1_term_series(k) == slow_lem_thm1_term_series(k), k
    for order in (0, 1, 2, 5):
        assert lem_thm1_term_series(7, order) == slow_lem_thm1_term_series(7, order)
    with pytest.raises(ValueError):
        lem_thm1_term_series(-1)


@st.composite
def _deformed_specs(draw):
    """A spec and an order.  Slope denominators differ from base denominators,
    so each deformed factor needs its own common denominator; an upper factor
    may be deformed with base 0, and a lower factor a pole."""
    K = draw(st.integers(0, 80))
    order = draw(st.integers(0, 6))

    def rational(nonpositive_integers=True):
        value = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
        if not nonpositive_integers:
            value = value.filter(lambda b: b.denominator > 1 or b > 0)
        return draw(value)

    def deformed(base):
        dens = [d for d in range(1, 7) if d != base.denominator]
        return base, F(draw(st.integers(-6, 6).filter(bool)), draw(st.sampled_from(dens)))

    def factor(special_base, plain_base):
        kind = draw(st.sampled_from(["plain", "deformed", "deformed", "special"]))
        if kind == "plain":
            return plain_base
        return deformed(special_base if kind == "special" else plain_base)

    upper = [factor(F(0), rational()) for _ in range(draw(st.integers(0, 4)))]
    # a nonpositive integer lower base in (-K, 0] is a pole
    lower = [
        factor(F(-draw(st.integers(0, K))), rational(nonpositive_integers=False))
        for _ in range(draw(st.integers(0, 3)))
    ]
    weight = (draw(st.integers(-6, 6)), draw(st.integers(-3, 3)))
    return HypSum(upper, lower, argument=rational(), truncation=K, weight=weight), order


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_deformed_specs())
def test_binary_splitting_matches_stepping_oracle_on_drawn_specs(drawn):
    spec, order = drawn
    assert _outcome(eval_hyp_sum_series, spec, order) == _outcome(stepping_eval_hyp_sum_series, spec, order)


def _lem_sum(m: int) -> tuple[F, ...]:
    """LEM_THM1_B2K's series sum to k = m, split from k = 0 over its term ratio."""
    return PrefixSums.of_ratio(_lem_thm1_ratio, SERIES_ORDER, (F(0), F(1))).root(m)


def _lem_thm1_x2_oracle(m: int) -> F:
    """sum_{k<=m} -c_k^4 H2(2k), with c_k and H2 stepped here."""
    total, c, h2 = F(0), F(1), F(0)
    for k in range(m + 1):
        total -= c**4 * h2
        h2 += F(1, (2 * k + 1) ** 2) + F(1, (2 * k + 2) ** 2)
        c *= F(2 * k + 1, 2 * k + 2)
    return total


@pytest.mark.parametrize("p", [101, 199, 401, 997])
def test_binary_splitting_matches_oracles_beyond_the_contract_range(p):
    for tag, spec in series_case_specs(p).items():
        assert eval_hyp_sum_series(spec, SERIES_ORDER) == stepping_eval_hyp_sum_series(spec, SERIES_ORDER), tag
    m = (p - 1) // 2
    assert _lem_sum(m)[2] == _lem_thm1_x2_oracle(m)


def test_lem_thm1_ratio_sums_the_stepped_terms():
    m = 24
    stepped = [lem_thm1_term_series(k) for k in range(m + 1)]
    total = tuple(sum((t.coeffs[d] for t in stepped), F(0)) for d in range(SERIES_ORDER + 1))
    assert _lem_sum(m) == total


def _every_series_spec(p: int) -> dict[str, HypSum]:
    """The series cases' specs, COMCONJ2's deformation and THMKEY's three."""
    specs = {**series_case_specs(p), "COMCONJ2": thm3_deformed_spec(p, F(-1, 8))}
    specs.update((f"THMKEY{s}", thmkey_series_spec(p, s)) for s in (1, 2, 3))
    return specs


def _q0_power_sum(spec: HypSum, order: int) -> tuple[F, ...]:
    """The q0-power oracle over the term ratio of a spec that passed the pole check."""
    return q0_power_split_series(_series_ratio(spec, order), spec.truncation, order, spec.weight)


def _check_series_division_against_q0_powers(p):
    for tag, spec in _every_series_spec(p).items():
        assert eval_hyp_sum_series(spec, SERIES_ORDER).coeffs == _q0_power_sum(spec, SERIES_ORDER), tag
    # the ratio is even in x, so Q_1 = 0: an int accumulator over an int would be a float
    m = (p - 1) // 2
    divided = _lem_sum(m)
    assert all(type(c) is F for c in divided)
    assert divided == q0_power_split_series(_lem_thm1_ratio, m, SERIES_ORDER, (F(0), F(1)))


def test_series_division_matches_the_q0_power_last_step_on_random_specs():
    # rational weights: the division carries the weight's denominator wden
    rng = random.Random(20091202)
    compared = 0
    for _ in range(300):
        weight = tuple(F(rng.randint(-6, 6), rng.randint(2, 6)) for _ in range(2))
        spec = _random_spec(rng)._replace(weight=weight)
        order = rng.randint(0, 6)
        divided = _outcome(eval_hyp_sum_series, spec, order)
        if divided is not PoleError:
            assert divided.coeffs == _q0_power_sum(spec, order), spec
        assert _outcome(stepping_eval_hyp_sum_series, spec, order) == divided, spec
        compared += divided is not PoleError and order > 0 and any(l.slope for l in spec.lower)
    assert compared >= 50


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_series_division_matches_the_q0_power_last_step(p):
    _check_series_division_against_q0_powers(p)


@pytest.mark.slow
def test_series_division_matches_the_q0_power_last_step_to_997():
    for p in range(211, 998):
        if is_prime(p):
            _check_series_division_against_q0_powers(p)
