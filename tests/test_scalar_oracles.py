"""Differential tests of the binary-splitting scalar evaluator against the
term-stepping loop it replaced, which carries each term forward as a reduced
Fraction, and against the term-by-term brute force of test_hypergeometric."""

import random
from fractions import Fraction as F

import pytest

from supercong.exact_core import is_prime
from supercong.harness import central_sum, thm3_deformed_spec
from supercong.hypergeometric import _LEAF_WIDTH, HypSum, PoleError, eval_hyp_sum, hyp_sum, specialize
from test_hypergeometric import brute_hyp_sum


def slow_eval_hyp_sum(s: HypSum) -> F:
    """Sum of the terms, each carried forward from the last by the ratio
    z/(k+1) * prod (u + k) / prod (l + k) in reduced Fractions; a lower
    factor that vanishes before the last term is a pole."""
    w1, w0 = s.weight
    total = F(0)
    core = F(1)
    for k in range(s.truncation + 1):
        total += (w1 * k + w0) * core
        if k == s.truncation:
            break
        num = F(1)
        for u in s.upper:
            num *= u.base + k
        den = F(k + 1)
        for l in s.lower:
            den *= l.base + k
        if den == 0:
            raise PoleError(f"lower factor vanishes at k = {k}")
        core = core * num * s.argument / den
    return total


def _outcome(evaluate, spec):
    try:
        return evaluate(spec)
    except PoleError:
        return PoleError


def _random_spec(rng: random.Random) -> HypSum:
    # K + 1 terms reach a one-term range, one loop leaf and merges across leaves
    K = rng.randint(0, 40)

    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 7))

    upper = []
    for _ in range(rng.choice((0, 1, 2, 3, 4))):
        # a base -n with n < K makes a factor reach 0 mid-sum
        upper.append(F(-rng.randint(0, max(K - 1, 0))) if rng.random() < 0.2 else rational())
    lower = []
    for _ in range(rng.choice((0, 1, 2, 3))):
        roll = rng.random()
        if roll < 0.1:
            lower.append(F(-rng.randint(0, max(K - 1, 0))))  # pole in (-K, 0]
        elif roll < 0.2:
            lower.append(F(-rng.randint(K, K + 5)))  # pole beyond the truncation
        elif roll < 0.4:
            lower.append(-F(2 * rng.randint(0, 20) + 1, rng.choice((2, 3, 4, 5))))
        else:
            lower.append(rational())
    z = rational() if rng.random() < 0.9 else F(0)
    weight = (rational(), rational()) if rng.random() < 0.9 else (0, 0)
    return hyp_sum(upper, lower, z=z, K=K, weight=weight)


def test_binary_splitting_matches_term_stepping_on_random_specs():
    rng = random.Random(19980621)
    seen = {
        "pole": 0, "empty upper": 0, "empty lower": 0, "negative non-integer lower": 0,
        "pole beyond K": 0, "upper zero": 0, "z = 0": 0, "z < 0": 0, "z > 0": 0,
        "weight (0, 0)": 0, "rational weight": 0,
        "one term": 0, "one leaf": 0, "leaves merged": 0,
    }
    for _ in range(1500):
        spec = _random_spec(rng)
        K = spec.truncation
        fast = _outcome(eval_hyp_sum, spec)
        slow = _outcome(slow_eval_hyp_sum, spec)
        assert fast == slow, spec
        if fast is PoleError:
            seen["pole"] += 1
            continue
        if K <= 12:
            assert fast == brute_hyp_sum(spec), spec
        bases = [l.base for l in spec.lower]
        seen["empty upper"] += not spec.upper
        seen["empty lower"] += not spec.lower
        seen["negative non-integer lower"] += any(b < 0 and b.denominator > 1 for b in bases)
        seen["pole beyond K"] += any(b.denominator == 1 and b <= -K for b in bases)
        seen["upper zero"] += any(
            u.base.denominator == 1 and -K < u.base <= 0 for u in spec.upper
        )
        seen["z = 0"] += spec.argument == 0
        seen["z < 0"] += spec.argument < 0
        seen["z > 0"] += spec.argument > 0
        seen["weight (0, 0)"] += spec.weight == (0, 0)
        seen["rational weight"] += any(w.denominator > 1 for w in spec.weight)
        seen["one term"] += K == 0
        seen["one leaf"] += 1 < K + 1 <= _LEAF_WIDTH
        seen["leaves merged"] += K + 1 > 2 * _LEAF_WIDTH
    # the draw reaches every regime the integer recursion could get wrong
    assert min(seen.values()) >= 20, seen


def test_pole_detection_agrees_with_vanishing_lower_factors():
    for lower, K in [(0, 1), (0, 2), (-2, 3), (-5, 6)]:
        spec = hyp_sum([F(1, 2)], [lower], z=-1, K=K)
        for evaluate in (eval_hyp_sum, slow_eval_hyp_sum):
            with pytest.raises(PoleError):
                evaluate(spec)
    # -2 is harmless while the sum stops before the factor (-2 + 2) appears
    spec = hyp_sum([F(1, 2)], [-2], z=-1, K=2)
    assert eval_hyp_sum(spec) == slow_eval_hyp_sum(spec) == brute_hyp_sum(spec)


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_binary_splitting_matches_term_stepping_on_harness_sums(p):
    m, m2 = (p - 1) // 2, (p * p - 1) // 2
    specs = {
        "EQ0": central_sum(3, m, -1, (4, 1)),
        "THM1": central_sum(4, m, 1, (4, 1)),
        "SIXTH_POWER": central_sum(6, m, 1, (4, 1)),
        "KILBOURN": central_sum(4, m),
        "THM3": central_sum(3, m, F(1, 4), (6, 1)),
        "THM4": central_sum(3, m, F(-1, 8), (6, 1)),
        "LEMMA10": specialize(thm3_deformed_spec(p), p),
        "LEMMA12": specialize(thm3_deformed_spec(p, F(-1, 8)), p),
    }
    if p <= 13:
        specs["THM1_R2"] = central_sum(4, m2, 1, (4, 1))
        specs["SIXTH_POWER_R2"] = central_sum(6, m2, 1, (4, 1))
    for name, spec in specs.items():
        assert eval_hyp_sum(spec) == slow_eval_hyp_sum(spec), name
