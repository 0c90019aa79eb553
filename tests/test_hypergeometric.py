import random
import re
from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest

from supercong import hypergeometric
from supercong.exact_core import rising_factorial
from supercong.hypergeometric import (
    IDENTITIES,
    IDENTITY_DRAWS,
    AffineParam,
    HypSum,
    PoleError,
    _pochhammer_ratio,
    eval_hyp_sum,
    eval_hyp_sum_series,
    hyp_sum,
    identity_sides,
    param,
    sample_identity_params,
)
from supercong.power_series import coefficient

from oracles import check_identity, scalarized

HALF = F(1, 2)


def brute_hyp_sum(s: HypSum) -> F:
    """Independent oracle: term-by-term products, no incremental recurrence."""
    w1, w0 = s.weight
    total = F(0)
    for k in range(s.truncation + 1):
        num = F(1)
        for u in s.upper:
            num *= rising_factorial(u.base, k)
        den = F(factorial(k))
        for l in s.lower:
            den *= rising_factorial(l.base, k)
        total += (w1 * k + w0) * num / den * s.argument**k
    return total


def test_eval_hyp_sum_alternating_cubes():
    s = hyp_sum([HALF] * 3, [1, 1], z=-1, K=2, weight=(4, 1))
    assert eval_hyp_sum(s) == brute_hyp_sum(s) == F(435, 512)


def test_eval_hyp_sum_quartic():
    s = hyp_sum([HALF] * 4, [1] * 3, z=1, K=2, weight=(0, 1))
    assert eval_hyp_sum(s) == 1 + F(1, 16) + F(81, 4096) == F(4433, 4096)


def test_eval_hyp_sum_truncation_zero():
    s = hyp_sum([HALF, F(7, 3)], [F(5, 2)], z=F(9), K=0, weight=(0, 1))
    assert eval_hyp_sum(s) == 1


def test_eval_hyp_sum_matches_brute_force_on_random_specs():
    rng = random.Random(424242)
    produced = 0
    while produced < 60:
        upper = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        lower = [F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 2))]
        K = rng.randint(0, 7)
        if any(l.denominator == 1 and -K < l <= 0 for l in lower):
            continue
        s = hyp_sum(
            upper,
            lower,
            z=F(rng.randint(-3, 3), rng.randint(1, 4)),
            K=K,
            weight=(rng.randint(0, 6), rng.randint(1, 3)),
        )
        assert eval_hyp_sum(s) == brute_hyp_sum(s)
        produced += 1


def test_eval_hyp_sum_pole_error():
    s = hyp_sum([HALF], [-2], z=1, K=5, weight=(0, 1))
    with pytest.raises(PoleError):
        eval_hyp_sum(s)
    # pole beyond the truncation is fine
    s = hyp_sum([HALF], [-9], z=1, K=5, weight=(0, 1))
    eval_hyp_sum(s)


def test_series_constant_term_matches_scalar_value():
    s = hyp_sum(
        [HALF, (HALF, -HALF), (HALF, HALF)],
        [(1, HALF), (1, -HALF)],
        z=-1,
        K=2,
        weight=(4, 1),
    )
    ser = eval_hyp_sum_series(s, 2)
    assert coefficient(ser, 0) == F(435, 512)
    assert coefficient(ser, 0) == eval_hyp_sum(scalarized(s))


def test_series_with_zero_slopes_is_constant():
    s = hyp_sum([HALF] * 3, [1, 1], z=-1, K=3, weight=(4, 1))
    ser = eval_hyp_sum_series(s, 2)
    assert ser.coeffs == (eval_hyp_sum(s), 0, 0)


def test_series_pole_errors():
    zero_base = hyp_sum([HALF], [(0, 1)], z=1, K=2, weight=(0, 1))
    with pytest.raises(PoleError):
        eval_hyp_sum_series(zero_base, 2)
    vanishing = hyp_sum([HALF], [(-1, 1)], z=1, K=3, weight=(0, 1))
    with pytest.raises(PoleError):
        eval_hyp_sum_series(vanishing, 2)


@pytest.mark.parametrize("K", [2.0, True, "2", F(2)])
def test_truncation_must_be_an_int(K):
    with pytest.raises(TypeError, match="truncation index K must be an int"):
        hyp_sum([1], [1], 1, K=K)


def test_negative_truncation_is_a_value_error():
    with pytest.raises(ValueError, match="nonnegative"):
        hyp_sum([1], [1], 1, K=-1)


def test_param_coercion():
    assert param(3) == AffineParam(F(3))
    assert param((1, HALF)) == AffineParam(F(1), HALF)
    assert param(AffineParam(F(2))) == AffineParam(F(2))


def test_a_spec_built_directly_coerces_its_parameters():
    # HypSum takes what hyp_sum takes: each entry goes through param
    with pytest.raises(TypeError, match="float"):
        HypSum(upper=(0.5,), lower=(), argument=1, truncation=2)
    for entry in (HALF, (HALF, 0)):
        spec = HypSum(upper=(entry,), lower=(), argument=1, truncation=2)
        assert spec.upper == (AffineParam(HALF),)
        assert spec == hyp_sum([HALF], [], 1, 2)
        assert eval_hyp_sum(spec) == 1 + HALF + HALF * F(3, 2) / 2
    assert HypSum(((1, HALF),), [2], 1, 2).upper == (AffineParam(1, HALF),)


def test_a_copy_is_checked_as_a_new_record_is():
    spec = hyp_sum([HALF], [1], 1, 3)
    assert spec._replace(truncation=5) == hyp_sum([HALF], [1], 1, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        spec._replace(truncation=-1)
    with pytest.raises(TypeError, match="truncation index K must be an int"):
        spec._replace(truncation=2.0)
    with pytest.raises(TypeError, match="float"):
        spec._replace(argument=0.5)
    with pytest.raises(TypeError, match="float"):
        spec._replace(upper=(0.5,))
    assert spec._replace(lower=((2, 1),)).lower == (AffineParam(2, 1),)
    with pytest.raises(TypeError, match="bool"):
        AffineParam(1)._replace(base=True)
    with pytest.raises(TypeError, match="float"):
        AffineParam(1)._replace(slope=0.5)
    assert AffineParam(1)._replace(slope=1).slope == F(1)


def test_a_record_has_no_tuple_arithmetic():
    spec = hyp_sum([HALF], [1], 1, 3)
    with pytest.raises(TypeError, match="no \\+ or \\*"):
        spec + spec
    with pytest.raises(TypeError, match="no \\+ or \\*"):
        AffineParam(1) + (2,)
    with pytest.raises(TypeError, match="no \\+ or \\*"):
        2 * AffineParam(1)


def test_gamma_ratio_trivial():
    assert _pochhammer_ratio((F(1, 3),), (F(1, 3),), 5) == 1
    assert _pochhammer_ratio((F(-7, 2),), (F(5),), 0) == 1
    # integer arguments: G(4) G(2) / (G(1) G(5)) = 3! / 4!
    assert _pochhammer_ratio((F(1),), (F(2),), 3) == F(1, 4)


def test_gamma_ratio_paired_shift_values():
    # G(1-5/2) G(1+5/2) / (G(1/2) G(3/2)) = (1/2)_3 / (-3/2)_3 = (15/8) / (3/8) = 5
    assert _pochhammer_ratio((HALF,), (F(-3, 2),), 3) == 5
    # (-5/2)_2 (1/3)_2 / ((1/2)_2 (-2/3)_2) = (15/4)(4/9) / ((3/4)(-2/9)) = -10
    assert _pochhammer_ratio((F(-5, 2), F(1, 3)), (HALF, F(-2, 3)), 2) == -10


def test_gamma_ratio_pole():
    # x = -2 with n = 3: G(x) is a pole and G(x + 3) = G(1) is not; (x)_3 has
    # the factor 0, so the ratio would read 0 or divide by it
    for ups, downs in [((F(-2),), (HALF,)), ((HALF,), (F(-2),))]:
        with pytest.raises(PoleError, match="Gamma argument -2 is a nonpositive integer"):
            _pochhammer_ratio(ups, downs, 3)


def test_gamma_ratio_pole_at_x_plus_n():
    # x = -5 with n = 3: G(x + 3) = G(-2) is a pole as well as G(x), while
    # (x)_3 = (-5)(-4)(-3) is a finite nonzero product, so a check for a
    # vanishing factor alone would let the ratio read -60 or its inverse
    for ups, downs in [((F(-5),), (F(1),)), ((F(1),), (F(-5),))]:
        with pytest.raises(PoleError):
            _pochhammer_ratio(ups, downs, 3)


def test_whipple_4f3_known_point():
    # a = 1/2, c = 3, n = 2: the sum is 1 - 20/7 + 48/7 = 5 and the Gamma side agrees
    lhs, rhs = identity_sides("WHIPPLE_4F3", {"a": HALF, "c": F(3), "n": 2})
    assert lhs == 1 - F(20, 7) + F(48, 7) == 5
    assert rhs == 5


def test_gessel_31_1_known_point():
    # a = c = 1/2 + 5/4, n = 2 gives the odd-prime value 5 on both sides
    a = HALF + F(5, 4)
    lhs, rhs = identity_sides("GESSEL_31_1", {"a": a, "c": a, "n": 2})
    assert lhs == rhs == 5


def test_whipple_7f6_empty_sum():
    params = {"a": F(1, 3), "c": F(1, 5), "d": F(2, 5), "e": F(1, 7), "f": F(3, 7), "n": 0}
    lhs, rhs = identity_sides("WHIPPLE_7F6", params)
    assert lhs == rhs == 1


def test_whipple_6f5_known_point():
    params = {"a": HALF, "b": HALF, "c": HALF, "d": F(1), "n": 2}
    lhs, rhs = identity_sides("WHIPPLE_6F5", params)
    assert lhs == rhs


def test_identity_requires_nonnegative_integer_n():
    with pytest.raises(ValueError):
        identity_sides("GESSEL_P544", {"a": HALF, "n": -1})
    with pytest.raises(ValueError):
        identity_sides("GESSEL_P544", {"a": HALF, "n": F(1, 2)})


@pytest.mark.parametrize(
    "params, message",
    [
        ({"a": HALF, "n": 2}, "GOSPER_STRANGE takes the parameters a, b and n, got a, n"),
        ({"a": HALF, "b": HALF, "c": HALF, "n": 2}, "GOSPER_STRANGE takes the parameters a, b and n"),
        ({"a": 0.1, "b": HALF, "n": 2}, "GOSPER_STRANGE takes exact rational parameters, got a float for a"),
        ({"a": HALF, "b": HALF, "n": 2.0}, "the terminating parameter n must be a nonnegative integer"),
        ({"a": HALF, "b": HALF, "n": True}, "the terminating parameter n must be a nonnegative integer"),
        ({"a": True, "b": HALF, "n": 2}, "GOSPER_STRANGE takes exact rational parameters, got a bool for a"),
        ({"a": HALF, "b": False, "n": 2}, "GOSPER_STRANGE takes exact rational parameters, got a bool for b"),
    ],
    ids=["missing-name", "extra-name", "float", "float-n", "bool-n", "bool", "bool-false"],
)
def test_identity_rejects_a_malformed_parameter_record(params, message):
    # a missing name once raised KeyError, an extra one was ignored and a
    # float entered as the exact value of a binary fraction
    with pytest.raises(ValueError, match=re.escape(message)):
        identity_sides("GOSPER_STRANGE", params)


def test_identity_coerces_free_parameters_to_fractions():
    # ints and strings are exact, so they name the same point as their Fractions
    assert identity_sides("GESSEL_P544", {"a": "1/3", "n": 3}) == identity_sides(
        "GESSEL_P544", {"a": F(1, 3), "n": 3}
    )
    assert identity_sides("WHIPPLE_4F3", {"a": HALF, "c": 3, "n": 2}) == (5, 5)


def test_randomized_identity_suite():
    # 50 pole-free fixed-seed draws per identity, all exactly true, and the
    # sides kept with each draw are those of a fresh evaluation
    for tag in IDENTITIES:
        draws = sample_identity_params(tag)
        assert len(draws) == IDENTITY_DRAWS == 50
        for params, lhs, rhs in draws:
            assert check_identity(tag, params), (tag, params)
            assert identity_sides(tag, params) == (lhs, rhs)


#: The suite's rejected draws per identity: (at a Gamma argument, at a lower parameter).
REJECTED_DRAWS = {
    "WHIPPLE_4F3": (1, 4),
    "WHIPPLE_6F5": (4, 4),
    "WHIPPLE_7F6": (4, 3),
    "GESSEL_31_1": (6, 1),
    "GOSPER_STRANGE": (2, 2),
    "GESSEL_P544": (5, 2),
}


def test_every_rejected_draw_is_a_pole(monkeypatch):
    # 38 rejections, each a PoleError: 22 at a Gamma argument, 16 at a lower parameter
    rejected = Counter()

    def counting(tag, params):
        try:
            return identity_sides(tag, params)
        except Exception as exc:
            rejected[tag, type(exc), " ".join(str(exc).split()[:2])] += 1
            raise

    monkeypatch.setattr(hypergeometric, "identity_sides", counting)
    for tag in IDENTITIES:
        sample_identity_params.__wrapped__(tag)
    assert rejected == {
        (tag, PoleError, cause): count
        for tag, counts in REJECTED_DRAWS.items()
        for cause, count in zip(("Gamma argument", "lower parameter"), counts)
    }
    assert sum(rejected.values()) == 38


def test_sampling_is_reproducible():
    a = sample_identity_params("GOSPER_STRANGE")
    assert sample_identity_params.__wrapped__("GOSPER_STRANGE") == a  # a fresh draw, past the cache
    # the cached draws are shared, so a caller cannot edit them
    with pytest.raises(TypeError):
        a[0][0]["n"] = 3
