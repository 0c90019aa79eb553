import random
import signal
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import exact_core
from supercong.exact_core import (
    INFINITY,
    NotPrimeError,
    _split_power,
    is_prime,
    padic_valuation,
    rising_factorial,
)
from supercong.hypergeometric import HypSum, eval_hyp_sum, eval_hyp_sum_series, specialize
from supercong.power_series import TruncSeries

from oracles import central_half_ratio, congruent_mod_power, harmonic2, odd_harmonic2, stepwise_rising_factorial

PRIMES_TO_97 = [p for p in range(5, 98) if is_prime(p)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: padic_valuation(0.1, 5),
        lambda: rising_factorial(0.5, 2),
        lambda: HypSum([0.1], [1], argument=0.5, truncation=2),
        lambda: HypSum([1], [1], argument=0.5, truncation=2),
        lambda: HypSum([1], [1], argument=1, truncation=2, weight=(0.5, 1)),
        lambda: specialize(HypSum([(1, 1)], [1], argument=1, truncation=2), 0.5),
        lambda: TruncSeries((0.1, 2)),
    ],
    ids=[
        "padic_valuation", "rising_factorial", "HypSum-parameter", "HypSum-argument", "HypSum-weight",
        "specialize", "TruncSeries",
    ],
)
def test_exact_entry_points_refuse_floats(call):
    # Fraction(0.1) is the binary fraction 3602879701896397/2^55, not 1/10:
    # padic_valuation(0.1, 5) read 0 where v_5(1/10) = -1
    with pytest.raises(TypeError, match="float"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: padic_valuation(True, 5),
        lambda: rising_factorial(True, 3),
        lambda: eval_hyp_sum(HypSum([True], [1], argument=True, truncation=2, weight=(False, True))),
        lambda: eval_hyp_sum_series(HypSum([(1, 1)], [1], argument=1, truncation=2), order=True),
    ],
    ids=["padic_valuation", "rising_factorial", "eval_hyp_sum", "eval_hyp_sum_series-order"],
)
def test_exact_entry_points_refuse_bools(call):
    # a bool is a truth value, not the integer 0 or 1: these read 0, 6 and 5/2,
    # and order=True summed to order 1
    with pytest.raises(TypeError, match="bool"):
        call()


def test_exact_returns_a_fraction_as_it_is():
    x = F(-7, 12)
    assert exact_core._exact(x) is x
    assert exact_core._exact(3) == F(3) and type(exact_core._exact(3)) is F


def test_rising_factorial_trivials():
    assert rising_factorial(F(1, 2), 0) == 1
    assert rising_factorial(F(1, 2), 3) == F(15, 8)
    assert rising_factorial(-3, 5) == 0


def test_rising_factorial_rejects_negative_k():
    with pytest.raises(ValueError):
        rising_factorial(F(1, 2), -1)


@pytest.mark.parametrize("k", [True, 2.0, F(2), "2"], ids=["bool", "float", "Fraction", "str"])
def test_rising_factorial_k_must_be_an_int(k):
    # True ran as k = 1, and 2.0 died inside range() with a message that named no k
    with pytest.raises(TypeError, match="rising factorial's k must be an int"):
        rising_factorial(F(1, 2), k)
    for a in (0, -3, 7, F(-5, 4), F(11, 12)):
        for k in (-1, -2, -80):
            with pytest.raises(ValueError):
                rising_factorial(a, k)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(-60, 60), st.integers(1, 12), st.integers(0, 80))
def test_rising_factorial_matches_stepwise_product(n, d, k):
    a = F(n, d)
    got = rising_factorial(a, k)
    assert type(got) is F
    assert got == stepwise_rising_factorial(a, k)


def test_rising_factorial_negative_and_zero_hitting_bases():
    # a = -j is a factor-zero base once k > j; a negative base with d > 1 never hits zero
    for j in range(0, 61):
        for k in sorted({0, 1, j, j + 1, 80}):
            got = rising_factorial(-j, k)
            assert got == stepwise_rising_factorial(-j, k)
            assert (got == 0) == (k > j)
    for d in range(2, 13):
        for n in range(-60, 0):
            a = F(n, d)
            for k in (1, 2, 17, 80):
                got = rising_factorial(a, k)
                assert got == stepwise_rising_factorial(a, k)
                assert (got == 0) == (a.denominator == 1 and k > -a)


def test_central_half_ratio_examples():
    assert central_half_ratio(0) == 1
    assert central_half_ratio(2) == F(3, 8)
    # brute-force product oracle for k = 3
    assert central_half_ratio(3) == F(1, 2) * F(3, 2) * F(5, 2) / 6
    assert central_half_ratio(3) == F(5, 16)


def test_central_half_ratio_three_routes_agree():
    for k in range(201):
        via_product = rising_factorial(F(1, 2), k) / factorial(k)
        via_binomial = F(comb(2 * k, k), 4**k)
        assert central_half_ratio(k) == via_product == via_binomial


def test_harmonic2_examples():
    assert harmonic2(0) == 0
    assert harmonic2(2) == F(5, 4)
    assert harmonic2(4) == sum(F(1, j * j) for j in range(1, 5)) == F(205, 144)


def test_odd_harmonic2_examples():
    assert odd_harmonic2(0) == 0
    assert odd_harmonic2(2) == F(10, 9)
    assert odd_harmonic2(3) == sum(F(1, (2 * j - 1) ** 2) for j in range(1, 4)) == F(259, 225)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(999983)
    assert not is_prime(999983 * 999979)


def test_is_prime_refuses_uncertified_range():
    with pytest.raises(ValueError):
        is_prime(10**12 + 39)


def test_padic_valuation_examples():
    assert padic_valuation(F(0), 5) is INFINITY
    assert padic_valuation(F(3, 5), 5) == -1
    # 2125 = 5^3 * 17
    assert padic_valuation(F(-2125, 512), 5) == 3


def test_padic_valuation_requires_prime():
    with pytest.raises(NotPrimeError):
        padic_valuation(F(1, 2), 6)
    with pytest.raises(NotPrimeError):
        padic_valuation(F(1, 2), 1)


def test_padic_valuation_multiplicative_and_ultrametric():
    rng = random.Random(20240301)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        x = F(rng.randint(-400, 400), rng.randint(1, 400))
        y = F(rng.randint(-400, 400), rng.randint(1, 400))
        vx, vy = padic_valuation(x, p), padic_valuation(y, p)
        if x * y == 0:
            assert padic_valuation(x * y, p) is INFINITY
        else:
            assert padic_valuation(x * y, p) == vx + vy
        vsum = padic_valuation(x + y, p)
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)


def test_congruent_mod_power_examples():
    x = F(123, 7)
    assert congruent_mod_power(x, x, 7, 10)
    assert congruent_mod_power(F(435, 512), 5, 5, 3)
    assert not congruent_mod_power(F(435, 512), 5, 5, 4)
    with pytest.raises(ValueError):
        congruent_mod_power(1, 1, 5, 0)


def test_congruent_mod_power_equivalence_relation():
    rng = random.Random(987)
    p, n = 7, 2
    xs = [F(rng.randint(0, 300), rng.choice([1, 2, 3, 5, 11])) for _ in range(12)]
    for a in xs:
        assert congruent_mod_power(a, a, p, n)
        for b in xs:
            assert congruent_mod_power(a, b, p, n) == congruent_mod_power(b, a, p, n)
            for c in xs:
                if congruent_mod_power(a, b, p, n) and congruent_mod_power(b, c, p, n):
                    assert congruent_mod_power(a, c, p, n)


def test_half_range_harmonic_sums_vanish_mod_p():
    for p in PRIMES_TO_97:
        m = (p - 1) // 2
        assert padic_valuation(harmonic2(m), p) >= 1
        assert padic_valuation(odd_harmonic2(m), p) >= 1


def test_harmonic_reflection_vanishes_mod_p():
    for p in PRIMES_TO_97:
        table = [harmonic2(k) for k in range(p - 1)]
        for k in range(1, p - 1):
            assert padic_valuation(table[k] + table[p - 1 - k], p) >= 1


def test_infinity_ordering():
    assert INFINITY == INFINITY
    assert INFINITY >= INFINITY
    assert not (INFINITY > INFINITY)
    assert INFINITY > 10**9
    assert INFINITY >= -5
    assert not (INFINITY < 3)
    assert 3 < INFINITY
    assert 3 <= INFINITY
    assert not (3 >= INFINITY)
    assert min(3, INFINITY) == 3
    assert INFINITY != 7
    assert repr(INFINITY) == "INFINITY"


class _Hung(Exception):
    pass


def _raises_within(seconds: float, error: type, call) -> None:
    """``call()`` raises ``error`` before ``seconds`` have passed; a call that
    runs longer is stopped by SIGALRM and fails the test as a hang."""

    def hung(_signum, _frame):
        raise _Hung

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with pytest.raises(error):
            call()
    except _Hung:
        pytest.fail(f"hung for {seconds} s instead of raising {error.__name__}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _split_power(0, 5), ValueError),  # every power of 5 divides 0
    ],
    ids=["split_power-zero"],
)
def test_degenerate_residue_inputs_raise_instead_of_hanging(call, error):
    _raises_within(3, error, call)
