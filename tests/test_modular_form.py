import random
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import modular_form
from supercong.exact_core import is_prime
from supercong.modular_form import (
    BudgetError,
    EXPANSION_CEILING,
    _eta_fourth_power,
    _pentagonal_terms,
    _poly_mul_trunc,
    eta_product_expansion,
    prime_power_coefficient,
)

from oracles import (
    eta_coefficients_from_factors,
    euler_factor_product,
    kronecker_eta_coefficients,
    pentagonal_factor_product,
    schoolbook_mul_trunc,
    sign_split_mul_trunc,
)


def naive_eta_coefficients(N):
    """Independent oracle: multiply out (1 - q^m)^4 one binomial at a time."""
    deg = N - 1
    c = [0] * (deg + 1)
    c[0] = 1
    for step in (2, 4):
        m = step
        while m <= deg:
            for _ in range(4):
                for i in range(deg, m - 1, -1):
                    c[i] -= c[i - m]
            m += step
    return c  # coefficient of q^n in the final form is c[n-1]


def test_matches_naive_expansion():
    N = 300
    expansion = eta_product_expansion(N)
    naive = naive_eta_coefficients(N)
    assert list(expansion) == naive


def test_small_expansion_values():
    e = eta_product_expansion(9)
    assert [e[n - 1] for n in (1, 3, 5, 7, 9)] == [1, -4, -2, 24, -11]
    assert all(e[n - 1] == 0 for n in (2, 4, 6, 8))


def test_bound_one():
    e = eta_product_expansion(1)
    assert len(e) == 1 and e[1 - 1] == 1
    with pytest.raises(ValueError):
        eta_product_expansion(0)


def test_even_indices_vanish():
    e = eta_product_expansion(4)
    assert e[2 - 1] == 0 and e[4 - 1] == 0
    e = eta_product_expansion(2000)
    assert all(e[n - 1] == 0 for n in range(2, 2001, 2))


def test_prefix_stability():
    big = eta_product_expansion(500)
    small = eta_product_expansion(123)
    assert big[:123] == small


def test_hecke_consistency_direct():
    e = eta_product_expansion(1000)
    for p in (3, 5, 7, 11, 13):
        assert e[p * p - 1] == e[p - 1] ** 2 - p**3


def test_multiplicativity_spot():
    e = eta_product_expansion(15)
    assert e[15 - 1] == e[3 - 1] * e[5 - 1]


def test_prime_power_coefficient_values():
    assert prime_power_coefficient(5, 1) == -2
    assert prime_power_coefficient(7, 1) == 24
    assert prime_power_coefficient(3, 2) == -11
    assert prime_power_coefficient(5, 2) == -121


def test_prime_power_coefficient_validation():
    with pytest.raises(BudgetError, match="p\\^r = 100489 exceeds the expansion ceiling 100000"):
        prime_power_coefficient(317, 2)
    with pytest.raises(ValueError):
        prime_power_coefficient(9, 1)
    with pytest.raises(ValueError):
        prime_power_coefficient(2, 1)
    with pytest.raises(ValueError):
        prime_power_coefficient(5, 0)


def test_coefficients_at_prime_indices_are_nonzero():
    # a_p = 0 would make the modular congruence targets degenerate; make sure
    # the odd prime coefficients in the working range are not trivially zero
    e = eta_product_expansion(100)
    for p in range(3, 101):
        if is_prime(p):
            assert e[p - 1] != 0


@pytest.mark.parametrize("step", [1, 2, 4])
def test_pentagonal_factor_matches_the_factor_by_factor_loop(step):
    # the package's sparse pentagonal terms, spread to exponents step*e, and
    # the dense factor that the seven-product oracle multiplies; the loop's
    # result at degree 300 is the product mod q^301, so its prefixes are the
    # loop's results at every smaller degree
    loop = euler_factor_product(step, 300)
    for deg in range(301):
        spread = [0] * (deg + 1)
        for e, sign in _pentagonal_terms(deg // step):
            spread[step * e] = sign
        assert spread == loop[: deg + 1], deg
        assert pentagonal_factor_product(step, deg) == loop[: deg + 1], deg
    assert pentagonal_factor_product(step, 2000) == euler_factor_product(step, 2000)


def _fourth_power_of_the_loop(deg):
    factor = euler_factor_product(1, deg)
    power = [1] + [0] * deg
    for _ in range(4):
        power = schoolbook_mul_trunc(factor, power, deg)
    return power


def test_eta_fourth_power_matches_the_looped_factor_to_the_fourth():
    power = _fourth_power_of_the_loop(300)
    for deg in range(301):
        assert _eta_fourth_power(deg) == power[: deg + 1], deg
    assert _eta_fourth_power(2000) == _fourth_power_of_the_loop(2000)


@pytest.mark.parametrize("N", [1, 2, 3, 9, 100, 2000])
def test_expansion_matches_the_product_of_looped_factors(N):
    assert list(eta_product_expansion(N)) == eta_coefficients_from_factors(N)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=3000))
def test_expansion_matches_the_seven_product_chain(N):
    assert list(eta_product_expansion(N)) == kronecker_eta_coefficients(N)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 500, 501])
def test_each_expansion_makes_one_kronecker_product(monkeypatch, N):
    # G = F(q) * F(q^2) to degree M is E*F to degree M//2 and O*F to degree
    # (M-1)//2; at M = 0 there is no odd half and so one product
    calls = []

    def counted(a, b, deg):
        calls.append(deg)
        return _poly_mul_trunc(a, b, deg)

    monkeypatch.setattr(modular_form, "_poly_mul_trunc", counted)
    expansion = eta_product_expansion.__wrapped__(N)
    M = (N - 1) // 2
    assert calls == ([M // 2, (M - 1) // 2] if M else [0])
    assert expansion == eta_product_expansion(N)


def test_poly_mul_trunc_matches_the_schoolbook_product():
    # signed operands of lengths 1..60 and magnitudes up to 2^70; every
    # fourth pair has an all-negative a, an all-zero b or an all-negative b
    # of small magnitude; truncation below, at and above the full degree
    rng = random.Random(4)

    def poly(low, high):
        return [rng.randint(low, high) for _ in range(rng.randint(1, 60))]

    for trial in range(400):
        bits = rng.randint(0, 70)
        a, b = poly(-(2**70), 2**70), poly(-(2**bits), 2**bits)
        if trial % 4 == 1:
            a = [-abs(x) - 1 for x in a]
        elif trial % 4 == 2:
            b = [0] * len(b)
        elif trial % 4 == 3:
            b = poly(-3, -1)
        full = len(a) + len(b) - 2
        for deg in sorted({0, full // 2, max(full - 1, 0), full, full + 1, full + 7}):
            assert _poly_mul_trunc(a, b, deg) == schoolbook_mul_trunc(a, b, deg), (trial, deg)


def test_poly_mul_trunc_matches_the_sign_split_kernel_on_the_eta_operands():
    # the operands of an expansion to n = 10001 (M = 5000), where the
    # schoolbook product is too slow: the two half-length products and the
    # full-length F(q) * F(q^2) they replace
    M = 5000
    f = _eta_fourth_power(M)
    f_q2 = [0] * (M + 1)
    f_q2[::2] = f[: M // 2 + 1]
    for a, b, deg in (
        (f[::2], f[: M // 2 + 1], M // 2),
        (f[1::2], f[: (M + 1) // 2], (M - 1) // 2),
        (f, f_q2, M),
    ):
        assert _poly_mul_trunc(a, b, deg) == sign_split_mul_trunc(a, b, deg)


_signed_polys = st.lists(st.integers(min_value=-(2**200), max_value=2**200), min_size=1, max_size=80)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_signed_polys, _signed_polys, st.integers(min_value=0, max_value=200))
def test_poly_mul_trunc_matches_the_sign_split_kernel_on_wide_operands(a, b, deg):
    assert _poly_mul_trunc(a, b, deg) == sign_split_mul_trunc(a, b, deg)


#: (length, bits of max|a|, bits of max|b|) with length = 2^j - 1 and a slot
#: width of bits_a + bits_b + j + 1 bits.  Where that is a multiple of 8, no
#: padding bit is left over and the largest convolution sum,
#: length * max|a| * max|b|, comes within a factor length / 2^j of the
#: bound; where it is one more, a width without the sign bit would have no
#: padding either, and its slots would overflow.
_TIGHT_SLOTS = [
    (2**j - 1, total // 3, total - total // 3)
    for j in range(1, 7)
    for width in (16, 64, 128)
    for total in (width - j - 1, width - j)
]


@pytest.mark.parametrize("length, bits_a, bits_b", _TIGHT_SLOTS)
def test_poly_mul_trunc_at_the_slot_bound(length, bits_a, bits_b):
    # every coefficient +-(2^k - 1): the middle convolution sums reach
    # min(len) * max|a| * max|b|; with one sign they are all positive or all
    # negative, with alternating signs they alternate between both extremes
    top_a, top_b = 2**bits_a - 1, 2**bits_b - 1
    alternating_a = [(-1) ** i * top_a for i in range(length)]
    alternating_b = [(-1) ** i * top_b for i in range(length + 3)]
    full = 2 * length + 1
    for a, b in (
        ([top_a] * length, [top_b] * (length + 3)),
        ([-top_a] * length, [top_b] * (length + 3)),
        ([-top_a] * length, [-top_b] * (length + 3)),
        (alternating_a, alternating_b),
        (alternating_a, [-x for x in alternating_b]),
    ):
        for deg in (0, length - 1, full - 1, full, full + 1, full + 5):
            assert _poly_mul_trunc(a, b, deg) == schoolbook_mul_trunc(a, b, deg), (a, b, deg)
            assert _poly_mul_trunc(b, a, deg) == schoolbook_mul_trunc(b, a, deg), (a, b, deg)


@pytest.mark.parametrize(
    "a, b",
    [
        ([5], [-3]),
        ([-1], [-1]),
        ([2**90], [7, -8, 9]),
        ([-(2**33) + 1], [0, 0, 0, 1]),
        ([1, -2, 3], [-(2**64)]),
        ([0, 0, -1], [0, 0, 0, 0, -1]),
    ],
)
def test_poly_mul_trunc_of_one_term_operands(a, b):
    full = len(a) + len(b) - 2
    for deg in range(full + 6):
        assert _poly_mul_trunc(a, b, deg) == schoolbook_mul_trunc(a, b, deg), deg


def test_poly_mul_trunc_across_long_zero_runs():
    # one to four nonzero coefficients of either sign in operands of up to
    # 700 slots, so most slots of the product lie in runs of zeros that
    # must read back as zero
    rng = random.Random(13)
    for trial in range(60):
        a = [0] * rng.randint(1, 700)
        b = [0] * rng.randint(1, 700)
        for poly in (a, b):
            for _ in range(rng.randint(1, 4)):
                poly[rng.randrange(len(poly))] = rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.randint(1, 80))
        full = len(a) + len(b) - 2
        for deg in (full // 3, full, full + 1 + trial):
            assert _poly_mul_trunc(a, b, deg) == schoolbook_mul_trunc(a, b, deg), (trial, deg)


def _assert_hecke_eigenform(N):
    """a_1 = 1, a_even = 0, the Hecke recursion at odd prime powers,
    multiplicativity on coprime odd pairs and the Deligne bound
    |a_n| <= d(n) n^(3/2), on a_1..a_N."""
    a = (0,) + eta_product_expansion(N)  # a[n] = a_n
    assert a[1] == 1
    assert not any(a[2::2])
    for p in filter(is_prime, range(3, isqrt(N) + 1)):
        prev, cur, q = 1, a[p], p  # a_{q/p}, a_q
        while q * p <= N:
            assert a[q * p] == a[p] * cur - p**3 * prev, q * p
            prev, cur, q = cur, a[q * p], q * p
    for m in range(3, isqrt(N) + 1, 2):
        for k in range(m + 2, N // m + 1, 2):
            if gcd(m, k) == 1:
                assert a[m * k] == a[m] * a[k], (m, k)
    divisors = [0] * (N + 1)
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            divisors[n] += 1
    assert all(a[n] ** 2 <= divisors[n] ** 2 * n**3 for n in range(1, N + 1))


def test_expansion_to_ten_thousand_is_a_hecke_eigenform():
    _assert_hecke_eigenform(10000)


def test_expansion_to_the_largest_pmax_is_a_hecke_eigenform():
    _assert_hecke_eigenform(EXPANSION_CEILING)
