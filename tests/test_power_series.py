import random
from fractions import Fraction as F
from math import factorial

import pytest

from supercong.exact_core import rising_factorial
from supercong.power_series import TruncSeries

from oracles import (
    constant,
    div_binomial,
    harmonic2,
    mul_binomial,
    odd_harmonic2,
    pochhammer_norm_series,
    pochhammer_series,
    ps_add,
    ps_invert,
    ps_mul,
    ps_scale,
    series,
)


def test_ps_mul_examples():
    one_plus = series([1, 1], 4)
    one_minus = series([1, -1], 4)
    assert ps_mul(one_plus, one_minus) == series([1, 0, -1], 4)

    a = series([F(1, 2), 1], 2)
    b = series([F(3, 2), 1], 2)
    assert ps_mul(a, b) == series([F(3, 4), 2, 1], 2)

    c = series([F(3, 4), 2, 1], 2)
    d = series([F(3, 4), -2, 1], 2)
    prod = ps_mul(c, d)
    assert prod == series([F(9, 16), 0, F(-5, 2)], 2)
    # the quadratic coefficient matches the deformation formula
    assert prod.coeffs[2] == -rising_factorial(F(1, 2), 2) ** 2 * 4 * odd_harmonic2(2)


def test_ps_mul_truncates_to_min_order():
    a = series([1, 1, 1], 2)
    b = series([1, 1, 1, 1, 1], 4)
    assert len(ps_mul(a, b).coeffs) - 1 == 2
    assert len(ps_mul(b, a).coeffs) - 1 == 2


def test_ps_invert_examples():
    assert ps_invert(constant(1, 3)) == constant(1, 3)
    assert ps_invert(series([1, -1], 3)) == series([1, 1, 1, 1])
    inv = ps_invert(series([2, 1], 2))
    # triangular-system oracle: b0 = 1/2, b1 = -b0/2, b2 = -b1/2
    assert inv == series([F(1, 2), F(-1, 4), F(1, 8)])
    assert ps_mul(series([2, 1], 2), inv) == constant(1, 2)


def test_ps_invert_rejects_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        ps_invert(series([0, 1], 2))


def test_ps_invert_is_involutive():
    rng = random.Random(5150)
    for _ in range(40):
        order = rng.randint(0, 6)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(1, 3)
        s = series(coeffs)
        assert ps_invert(ps_invert(s)) == s
        assert ps_mul(s, ps_invert(s)) == constant(1, order)


def test_binomial_steps_match_product_and_inverse():
    rng = random.Random(2718)
    for _ in range(60):
        order = rng.randint(0, 6)
        lag = rng.randint(1, 3)
        a = series([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)])
        c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        s = F(rng.randint(-9, 9), rng.randint(1, 9))
        factor = series([c] + [0] * (lag - 1) + [s], order)
        coeffs = list(a.coeffs)
        mul_binomial(coeffs, c, s, lag)
        assert TruncSeries(tuple(coeffs)) == ps_mul(a, factor)
        coeffs = list(a.coeffs)
        div_binomial(coeffs, c, s, lag)
        assert TruncSeries(tuple(coeffs)) == ps_mul(a, ps_invert(factor))
    with pytest.raises(ZeroDivisionError):
        div_binomial([F(1), F(0)], 0, 1)


def test_ps_mul_commutative_associative():
    rng = random.Random(31337)
    for _ in range(40):
        order = rng.randint(0, 5)
        mk = lambda: series(
            [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        )
        a, b, c = mk(), mk(), mk()
        assert ps_mul(a, b) == ps_mul(b, a)
        assert ps_mul(ps_mul(a, b), c) == ps_mul(a, ps_mul(b, c))


def test_pochhammer_series_examples():
    assert pochhammer_series(F(1, 2), 1, 2, 2) == series([F(3, 4), 2, 1])
    assert pochhammer_series(1, 0, 3, 2) == constant(6, 2)
    assert pochhammer_series(F(1, 2), 1, 0, 4) == constant(1, 4)
    with pytest.raises(ValueError):
        pochhammer_series(1, 1, -1, 2)


def test_pochhammer_series_linear_coefficient_formula():
    # (1/2 + x)_k has linear coefficient (1/2)_k * 2 * sum 1/(2j-1)
    for k in range(41):
        odd_h1 = sum((F(1, 2 * j - 1) for j in range(1, k + 1)), F(0))
        lin = pochhammer_series(F(1, 2), 1, k, 1).coeffs[1]
        assert lin == rising_factorial(F(1, 2), k) * 2 * odd_h1


def test_pochhammer_series_quadratic_coefficient_formula():
    # x^2 coefficient of (1/2 + x)_k is (1/2)_k * 4 * sum_{i<j} 1/((2i-1)(2j-1)),
    # recovered from the elementary symmetric identity 2 e2 = e1^2 - p2.
    for k in range(26):
        e1 = sum((F(1, 2 * j - 1) for j in range(1, k + 1)), F(0))
        e2 = (e1 * e1 - odd_harmonic2(k)) / 2
        quad = pochhammer_series(F(1, 2), 1, k, 2).coeffs[2]
        assert quad == rising_factorial(F(1, 2), k) * 4 * e2


def test_symmetric_pochhammer_pair_half():
    # (1/2+x)_k (1/2-x)_k: even in x, constant (1/2)_k^2, quadratic term
    # -4 (1/2)_k^2 * sum 1/(2j-1)^2
    for k in range(41):
        prod = ps_mul(
            pochhammer_series(F(1, 2), 1, k, 4),
            pochhammer_series(F(1, 2), -1, k, 4),
        )
        rf2 = rising_factorial(F(1, 2), k) ** 2
        assert prod.coeffs[1] == 0 and prod.coeffs[3] == 0
        assert prod.coeffs[0] == rf2
        assert prod.coeffs[2] == -4 * rf2 * odd_harmonic2(k)


def test_symmetric_pochhammer_pair_unit():
    # (1+x)_k (1-x)_k has quadratic coefficient -(k!)^2 * sum 1/j^2
    for k in range(41):
        prod = ps_mul(
            pochhammer_series(1, 1, k, 2), pochhammer_series(1, -1, k, 2)
        )
        assert prod.coeffs[2] == -F(factorial(k)) ** 2 * harmonic2(k)


def test_pochhammer_norm_series_matches_explicit_product():
    # independent oracle: multiply the quadratic factors one at a time
    for k in range(6):
        for a0, slope in ((F(1), F(1, 2)), (F(3, 4), F(2, 3))):
            expected = constant(1, 4)
            for j in range(k):
                expected = ps_mul(expected, series([(a0 + j) ** 2, 0, slope**2], 4))
            assert pochhammer_norm_series(a0, slope, k, 4) == expected
    assert pochhammer_norm_series(1, F(1, 2), 5, 4).coeffs[0] == F(factorial(5)) ** 2


def test_series_construction_and_operators():
    with pytest.raises(ValueError):
        TruncSeries(())
    with pytest.raises(ValueError):
        TruncSeries((1,))._replace(coeffs=())
    with pytest.raises(TypeError):
        TruncSeries((1,))._replace(coeffs=(0.5,))
    s = series([1, 2], 3)
    assert s.coeffs == (1, 2, 0, 0)
    assert ps_add(s, s).coeffs == (2, 4, 0, 0)
    assert ps_scale(s, F(1, 2)).coeffs == (F(1, 2), 1, 0, 0)
    assert len(ps_add(s, constant(0, 1)).coeffs) - 1 == 1
    # a series is a plain value: its algebra lives with the oracles
    with pytest.raises(TypeError):
        s + s
    with pytest.raises(TypeError):
        F(1, 2) * s
