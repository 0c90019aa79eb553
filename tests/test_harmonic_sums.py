"""Harmonic-weighted sums read off as x^2 coefficients of x-deformed sums
(L. Long's method), checked against the term-by-term sums in ``oracles``:
THMKEY(s), COMCONJ2 and LEM_THM1_B2K's expected side."""

from fractions import Fraction as F

import pytest

from supercong.exact_core import is_prime
from supercong.harness import thm3_deformed_spec, thmkey_series_spec, verify_congruence_case
from supercong.hypergeometric import eval_hyp_sum_series

from oracles import (
    central_half_ratio,
    comconj2_partial_sums,
    harmonic2,
    odd_harmonic2,
    thmkey_partial_sums,
)

EXPONENTS = (1, 2, 3)


def _x2(spec) -> F:
    return eval_hyp_sum_series(spec, 2).coeffs[2]


def _assert_records_match_the_term_loops(pmax: int) -> None:
    kmax = (pmax - 1) // 2
    thmkey = {s: thmkey_partial_sums(kmax, s) for s in EXPONENTS}
    comconj2 = comconj2_partial_sums(kmax)
    for p in range(5, pmax + 1):
        if not is_prime(p):
            continue
        m = (p - 1) // 2
        for s in EXPONENTS:
            assert verify_congruence_case("THMKEY", p, s).lhs == thmkey[s][m], (p, s)
        assert verify_congruence_case("COMCONJ2", p).lhs == comconj2[m], p
        lem = verify_congruence_case("LEM_THM1_B2K", p)
        assert lem.rhs == -thmkey[2][m] and lem.passed, p


def test_harmonic_weighted_records_match_the_term_loops():
    _assert_records_match_the_term_loops(199)


@pytest.mark.slow
def test_harmonic_weighted_records_match_the_term_loops_up_to_997():
    _assert_records_match_the_term_loops(997)


@pytest.mark.parametrize("s", EXPONENTS)
def test_thmkey_spec_adds_one_weighted_term_per_k(s):
    spec = thmkey_series_spec(5, s)
    prev = _x2(spec._replace(truncation=0))
    assert prev == 0
    for k in range(1, 31):
        cur = _x2(spec._replace(truncation=k))
        assert cur - prev == -central_half_ratio(k) ** (2 * s) * harmonic2(2 * k), k
        prev = cur


def test_comconj2_spec_adds_one_weighted_term_per_k():
    spec = thm3_deformed_spec(5, z=F(-1, 8))
    prev = _x2(spec._replace(truncation=0))
    assert prev == 0
    for k in range(1, 31):
        cur = _x2(spec._replace(truncation=k))
        weight = (6 * k + 1) * central_half_ratio(k) ** 3 * F(-1, 8) ** k
        assert cur - prev == -weight * (odd_harmonic2(k) - harmonic2(k) / 16), k
        prev = cur
