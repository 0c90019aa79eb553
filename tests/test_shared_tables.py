"""The per-process eta expansion, and the harmonic cases that once shared a table.

The eta expansion is shared by every prime and case of a process, so a result
must not depend on the order in which it grew or on what earlier callers did.
The half-range harmonic cases are checked against the direct sums, and
H2_REFLECT against the exact loop over every pair.
"""

import random

import pytest

from supercong import modular_form
from supercong.exact_core import is_prime
from supercong.harness import run_suite, verify_congruence_case
from supercong.modular_form import (
    EXPANSION_CEILING,
    BudgetError,
    eta_product_expansion,
    prime_power_coefficient,
    widest_expansion,
)

from oracles import harmonic2, odd_harmonic2, weakest_h2_reflect_pair

ODD_PRIMES = [p for p in range(3, 500) if is_prime(p)]


def test_half_range_harmonic_records_match_the_direct_sums():
    h2 = [harmonic2(k) for k in range((ODD_PRIMES[-1] - 1) // 2 + 1)]
    for p in ODD_PRIMES[1:]:  # the cases start at p = 5
        m = (p - 1) // 2
        assert verify_congruence_case("ODDH2_HALF", p).lhs == odd_harmonic2(m)
        assert verify_congruence_case("H2_HALF", p).lhs == h2[m]


def _assert_h2_reflect_matches_the_exact_loop(primes):
    for p in primes:
        rec = verify_congruence_case("H2_REFLECT", p)
        assert (rec.lhs, rec.rhs, rec.achieved) == weakest_h2_reflect_pair(p), p


def test_h2_reflect_records_match_the_exact_loop():
    _assert_h2_reflect_matches_the_exact_loop(ODD_PRIMES[1:])


@pytest.mark.slow
def test_h2_reflect_records_match_the_exact_loop_up_to_997():
    _assert_h2_reflect_matches_the_exact_loop([p for p in range(503, 998) if is_prime(p)])


@pytest.fixture(scope="module")
def eta_oracle():
    pairs = [(p, 1) for p in ODD_PRIMES] + [(p, 2) for p in ODD_PRIMES if p <= 31]
    return {(p, r): eta_product_expansion(p**r)[p**r - 1] for p, r in pairs}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_prime_power_coefficient_in_any_order(monkeypatch, eta_oracle, order):
    monkeypatch.setattr(modular_form, "_widest", None)
    pairs = sorted(eta_oracle, key=lambda pair: pair[0] ** pair[1])
    if order == "descending":
        pairs.reverse()
    elif order == "shuffled":
        random.Random(9).shuffle(pairs)
    for p, r in pairs:
        assert prime_power_coefficient(p, r) == eta_oracle[p, r], (p, r)
    assert len(modular_form._widest) == 31**2


def test_budget_is_checked_against_the_index_not_the_widest_expansion(monkeypatch):
    # a stand-in expansion wider than the ceiling, all zeros but a_{31^2},
    # stays untouched: an index above the ceiling fails, one below is read off it
    bound = EXPANSION_CEILING + 1000
    coeffs = [0] * bound
    coeffs[31**2 - 1] = -31**3  # a_{31^2} = a_31^2 - 31^3 with a_31 read as 0
    wide = tuple(coeffs)
    monkeypatch.setattr(modular_form, "_widest", wide)
    with pytest.raises(BudgetError, match=f"p\\^r = 100489 exceeds the expansion ceiling {EXPANSION_CEILING}"):
        prime_power_coefficient(317, 2)  # 100489 lies inside the stand-in
    with pytest.raises(BudgetError):
        prime_power_coefficient(100003, 1)
    assert prime_power_coefficient(99991, 1) == 0
    assert prime_power_coefficient(31, 2) == -31**3
    assert modular_form._widest is wide


def _fresh_eta(monkeypatch):
    monkeypatch.setattr(modular_form, "_widest", None)
    eta_product_expansion.cache_clear()


def test_run_suite_expands_the_eta_product_once(monkeypatch):
    _fresh_eta(monkeypatch)
    records = run_suite(range(5, 500), cases=["THM2", "KILBOURN", "CONJ1"])
    assert eta_product_expansion.cache_info().misses == 1
    assert len(modular_form._widest) == 499
    assert len(records) == 3 * len(ODD_PRIMES[1:])
    assert all(r.passed or r.conjectural for r in records)


def test_run_suite_expands_to_the_largest_prime_power_its_caps_allow(monkeypatch):
    _fresh_eta(monkeypatch)
    run_suite(range(5, 98), rs=(1, 2), cases=["CONJ1"])
    assert eta_product_expansion.cache_info().misses == 1
    assert len(modular_form._widest) == 19**2  # R_CAPS["CONJ1"][2] == 19


def test_run_suite_expansion_stays_within_the_budget(monkeypatch):
    # p = 100003 lies past the ceiling: the run widens only to 97
    _fresh_eta(monkeypatch)
    records = run_suite([5, 97, 100003], cases=["THM2"])
    assert eta_product_expansion.cache_info().misses == 1
    assert len(modular_form._widest) == 97
    assert [(r.p, r.achieved == "error:BudgetError") for r in records] == [(5, False), (97, False), (100003, True)]
    assert records[0].passed and records[1].passed
