"""The per-process eta expansion, and the harmonic cases that once shared a table.

The eta expansion is shared by every prime and case of a process, so a result
must not depend on the order in which it grew or on what earlier callers did.
The half-range harmonic cases are checked against the direct sums.
"""

import random

import pytest

from supercong import modular_form
from supercong.exact_core import is_prime, padic_valuation
from supercong.harness import run_suite, verify_congruence_case
from supercong.modular_form import (
    BudgetError,
    coefficient_at,
    eta_product_expansion,
    prime_power_coefficient,
    widest_expansion,
)

from oracles import harmonic2, odd_harmonic2

ODD_PRIMES = [p for p in range(3, 500) if is_prime(p)]


def test_half_range_harmonic_records_match_the_direct_sums():
    h2 = [harmonic2(k) for k in range(ODD_PRIMES[-1] - 1)]
    for p in ODD_PRIMES[1:]:  # the cases start at p = 5
        m = (p - 1) // 2
        assert verify_congruence_case("ODDH2_HALF", p).lhs == odd_harmonic2(m)
        assert verify_congruence_case("H2_HALF", p).lhs == h2[m]
        # H2_REFLECT keeps the first k of least valuation of H2(k) + H2(p-1-k)
        sums = [h2[k] + h2[p - 1 - k] for k in range(1, p - 1)]
        weakest = min(sums, key=lambda x: padic_valuation(x, p))
        rec = verify_congruence_case("H2_REFLECT", p)
        assert (rec.lhs, rec.achieved) == (weakest, padic_valuation(weakest, p)), p


@pytest.fixture(scope="module")
def eta_oracle():
    pairs = [(p, 1) for p in ODD_PRIMES] + [(p, 2) for p in ODD_PRIMES if p <= 31]
    return {(p, r): coefficient_at(eta_product_expansion(p**r), p**r) for p, r in pairs}


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
    assert modular_form._widest.bound == 31**2


def test_budget_is_checked_against_the_index_not_the_widest_expansion(monkeypatch, eta_oracle):
    monkeypatch.setattr(modular_form, "_widest", None)
    assert widest_expansion(2000).bound == 2000
    with pytest.raises(BudgetError):
        prime_power_coefficient(37, 2, budget=1000)  # 1369 lies inside the expansion
    with pytest.raises(BudgetError):
        prime_power_coefficient(499, 1, budget=498)
    with pytest.raises(BudgetError):
        prime_power_coefficient(317, 2)  # 100489, beyond the default budget
    assert prime_power_coefficient(31, 2, budget=961) == eta_oracle[31, 2]
    assert modular_form._widest.bound == 2000


def _fresh_eta(monkeypatch):
    monkeypatch.setattr(modular_form, "_widest", None)
    eta_product_expansion.cache_clear()


def test_run_suite_expands_the_eta_product_once(monkeypatch):
    _fresh_eta(monkeypatch)
    records = run_suite(range(5, 500), cases=["THM2", "KILBOURN", "CONJ1"])
    assert eta_product_expansion.cache_info().misses == 1
    assert modular_form._widest.bound == 499
    assert len(records) == 3 * len(ODD_PRIMES[1:])
    assert all(r.passed or r.conjectural for r in records)


def test_run_suite_expands_to_the_largest_prime_power_its_caps_allow(monkeypatch):
    _fresh_eta(monkeypatch)
    run_suite(range(5, 98), rs=(1, 2), cases=["CONJ1"])
    assert eta_product_expansion.cache_info().misses == 1
    assert modular_form._widest.bound == 19**2  # R_CAPS["CONJ1"][2] == 19


def test_run_suite_expansion_stays_within_the_budget(monkeypatch):
    _fresh_eta(monkeypatch)
    records = run_suite(range(5, 500), budget=100, cases=["THM2"])
    assert eta_product_expansion.cache_info().misses == 1
    assert modular_form._widest.bound == 97
    errors = [r for r in records if r.achieved == "error:BudgetError"]
    assert [r.p for r in errors] == [p for p in ODD_PRIMES if p > 100]
    assert all(r.passed for r in records if r.p < 100)
