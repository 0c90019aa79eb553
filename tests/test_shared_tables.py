"""The per-process tables: central ratios, H2 and the eta expansion.

Each table is shared by every prime and case of a process, so a result must
not depend on the order in which the tables grew or on what earlier callers
did with the lists they were handed.
"""

import random
import sys
import threading
from fractions import Fraction as F

import pytest

from supercong import exact_core, modular_form
from supercong.exact_core import central_ratios, harmonic2_table, is_prime
from supercong.harness import run_suite, verify_congruence_case
from supercong.modular_form import (
    BudgetError,
    coefficient_at,
    eta_product_expansion,
    prime_power_coefficient,
    widest_expansion,
)

from oracles import central_half_ratio, harmonic2, odd_harmonic2

K = 1000
TABLES = (
    ("central", central_ratios, exact_core._CENTRAL_RATIOS),
    ("harmonic2", harmonic2_table, exact_core._HARMONIC2),
)
ODD_PRIMES = [p for p in range(3, 500) if is_prime(p)]


@pytest.fixture(scope="module")
def oracle():
    return {
        "central": [central_half_ratio(k) for k in range(K + 1)],
        "harmonic2": [harmonic2(k) for k in range(K + 1)],
    }


def _fresh(monkeypatch, table):
    monkeypatch.setattr(table, "_values", table._values[:1])


@pytest.mark.parametrize("name, read, table", TABLES, ids=[t[0] for t in TABLES])
def test_table_grown_large_then_small(monkeypatch, oracle, name, read, table):
    _fresh(monkeypatch, table)
    want = oracle[name]
    assert read(K) == want
    for k in (K, 999, 500, 37, 1, 0):
        assert read(k) == want[: k + 1]


@pytest.mark.parametrize("name, read, table", TABLES, ids=[t[0] for t in TABLES])
def test_table_grown_small_then_large(monkeypatch, oracle, name, read, table):
    _fresh(monkeypatch, table)
    want = oracle[name]
    for k in range(K + 1):
        got = read(k)
        assert len(got) == k + 1 and got[k] == want[k]
    assert read(K) == want


@pytest.mark.parametrize("name, read, table", TABLES, ids=[t[0] for t in TABLES])
def test_table_grown_in_shuffled_steps(monkeypatch, oracle, name, read, table):
    _fresh(monkeypatch, table)
    want = oracle[name]
    sizes = list(range(0, K + 1, 7)) + [K]
    random.Random(4).shuffle(sizes)
    for k in sizes:
        assert read(k) == want[: k + 1]


@pytest.mark.parametrize("name, read, table", TABLES, ids=[t[0] for t in TABLES])
def test_mutating_a_returned_table_changes_no_later_result(monkeypatch, oracle, name, read, table):
    _fresh(monkeypatch, table)
    want = oracle[name]
    handed_out = read(20)
    handed_out[3] = F(-7)
    handed_out.append(F(99))
    del handed_out[0]
    assert read(20) == want[:21]
    assert read(40) == want[:41]


def test_concurrent_growth_hands_every_reader_a_correct_prefix(monkeypatch, oracle):
    table = exact_core._HARMONIC2
    want = oracle["harmonic2"]
    wrong = []

    def reader(start, offset):
        start.wait()
        for k in range(offset, K + 1, 20):
            got = harmonic2_table(k)
            if len(got) != k + 1 or got[k] != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(10):
            _fresh(monkeypatch, table)
            start = threading.Barrier(4, timeout=60)
            threads = [threading.Thread(target=reader, args=(start, offset)) for offset in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert harmonic2_table(K) == want


def test_half_range_harmonic_records_match_the_direct_sums():
    for p in ODD_PRIMES[1:]:  # both cases start at p = 5
        m = (p - 1) // 2
        assert verify_congruence_case("ODDH2_HALF", p).lhs == odd_harmonic2(m)
        assert verify_congruence_case("H2_HALF", p).lhs == harmonic2(m)


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
        prime_power_coefficient(101, 2)  # beyond the default budget
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
