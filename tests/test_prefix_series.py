"""The running split in its series form against the one-shot series sums.

``PrefixSums.of(spec, order).at(K)`` must equal the coefficients of
``eval_hyp_sum_series`` of the spec truncated at K, and
``PrefixSums.of_ratio(ratio, order, weight).at(K)`` the root split of the
same ratio at K, whatever truncations were asked before and in whatever
order; a pole must raise ``PoleError`` at the same K on both paths, and the
constant coefficient must be the scalar form's value.  The harness reads
COMCONJ2, EQ10_A2, THM3_QUOTIENT_X2 and LEM_THM1_B2K off such running splits, shared
by every prime of a process, so their records must not show how far an
earlier run pushed them.  The helpers are in tests/oracles.py.
"""

import random
from fractions import Fraction as F

import pytest

from supercong import harness, hypergeometric
from supercong.harness import (
    CASE_ORDER,
    QUARTER,
    SERIES_ORDER,
    _lem_thm1_ratio,
    eq10_series_spec,
    run_suite,
    thm3_deformed_spec,
)
from supercong.hypergeometric import HypSum, PoleError, PrefixSums, eval_hyp_sum_series

from oracles import (
    TRUNCATION_ORDERS,
    assert_prefixes_match,
    assert_splits_only_the_new_terms,
    outcome,
    random_prefix_spec,
    record_roots,
    truncations,
)

#: The series families the harness reads through running splits, with their orders.
SPEC_FAMILIES = {
    "COMCONJ2": (thm3_deformed_spec(5, F(-1, 8)), 2),
    "EQ10_A2": (eq10_series_spec(5), SERIES_ORDER),
    "THM3_QUOTIENT_X2": (thm3_deformed_spec(5, QUARTER), SERIES_ORDER),
}
LEM_WEIGHT = (F(0), F(1))


def _random_spec(rng: random.Random) -> tuple[HypSum, int]:
    """A deformed spec and a series order."""
    return random_prefix_spec(rng, deformed=True), rng.randint(1, SERIES_ORDER)


RANDOM_SPECS = [_random_spec(random.Random(f"prefix-series:{i}")) for i in range(6)]


def _lem_sums() -> PrefixSums:
    return PrefixSums.of_ratio(_lem_thm1_ratio, SERIES_ORDER, LEM_WEIGHT)


def _assert_spec_prefixes_match(spec: HypSum, order: int, top: int) -> None:
    assert_prefixes_match(
        lambda: PrefixSums.of(spec, order),
        lambda K: eval_hyp_sum_series(spec._replace(truncation=K), order).coeffs,
        top,
    )


def _assert_lem_prefixes_match(top: int) -> None:
    assert_prefixes_match(_lem_sums, lambda K: _lem_sums().root(K), top)


@pytest.mark.parametrize("tag", SPEC_FAMILIES)
def test_spec_family_prefixes_match_the_one_shot_series(tag):
    _assert_spec_prefixes_match(*SPEC_FAMILIES[tag], 300)


def test_lem_thm1_family_prefixes_match_the_one_shot_split():
    _assert_lem_prefixes_match(300)


@pytest.mark.parametrize("index", range(len(RANDOM_SPECS)))
def test_random_spec_prefixes_match_the_one_shot_series(index):
    _assert_spec_prefixes_match(*RANDOM_SPECS[index], 300)


@pytest.mark.parametrize("index", range(len(RANDOM_SPECS)))
def test_random_spec_constant_terms_match_the_scalar_sums(index):
    # the series form at x = 0 is the scalar form, pole for pole
    spec, order = RANDOM_SPECS[index]
    for trunc_order in TRUNCATION_ORDERS:
        scalar, series = PrefixSums.of(spec), PrefixSums.of(spec, order)
        for K in truncations(trunc_order, 300):
            coeffs = outcome(series.at, K)
            assert outcome(scalar.at, K) == (coeffs if coeffs is PoleError else coeffs[0]), (trunc_order, K)


def test_random_specs_reach_every_regime():
    specs = [spec for spec, _order in RANDOM_SPECS]
    assert any(l.base.denominator == 1 and 0 < -l.base < 300 for s in specs for l in s.lower)  # a pole mid-range
    assert any(l.slope for s in specs for l in s.lower)
    assert any(u.base.denominator == 1 and u.base <= 0 for s in specs for u in s.upper)
    assert any(w.denominator > 1 for s in specs for w in s.weight)


def test_a_pole_raises_at_the_same_truncation():
    spec = HypSum([F(1, 2), (F(1, 2), F(1, 3))], [(-5, 0), (1, F(1, 4))], argument=-1, truncation=0)
    sums = PrefixSums.of(spec, 3)
    assert sums.at(5) == eval_hyp_sum_series(spec._replace(truncation=5), 3).coeffs
    for K in (6, 7, 40):
        with pytest.raises(PoleError):
            sums.at(K)
    # the refused truncations left the state where it was
    assert sums.at(3) == eval_hyp_sum_series(spec._replace(truncation=3), 3).coeffs
    # a deformed lower parameter with zero base is refused from its first factor on
    zero_base = HypSum([1], [(0, 1)], argument=1, truncation=0)
    sums = PrefixSums.of(zero_base, 2)
    assert sums.at(0) == eval_hyp_sum_series(zero_base, 2).coeffs
    with pytest.raises(PoleError, match="zero base"):
        sums.at(1)


@pytest.mark.parametrize("K, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)])
def test_a_truncation_is_checked_as_the_spec_checks_it(K, error):
    sums = PrefixSums.of(*SPEC_FAMILIES["EQ10_A2"])
    sums.at(1)  # a bool must not read the value made at K = 1
    with pytest.raises(error):
        sums.at(K)


_ORDER_ENTRY_POINTS = {
    "eval_hyp_sum_series": lambda order: eval_hyp_sum_series(eq10_series_spec(5), order),
    "PrefixSums.of": lambda order: PrefixSums.of(eq10_series_spec(5), order),
    "PrefixSums.of_ratio": lambda order: PrefixSums.of_ratio(_lem_thm1_ratio, order, LEM_WEIGHT),
}


@pytest.mark.parametrize("entry", _ORDER_ENTRY_POINTS)
@pytest.mark.parametrize(
    "order, error", [(-1, ValueError), (-2, ValueError), (True, TypeError), (1.0, TypeError), ("1", TypeError)]
)
def test_a_series_order_is_checked_before_the_term_ratio_is_built(monkeypatch, entry, order, error):
    # order -1 and -2 once summed as order 0, and True as order 1
    def no_ratio(*_args):
        raise AssertionError("the term ratio was built before the order was checked")

    monkeypatch.setattr(hypergeometric, "_series_ratio", no_ratio)
    with pytest.raises(error, match="series order"):
        _ORDER_ENTRY_POINTS[entry](order)


def test_a_larger_truncation_splits_only_the_new_terms(monkeypatch):
    roots = record_roots(monkeypatch, "_split_series_range")
    assert_splits_only_the_new_terms(roots, _lem_sums())


#: The cases that read a running series split per family.
FAMILY_TAGS = ["COMCONJ2", "EQ10_A2", "LEM_THM1_B2K", "THM3_QUOTIENT_X2"]


def _clear_series_families():
    harness._family.cache_clear()
    harness._lem_thm1_family.cache_clear()


class _OneShot:
    """A stand-in family that sums every truncation from k = 0, as a per-prime evaluation does."""

    def __init__(self, at):
        self.at = at


def test_series_family_records_do_not_depend_on_history(monkeypatch):
    primes = range(5, 200)
    _clear_series_families()
    fresh = run_suite(primes, cases=FAMILY_TAGS)
    assert harness._family.cache_info().currsize == 3  # THM3's deformation at z = -1/8 and 1/4, and EQ10
    assert harness._lem_thm1_family.cache_info().currsize == 1
    run_suite(range(5, 500), cases=FAMILY_TAGS)
    pushed = run_suite(primes, cases=FAMILY_TAGS)
    _clear_series_families()
    per_prime = [rec for p in reversed(primes) for rec in run_suite([p], cases=FAMILY_TAGS)]
    descending = sorted(per_prime, key=lambda rec: (CASE_ORDER.index(rec.case), rec.p))
    # the one-shot series of each prime's spec, and every step checked again per prime, are the oracle
    monkeypatch.setattr(
        harness,
        "_family",
        lambda build, _p, *args, order: _OneShot(
            lambda K: eval_hyp_sum_series(build(2 * K + 1, *args), order).coeffs
        ),
    )
    monkeypatch.setattr(
        harness,
        "_lem_thm1_family",
        lambda ratio: (
            _OneShot(lambda K: PrefixSums.of_ratio(ratio, SERIES_ORDER, LEM_WEIGHT).root(K)),
            [True],
        ),
    )
    one_shot = run_suite(primes, cases=FAMILY_TAGS)
    assert len(fresh) == 4 * len([p for p in primes if harness.is_prime(p)])
    assert all(rec.passed for rec in fresh)
    assert fresh == pushed == descending == one_shot


def test_lem_thm1_checks_each_step_once_per_family(monkeypatch):
    checked = []
    real = harness._lem_thm1_step_exact

    def counting(k):
        checked.append(k)
        return real(k)

    monkeypatch.setattr(harness, "_lem_thm1_step_exact", counting)
    _clear_series_families()
    assert all(rec.passed for rec in run_suite(range(5, 98), cases=["LEM_THM1_B2K"]))
    assert checked == list(range(1, 49))
    run_suite(range(5, 98), cases=["LEM_THM1_B2K"])
    assert checked == list(range(1, 49))


def test_lem_thm1_reads_the_step_checks_of_its_own_prime(monkeypatch):
    # a ratio wrong only at k = 20 fails the primes that reach it, whichever prime ran first
    ratio = harness._lem_thm1_ratio

    def perturbed(k):
        num, den = ratio(k)
        if k == 20:
            num[2] += 1
        return num, den

    monkeypatch.setattr(harness, "_lem_thm1_ratio", perturbed)
    late = run_suite([47], cases=["LEM_THM1_B2K"])
    early = run_suite([11], cases=["LEM_THM1_B2K"])
    assert [rec.passed for rec in late + early] == [False, True]


def test_the_other_series_sums_are_still_evaluated_per_prime(monkeypatch):
    # SIX_F_FIVE_COEFFS's parameters move with p; THMKEY keeps its one-shot
    # sums (one per prime and s, memoized)
    harness._thmkey_x2.cache_clear()
    specs = []

    def counting(spec, order):
        specs.append(spec)
        return eval_hyp_sum_series(spec, order)

    monkeypatch.setattr(harness, "eval_hyp_sum_series", counting)
    primes = [5, 7, 11, 13]
    run_suite(primes, cases=["THMKEY", "SIX_F_FIVE_COEFFS", *FAMILY_TAGS])
    assert len(specs) == 4 * len(primes)  # THMKEY(1..3) and SIX_F_FIVE_COEFFS at each p


@pytest.mark.slow
@pytest.mark.parametrize("tag", SPEC_FAMILIES)
def test_spec_family_prefixes_match_the_one_shot_series_to_999(tag):
    _assert_spec_prefixes_match(*SPEC_FAMILIES[tag], 999)


@pytest.mark.slow
def test_lem_thm1_family_prefixes_match_the_one_shot_split_to_999():
    _assert_lem_prefixes_match(999)
