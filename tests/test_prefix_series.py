"""The running series split against the one-shot series sums.

``PrefixSeries.of(spec, order).at(K)`` must equal the coefficients of
``eval_hyp_sum_series`` of the spec truncated at K, and ``PrefixSeries(ratio,
order, weight).at(K)`` those of ``_split_series(ratio, K, order, weight)``,
whatever truncations were asked before and in whatever order; a pole must
raise ``PoleError`` at the same K on both paths.  The harness reads
EQ10_A2, THM3_QUOTIENT_X2 and LEM_THM1_B2K off such running splits, shared
by every prime of a process, so their records must not show how far an
earlier run pushed them.
"""

import random
from dataclasses import replace
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
from supercong.hypergeometric import HypSum, PoleError, PrefixSeries, _split_series, eval_hyp_sum_series, hyp_sum

ORDERS = ("ascending", "descending", "shuffled")

#: The series families the harness reads through running splits.
SPEC_FAMILIES = {
    "EQ10_A2": eq10_series_spec(5),
    "THM3_QUOTIENT_X2": thm3_deformed_spec(5, QUARTER),
}
LEM_WEIGHT = (F(0), F(1))


def _random_spec(rng: random.Random) -> tuple[HypSum, int]:
    """A deformed spec and a series order; half of them meet a lower pole within K <= 300."""

    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 6))

    def slope():
        return rational() if rng.random() < 0.6 else F(0)

    upper = [(rational(), slope()) for _ in range(rng.randint(1, 2))]
    lower = [(rational(), slope()) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        lower.append((F(-rng.randint(0, 250)), slope()))  # a pole from K = n + 1, or at every K
    if rng.random() < 0.3:
        upper.append(F(-rng.randint(0, 250)))  # the terms stop mid-range
    z = rational()
    weight = (rational(), rational())
    return hyp_sum(upper, lower, z=z, K=0, weight=weight), rng.randint(1, SERIES_ORDER)


RANDOM_SPECS = [_random_spec(random.Random(f"prefix-series:{i}")) for i in range(6)]


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except PoleError:
        return PoleError


def _truncations(order: str, top: int) -> list[int]:
    ks = list(range(top + 1))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        random.Random(top).shuffle(ks)
    return ks


def _assert_prefixes_match(make, one_shot, top: int) -> None:
    want = [_outcome(one_shot, K) for K in range(top + 1)]
    for order in ORDERS:
        sums = make()
        got = {K: _outcome(sums.at, K) for K in _truncations(order, top)}
        assert [got[K] for K in range(top + 1)] == want, order
        # asked again, every value is read from what the first pass made
        assert [_outcome(sums.at, K) for K in range(top + 1)] == want, order


def _assert_spec_prefixes_match(spec: HypSum, order: int, top: int) -> None:
    _assert_prefixes_match(
        lambda: PrefixSeries.of(spec, order),
        lambda K: eval_hyp_sum_series(replace(spec, truncation=K), order).coeffs,
        top,
    )


def _assert_lem_prefixes_match(top: int) -> None:
    _assert_prefixes_match(
        lambda: PrefixSeries(_lem_thm1_ratio, SERIES_ORDER, LEM_WEIGHT),
        lambda K: _split_series(_lem_thm1_ratio, K, SERIES_ORDER, LEM_WEIGHT),
        top,
    )


@pytest.mark.parametrize("tag", SPEC_FAMILIES)
def test_spec_family_prefixes_match_the_one_shot_series(tag):
    _assert_spec_prefixes_match(SPEC_FAMILIES[tag], SERIES_ORDER, 300)


def test_lem_thm1_family_prefixes_match_the_one_shot_split():
    _assert_lem_prefixes_match(300)


@pytest.mark.parametrize("index", range(len(RANDOM_SPECS)))
def test_random_spec_prefixes_match_the_one_shot_series(index):
    _assert_spec_prefixes_match(*RANDOM_SPECS[index], 300)


def test_random_specs_reach_every_regime():
    specs = [spec for spec, _order in RANDOM_SPECS]
    assert any(l.base.denominator == 1 and 0 < -l.base < 300 for s in specs for l in s.lower)  # a pole mid-range
    assert any(l.slope for s in specs for l in s.lower)
    assert any(u.base.denominator == 1 and u.base <= 0 for s in specs for u in s.upper)
    assert any(w.denominator > 1 for s in specs for w in s.weight)


def test_a_pole_raises_at_the_same_truncation():
    spec = hyp_sum([F(1, 2), (F(1, 2), F(1, 3))], [(-5, 0), (1, F(1, 4))], z=-1, K=0)
    sums = PrefixSeries.of(spec, 3)
    assert sums.at(5) == eval_hyp_sum_series(replace(spec, truncation=5), 3).coeffs
    for K in (6, 7, 40):
        with pytest.raises(PoleError):
            sums.at(K)
    # the refused truncations left the state where it was
    assert sums.at(3) == eval_hyp_sum_series(replace(spec, truncation=3), 3).coeffs
    # a deformed lower parameter with zero base is refused from its first factor on
    zero_base = hyp_sum([1], [(0, 1)], z=1, K=0)
    sums = PrefixSeries.of(zero_base, 2)
    assert sums.at(0) == eval_hyp_sum_series(zero_base, 2).coeffs
    with pytest.raises(PoleError, match="zero base"):
        sums.at(1)


@pytest.mark.parametrize("K, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)])
def test_a_truncation_is_checked_as_the_spec_checks_it(K, error):
    sums = PrefixSeries.of(SPEC_FAMILIES["EQ10_A2"], SERIES_ORDER)
    sums.at(1)  # a bool must not read the value made at K = 1
    with pytest.raises(error):
        sums.at(K)


def test_a_larger_truncation_splits_only_the_new_terms(monkeypatch):
    real, depth, roots = hypergeometric._split_series_range, [0], []

    def counting(terms, a, b, need_p):
        if not depth[0]:
            roots.append((a, b, need_p))
        depth[0] += 1
        try:
            return real(terms, a, b, need_p)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hypergeometric, "_split_series_range", counting)
    sums = PrefixSeries(_lem_thm1_ratio, SERIES_ORDER, LEM_WEIGHT)
    for K in (10, 20, 15, 20, 10, 15):
        sums.at(K)
    # 10 and 20 extend the state; 15 lies below the frontier and is summed once, from k = 0
    assert roots == [(0, 11, True), (11, 21, True), (0, 16, False)]


#: The series cases that read a running split per family.
FAMILY_TAGS = ["EQ10_A2", "LEM_THM1_B2K", "THM3_QUOTIENT_X2"]


def _clear_series_families():
    harness._series_family.cache_clear()
    harness._lem_thm1_family.cache_clear()


class _OneShot:
    """A stand-in family that sums every truncation from k = 0, as a per-prime evaluation does."""

    def __init__(self, at):
        self.at = at


def test_series_family_records_do_not_depend_on_history(monkeypatch):
    primes = range(5, 200)
    _clear_series_families()
    fresh = run_suite(primes, cases=FAMILY_TAGS)
    assert harness._series_family.cache_info().currsize == 2  # EQ10 and THM3 at z = 1/4
    assert harness._lem_thm1_family.cache_info().currsize == 1
    run_suite(range(5, 500), cases=FAMILY_TAGS)
    pushed = run_suite(primes, cases=FAMILY_TAGS)
    _clear_series_families()
    per_prime = [rec for p in reversed(primes) for rec in run_suite([p], cases=FAMILY_TAGS)]
    descending = sorted(per_prime, key=lambda rec: (CASE_ORDER.index(rec.case), rec.p))
    # the one-shot series of each prime's spec, and every step checked again per prime, are the oracle
    monkeypatch.setattr(
        harness,
        "_series_family",
        lambda spec_of, *args: _OneShot(
            lambda K: eval_hyp_sum_series(spec_of(2 * K + 1, *args), SERIES_ORDER).coeffs
        ),
    )
    monkeypatch.setattr(
        harness,
        "_lem_thm1_family",
        lambda ratio: (_OneShot(lambda K: _split_series(ratio, K, SERIES_ORDER, LEM_WEIGHT)), [True]),
    )
    one_shot = run_suite(primes, cases=FAMILY_TAGS)
    assert len(fresh) == 3 * len([p for p in primes if harness.is_prime(p)])
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
    # SIX_F_FIVE_COEFFS's parameters move with p; THMKEY and COMCONJ2 keep
    # their one-shot sums (one per prime, memoized for THMKEY)
    harness._thmkey_x2.cache_clear()
    specs = []

    def counting(spec, order):
        specs.append(spec)
        return eval_hyp_sum_series(spec, order)

    monkeypatch.setattr(harness, "eval_hyp_sum_series", counting)
    primes = [5, 7, 11, 13]
    run_suite(primes, cases=["COMCONJ2", "THMKEY", "SIX_F_FIVE_COEFFS", *FAMILY_TAGS])
    assert len(specs) == 5 * len(primes)  # COMCONJ2, THMKEY(1..3) and SIX_F_FIVE_COEFFS at each p


@pytest.mark.slow
@pytest.mark.parametrize("tag", SPEC_FAMILIES)
def test_spec_family_prefixes_match_the_one_shot_series_to_999(tag):
    _assert_spec_prefixes_match(SPEC_FAMILIES[tag], SERIES_ORDER, 999)


@pytest.mark.slow
def test_lem_thm1_family_prefixes_match_the_one_shot_split_to_999():
    _assert_lem_prefixes_match(999)
