"""The running split against the one-shot sum.

``PrefixSums(spec).at(K)`` must equal ``eval_hyp_sum`` of the spec truncated
at K, whatever truncations were asked before it and in whatever order, and a
pole must raise ``PoleError`` at the same K on both paths.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from supercong.harness import central_sum
from supercong.hypergeometric import HypSum, PoleError, PrefixSums, eval_hyp_sum, hyp_sum

#: (e, z, weight) of every central family the harness reads.
CENTRAL_FAMILIES = [
    (3, -1, (4, 1)),  # EQ0
    (4, 1, (4, 1)),  # THM1
    (6, 1, (4, 1)),  # THM2, CONJ1
    (4, 1, (0, 1)),  # KILBOURN
    (3, F(1, 4), (6, 1)),  # THM3
    (3, F(-1, 8), (6, 1)),  # THM4, THM4_STRONG
]

#: The harmonic families: term k is 1/(k+1)^2 (H2) and 1/(2k+1)^2 (OH2).
HARMONIC_FAMILIES = {
    "H2": hyp_sum([1, 1, 1], [2, 2], 1, K=0),
    "OH2": hyp_sum([F(1, 2), F(1, 2), 1], [F(3, 2), F(3, 2)], 1, K=0),
}

ORDERS = ("ascending", "descending", "shuffled")


def _random_spec(rng: random.Random) -> HypSum:
    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 7))

    upper = [rational() for _ in range(rng.randint(1, 3))]
    lower = [rational() for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        lower.append(F(-rng.randint(0, 250)))  # a pole within K <= 300
    if rng.random() < 0.3:
        upper.append(F(-rng.randint(0, 250)))  # the terms stop mid-range
    z = -abs(rational()) if rng.random() < 0.5 else rational()
    weight = (rational(), rational())
    return hyp_sum(upper, lower, z=z, K=0, weight=weight)


RANDOM_SPECS = [_random_spec(random.Random(f"prefix:{i}")) for i in range(8)]


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


def _assert_prefixes_match_the_one_shot_sums(spec: HypSum, top: int, orders=ORDERS) -> None:
    want = [_outcome(eval_hyp_sum, replace(spec, truncation=K)) for K in range(top + 1)]
    for order in orders:
        sums = PrefixSums(spec)
        got = {K: _outcome(sums.at, K) for K in _truncations(order, top)}
        assert [got[K] for K in range(top + 1)] == want, order
        # asked again, every value is read from what the first pass made
        assert [_outcome(sums.at, K) for K in range(top + 1)] == want, order


@pytest.mark.parametrize("family", CENTRAL_FAMILIES, ids=str)
def test_central_family_prefixes_match_the_one_shot_sums(family):
    e, z, weight = family
    _assert_prefixes_match_the_one_shot_sums(central_sum(e, 0, z, weight), 300)


@pytest.mark.parametrize("name", HARMONIC_FAMILIES)
def test_harmonic_family_prefixes_match_the_one_shot_sums(name):
    _assert_prefixes_match_the_one_shot_sums(HARMONIC_FAMILIES[name], 300)


@pytest.mark.parametrize("index", range(len(RANDOM_SPECS)))
def test_random_spec_prefixes_match_the_one_shot_sums(index):
    _assert_prefixes_match_the_one_shot_sums(RANDOM_SPECS[index], 300)


def test_random_specs_reach_every_regime():
    specs = RANDOM_SPECS
    assert any(s.argument < 0 for s in specs)
    assert any(w.denominator > 1 for s in specs for w in s.weight)
    assert any(l.base.denominator == 1 and l.base <= 0 for s in specs for l in s.lower)
    assert any(u.base.denominator == 1 and u.base <= 0 for s in specs for u in s.upper)


def test_a_pole_raises_at_the_same_truncation():
    spec = hyp_sum([F(1, 2)], [-5], z=-1, K=0)
    sums = PrefixSums(spec)
    assert sums.at(5) == eval_hyp_sum(replace(spec, truncation=5))
    for K in (6, 7, 40):
        with pytest.raises(PoleError):
            sums.at(K)
    # the refused truncations left the state where it was
    assert sums.at(3) == eval_hyp_sum(replace(spec, truncation=3))


@pytest.mark.parametrize("K, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)])
def test_a_truncation_is_checked_as_the_spec_checks_it(K, error):
    sums = PrefixSums(central_sum(3, 0, -1, (4, 1)))
    sums.at(1)  # a bool must not read the value made at K = 1
    with pytest.raises(error):
        sums.at(K)


@pytest.mark.slow
@pytest.mark.parametrize("family", CENTRAL_FAMILIES, ids=str)
def test_central_family_prefixes_match_the_one_shot_sums_to_999(family):
    e, z, weight = family
    _assert_prefixes_match_the_one_shot_sums(central_sum(e, 0, z, weight), 999)


@pytest.mark.slow
@pytest.mark.parametrize("name", HARMONIC_FAMILIES)
def test_harmonic_family_prefixes_match_the_one_shot_sums_to_999(name):
    _assert_prefixes_match_the_one_shot_sums(HARMONIC_FAMILIES[name], 999)
