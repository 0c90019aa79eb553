"""The running split against the one-shot sums, in both rings.

``PrefixSums.of(spec).at(K)`` must equal ``eval_hyp_sum`` of the spec
truncated at K, and ``PrefixSums.of(spec, order).at(K)`` the coefficients of
``eval_hyp_sum_series`` (tests/test_prefix_series.py), whatever truncations
were asked before it and in whatever order; a pole must raise ``PoleError``
at the same K on both paths.  The helpers and the random specs that both
modules use are in tests/oracles.py.
"""

import random
from fractions import Fraction as F

import pytest

from supercong.harness import central_sum
from supercong.hypergeometric import HypSum, PoleError, PrefixSums, eval_hyp_sum

from oracles import assert_prefixes_match, assert_splits_only_the_new_terms, random_prefix_spec, record_roots

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
    "H2": HypSum([1, 1, 1], [2, 2], 1, truncation=0),
    "OH2": HypSum([F(1, 2), F(1, 2), 1], [F(3, 2), F(3, 2)], 1, truncation=0),
}

RANDOM_SPECS = [random_prefix_spec(random.Random(f"prefix:{i}")) for i in range(8)]


def _assert_scalar_prefixes_match(spec: HypSum, top: int) -> None:
    assert_prefixes_match(lambda: PrefixSums.of(spec), lambda K: eval_hyp_sum(spec._replace(truncation=K)), top)


@pytest.mark.parametrize("family", CENTRAL_FAMILIES, ids=str)
def test_central_family_prefixes_match_the_one_shot_sums(family):
    e, z, weight = family
    _assert_scalar_prefixes_match(central_sum(e, 0, z, weight), 300)


@pytest.mark.parametrize("name", HARMONIC_FAMILIES)
def test_harmonic_family_prefixes_match_the_one_shot_sums(name):
    _assert_scalar_prefixes_match(HARMONIC_FAMILIES[name], 300)


@pytest.mark.parametrize("index", range(len(RANDOM_SPECS)))
def test_random_spec_prefixes_match_the_one_shot_sums(index):
    _assert_scalar_prefixes_match(RANDOM_SPECS[index], 300)


def test_random_specs_reach_every_regime():
    specs = RANDOM_SPECS
    assert any(s.argument < 0 for s in specs)
    assert any(w.denominator > 1 for s in specs for w in s.weight)
    assert any(l.base.denominator == 1 and l.base <= 0 for s in specs for l in s.lower)
    assert any(u.base.denominator == 1 and u.base <= 0 for s in specs for u in s.upper)


def test_a_pole_raises_at_the_same_truncation():
    spec = HypSum([F(1, 2)], [-5], argument=-1, truncation=0)
    sums = PrefixSums.of(spec)
    assert sums.at(5) == eval_hyp_sum(spec._replace(truncation=5))
    for K in (6, 7, 40):
        with pytest.raises(PoleError):
            sums.at(K)
    # the refused truncations left the state where it was
    assert sums.at(3) == eval_hyp_sum(spec._replace(truncation=3))


@pytest.mark.parametrize("K, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)])
def test_a_truncation_is_checked_as_the_spec_checks_it(K, error):
    sums = PrefixSums.of(central_sum(3, 0, -1, (4, 1)))
    sums.at(1)  # a bool must not read the value made at K = 1
    with pytest.raises(error):
        sums.at(K)


def test_a_larger_truncation_splits_only_the_new_terms(monkeypatch):
    roots = record_roots(monkeypatch, "_split")
    assert_splits_only_the_new_terms(roots, PrefixSums.of(central_sum(4, 0, 1, (4, 1))))


@pytest.mark.slow
@pytest.mark.parametrize("family", CENTRAL_FAMILIES, ids=str)
def test_central_family_prefixes_match_the_one_shot_sums_to_999(family):
    e, z, weight = family
    _assert_scalar_prefixes_match(central_sum(e, 0, z, weight), 999)


@pytest.mark.slow
@pytest.mark.parametrize("name", HARMONIC_FAMILIES)
def test_harmonic_family_prefixes_match_the_one_shot_sums_to_999(name):
    _assert_scalar_prefixes_match(HARMONIC_FAMILIES[name], 999)
