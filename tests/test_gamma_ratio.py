"""Gamma ratios on integers against the ``Fraction`` reduction they replaced.

``gamma_ratio_value`` must give the value of ``oracles.fraction_gamma_ratio_value``
on every argument list, and where that raises, the same error with the same
message: a pole, or an unpairable group named by its fractional part.
"""

import random
from fractions import Fraction as F

from supercong import hypergeometric
from supercong.hypergeometric import IDENTITIES, PoleError, UnpairableError, gamma_ratio_value, sample_identity_params

from oracles import fraction_gamma_ratio_value


def _outcome(evaluate, nums, dens):
    try:
        return evaluate(nums, dens)
    except (PoleError, UnpairableError) as exc:
        return type(exc), str(exc)


def _agree(nums, dens):
    got = _outcome(gamma_ratio_value, nums, dens)
    assert got == _outcome(fraction_gamma_ratio_value, nums, dens), (nums, dens)
    return got


def test_every_gamma_ratio_of_the_identity_suite_matches_the_fraction_reduction(monkeypatch):
    # the suite's draws, the rejected ones included, drawn again uncached
    outcomes = []

    def compared(nums, dens):
        got = _agree(list(nums), list(dens))
        outcomes.append(got)
        if isinstance(got, tuple):
            raise got[0](got[1])
        return got

    monkeypatch.setattr(hypergeometric, "gamma_ratio_value", compared)
    for tag in IDENTITIES:
        assert sample_identity_params.__wrapped__(tag) == sample_identity_params(tag), tag
    assert len(outcomes) >= 300
    assert any(isinstance(got, tuple) for got in outcomes)  # a rejected draw


def _random_arguments(rng: random.Random) -> tuple[list, list]:
    nums, dens = [], []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 6)
        base = F(rng.randint(-30, 30), d)
        for _ in range(rng.randint(1, 3)):
            # a pair whose shift may be negative, zero or positive
            nums.append(base + rng.randint(-6, 6))
            dens.append(base + rng.randint(-6, 6))
    roll = rng.random()
    if roll < 0.15:
        (nums if rng.random() < 0.5 else dens).append(F(rng.randint(-30, 30), rng.randint(1, 6)))
    elif roll < 0.3:
        (nums if rng.random() < 0.5 else dens).append(F(-rng.randint(0, 5)))
    rng.shuffle(nums)
    rng.shuffle(dens)
    # ints as well as Fractions
    return [int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in nums], dens


def _shifts(nums, dens) -> list[F]:
    """nx - dx of every pair the reduction makes, pairing sorted arguments by fractional part."""
    groups = {}
    for side, args in enumerate((nums, dens)):
        for x in map(F, args):
            groups.setdefault(x - x.numerator // x.denominator, ([], []))[side].append(x)
    return [nx - dx for ns, ds in groups.values() for nx, dx in zip(sorted(ns), sorted(ds))]


def test_random_gamma_ratios_match_the_fraction_reduction():
    rng = random.Random(20091202)
    kinds = {"value": 0, PoleError: 0, UnpairableError: 0, "negative shift": 0}
    for _ in range(2000):
        nums, dens = _random_arguments(rng)
        got = _agree(nums, dens)
        if isinstance(got, tuple):
            kinds[got[0]] += 1
            continue
        kinds["value"] += 1
        kinds["negative shift"] += min(_shifts(nums, dens)) < 0
    assert min(kinds.values()) >= 50, kinds


def test_an_unpairable_group_is_named_by_its_fractional_part():
    message = "fractional part 1/3: 2 numerator vs 1 denominator arguments"
    assert _agree([F(7, 3), F(1, 3)], [F(4, 3)]) == (UnpairableError, message)
    assert _agree([3], [F(1, 2)])[1] == "fractional part 0: 1 numerator vs 0 denominator arguments"
    assert _agree([F(-5, 2), 2], [F(1, 2), -1]) == (PoleError, "Gamma argument -1 is a nonpositive integer")
