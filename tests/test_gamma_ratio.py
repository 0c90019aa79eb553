"""The identities' right sides, ratios of rising factorials, against their Gamma form.

Where an identity terminates, every Gamma quotient of its right side is
G(x+n)/G(x) = (x)_n, and ``hypergeometric._pochhammer_ratio`` takes the
products of those rising factorials.  ``oracles.fraction_gamma_ratio_value``
reduces the Gamma form instead, by pairing its arguments on ``Fraction``s.
The two must give the same value, or both a PoleError.
"""

import random
from collections import Counter
from fractions import Fraction as F

from supercong import hypergeometric
from supercong.hypergeometric import IDENTITIES, PoleError, _pochhammer_ratio, sample_identity_params

from oracles import fraction_gamma_ratio_value as gamma_ratio

#: The Gamma form of each right side, without its hypergeometric factor:
#: the argument lists the identities were stated with, e = -n and g = -n.
GAMMA_RIGHT_SIDES = {
    "WHIPPLE_4F3": lambda a, c, n: gamma_ratio((1 + a - c, 1 + a + n), (1 + a, 1 + a - c + n)),
    "WHIPPLE_6F5": lambda a, b, c, d, n: gamma_ratio((1 + a - d, 1 + a + n), (1 + a, 1 + a - d + n)),
    "WHIPPLE_7F6": lambda a, c, d, e, f, n: gamma_ratio(
        (1 + a - e, 1 + a - f, 1 + a + n, 1 + a - e - f + n),
        (1 + a, 1 + a - f + n, 1 + a - e + n, 1 + a - e - f),
    ),
    "GESSEL_31_1": lambda a, c, n: gamma_ratio(
        (2 - c + n, 2 - 2 * a + n, 3 - 2 * c, F(3, 2) - a),
        (2 - c, 2 - 2 * a, 3 - 2 * c + n, F(3, 2) - a + n),
    ),
    "GOSPER_STRANGE": lambda a, b, n: gamma_ratio(
        (a + F(1, 2) + n, a + 1 + n, a + b + F(1, 2), a - b + 1),
        (a + F(1, 2), a + 1, a + b + F(1, 2) + n, a - b + 1 + n),
    ),
    "GESSEL_P544": lambda a, n: 2**n * gamma_ratio((a + F(3, 2) + n, 2 * a + 2), (a + F(3, 2), 2 * a + 2 + n)),
}


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except PoleError:
        return PoleError


def test_every_gamma_ratio_of_the_identity_suite_matches_the_fraction_reduction(monkeypatch):
    # every draw the suite attempts, the rejected ones included, drawn again
    # uncached; then each draw's right side with its hypergeometric factor
    # stubbed to 1, so that a pole of the left side cannot hide it
    cached = {tag: sample_identity_params(tag) for tag in IDENTITIES}
    identity_sides = hypergeometric.identity_sides
    attempted = []

    def recording(tag, params):
        attempted.append((tag, dict(params)))
        return identity_sides(tag, params)

    monkeypatch.setattr(hypergeometric, "identity_sides", recording)
    for tag in IDENTITIES:
        assert sample_identity_params.__wrapped__(tag) == cached[tag], tag
    monkeypatch.setattr(hypergeometric, "eval_hyp_sum", lambda s: F(1))
    poles = Counter()
    for tag, params in attempted:
        got = _outcome(lambda: identity_sides(tag, params)[1])
        names = IDENTITIES[tag][0]
        want = _outcome(GAMMA_RIGHT_SIDES[tag], *(params[name] for name in names), params["n"])
        assert got == want, (tag, params)
        poles[tag] += got is PoleError
    # 300 accepted draws and 38 rejected ones, 22 of them at a Gamma argument;
    # 9 of the 16 rejected at a lower parameter have a Gamma pole as well
    assert len(attempted) == 338
    assert poles == {
        "WHIPPLE_4F3": 3,
        "WHIPPLE_6F5": 6,
        "WHIPPLE_7F6": 5,
        "GESSEL_31_1": 7,
        "GOSPER_STRANGE": 3,
        "GESSEL_P544": 7,
    }


def _random_argument(rng: random.Random) -> F:
    if rng.random() < 0.1:
        return F(-rng.randint(0, 12))  # a pole at x, and at x + n too once x <= -n
    return F(rng.randint(-30, 30), rng.randint(1, 6))


def test_random_gamma_ratios_match_the_fraction_reduction():
    rng = random.Random(20091202)
    kinds = Counter()
    for _ in range(2000):
        n = rng.randint(0, 8)
        ups, downs = ([_random_argument(rng) for _ in range(rng.randint(1, 3))] for _side in range(2))
        got = _outcome(_pochhammer_ratio, ups, downs, n)
        gamma_args = [x + n for x in ups] + downs, ups + [x + n for x in downs]
        assert got == _outcome(gamma_ratio, *gamma_args), (ups, downs, n)
        if got is not PoleError:
            kinds["value"] += 1
        elif any(x.denominator == 1 and x <= -n for x in (*ups, *downs)):
            kinds["pole at x + n"] += 1
        else:
            kinds["pole at x only"] += 1
    assert min(kinds.values()) >= 50 and len(kinds) == 3, kinds
