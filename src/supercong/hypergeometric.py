"""Declarative truncated hypergeometric sums and their exact evaluation.

A :class:`HypSum` describes a weighted, truncated, generalized hypergeometric
sum whose parameters may be deformed along a formal variable x:

    sum_{k=0}^{K}  (w1*k + w0) * prod_i (upper_i)_k
                   ------------------------------- * z^k
                    k! * prod_j (lower_j)_k

with every parameter affine in x (``base + slope*x``).  Both evaluations
are driven by the term ratio z/(k+1) * prod_i (upper_i + k) / prod_j
(lower_j + k) and sum the terms by binary splitting (Haible & Papanikolaou,
ANTS 1998): the ratios' numerators and denominators are multiplied up a
balanced tree and exact divisions at the root end the sum, so no gcd is
taken per term; a merge reads only its left child's product of numerators,
so none is formed at the root or down its right spine.  Scalar evaluation
specializes x = 0 and splits over the integers.  Series evaluation splits
over Z[x]/(x^(order+1)): each factor becomes an integer polynomial, linear
for a deformed parameter, and the sum is the quotient of the root's two
polynomials, taken by series division on reduced fractions.
``specialize`` pins x to a value instead, which turns a deformed sum into a
scalar one.  The explicit k! matches the usual (r+1)F(r) normalization, and
the affine weight is kept separate from the parameter lists because a weight
encoded as a parameter pair would not survive deformation of those
parameters.

The module also evaluates Gamma-function ratios whose arguments pair up to
integer shifts (reducing each pair by the recurrence G(x+1) = x*G(x)).  The
table ``IDENTITIES`` holds six classical evaluation identities, Gosper's
strange evaluation among them, each as its free parameter names and a
function giving both sides exactly.  ``identity_sides`` checks a parameter
record against that table, and ``sample_identity_params`` draws the
fixed-seed, pole-free points of the randomized suite and keeps the sides it
evaluated at each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from types import MappingProxyType
from typing import Mapping

from .power_series import TruncSeries
from .exact_core import _exact, rising_factorial


class PoleError(ArithmeticError):
    """A lower-parameter rising factorial or a Gamma argument hits a pole."""


class UnpairableError(ValueError):
    """Gamma-ratio arguments cannot be paired up to integer shifts."""


@dataclass(frozen=True)
class AffineParam:
    """A hypergeometric parameter base + slope*x; scalar evaluation uses base."""

    base: Fraction
    slope: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "base", _exact(self.base))
        object.__setattr__(self, "slope", _exact(self.slope))


def param(value) -> AffineParam:
    """Coerce a number, ``(base, slope)`` pair, or AffineParam to AffineParam."""
    if isinstance(value, AffineParam):
        return value
    if isinstance(value, tuple):
        base, slope = value
        return AffineParam(base, slope)
    return AffineParam(value)


@dataclass(frozen=True)
class HypSum:
    """Declarative spec of a weighted truncated hypergeometric sum."""

    upper: tuple[AffineParam, ...]
    lower: tuple[AffineParam, ...]
    argument: Fraction
    truncation: int
    weight: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1))

    def __post_init__(self):
        if not isinstance(self.truncation, int) or isinstance(self.truncation, bool):
            raise TypeError(f"the truncation index K must be an int, got {self.truncation!r}")
        if self.truncation < 0:
            raise ValueError("truncation index must be nonnegative")
        w1, w0 = self.weight
        object.__setattr__(self, "weight", (_exact(w1), _exact(w0)))
        object.__setattr__(self, "argument", _exact(self.argument))


def hyp_sum(upper, lower, z, K: int, weight=(0, 1)) -> HypSum:
    """Convenience constructor accepting bare numbers or (base, slope) pairs."""
    return HypSum(
        upper=tuple(param(u) for u in upper),
        lower=tuple(param(l) for l in lower),
        argument=z,
        truncation=K,
        weight=weight,
    )


def specialize(s: HypSum, x0) -> HypSum:
    """The sum with the deformation variable pinned to the value x0."""
    x0 = _exact(x0)
    return replace(
        s,
        upper=tuple(AffineParam(u.base + u.slope * x0) for u in s.upper),
        lower=tuple(AffineParam(l.base + l.slope * x0) for l in s.lower),
    )


def _check_lower_poles(s: HypSum) -> None:
    # (b)_k for k <= K contains a zero factor iff b is an integer in (-K, 0].
    for l in s.lower:
        b = l.base
        if b.denominator == 1 and -s.truncation < b <= 0:
            if b == 0 and l.slope != 0:
                raise PoleError(
                    "lower parameter with zero base is not an invertible series factor"
                )
            raise PoleError(
                f"lower parameter {b} makes a rising factorial vanish before k = {s.truncation}"
            )


def _integer_weight(weight) -> tuple[int, int, int]:
    """(a1, a0, wden): the weight (w1, w0) is (a1, a0) / wden over integers."""
    w1, w0 = weight
    wden = lcm(w1.denominator, w0.denominator)
    return w1.numerator * (wden // w1.denominator), w0.numerator * (wden // w0.denominator), wden


def eval_hyp_sum(s: HypSum) -> Fraction:
    """Exact value of the weighted truncated sum at x = 0, by binary splitting.

    With every base written as n/d, the term ratio t_k / t_{k-1} is
    p(k) / q(k) for the integers

        p(k) = z.num * prod d_lower * prod (n_u + (k-1) d_u),
        q(k) = z.den * prod d_upper * k * prod (n_l + (k-1) d_l),

    and p(0) = q(0) = 1.  Over a range [a, b) the split returns P and Q, the
    products of p and q, and T with T/Q = sum_k (a1 k + a0) p(a)...p(k) /
    (q(a)...q(k)), where (a1, a0) is the weight times its common denominator.
    Q has the size of the last term's unreduced denominator, O(K log K)
    bits, and the sum is T / (Q * wden), reduced by a single gcd.  A merge
    reads only its left child's P, so P is never formed at the root or down
    its right spine.  Once the pole check passes, q(k) != 0 for every k <= K.
    """
    _check_lower_poles(s)
    uppers = [(u.base.numerator, u.base.denominator) for u in s.upper]
    lowers = [(l.base.numerator, l.base.denominator) for l in s.lower]
    p_scale = s.argument.numerator
    for _n, d in lowers:
        p_scale *= d
    q_scale = s.argument.denominator
    for _n, d in uppers:
        q_scale *= d
    a1, a0, wden = _integer_weight(s.weight)

    def split(a: int, b: int, need_p: bool) -> tuple[int | None, int, int]:
        if b - a == 1:
            if a == 0:
                return 1, 1, a0
            p, q, j = p_scale, q_scale * a, a - 1
            for n, d in uppers:
                p *= n + j * d
            for n, d in lowers:
                q *= n + j * d
            return p, q, (a1 * a + a0) * p
        mid = (a + b) // 2
        p1, q1, t1 = split(a, mid, True)
        p2, q2, t2 = split(mid, b, need_p)
        return p1 * p2 if need_p else None, q1 * q2, t1 * q2 + p1 * t2

    _p, q, t = split(0, s.truncation + 1, False)
    return Fraction(t, q * wden)


def _split_series(ratio, truncation: int, order: int, weight) -> tuple[Fraction, ...]:
    """Coefficients of sum_{k<=K} (w1 k + w0) t_k mod x^(order+1), by binary splitting.

    ``ratio(k)`` gives, for 1 <= k <= K, integer coefficient lists p(k) and
    q(k) of length order + 1 with t_k / t_{k-1} = p(k) / q(k) and t_0 = 1;
    q(k) needs a nonzero constant term.  Over a range [a, b) the split
    returns the truncated products P and Q of p and q, and T with T/Q =
    sum_k (a1 k + a0) p(a)...p(k) / (q(a)...q(k)), where (a1, a0) is the
    weight times its common denominator wden; a merge is (P1 P2, Q1 Q2,
    T1 Q2 + P1 T2), with P1 P2 formed only where a merge reads it, so never
    at the root or down its right spine.  The sum S = T / (Q * wden) is one
    series division:
    S_d = (T_d - sum_{i=1..d} Q_i wden S_{d-i}) / (Q_0 wden).
    """
    n = order + 1
    a1, a0, wden = _integer_weight(weight)

    def mul(a, b):
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    out[i + j] += ai * b[j]
        return out

    def split(a: int, b: int, need_p: bool):
        if b - a == 1:
            if a == 0:
                unit = [1] + [0] * order
                return unit, unit, [a0] + [0] * order
            p, q = ratio(a)
            w = a1 * a + a0
            return p, q, [w * c for c in p]
        mid = (a + b) // 2
        p1, q1, t1 = split(a, mid, True)
        p2, q2, t2 = split(mid, b, need_p)
        t = [0] * n
        for i in range(n):
            ti, pi = t1[i], p1[i]
            if ti or pi:
                for j in range(n - i):
                    t[i + j] += ti * q2[j] + pi * t2[j]
        return mul(p1, p2) if need_p else None, mul(q1, q2), t

    _p, q, t = split(0, truncation + 1, False)
    lead = q[0] * wden
    out = []
    for d in range(n):
        # a Fraction from the start: an int accumulator divided by lead would be a float
        acc = Fraction(t[d])
        for i in range(1, d + 1):
            if q[i]:
                acc -= q[i] * wden * out[d - i]
        out.append(acc / lead)
    return tuple(out)


def _integer_factor(a: AffineParam) -> tuple[int, int, int]:
    """(n, D, s) with a + j = (n + j*D + s*x) / D for every integer j."""
    den = lcm(a.base.denominator, a.slope.denominator)
    return (
        a.base.numerator * (den // a.base.denominator),
        den,
        a.slope.numerator * (den // a.slope.denominator),
    )


def eval_hyp_sum_series(s: HypSum, order: int) -> TruncSeries:
    """The sum as a truncated power series in the deformation variable x.

    Binary splitting over Z[x]/(x^(order+1)).  With every parameter written
    (n + s*x)/D over integers, the term ratio t_k / t_{k-1} is p(k) / q(k)
    for the integer polynomials

        p(k) = z.num * prod D_lower * prod (n_u + (k-1) D_u + s_u x),
        q(k) = z.den * prod D_upper * k * prod (n_l + (k-1) D_l + s_l x),

    where undeformed factors (s = 0) are plain integers.  Once the pole
    check passes, q(k) has a nonzero constant term for every k <= K.
    Truncation mod x^(order+1) is a ring homomorphism, so every coefficient
    is exactly that of the expanded Pochhammer quotient, and the constant
    coefficient is the scalar sum at x = 0.
    """
    _check_lower_poles(s)
    uppers = [_integer_factor(u) for u in s.upper]
    lowers = [_integer_factor(l) for l in s.lower]
    p_scale = s.argument.numerator * prod(d for _n, d, _s in lowers)
    q_scale = s.argument.denominator * prod(d for _n, d, _s in uppers)
    flat_up = [(n, d) for n, d, sl in uppers if not sl]
    flat_low = [(n, d) for n, d, sl in lowers if not sl]
    deformed_up = [f for f in uppers if f[2]]
    deformed_low = [f for f in lowers if f[2]]

    def product(c: int, j: int, factors) -> list[int]:
        poly = [c] + [0] * order
        for n, d, sl in factors:
            a = n + j * d
            for deg in range(order, 0, -1):
                poly[deg] = a * poly[deg] + sl * poly[deg - 1]
            poly[0] *= a
        return poly

    def ratio(k: int):
        j = k - 1
        p, q = p_scale, q_scale * k
        for n, d in flat_up:
            p *= n + j * d
        for n, d in flat_low:
            q *= n + j * d
        return product(p, j, deformed_up), product(q, j, deformed_low)

    return TruncSeries(_split_series(ratio, s.truncation, order, s.weight))


def _fractional_part(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def gamma_ratio_value(numerator_args, denominator_args) -> Fraction:
    """Exact value of prod G(numerator_args) / prod G(denominator_args).

    The arguments are rationals (int or Fraction) that must pair by
    fractional part.  They are grouped by fractional part; each group is
    sorted and paired in order, and each pair G(d + m)/G(d) telescopes to a
    rising factorial (or its reciprocal).  Validity does not depend on the
    pairing choice.  Nonpositive-integer arguments are refused outright.
    """
    for x in (*numerator_args, *denominator_args):
        if x.denominator == 1 and x <= 0:
            raise PoleError(f"Gamma argument {x} is a nonpositive integer")
    groups: dict[Fraction, tuple[list[Fraction], list[Fraction]]] = {}
    for x in numerator_args:
        groups.setdefault(_fractional_part(x), ([], []))[0].append(x)
    for x in denominator_args:
        groups.setdefault(_fractional_part(x), ([], []))[1].append(x)
    value = Fraction(1)
    for frac, (nums, dens) in groups.items():
        if len(nums) != len(dens):
            raise UnpairableError(
                f"fractional part {frac}: {len(nums)} numerator vs {len(dens)} denominator arguments"
            )
        for nx, dx in zip(sorted(nums), sorted(dens)):
            m = int(nx - dx)
            if m >= 0:
                value *= rising_factorial(dx, m)
            else:
                value /= rising_factorial(nx, -m)
    return value


def _terminating_n(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("the terminating parameter n must be a nonnegative integer")
    return n


def _whipple_4f3_sides(a, c, n):
    # 4F3[a, 1+a/2, c, -n ; a/2, 1+a-c, 1+a+n ; -1]
    #   = G(1+a-c) G(1+a+n) / (G(1+a) G(1+a-c+n))
    lhs = eval_hyp_sum(hyp_sum([a, 1 + a / 2, c, -n], [a / 2, 1 + a - c, 1 + a + n], z=-1, K=n))
    return lhs, gamma_ratio_value((1 + a - c, 1 + a + n), (1 + a, 1 + a - c + n))


def _whipple_6f5_sides(a, b, c, d, n):
    # 6F5[a, 1+a/2, b, c, d, -n ; a/2, 1+a-b, 1+a-c, 1+a-d, 1+a+n ; -1]
    #   = G(1+a-d) G(1+a+n) / (G(1+a) G(1+a-d+n))
    #     * 3F2[1+a-b-c, d, -n ; 1+a-b, 1+a-c ; 1]
    e = Fraction(-n)
    lhs = eval_hyp_sum(
        hyp_sum(
            [a, 1 + a / 2, b, c, d, e],
            [a / 2, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e],
            z=-1,
            K=n,
        )
    )
    rhs = gamma_ratio_value((1 + a - d, 1 + a - e), (1 + a, 1 + a - d - e)) * eval_hyp_sum(
        hyp_sum([1 + a - b - c, d, e], [1 + a - b, 1 + a - c], z=1, K=n)
    )
    return lhs, rhs


def _whipple_7f6_sides(a, c, d, e, f, n):
    # 7F6[a, 1+a/2, c, d, e, f, -n ; a/2, 1+a-c, 1+a-d, 1+a-e, 1+a-f, 1+a+n ; 1]
    #   = G(1+a-e) G(1+a-f) G(1+a-g) G(1+a-e-f-g)
    #     / (G(1+a) G(1+a-f-g) G(1+a-e-g) G(1+a-e-f))
    #     * 4F3[1+a-c-d, e, f, g ; e+f+g-a, 1+a-c, 1+a-d ; 1],     g = -n.
    # Both Gamma lists sum to 4 + 4a - 2(e+f+g): the ratio is balanced.
    g = Fraction(-n)
    lhs = eval_hyp_sum(
        hyp_sum(
            [a, 1 + a / 2, c, d, e, f, g],
            [a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f, 1 + a - g],
            z=1,
            K=n,
        )
    )
    prefactor = gamma_ratio_value(
        (1 + a - e, 1 + a - f, 1 + a - g, 1 + a - e - f - g),
        (1 + a, 1 + a - f - g, 1 + a - e - g, 1 + a - e - f),
    )
    rhs = prefactor * eval_hyp_sum(
        hyp_sum(
            [1 + a - c - d, e, f, g],
            [e + f + g - a, 1 + a - c, 1 + a - d],
            z=1,
            K=n,
        )
    )
    return lhs, rhs


def _gessel_31_1_sides(a, c, n):
    # 5F4[1/2+a-c, -n, n+1, 2-2c+n, 5/3-2c/3+n/3 ;
    #     2-c+n, 2/3-2c/3+n/3, n-2a+2, 3/2-c ; 1/4]
    #   = (2-c)_n (2-2a)_n / ((3-2c)_n (3/2-a)_n)
    lhs = eval_hyp_sum(
        hyp_sum(
            [
                Fraction(1, 2) + a - c,
                -n,
                n + 1,
                2 - 2 * c + n,
                Fraction(5, 3) - 2 * c / 3 + Fraction(n, 3),
            ],
            [
                2 - c + n,
                Fraction(2, 3) - 2 * c / 3 + Fraction(n, 3),
                n - 2 * a + 2,
                Fraction(3, 2) - c,
            ],
            z=Fraction(1, 4),
            K=n,
        )
    )
    rhs = gamma_ratio_value(
        (2 - c + n, 2 - 2 * a + n, 3 - 2 * c, Fraction(3, 2) - a),
        (2 - c, 2 - 2 * a, 3 - 2 * c + n, Fraction(3, 2) - a + n),
    )
    return lhs, rhs


def _gosper_strange_sides(a, b, n):
    # 5F4[2a, 2b, 1-2b, 1+2a/3, -n ; a-b+1, a+b+1/2, 2a/3, 1+2a+2n ; 1/4]
    #   = (a+1/2)_n (a+1)_n / ((a+b+1/2)_n (a-b+1)_n)
    lhs = eval_hyp_sum(
        hyp_sum(
            [2 * a, 2 * b, 1 - 2 * b, 1 + 2 * a / 3, -n],
            [a - b + 1, a + b + Fraction(1, 2), 2 * a / 3, 1 + 2 * a + 2 * n],
            z=Fraction(1, 4),
            K=n,
        )
    )
    rhs = gamma_ratio_value(
        (a + Fraction(1, 2) + n, a + 1 + n, a + b + Fraction(1, 2), a - b + 1),
        (a + Fraction(1, 2), a + 1, a + b + Fraction(1, 2) + n, a - b + 1 + n),
    )
    return lhs, rhs


def _gessel_p544_sides(a, n):
    # 4F3[2a+n+1, n+1, 2a/3+n/3+4/3, -n ; a+3/2+n, 2a/3+n/3+1/3, 1+a ; -1/8]
    #   = 2^n (a+3/2)_n / (2a+2)_n
    third = Fraction(n, 3)
    lhs = eval_hyp_sum(
        hyp_sum(
            [2 * a + n + 1, n + 1, 2 * a / 3 + third + Fraction(4, 3), -n],
            [a + Fraction(3, 2) + n, 2 * a / 3 + third + Fraction(1, 3), 1 + a],
            z=Fraction(-1, 8),
            K=n,
        )
    )
    rhs = Fraction(2) ** n * gamma_ratio_value(
        (a + Fraction(3, 2) + n, 2 * a + 2), (a + Fraction(3, 2), 2 * a + 2 + n)
    )
    return lhs, rhs


#: The six evaluation identities checked pointwise: tag -> (free parameter
#: names, sides function).  A sides function takes the free parameters as
#: Fractions, in this order, then the terminating n, and returns (lhs, rhs).
IDENTITIES = {
    "WHIPPLE_4F3": (("a", "c"), _whipple_4f3_sides),
    "WHIPPLE_6F5": (("a", "b", "c", "d"), _whipple_6f5_sides),
    "WHIPPLE_7F6": (("a", "c", "d", "e", "f"), _whipple_7f6_sides),
    "GESSEL_31_1": (("a", "c"), _gessel_31_1_sides),
    "GOSPER_STRANGE": (("a", "b"), _gosper_strange_sides),
    "GESSEL_P544": (("a",), _gessel_p544_sides),
}

#: Seed of the reproducible randomized identity suite.
IDENTITY_SUITE_SEED = 112358

#: Number of fixed-seed draws per identity in the randomized suite.
IDENTITY_DRAWS = 50


def identity_sides(tag: str, params: Mapping) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of identity ``tag`` exactly at a parameter record.

    The record must hold exactly the identity's free parameter names, each
    an exact rational (a float is refused), plus a nonnegative integer ``n``.
    """
    names, sides = IDENTITIES[tag]
    if set(params) != {*names, "n"}:
        got = ", ".join(map(str, params))
        raise ValueError(f"{tag} takes the parameters {', '.join(names)} and n, got {got}")
    floats = [name for name in names if isinstance(params[name], float)]
    if floats:
        raise ValueError(f"{tag} takes exact rational parameters, got a float for {', '.join(floats)}")
    return sides(*(Fraction(params[name]) for name in names), _terminating_n(params["n"]))


@lru_cache(maxsize=None)
def sample_identity_params(tag: str) -> tuple[tuple[Mapping, Fraction, Fraction], ...]:
    """The IDENTITY_DRAWS reproducible pole-free draws of the randomized
    identity suite, drawn from IDENTITY_SUITE_SEED.

    Each draw is ``(params, lhs, rhs)``: small random rationals for the free
    parameters plus a terminating n, as a read-only mapping since the draws
    are cached, and the two sides evaluated there.  A draw at which a side
    hits a pole or an unpairable Gamma ratio is rejected.
    """
    names = IDENTITIES[tag][0]
    rng = random.Random(f"{IDENTITY_SUITE_SEED}:{tag}")
    out = []
    attempts = 0
    while len(out) < IDENTITY_DRAWS:
        attempts += 1
        if attempts > 500 * IDENTITY_DRAWS:
            raise RuntimeError(f"rejection sampling for {tag} stalled")
        params = {name: Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for name in names}
        params["n"] = rng.randint(0, 8)
        try:
            lhs, rhs = identity_sides(tag, params)
        except (PoleError, UnpairableError, ZeroDivisionError):
            continue
        out.append((MappingProxyType(params), lhs, rhs))
    return tuple(out)
