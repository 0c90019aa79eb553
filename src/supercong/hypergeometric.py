"""Declarative truncated hypergeometric sums and their exact evaluation.

A :class:`HypSum`, an immutable tuple record, describes a weighted,
truncated, generalized hypergeometric sum whose parameters may be deformed
along a formal variable x:

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
specializes x = 0 and splits over the integers, down to leaves of up to
``_LEAF_WIDTH`` terms, each summed by one loop over small integers.
Series evaluation splits over Z[x]/(x^(order+1)): each factor becomes an
integer polynomial, linear for a deformed parameter, and the sum is the
quotient of the root's two polynomials, taken by series division on
reduced fractions.  ``PrefixSums`` keeps the state of one split in either
ring, handed that ring's split, merge and finish, so the sums of one spec at
growing truncations K extend one running split instead of each starting
from k = 0; its root split from k = 0 is also the one-shot sum in both
rings.
``specialize`` pins x to a value instead, which turns a deformed sum into a
scalar one.  The explicit k! matches the usual (r+1)F(r) normalization, and
the affine weight is kept separate from the parameter lists because a weight
encoded as a parameter pair would not survive deformation of those
parameters.

The table ``IDENTITIES`` holds six classical evaluation identities, Gosper's
strange evaluation among them, each as its free parameter names and a
function giving both sides exactly.  They are checked where they terminate
(an upper parameter -n), and there every Gamma quotient of a right side is
G(x+n)/G(x) = (x)_n, so each right side is a ratio of ``rising_factorial``
products.  ``identity_sides`` checks a parameter record against that table,
and ``sample_identity_params`` draws the fixed-seed, pole-free points of the
randomized suite and keeps the sides it evaluated at each.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from types import MappingProxyType
from typing import Mapping

from .power_series import TruncSeries
from .exact_core import _check_count, _exact, checked_record, rising_factorial


class PoleError(ArithmeticError):
    """A lower-parameter rising factorial or a Gamma argument hits a pole."""


class AffineParam(checked_record("AffineParam", "base slope")):
    """A hypergeometric parameter base + slope*x; scalar evaluation uses base."""

    __slots__ = ()

    def __new__(cls, base, slope=Fraction(0)):
        return super().__new__(cls, _exact(base), _exact(slope))


def param(value) -> AffineParam:
    """Coerce a number, ``(base, slope)`` pair, or AffineParam to AffineParam."""
    if isinstance(value, AffineParam):
        return value
    if isinstance(value, tuple):
        base, slope = value
        return AffineParam(base, slope)
    return AffineParam(value)


class HypSum(checked_record("HypSum", "upper lower argument truncation weight")):
    """Declarative spec of a weighted truncated hypergeometric sum.

    Each upper and lower entry goes through ``param``, so it may be a
    number, a ``(base, slope)`` pair or an AffineParam."""

    __slots__ = ()

    def __new__(cls, upper, lower, argument, truncation: int, weight=(Fraction(0), Fraction(1))):
        _check_count(truncation, "truncation index K")
        w1, w0 = weight
        weight = (_exact(w1), _exact(w0))
        return super().__new__(
            cls, tuple(map(param, upper)), tuple(map(param, lower)), _exact(argument), truncation, weight
        )


def specialize(s: HypSum, x0) -> HypSum:
    """The sum with the deformation variable pinned to the value x0."""
    x0 = _exact(x0)
    return HypSum(
        tuple(AffineParam(u.base + u.slope * x0) for u in s.upper),
        tuple(AffineParam(l.base + l.slope * x0) for l in s.lower),
        s.argument,
        s.truncation,
        s.weight,
    )


def _check_lower_poles(lower, truncation: int) -> None:
    # (b)_k for k <= K contains a zero factor iff b is an integer in (-K, 0].
    for l in lower:
        b = l.base
        if b.denominator == 1 and -truncation < b <= 0:
            if b == 0 and l.slope != 0:
                raise PoleError(
                    "lower parameter with zero base is not an invertible series factor"
                )
            raise PoleError(
                f"lower parameter {b} makes a rising factorial vanish before k = {truncation}"
            )


def _integer_weight(weight) -> tuple[int, int, int]:
    """(a1, a0, wden): the weight (w1, w0) is (a1, a0) / wden over integers."""
    w1, w0 = weight
    wden = lcm(w1.denominator, w0.denominator)
    return w1.numerator * (wden // w1.denominator), w0.numerator * (wden // w0.denominator), wden


def _integer_terms(s: HypSum) -> tuple[tuple, int]:
    """(terms, wden): the integer data of the term ratio at x = 0 that ``_split`` reads.

    With every base written as n/d, the term ratio t_k / t_{k-1} is
    p(k) / q(k) for the integers

        p(k) = z.num * prod d_lower * prod (n_u + (k-1) d_u),
        q(k) = z.den * prod d_upper * k * prod (n_l + (k-1) d_l),

    and p(0) = q(0) = 1.  ``terms`` holds the (n, d) pairs of the upper and
    lower parameters, the two scales and the weight (a1, a0), which is the
    weight times its common denominator wden.
    """
    uppers = [(u.base.numerator, u.base.denominator) for u in s.upper]
    lowers = [(l.base.numerator, l.base.denominator) for l in s.lower]
    p_scale = s.argument.numerator
    for _n, d in lowers:
        p_scale *= d
    q_scale = s.argument.denominator
    for _n, d in uppers:
        q_scale *= d
    a1, a0, wden = _integer_weight(s.weight)
    return (uppers, lowers, p_scale, q_scale, a1, a0), wden


#: Ranges of at most this many terms are summed by one loop at the leaves of
#: ``_split``.  8 was measured; widths from 4 to 32 read the same.
_LEAF_WIDTH = 8


def _split(terms: tuple, a: int, b: int, need_p: bool) -> tuple[int | None, int, int]:
    """(P, Q, T) of the terms k in [a, b), by binary splitting over the integers.

    P and Q are the products of p(k) and q(k) (see ``_integer_terms``), and
    T/Q = sum_k (a1 k + a0) p(a)...p(k) / (q(a)...q(k)).  Two adjacent ranges
    merge as (P1 P2, Q1 Q2, T1 Q2 + P1 T2), and the empty range is (1, 1, 0).
    A merge reads only its left child's P, so P is formed only where
    ``need_p`` asks for it: a left child needs it and a right child inherits
    the flag.  A range of at most ``_LEAF_WIDTH`` terms is a leaf, which
    appends its terms one at a time by that same merge with a one-term range
    (p(k), q(k), (a1 k + a0) p(k)); its P is the running product the loop
    needs anyway.  Every q(k) in the range must be nonzero.
    """
    if b - a <= _LEAF_WIDTH:
        uppers, lowers, p_scale, q_scale, a1, a0 = terms
        p_run, q_run, t = 1, 1, 0
        if a == 0:  # term 0 is the range (1, 1, a0)
            t, a = a0, 1
        for k in range(a, b):
            j = k - 1
            p, q = p_scale, q_scale * k
            for n, d in uppers:
                p *= n + j * d
            for n, d in lowers:
                q *= n + j * d
            p_run *= p
            q_run *= q
            t = t * q + (a1 * k + a0) * p_run
        return p_run, q_run, t
    mid = (a + b) // 2
    p1, q1, t1 = _split(terms, a, mid, True)
    p2, q2, t2 = _split(terms, mid, b, need_p)
    return p1 * p2 if need_p else None, q1 * q2, t1 * q2 + p1 * t2


def eval_hyp_sum(s: HypSum) -> Fraction:
    """Exact value of the weighted truncated sum at x = 0, by binary splitting.

    The root split of ``PrefixSums.of(s)``: one ``_split`` of [0, K], which
    forms no P.  Q has the size of the last term's unreduced denominator,
    O(K log K) bits, and the sum is T / (Q * wden), reduced by a single gcd.
    Once the pole check passes, q(k) != 0 for every k <= K.
    """
    _check_lower_poles(s.lower, s.truncation)
    return PrefixSums.of(s).root(s.truncation)


def _merge(left: tuple, right: tuple, need_p: bool) -> tuple[int | None, int, int]:
    """``_split``'s merge of two adjacent ranges, with P1 P2 only if ``need_p``."""
    p1, q1, t1 = left
    p2, q2, t2 = right
    return p1 * p2 if need_p else None, q1 * q2, t1 * q2 + p1 * t2


def _scalar_quotient(q: int, t: int, wden: int) -> Fraction:
    """The sum T / (Q * wden), reduced by a single gcd."""
    return Fraction(t, q * wden)


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b mod x^n, for coefficient lists of length n."""
    n = len(b)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


def _merge_series(left: tuple, right: tuple, need_p: bool) -> tuple:
    """(P1 P2, Q1 Q2, T1 Q2 + P1 T2) of two adjacent ranges, with P1 P2 only if ``need_p``."""
    p1, q1, t1 = left
    p2, q2, t2 = right
    n = len(q2)
    t = [0] * n
    for i in range(n):
        ti, pi = t1[i], p1[i]
        if ti or pi:
            for j in range(n - i):
                t[i + j] += ti * q2[j] + pi * t2[j]
    return _series_mul(p1, p2) if need_p else None, _series_mul(q1, q2), t


def _split_series_range(terms: tuple, a: int, b: int, need_p: bool) -> tuple:
    """(P, Q, T) of the terms k in [a, b) over Z[x]/(x^n), by binary splitting.

    ``terms`` is (ratio, n, a1, a0); see ``PrefixSums.of_ratio``.  P is
    formed only where a merge reads it: a left child needs it and a right
    child inherits the flag.
    """
    if b - a == 1:
        ratio, n, a1, a0 = terms
        if a == 0:
            unit = [1] + [0] * (n - 1)
            return unit, unit, [a0] + [0] * (n - 1)
        p, q = ratio(a)
        w = a1 * a + a0
        return p, q, [w * c for c in p]
    mid = (a + b) // 2
    left = _split_series_range(terms, a, mid, True)
    return _merge_series(left, _split_series_range(terms, mid, b, need_p), need_p)


def _series_quotient(q: list[int], t: list[int], wden: int) -> tuple[Fraction, ...]:
    """The coefficients of S = T / (Q * wden), by one series division:
    S_d = (T_d - sum_{i=1..d} Q_i wden S_{d-i}) / (Q_0 wden)."""
    lead = q[0] * wden
    out = []
    for d in range(len(q)):
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


def _series_ratio(s: HypSum, order: int):
    """The term ratio of ``s`` as ``ratio(k) -> (p(k), q(k))``, the integer
    polynomials mod x^(order+1) that ``_split_series_range`` reads; see
    ``eval_hyp_sum_series``.  The ``_integer_factor`` data is built here, so
    a running split builds it once for all its truncations."""
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

    return ratio


def eval_hyp_sum_series(s: HypSum, order: int) -> TruncSeries:
    """The sum as a truncated power series in the deformation variable x.

    Binary splitting over Z[x]/(x^(order+1)), the root split of
    ``PrefixSums.of(s, order)``.  With every parameter written (n + s*x)/D
    over integers, the term ratio t_k / t_{k-1} is p(k) / q(k) for the
    integer polynomials

        p(k) = z.num * prod D_lower * prod (n_u + (k-1) D_u + s_u x),
        q(k) = z.den * prod D_upper * k * prod (n_l + (k-1) D_l + s_l x),

    where undeformed factors (s = 0) are plain integers.  Once the pole
    check passes, q(k) has a nonzero constant term for every k <= K.
    Truncation mod x^(order+1) is a ring homomorphism, so every coefficient
    is exactly that of the expanded Pochhammer quotient, and the constant
    coefficient is the scalar sum at x = 0.
    """
    _check_lower_poles(s.lower, s.truncation)
    return TruncSeries(PrefixSums.of(s, order).root(s.truncation))


class PrefixSums:
    """The sums of one term ratio at many truncations K, as prefixes of one running split.

    One class serves both rings; it is handed its ring's split, merge and
    finish.  ``PrefixSums.of(spec)`` splits over the integers (``_split``,
    ``_merge``, ``_scalar_quotient``), and its ``at(K)`` is ``eval_hyp_sum``
    of the spec truncated at K.  ``PrefixSums.of(spec, order)`` and
    ``PrefixSums.of_ratio`` split over Z[x]/(x^(order+1))
    (``_split_series_range``, ``_merge_series``, ``_series_quotient``), and
    ``at(K)`` is the coefficient tuple of the series sum truncated at K.
    The object keeps the state (frontier, P, Q, T) of the terms k <=
    frontier.  A K above the frontier splits only the new terms
    [frontier + 1, K] and merges them into the state, so a sweep whose
    truncations grow sums max K terms where one-shot sums would take the sum
    of all K.  A K at or below the frontier is read from the values already
    made, or else is one ``root`` split.  The pole check of the lower
    parameters runs for every K, as in the one-shot paths.  The state is
    rebound as one tuple, so a concurrent reader sees a whole state, old or
    new.
    """

    def __init__(self, split, merge, finish, terms: tuple, wden: int, lower=()):
        self._split, self._merge, self._finish = split, merge, finish
        self._terms, self._wden, self._lower = terms, wden, tuple(lower)
        self._state = (-1, None)  # (frontier, (P, Q, T)); no terms yet
        self._values: dict = {}

    @classmethod
    def of(cls, spec: HypSum, order: int | None = None) -> PrefixSums:
        """The running split of the spec's sums, at x = 0 or, given an order,
        mod x^(order+1); the spec's truncation is not read."""
        if order is not None:
            _check_count(order, "series order")
            return cls.of_ratio(_series_ratio(spec, order), order, spec.weight, spec.lower)
        terms, wden = _integer_terms(spec)
        return cls(_split, _merge, _scalar_quotient, terms, wden, spec.lower)

    @classmethod
    def of_ratio(cls, ratio, order: int, weight, lower=()) -> PrefixSums:
        """The running split of sum_{k<=K} (w1 k + w0) t_k mod x^(order+1).

        ``ratio(k)`` gives, for k >= 1, integer coefficient lists p(k) and
        q(k) of length order + 1 with t_k / t_{k-1} = p(k) / q(k) and t_0 =
        1; q(k) needs a nonzero constant term.  Over a range [a, b) the
        split returns the truncated products P and Q of p and q, and T with
        T/Q = sum_k (a1 k + a0) p(a)...p(k) / (q(a)...q(k)), where (a1, a0)
        is the weight (w1, w0) times its common denominator wden.  The sum
        is T / (Q * wden), taken by series division.
        """
        _check_count(order, "series order")
        a1, a0, wden = _integer_weight(weight)
        return cls(_split_series_range, _merge_series, _series_quotient, (ratio, order + 1, a1, a0), wden, lower)

    def root(self, K: int):
        """The sum at K by one split of [0, K], which keeps no state and forms
        no P; the caller checks the poles."""
        _p, q, t = self._split(self._terms, 0, K + 1, False)
        return self._finish(q, t, self._wden)

    def at(self, K: int):
        _check_count(K, "truncation index K")
        value = self._values.get(K)
        if value is not None:
            return value
        _check_lower_poles(self._lower, K)
        frontier, state = self._state
        if K <= frontier:
            value = self.root(K)
        else:
            new = self._split(self._terms, frontier + 1, K + 1, True)
            state = new if state is None else self._merge(state, new, True)
            self._state = (K, state)
            value = self._finish(state[1], state[2], self._wden)
        self._values[K] = value
        return value


def _pochhammer_ratio(ups, downs, n: int) -> Fraction:
    """prod (x)_n over ``ups`` / prod (x)_n over ``downs``, each a ``rising_factorial``.

    This is the terminating Gamma ratio prod G(x+n)/G(x) over ``ups`` times
    prod G(x)/G(x+n) over ``downs``, and it raises PoleError where one of
    those Gamma arguments, x or x+n, is a nonpositive integer.  For n >= 0,
    x+n is one only if x is, so x alone is checked.
    """
    for x in (*ups, *downs):
        if x.denominator == 1 and x <= 0:
            raise PoleError(f"Gamma argument {x} is a nonpositive integer")
    return prod(rising_factorial(x, n) for x in ups) / prod(rising_factorial(x, n) for x in downs)


def _terminating_n(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("the terminating parameter n must be a nonnegative integer")
    return n


def _whipple_4f3_sides(a, c, n):
    # 4F3[a, 1+a/2, c, -n ; a/2, 1+a-c, 1+a+n ; -1]
    #   = G(1+a-c) G(1+a+n) / (G(1+a) G(1+a-c+n))
    #   = (1+a)_n / (1+a-c)_n
    lhs = eval_hyp_sum(HypSum([a, 1 + a / 2, c, -n], [a / 2, 1 + a - c, 1 + a + n], argument=-1, truncation=n))
    return lhs, _pochhammer_ratio((1 + a,), (1 + a - c,), n)


def _whipple_6f5_sides(a, b, c, d, n):
    # 6F5[a, 1+a/2, b, c, d, -n ; a/2, 1+a-b, 1+a-c, 1+a-d, 1+a+n ; -1]
    #   = G(1+a-d) G(1+a+n) / (G(1+a) G(1+a-d+n))
    #     * 3F2[1+a-b-c, d, -n ; 1+a-b, 1+a-c ; 1]
    #   = (1+a)_n / (1+a-d)_n * 3F2[...]
    e = Fraction(-n)
    lhs = eval_hyp_sum(
        HypSum(
            [a, 1 + a / 2, b, c, d, e],
            [a / 2, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e],
            argument=-1,
            truncation=n,
        )
    )
    rhs = _pochhammer_ratio((1 + a,), (1 + a - d,), n) * eval_hyp_sum(
        HypSum([1 + a - b - c, d, e], [1 + a - b, 1 + a - c], argument=1, truncation=n)
    )
    return lhs, rhs


def _whipple_7f6_sides(a, c, d, e, f, n):
    # 7F6[a, 1+a/2, c, d, e, f, -n ; a/2, 1+a-c, 1+a-d, 1+a-e, 1+a-f, 1+a+n ; 1]
    #   = G(1+a-e) G(1+a-f) G(1+a-g) G(1+a-e-f-g)
    #     / (G(1+a) G(1+a-f-g) G(1+a-e-g) G(1+a-e-f))
    #     * 4F3[1+a-c-d, e, f, g ; e+f+g-a, 1+a-c, 1+a-d ; 1]
    #   = (1+a)_n (1+a-e-f)_n / ((1+a-e)_n (1+a-f)_n) * 4F3[...],     g = -n.
    g = Fraction(-n)
    lhs = eval_hyp_sum(
        HypSum(
            [a, 1 + a / 2, c, d, e, f, g],
            [a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f, 1 + a - g],
            argument=1,
            truncation=n,
        )
    )
    rhs = _pochhammer_ratio((1 + a, 1 + a - e - f), (1 + a - e, 1 + a - f), n) * eval_hyp_sum(
        HypSum(
            [1 + a - c - d, e, f, g],
            [e + f + g - a, 1 + a - c, 1 + a - d],
            argument=1,
            truncation=n,
        )
    )
    return lhs, rhs


def _gessel_31_1_sides(a, c, n):
    # 5F4[1/2+a-c, -n, n+1, 2-2c+n, 5/3-2c/3+n/3 ;
    #     2-c+n, 2/3-2c/3+n/3, n-2a+2, 3/2-c ; 1/4]
    #   = G(2-c+n) G(2-2a+n) G(3-2c) G(3/2-a) / (G(2-c) G(2-2a) G(3-2c+n) G(3/2-a+n))
    #   = (2-c)_n (2-2a)_n / ((3-2c)_n (3/2-a)_n)
    lhs = eval_hyp_sum(
        HypSum(
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
            argument=Fraction(1, 4),
            truncation=n,
        )
    )
    return lhs, _pochhammer_ratio((2 - c, 2 - 2 * a), (3 - 2 * c, Fraction(3, 2) - a), n)


def _gosper_strange_sides(a, b, n):
    # 5F4[2a, 2b, 1-2b, 1+2a/3, -n ; a-b+1, a+b+1/2, 2a/3, 1+2a+2n ; 1/4]
    #   = G(a+1/2+n) G(a+1+n) G(a+b+1/2) G(a-b+1) / (G(a+1/2) G(a+1) G(a+b+1/2+n) G(a-b+1+n))
    #   = (a+1/2)_n (a+1)_n / ((a+b+1/2)_n (a-b+1)_n)
    lhs = eval_hyp_sum(
        HypSum(
            [2 * a, 2 * b, 1 - 2 * b, 1 + 2 * a / 3, -n],
            [a - b + 1, a + b + Fraction(1, 2), 2 * a / 3, 1 + 2 * a + 2 * n],
            argument=Fraction(1, 4),
            truncation=n,
        )
    )
    return lhs, _pochhammer_ratio((a + Fraction(1, 2), a + 1), (a + b + Fraction(1, 2), a - b + 1), n)


def _gessel_p544_sides(a, n):
    # 4F3[2a+n+1, n+1, 2a/3+n/3+4/3, -n ; a+3/2+n, 2a/3+n/3+1/3, 1+a ; -1/8]
    #   = 2^n G(a+3/2+n) G(2a+2) / (G(a+3/2) G(2a+2+n))
    #   = 2^n (a+3/2)_n / (2a+2)_n
    third = Fraction(n, 3)
    lhs = eval_hyp_sum(
        HypSum(
            [2 * a + n + 1, n + 1, 2 * a / 3 + third + Fraction(4, 3), -n],
            [a + Fraction(3, 2) + n, 2 * a / 3 + third + Fraction(1, 3), 1 + a],
            argument=Fraction(-1, 8),
            truncation=n,
        )
    )
    return lhs, 2**n * _pochhammer_ratio((a + Fraction(3, 2),), (2 * a + 2,), n)


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
    an exact rational (a float or a bool is refused), plus a nonnegative
    integer ``n``.
    """
    names, sides = IDENTITIES[tag]
    if set(params) != {*names, "n"}:
        got = ", ".join(map(str, params))
        raise ValueError(f"{tag} takes the parameters {', '.join(names)} and n, got {got}")
    for kind in (float, bool):
        refused = [name for name in names if isinstance(params[name], kind)]
        if refused:
            raise ValueError(f"{tag} takes exact rational parameters, got a {kind.__name__} for {', '.join(refused)}")
    return sides(*(Fraction(params[name]) for name in names), _terminating_n(params["n"]))


@lru_cache(maxsize=None)
def sample_identity_params(tag: str) -> tuple[tuple[Mapping, Fraction, Fraction], ...]:
    """The IDENTITY_DRAWS reproducible pole-free draws of the randomized
    identity suite, drawn from IDENTITY_SUITE_SEED.

    Each draw is ``(params, lhs, rhs)``: small random rationals for the free
    parameters plus a terminating n, as a read-only mapping since the draws
    are cached, and the two sides evaluated there.  A draw at which a side
    hits a pole is rejected.
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
        except PoleError:
            continue
        out.append((MappingProxyType(params), lhs, rhs))
    return tuple(out)
