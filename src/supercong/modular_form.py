"""Integer q-expansion of the weight-4 eta product eta(2z)^4 * eta(4z)^4.

The form is q * prod_{n>=1} (1 - q^(2n))^4 (1 - q^(4n))^4; its coefficients
a_n are exact integers, a_1 = 1, and a_n = 0 for every even n because all
exponents in the product are even.  The prime(-power) coefficients a_p and
a_{p^r} serve as right-hand sides of the modular supercongruence checks.

Ground truth is always the direct expansion of the truncated product, on
exact big integers.  The two Euler factors prod (1 - q^(2n)) and
prod (1 - q^(4n)) are written down directly by Euler's pentagonal theorem,
O(sqrt(N)) signs each; their fourth powers and the cross product use
Kronecker-substitution polynomial multiplication.  The result is identical
to naive sequential factor-by-factor expansion (the tests keep that loop as
their oracle), and a bound of 10**4 takes well under a second, most of it in
the Kronecker products.  The weight-4 Hecke recursion
a_{p^2} = a_p^2 - p^3 is an external consistency fact, used only as a
cross-check, never as a source of coefficients.

The coefficients do not depend on the bound they were expanded to, so one
expansion serves every smaller index: ``prime_power_coefficient`` reads from
the widest expansion made so far in the process and expands again only when
an index lies beyond it.  ``harness.run_suite`` widens it once, up front, to
the largest p^r its cases need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact_core import check_prime

#: Default expansion ceiling.  At r = 1 a run reads a_p for primes p up to
#: the CLI's largest --pmax, cli.MAX_PMAX, which is defined as this value;
#: the r = 2 reads stop at a_{19^2} by the harness's R_CAPS.
DEFAULT_BUDGET = 100000

#: Primes whose a_{p^2} is cross-checked against the Hecke recursion.
_HECKE_CHECK_MAX_P = 31


class BudgetError(ValueError):
    """A requested coefficient index exceeds the configured expansion budget."""


@dataclass(frozen=True)
class QExpansion:
    """Coefficients a_1..a_bound of the eta-product q-expansion."""

    bound: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.bound < 1 or len(self.coeffs) != self.bound:
            raise ValueError("coefficient array must hold exactly a_1..a_bound")


def coefficient_at(e: QExpansion, n: int) -> int:
    """a_n for 1 <= n <= bound."""
    if n < 1 or n > e.bound:
        raise IndexError(f"index {n} outside expansion range 1..{e.bound}")
    return e.coeffs[n - 1]


def _euler_factor_product(step: int, deg: int) -> list[int]:
    """Dense coefficients of prod_{n>=1} (1 - q^(step*n)) modulo q^(deg+1).

    Euler's pentagonal theorem (Hardy & Wright, Thm. 353): the product is
    sum_k (-1)^k q^(step*k(3k-1)/2) over all integers k, so the only nonzero
    coefficients are +-1 at the O(sqrt(deg)) exponents step*k(3k-+1)/2.
    """
    c = [0] * (deg + 1)
    k, sign = 0, 1
    while (low := step * k * (3 * k - 1) // 2) <= deg:
        c[low] = sign
        if low + step * k <= deg:  # step*k(3k+1)/2
            c[low + step * k] = sign
        k, sign = k + 1, -sign
    return c


def _poly_mul_trunc(a: list[int], b: list[int], deg: int) -> list[int]:
    """Exact product of integer polynomials, truncated at q^deg.

    Kronecker substitution: coefficients are packed into fixed-width slots of
    one big integer per sign part, multiplied with Python's big-int
    multiplication, and unpacked.  The slot width is chosen so no convolution
    sum can overflow its slot, which makes the result exact.
    """
    n = deg + 1
    max_a = max((abs(x) for x in a), default=0)
    max_b = max((abs(x) for x in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * n
    bits = max_a.bit_length() + max_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8

    def pack(poly: list[int]) -> int:
        return int.from_bytes(
            b"".join(x.to_bytes(width, "little") for x in poly), "little"
        )

    def unpack(value: int) -> list[int]:
        raw = value.to_bytes(max((value.bit_length() + 7) // 8, n * width), "little")
        return [
            int.from_bytes(raw[i * width : (i + 1) * width], "little")
            for i in range(n)
        ]

    a_pos = [x if x > 0 else 0 for x in a]
    a_neg = [-x if x < 0 else 0 for x in a]
    b_pos = [x if x > 0 else 0 for x in b]
    b_neg = [-x if x < 0 else 0 for x in b]
    pp = unpack(pack(a_pos) * pack(b_pos))
    nn = unpack(pack(a_neg) * pack(b_neg))
    pn = unpack(pack(a_pos) * pack(b_neg))
    np_ = unpack(pack(a_neg) * pack(b_pos))
    return [pp[i] + nn[i] - pn[i] - np_[i] for i in range(n)]


@lru_cache(maxsize=None)
def eta_product_expansion(N: int) -> QExpansion:
    """Exact coefficients a_1..a_N of q * prod (1-q^(2n))^4 (1-q^(4n))^4.

    Factors with 2n > N (resp. 4n > N) cannot touch degrees <= N and are
    skipped.  Results are cached per bound; a QExpansion is immutable.
    """
    if N < 1:
        raise ValueError("expansion bound must be >= 1")
    deg = N - 1  # the leading q shifts everything up by one
    e2 = _euler_factor_product(2, deg)
    e4 = _euler_factor_product(4, deg)
    e2_4 = _poly_mul_trunc(_poly_mul_trunc(e2, e2, deg), _poly_mul_trunc(e2, e2, deg), deg)
    e4_4 = _poly_mul_trunc(_poly_mul_trunc(e4, e4, deg), _poly_mul_trunc(e4, e4, deg), deg)
    product = _poly_mul_trunc(e2_4, e4_4, deg)
    return QExpansion(bound=N, coeffs=tuple(product))


#: The widest expansion made so far; None until the first coefficient read.
_widest: QExpansion | None = None


def widest_expansion(n: int) -> QExpansion:
    """The widest expansion made so far, first widened to cover a_n if needed.

    Its prefix a_1..a_n equals ``eta_product_expansion(n)``; the budget is the
    caller's to check.
    """
    global _widest
    expansion = _widest
    if expansion is None or expansion.bound < n:
        expansion = _widest = eta_product_expansion(n)
    return expansion


def prime_power_coefficient(p: int, r: int, budget: int = DEFAULT_BUDGET) -> int:
    """a_{p^r} for an odd prime p, read off the widest expansion so far.

    The budget is checked against p^r itself, whatever has been expanded
    already.  For r = 2 and p <= 31 the value is additionally cross-checked
    against the weight-4 Hecke recursion a_{p^2} = a_p^2 - p^3; a mismatch
    would mean the expansion itself is broken and raises.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("the expansion has no odd-index structure at p = 2; p must be odd")
    if r < 1:
        raise ValueError("the exponent r must be a positive integer")
    index = p**r
    if index > budget:
        raise BudgetError(f"p^r = {index} exceeds the expansion budget {budget}")
    expansion = widest_expansion(index)
    value = coefficient_at(expansion, index)
    if r == 2 and p <= _HECKE_CHECK_MAX_P:
        ap = coefficient_at(expansion, p)
        if value != ap * ap - p**3:
            raise RuntimeError(
                f"expansion inconsistency at p = {p}: a_p2 = {value} but a_p^2 - p^3 = {ap * ap - p ** 3}"
            )
    return value
