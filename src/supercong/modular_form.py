"""Integer q-expansion of the weight-4 eta product eta(2z)^4 * eta(4z)^4.

The form is q * prod_{n>=1} (1 - q^(2n))^4 (1 - q^(4n))^4; its coefficients
a_n are exact integers, a_1 = 1, and a_n = 0 for every even n because all
exponents in the product are even.  The prime(-power) coefficients a_p and
a_{p^r} serve as right-hand sides of the modular supercongruence checks.

The coefficients come from two classical series identities on exact big
integers.  F(q) = prod (1 - q^n)^4 is Euler's pentagonal series times
Jacobi's series for prod (1 - q^n)^3, each with O(sqrt(N)) nonzero terms,
so F is a sparse by sparse product.  The form is q * F(q^2) * F(q^4) =
q * G(q^2) with G = F(q) * F(q^2); a_{2m+1} = g_m.  G splits by the parity
of its index into the products of F with the even and with the odd half of
F's coefficients, two half-length Kronecker substitutions on signed slots.
The result is identical to naive sequential factor-by-factor expansion and
to the seven-product chain of Euler factors; the tests keep both as their
oracles.  A bound of 10**4 takes about 0.02 s, 10**5 about 0.4 s (CPython
3.11, one core of a 2-vCPU host).  The weight-4 Hecke recursion
a_{p^2} = a_p^2 - p^3 is an external consistency fact, used only as a
cross-check, never as a source of coefficients.

The coefficients do not depend on the bound they were expanded to, so one
expansion serves every smaller index: ``prime_power_coefficient`` reads from
the widest expansion made so far in the process and expands again only when
an index lies beyond it.  ``harness.run_suite`` widens it once, up front, to
the largest p^r its cases need.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_core import check_prime

#: The largest coefficient index ever expanded.  At r = 1 a run reads a_p for
#: primes p up to the CLI's largest --pmax, which is this value; the r = 2
#: reads stop at a_{19^2} by the harness's R_CAPS.
EXPANSION_CEILING = 100000

#: Primes whose a_{p^2} is cross-checked against the Hecke recursion.
_HECKE_CHECK_MAX_P = 31


class BudgetError(ValueError):
    """A requested coefficient index exceeds EXPANSION_CEILING."""


def _ceiling_index(p: int, r: int) -> int:
    """p^r for r >= 1, or ``BudgetError`` if it exceeds EXPANSION_CEILING."""
    if r >= EXPANSION_CEILING.bit_length():  # p^r >= 2^r > EXPANSION_CEILING
        index = f"{p}^{r}"
    elif (index := p**r) <= EXPANSION_CEILING:
        return index
    raise BudgetError(f"p^r = {index} exceeds the expansion ceiling {EXPANSION_CEILING}")


def _pentagonal_terms(deg: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, sign) of prod_{n>=1} (1 - q^n) up to q^deg.

    Euler's pentagonal theorem (Hardy & Wright, Thm. 353): the product is
    sum_k (-1)^k q^(k(3k-1)/2) over all integers k, so its only nonzero
    coefficients are +-1 at the O(sqrt(deg)) exponents k(3k-+1)/2.
    """
    terms = []
    k, sign = 0, 1
    while (low := k * (3 * k - 1) // 2) <= deg:
        terms.append((low, sign))
        if k and low + k <= deg:  # k(3k+1)/2
            terms.append((low + k, sign))
        k, sign = k + 1, -sign
    return terms


def _jacobi_terms(deg: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, coefficient) of prod_{n>=1} (1 - q^n)^3 up to
    q^deg, in increasing exponent.

    Jacobi's identity (Hardy & Wright, Thm. 357): the product is
    sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2), O(sqrt(deg)) terms.
    """
    terms = []
    k = 0
    while (e := k * (k + 1) // 2) <= deg:
        terms.append((e, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return terms


def _eta_fourth_power(deg: int) -> list[int]:
    """Dense coefficients of F(q) = prod_{n>=1} (1 - q^n)^4 modulo q^(deg+1).

    F is the pentagonal series times Jacobi's series, a sparse by sparse
    product of O(sqrt(deg)) * O(sqrt(deg)) = O(deg) term pairs.
    """
    f = [0] * (deg + 1)
    jacobi = _jacobi_terms(deg)
    for e, sign in _pentagonal_terms(deg):
        for j, c in jacobi:
            if e + j > deg:
                break
            f[e + j] += sign * c
    return f


def _poly_mul_trunc(a: list[int], b: list[int], deg: int) -> list[int]:
    """Exact product of integer polynomials, truncated at q^deg.

    Kronecker substitution with signed slots (Schoenhage 1982; Harvey, JSC
    2009): each operand is packed as one signed big integer sum x_i 2^(s*i),
    its positive part minus its negative part, and the two are multiplied
    once with Python's big-int multiplication.  The slot width s leaves one
    bit above the largest possible convolution sum, so every coefficient c of
    the product satisfies |c| < 2^(s-1).  Adding 2^(s-1) to every slot makes
    all digits nonnegative, so the slots read back without borrows, each
    less 2^(s-1).  The offset spans every slot of the product and every slot
    read, which makes the result exact also for deg beyond the full degree.
    """
    n = deg + 1
    max_a = max((abs(x) for x in a), default=0)
    max_b = max((abs(x) for x in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * n
    bits = max_a.bit_length() + max_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    zero = bytes(width)

    def pack(poly: list[int]) -> int:
        pos = b"".join(x.to_bytes(width, "little") if x > 0 else zero for x in poly)
        neg = b"".join((-x).to_bytes(width, "little") if x < 0 else zero for x in poly)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    slots = max(len(a) + len(b), n)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = (pack(a) * pack(b) + offset).to_bytes(slots * width, "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") - half for i in range(n)]


@lru_cache(maxsize=None)
def eta_product_expansion(N: int) -> tuple[int, ...]:
    """Exact coefficients a_1..a_N of q * prod (1-q^(2n))^4 (1-q^(4n))^4.

    With F(q) = prod (1-q^n)^4 the form is q * F(q^2) * F(q^4) = q * G(q^2),
    G = F(q) * F(q^2), so a_{2m+1} = g_m and a_{2m} = 0.  G is needed up to
    degree M = (N-1)//2.  Splitting F(q) = E(q^2) + q * O(q^2) into its even
    and odd halves gives G(q) = (E*F)(q^2) + q * (O*F)(q^2): g_{2i} is the
    i-th coefficient of E*F and g_{2i+1} that of O*F, two half-length
    Kronecker products that skip the zero slots of F(q^2).  So
    a_{4i+1} = (E*F)_i and a_{4i+3} = (O*F)_i.  The result is the tuple
    (a_1, ..., a_N), cached per bound.
    """
    if N < 1:
        raise ValueError("expansion bound must be >= 1")
    M = (N - 1) // 2
    f = _eta_fourth_power(M)
    coeffs = [0] * N
    coeffs[::4] = _poly_mul_trunc(f[::2], f[: M // 2 + 1], M // 2)
    if M:
        coeffs[2::4] = _poly_mul_trunc(f[1::2], f[: (M + 1) // 2], (M - 1) // 2)
    return tuple(coeffs)


#: The widest expansion made so far; None until the first coefficient read.
_widest: tuple[int, ...] | None = None


def widest_expansion(n: int) -> tuple[int, ...]:
    """The widest expansion made so far, first widened to cover a_n if needed.

    Its prefix a_1..a_n equals ``eta_product_expansion(n)``.  It does not check
    n against EXPANSION_CEILING; ``prime_power_coefficient`` does.
    """
    global _widest
    expansion = _widest
    if expansion is None or len(expansion) < n:
        expansion = _widest = eta_product_expansion(n)
    return expansion


def prime_power_coefficient(p: int, r: int) -> int:
    """a_{p^r} for an odd prime p, read off the widest expansion so far.

    p^r itself is checked against EXPANSION_CEILING, whatever has been
    expanded already; an index above it raises ``BudgetError``.  For r = 2 and p <= 31 the value is additionally cross-checked
    against the weight-4 Hecke recursion a_{p^2} = a_p^2 - p^3; a mismatch
    would mean the expansion itself is broken and raises.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("the expansion has no odd-index structure at p = 2; p must be odd")
    if r < 1:
        raise ValueError("the exponent r must be a positive integer")
    index = _ceiling_index(p, r)
    expansion = widest_expansion(index)
    value = expansion[index - 1]
    if r == 2 and p <= _HECKE_CHECK_MAX_P:
        ap = expansion[p - 1]
        if value != ap * ap - p**3:
            raise RuntimeError(
                f"expansion inconsistency at p = {p}: a_p2 = {value} but a_p^2 - p^3 = {ap * ap - p ** 3}"
            )
    return value
