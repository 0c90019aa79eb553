"""Direct definitions of the p-independent sequences, kept as test oracles.

The harness reads these values off its shared per-process tables; the tests
check those tables, and the cases built on them, against these sums.
"""

from fractions import Fraction
from math import factorial

from supercong.exact_core import rising_factorial


def central_half_ratio(k: int) -> Fraction:
    """(1/2)_k / k!, which also equals 4**-k * C(2k, k)."""
    return rising_factorial(Fraction(1, 2), k) / factorial(k)


def harmonic2(k: int) -> Fraction:
    """Generalized harmonic number of order two: sum of 1/j^2 for 1 <= j <= k."""
    if k < 0:
        raise ValueError("harmonic sum needs k >= 0")
    return sum((Fraction(1, j * j) for j in range(1, k + 1)), Fraction(0))


def odd_harmonic2(k: int) -> Fraction:
    """Sum of 1/(2j-1)^2 for 1 <= j <= k (squares of odd reciprocals)."""
    if k < 0:
        raise ValueError("harmonic sum needs k >= 0")
    return sum((Fraction(1, (2 * j - 1) ** 2) for j in range(1, k + 1)), Fraction(0))
