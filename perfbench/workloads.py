"""The benchmark's workloads: the supercong command each one runs, the number
of operations one run attempts, and the check of its output.

Seed 0 gives each workload its default inputs; any other seed picks the free
inputs from a ``random.Random`` seeded with the workload name and the seed.
The free inputs are chosen so that every seed costs about the same, which
keeps run-to-run spread down to the noise of the machine:

* ``contract`` is fixed by the project roadmap and ignores the seed.
* ``scalar_sweep`` always ends its prime window at 499 and lets the seed move
  only the lower end, within [5, 60]; the primes dropped there cost well
  under 1% of the run, since a sum at prime p has (p-1)/2 terms of growing
  size.
* ``coeffs`` lets the seed pick n in [9950, 10000]; the expansion costs about
  n^2, so n moves the cost by at most 1%.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable

#: Every case tag of the harness, in report order.
ALL_TAGS = (
    "EQ0", "THM1", "THM2", "KILBOURN", "CONJ1", "THM3", "THM4", "THM4_STRONG",
    "COMCONJ2", "CAI", "BINOM_NEG", "BINOM_POS", "BINOM_PROD", "H2_HALF",
    "ODDH2_HALF", "H2_REFLECT", "THMKEY", "COMIDEN0", "COMIDEN1", "COMIDEN2",
    "LEMMA10", "LEMMA12", "WHIPPLE_4F3", "WHIPPLE_6F5", "WHIPPLE_7F6",
    "GESSEL_31_1", "GOSPER_STRANGE", "GESSEL_P544", "EQ10_A2",
    "SIX_F_FIVE_COEFFS", "LEM_THM1_B2K", "THM3_QUOTIENT_X2", "EXACT_DIV_P",
)

#: The x-deformation cases, which scalar_sweep leaves out.
SERIES_TAGS = ("EQ10_A2", "SIX_F_FIVE_COEFFS", "LEM_THM1_B2K", "THM3_QUOTIENT_X2")
SWEEP_TAGS = tuple(t for t in ALL_TAGS if t not in SERIES_TAGS)
IDENTITY_TAGS = ("WHIPPLE_4F3", "WHIPPLE_6F5", "WHIPPLE_7F6", "GESSEL_31_1", "GOSPER_STRANGE", "GESSEL_P544")

CONTRACT_ARGS = ("verify", "--cases", "all", "--pmin", "5", "--pmax", "97", "--r", "2", "--format", "json")
CONTRACT_SHA256 = "b6783f24fc95e65ea301121c22b1e5619ae642dd87b8c7b0a2ce215234ca8686"
CONTRACT_BYTES = 306001
CONTRACT_RECORDS = 1194

SWEEP_PMIN = 5
SWEEP_PMAX = 499
COEFFS_N = 10000

WORKLOADS = ("contract", "scalar_sweep", "coeffs")


@dataclass(frozen=True)
class Plan:
    """One workload at one seed."""

    args: tuple[str, ...]  # supercong arguments; the runner appends --out PATH
    operations: int  # operations one run attempts
    check: Callable[[bytes], list[str]]  # problems in one run's output; [] if none; may raise on malformed output


def primes_in(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(hi) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def check_contract(data: bytes) -> list[str]:
    if len(data) != CONTRACT_BYTES:
        return [f"report has {len(data)} bytes, expected {CONTRACT_BYTES}"]
    digest = hashlib.sha256(data).hexdigest()
    if digest != CONTRACT_SHA256:
        return [f"report sha256 {digest}, expected {CONTRACT_SHA256}"]
    return []


def sweep_expected_counts(pmin: int, pmax: int) -> Counter:
    """Records per tag that `verify --r 1` gives for the sweep tags, pmin >= 5."""
    n_primes = len(primes_in(pmin, pmax))
    counts = Counter({tag: n_primes for tag in SWEEP_TAGS})
    counts["THMKEY"] = 3 * n_primes  # exponents s = 1, 2, 3
    counts["COMIDEN0"] = 199  # n = 2..200, independent of the primes
    for tag in IDENTITY_TAGS:
        counts[tag] = 50  # fixed-seed draws
    return counts


def check_sweep(data: bytes, expected: Counter) -> list[str]:
    records = json.loads(data)
    problems = []
    errors = [r for r in records if str(r["achieved"]).startswith("error:")]
    if errors:
        problems.append(f"{len(errors)} error records, first {errors[0]['case']} p={errors[0]['p']}")
    wrong = [r for r in records if not r["pass"] and not r["conjectural"]]
    if wrong:
        problems.append(f"{len(wrong)} failed non-conjectural records, first {wrong[0]['case']} p={wrong[0]['p']}")
    got = Counter(r["case"] for r in records)
    if got != expected:
        diff = {t: got[t] - expected[t] for t in set(got) | set(expected) if got[t] != expected[t]}
        problems.append(f"{len(records)} records, expected {sum(expected.values())}; off by tag {diff}")
    return problems


def _divisor_counts(n: int) -> list[int]:
    d = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i, n + 1, i):
            d[j] += 1
    return d


def check_coeffs(data: bytes, n: int) -> list[str]:
    """Check a_1..a_n of the level-8 weight-4 newform eta(2z)^4 eta(4z)^4.

    a_1 = 1; a_m = 0 for even m; the Hecke recursion at every odd prime
    power; a_{mk} = a_m a_k for every coprime pair of odd m, k > 1; and the
    Deligne bound |a_m| <= d(m) m^(3/2), the only check that reaches the
    primes above n/3.
    """
    lines = data.decode("ascii", "replace").splitlines()
    if len(lines) != n:
        return [f"{len(lines)} lines, expected {n}"]
    a = [0] * (n + 1)
    for i, line in enumerate(lines, start=1):
        fields = line.split()
        if len(fields) != 2 or fields[0] != str(i):
            return [f"line {i} reads {line!r}"]
        a[i] = int(fields[1])
    problems = []
    if a[1] != 1:
        problems.append(f"a_1 = {a[1]}")
    problems += [f"a_{m} = {a[m]} for even m" for m in range(2, n + 1, 2) if a[m] != 0]
    for p in primes_in(3, isqrt(n)):
        prev, cur, q = 1, a[p], p
        while q * p <= n:
            want = a[p] * cur - p**3 * prev
            if a[q * p] != want:
                problems.append(f"Hecke: a_{q * p} = {a[q * p]}, expected {want}")
            prev, cur, q = cur, a[q * p], q * p
    for m in range(3, isqrt(n) + 1, 2):
        for k in range(m + 2, n // m + 1, 2):
            if gcd(m, k) == 1 and a[m * k] != a[m] * a[k]:
                problems.append(f"multiplicativity: a_{m * k} != a_{m} a_{k}")
    d = _divisor_counts(n)
    problems += [f"Deligne bound fails at a_{m}" for m in range(1, n + 1) if a[m] ** 2 > d[m] ** 2 * m**3]
    return problems[:10]


def plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "contract":
        return Plan(CONTRACT_ARGS, CONTRACT_RECORDS, check_contract)
    if workload == "scalar_sweep":
        pmin = SWEEP_PMIN if seed == 0 else rng.randint(SWEEP_PMIN, 60)
        expected = sweep_expected_counts(pmin, SWEEP_PMAX)
        args = (
            "verify", "--cases", ",".join(SWEEP_TAGS), "--pmin", str(pmin),
            "--pmax", str(SWEEP_PMAX), "--r", "1", "--format", "json",
        )
        return Plan(args, sum(expected.values()), lambda data: check_sweep(data, expected))
    if workload == "coeffs":
        n = COEFFS_N if seed == 0 else rng.randint(COEFFS_N - 50, COEFFS_N)
        return Plan(("coeffs", "--n", str(n)), n, lambda data: check_coeffs(data, n))
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
