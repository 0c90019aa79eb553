"""Acceptance suite: every criterion at its stated tolerance, one line each.

Valuations are integers and every comparison is exact, so the tolerances are
all zero; the stated limits are on wall time only.  Run with ``pytest -s
tests/test_acceptance.py`` to watch the per-criterion lines.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial

from supercong.cli import main
from supercong.exact_core import (
    is_prime,
    padic_valuation,
)
from supercong.harness import (
    verify_congruence_case,
    verify_exact_case,
    verify_series_case,
)
from supercong.hypergeometric import IdentityId, sample_identity_params
from supercong.modular_form import prime_power_coefficient
from supercong.power_series import coefficient

from oracles import check_identity, harmonic2, odd_harmonic2, pochhammer_series, ps_mul, stepwise_rising_factorial

PRIMES = [p for p in range(5, 98) if is_prime(p)]
HALF = F(1, 2)


@contextmanager
def criterion(number, label, time_bound):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < time_bound, f"runtime {elapsed:.1f}s exceeds {time_bound}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d} {status}  {label} ({elapsed:.1f}s / {time_bound}s)")


def test_criterion_01_alternating_cube_sum():
    with criterion(1, "alternating (4k+1) cube sum vs signed p, v >= 3", 1.0):
        spot = verify_congruence_case("EQ0", 5)
        assert spot.lhs == F(435, 512)
        for p in PRIMES:
            rec = verify_congruence_case("EQ0", p)
            assert rec.passed and rec.achieved >= 3


def test_criterion_02_quartic_sum_prime_powers():
    with criterion(2, "(4k+1) quartic sum vs p^r, v >= 3+r", 60.0):
        spot = verify_congruence_case("THM1", 5, 1)
        assert spot.lhs == F(6105, 4096) and spot.achieved == 4
        for p in PRIMES:
            assert verify_congruence_case("THM1", p, 1).passed
        for p in PRIMES:
            if p <= 31:
                rec = verify_congruence_case("THM1", p, 2)
                assert rec.passed and rec.achieved >= 5


def test_criterion_03_sextic_sum_and_quartic_vs_eta_coefficients():
    with criterion(3, "(4k+1) sextic sum vs p*a_p (v>=4) and quartic vs a_p (v>=3)", 30.0):
        assert prime_power_coefficient(5, 1) == -2
        assert prime_power_coefficient(7, 1) == 24
        spot = verify_congruence_case("THM2", 5)
        assert spot.lhs == F(289185, 262144) and spot.achieved == 4
        for p in PRIMES:
            assert verify_congruence_case("THM2", p).passed
            rec = verify_congruence_case("KILBOURN", p)
            assert rec.passed and rec.achieved >= 3


def test_criterion_04_prime_square_conjecture():
    with criterion(4, "sextic sum vs p^2*a_{p^2} for p <= 19 (conjectural), v >= 5", 120.0):
        assert prime_power_coefficient(5, 2) == -121
        for p in (5, 7, 11, 13, 17, 19):
            rec = verify_congruence_case("CONJ1", p, 2)
            assert rec.passed and rec.conjectural and rec.achieved >= 5


def test_criterion_05_six_k_plus_one_quarter_argument():
    with criterion(5, "(6k+1) cube sum at 4^-k vs signed p, v >= 4", 10.0):
        spot = verify_congruence_case("THM3", 5)
        assert spot.lhs == F(10335, 8192) and spot.achieved == 4
        for p in PRIMES:
            assert verify_congruence_case("THM3", p).passed


def test_criterion_06_six_k_plus_one_eighth_argument():
    with criterion(6, "(6k+1) cube sum at (-1/8)^k: v >= 2, v >= 3 conj, harmonic twist v >= 1", 10.0):
        spot = verify_congruence_case("THM4", 5)
        assert spot.lhs == F(29535, 32768) and spot.achieved == 3
        for p in PRIMES:
            assert verify_congruence_case("THM4", p).passed
            strong = verify_congruence_case("THM4_STRONG", p)
            assert strong.passed and strong.conjectural
            assert verify_congruence_case("COMCONJ2", p).passed


def test_criterion_07_exact_identities():
    with criterion(7, "exact combinatorial identities and randomized identity suite", 60.0):
        for n in range(2, 201):
            assert verify_exact_case("COMIDEN0", n).passed
        for n in range(1, 98, 2):
            assert verify_exact_case("COMIDEN1", n).passed
            assert verify_exact_case("COMIDEN2", n).passed
        for p in PRIMES:
            assert verify_exact_case("LEMMA10", p=p).passed
            assert verify_exact_case("LEMMA12", p=p).passed
        for identity in IdentityId:
            draws = sample_identity_params(identity, 50)
            assert len(draws) == 50
            assert all(check_identity(identity, params) for params in draws)


def test_criterion_08_deformation_suite():
    with criterion(8, "deformation coefficient formulas and series divisibility", 60.0):
        for k in range(41):
            odd_h1 = sum((F(1, 2 * j - 1) for j in range(1, k + 1)), F(0))
            rf = stepwise_rising_factorial(HALF, k)
            assert coefficient(pochhammer_series(HALF, 1, k, 1), 1) == rf * 2 * odd_h1
            pair = ps_mul(
                pochhammer_series(HALF, 1, k, 4), pochhammer_series(HALF, -1, k, 4)
            )
            assert coefficient(pair, 1) == 0 and coefficient(pair, 3) == 0
            assert coefficient(pair, 0) == rf**2
            assert coefficient(pair, 2) == -4 * rf**2 * odd_harmonic2(k)
            unit_pair = ps_mul(
                pochhammer_series(1, 1, k, 2), pochhammer_series(1, -1, k, 2)
            )
            assert coefficient(unit_pair, 2) == -F(factorial(k)) ** 2 * harmonic2(k)
        for p in PRIMES:
            for tag in ("EQ10_A2", "SIX_F_FIVE_COEFFS", "LEM_THM1_B2K", "THM3_QUOTIENT_X2"):
                assert verify_series_case(tag, p).passed, (tag, p)
            # resolved: the normalized quarter-shift product carries exactly
            # one factor of p for every p in range (required == "v==1")
            rec = verify_series_case("EXACT_DIV_P", p)
            assert rec.achieved == 1 and rec.passed


def test_criterion_09_congruence_lemmas():
    with criterion(9, "central binomial, Pochhammer-pair, and harmonic congruences", 60.0):
        spot = verify_congruence_case("CAI", 5, 1)
        assert spot.lhs == 6 and padic_valuation(F(6 - 2**8), 5) == 3
        for p in PRIMES:
            assert verify_congruence_case("CAI", p, 1).passed
            for tag in ("BINOM_NEG", "BINOM_POS", "BINOM_PROD"):
                assert verify_congruence_case(tag, p, 1).passed
            assert verify_congruence_case("H2_HALF", p).passed
            assert verify_congruence_case("ODDH2_HALF", p).passed
            assert verify_congruence_case("H2_REFLECT", p).passed
            for s in (1, 2, 3):
                assert verify_congruence_case("THMKEY", p, s).passed
            if p <= 31:
                assert verify_congruence_case("CAI", p, 2).passed
                for tag in ("BINOM_NEG", "BINOM_POS", "BINOM_PROD"):
                    assert verify_congruence_case(tag, p, 2).passed


def test_criterion_10_end_to_end_cli(tmp_path):
    with criterion(10, "CLI full run over 5..97 exits 0 with a clean report", 300.0):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--cases", "all", "--pmin", "5", "--pmax", "97",
            "--r", "1", "--out", str(out),
        ])
        assert code == 0
        entries = json.loads(out.read_text())
        assert entries
        assert not any(not e["pass"] and not e["conjectural"] for e in entries)


def test_contract_report_is_pinned(tmp_path):
    # The roadmap's contract: run in-process after the other tests, with the
    # per-process tables already grown, so it also pins order independence.
    with criterion(11, "contract report: 306,001 bytes, fixed sha256", 60.0):
        out = tmp_path / "contract.json"
        code = main([
            "verify", "--cases", "all", "--pmin", "5", "--pmax", "97",
            "--r", "2", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = out.read_bytes()
        assert len(data) == 306001
        assert hashlib.sha256(data).hexdigest() == (
            "b6783f24fc95e65ea301121c22b1e5619ae642dd87b8c7b0a2ce215234ca8686"
        )


def test_exact_case_report_over_the_sweep_window_is_pinned(tmp_path):
    # The exact cases over the primes 5..499; the contract stops at p = 97.
    out = tmp_path / "exact.json"
    code = main([
        "verify", "--cases",
        "COMIDEN0,COMIDEN1,COMIDEN2,EXACT_DIV_P,WHIPPLE_4F3,WHIPPLE_6F5,WHIPPLE_7F6,"
        "GESSEL_31_1,GOSPER_STRANGE,GESSEL_P544",
        "--pmin", "5", "--pmax", "499", "--r", "1", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    data = out.read_bytes()
    assert len(data) == 196552
    assert hashlib.sha256(data).hexdigest() == (
        "c2e5accda0f8e64357c42a246573a86377760c357329836ccb6c275625db8d35"
    )
