import importlib.util
import re
import sys
import time
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest
import sympy as sp

from supercong import harness, hypergeometric
from supercong.exact_core import (
    INFINITY,
    NotPrimeError,
    is_prime,
    padic_valuation,
)
from supercong.harness import (
    CASE_ORDER,
    CASES,
    IDENTITY_DRAWS,
    R_CAPS,
    Requirement,
    report_entry,
    run_suite,
    select_cases,
    verify_congruence_case,
    verify_exact_case,
)
from supercong.harness import SERIES_ORDER, eq10_series_spec, six_f_five_series_spec, thm3_deformed_spec
from supercong.hypergeometric import (
    IDENTITIES,
    HypSum,
    PoleError,
    eval_hyp_sum,
    eval_hyp_sum_series,
    identity_sides,
    sample_identity_params,
)

from oracles import (
    binom_pair,
    central_half_ratio,
    comiden0_term_sum,
    harmonic2,
    lem_thm1_term_series,
    record_roots,
    scalarized,
    series_case_specs,
    specialize,
    stepwise_rising_factorial,
    weakest_binom_pair,
    weakest_h2_reflect_pair,
)

HALF = F(1, 2)


def to_fraction(value) -> F:
    value = sp.nsimplify(value)
    return F(int(value.p), int(value.q))


def sympy_deformed_sum(p, slopes_num, slopes_den, z, weight):
    """Independent oracle: build the deformed sum symbolically in sympy.

    slopes_num/slopes_den list (base, slope) pairs; term k multiplies
    prod (base + slope*x + i) over i < k, with the usual k! and weight.
    """
    x = sp.symbols("x")
    total = sp.Integer(0)
    for k in range((p - 1) // 2 + 1):
        num = sp.Integer(1)
        den = sp.factorial(k)
        for base, slope in slopes_num:
            for i in range(k):
                num *= sp.nsimplify(base) + sp.nsimplify(slope) * x + i
        for base, slope in slopes_den:
            for i in range(k):
                den *= sp.nsimplify(base) + sp.nsimplify(slope) * x + i
        total += (weight[0] * k + weight[1]) * num / den * sp.nsimplify(z) ** k
    return sp.cancel(sp.together(total)), x


# ---------------------------------------------------------------------------
# congruence cases
# ---------------------------------------------------------------------------


def test_eq0_spot_record():
    rec = verify_congruence_case("EQ0", 5)
    assert rec.lhs == F(435, 512)
    assert rec.rhs == 5
    assert rec.achieved == 3 and rec.passed and not rec.conjectural
    assert rec.required == Requirement("val_ge", 3)
    # 435/512 - 5 = -5^3 * 17 / 512
    assert rec.lhs - rec.rhs == F(-(5**3) * 17, 512)


def test_thm1_spot_records():
    rec = verify_congruence_case("THM1", 5, 1)
    assert rec.lhs == F(6105, 4096) and rec.rhs == 5
    assert rec.achieved == 4 and rec.passed
    assert rec.lhs - rec.rhs == F(-(5**4) * 23, 4096)
    rec = verify_congruence_case("THM1", 5, 2)
    assert rec.rhs == 25 and rec.required == Requirement("val_ge", 5) and rec.passed


def test_thm2_spot_record():
    rec = verify_congruence_case("THM2", 5)
    assert rec.lhs == F(289185, 262144) and rec.rhs == -10
    assert rec.achieved == 4 and rec.passed
    assert rec.lhs - rec.rhs == F(5**4 * 4657, 262144)


def test_kilbourn_spot_records():
    rec = verify_congruence_case("KILBOURN", 5)
    assert rec.lhs == F(4433, 4096) and rec.rhs == -2 and rec.achieved == 3
    rec3 = verify_congruence_case("KILBOURN", 3)
    assert rec3.lhs == F(17, 16) and rec3.rhs == -4 and rec3.achieved == 4 and rec3.passed


def test_thm3_thm4_spot_records():
    rec = verify_congruence_case("THM3", 5)
    assert rec.lhs == F(10335, 8192) and rec.rhs == 5 and rec.achieved == 4
    rec = verify_congruence_case("THM4", 5)
    assert rec.lhs == F(29535, 32768) and rec.rhs == -5
    assert rec.achieved == 3 and rec.passed  # sharper than the required 2, not clamped
    strong = verify_congruence_case("THM4_STRONG", 5)
    assert strong.required == Requirement("val_ge", 3) and strong.passed and strong.conjectural


def test_conj1_records():
    rec = verify_congruence_case("CONJ1", 5, 2)
    assert rec.rhs == 25 * -121 and rec.required == Requirement("val_ge", 5)
    assert rec.passed and rec.conjectural


def test_comconj2_record():
    # brute-force oracle for the harmonic-weighted sum
    m = 2
    total = F(0)
    for k in range(m + 1):
        oh2 = sum((F(1, (2 * j - 1) ** 2) for j in range(1, k + 1)), F(0))
        h2 = sum((F(1, j * j) for j in range(1, k + 1)), F(0))
        total += (6 * k + 1) * central_half_ratio(k) ** 3 * (oh2 - h2 / 16) * F(-1, 8) ** k
    rec = verify_congruence_case("COMCONJ2", 5)
    assert rec.lhs == total == F(-191835, 2097152)
    assert rec.achieved == 1 and rec.passed and rec.conjectural


def test_cai_spot_record():
    rec = verify_congruence_case("CAI", 5, 1)
    assert rec.lhs == 6 and rec.rhs == F(9, 64)
    assert rec.achieved == 3 and rec.passed
    # equivalent classical form: C(p-1, (p-1)/2) = (-1)^((p-1)/2) 4^(p-1) mod p^3
    assert padic_valuation(F(6 - 2**8), 5) == 3


def test_binom_family_records():
    rec = verify_congruence_case("BINOM_NEG", 5, 1)
    worst = min(
        padic_valuation(F((-1) ** k * comb(2, k)) - central_half_ratio(k), 5)
        for k in (1, 2)
    )
    assert rec.achieved == worst == 1 and rec.passed
    rec = verify_congruence_case("BINOM_POS", 5, 1)
    assert rec.achieved == 1 and rec.passed
    rec = verify_congruence_case("BINOM_PROD", 5, 1)
    assert rec.achieved == 2 and rec.passed
    # weakest pair is k = 1: -C(2,1)C(3,1) = -6 vs (1/2)^2, difference -25/4
    assert rec.lhs == -6 and rec.rhs == F(1, 4)


BINOM_TAGS = ("BINOM_NEG", "BINOM_POS", "BINOM_PROD")


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


@pytest.mark.parametrize("r, pmax", [(1, 199), (2, 31)])
def test_binomial_records_match_closed_forms(r, pmax):
    # c_k = C(2k, k)/4^k; a family record keeps the first k of least valuation
    for p in _primes(5, pmax):
        M = (p**r - 1) // 2
        cai = verify_congruence_case("CAI", p, r)
        lhs, rhs = F((-1) ** M * comb(p**r - 1, M)), F(comb(2 * M, M), 4**M) ** 2
        assert (cai.lhs, cai.rhs, cai.achieved) == (lhs, rhs, padic_valuation(lhs - rhs, p)), p
        for tag in BINOM_TAGS:
            rec = verify_congruence_case(tag, p, r)
            assert (rec.lhs, rec.rhs, rec.achieved) == weakest_binom_pair(tag, p, r), (tag, p)


@pytest.mark.parametrize("r", [1, 2])
def test_binomial_records_with_every_k_resolved_exactly(monkeypatch, r):
    # Residues of one digit agree at every k whose congruence holds mod p, so
    # each such k takes its valuation from its exact pair.
    monkeypatch.setattr(harness, "_RESIDUE_DIGITS", 1)
    resolved = []

    def counting_valuation(x, p):
        resolved.append(p)
        return padic_valuation(x, p)

    monkeypatch.setattr(harness, "padic_valuation", counting_valuation)
    for p in _primes(5, 31):
        for tag in BINOM_TAGS:
            rec = verify_congruence_case(tag, p, r)
            assert (rec.lhs, rec.rhs, rec.achieved) == weakest_binom_pair(tag, p, r), (tag, p)
    assert len(resolved) > 3 * len(_primes(5, 31)), "no k was resolved exactly"


def test_binomial_residue_mismatch_is_a_bug(monkeypatch):
    # An exact pair that contradicts the residue search raises AssertionError,
    # which run_suite does not turn into a record.  At p = 5 no k falls back
    # to its exact pair, so only the weakest k's build reads the stub.
    monkeypatch.setattr(harness, "_binom_pair", lambda uppers, k: (F(1), F(0)))
    with pytest.raises(AssertionError, match="residue valuation 1, exact valuation 0"):
        run_suite([5], cases=["BINOM_NEG"])


def _searched_valuations(monkeypatch) -> list:
    """Record the per-k valuations each case hands the weakest-k search.

    The search itself is skipped, so that a wrong valuation fails on the
    comparison with its exact pair, not on the search's own check of the
    weakest k; the record built from k = 1 is not read.
    """
    searched = []

    def recording(p, valuations, exact_pair):
        searched.append(valuations)
        return (*exact_pair(1), valuations[0])

    monkeypatch.setattr(harness, "_weakest_k", recording)
    return searched


@pytest.mark.parametrize("r", [1, 2])
def test_every_k_of_the_binomial_search_matches_its_exact_pair(monkeypatch, r):
    # A record shows only the weakest k, so a wrong valuation at any other k
    # would hide there; here every k <= M is checked against the closed forms.
    searched = _searched_valuations(monkeypatch)
    for p in _primes(5, 31):
        M = (p**r - 1) // 2
        for tag in BINOM_TAGS:
            searched.clear()
            verify_congruence_case(tag, p, r)
            exact = [padic_valuation(lhs - rhs, p) for lhs, rhs in (binom_pair(tag, M, k) for k in range(1, M + 1))]
            assert searched == [exact], (tag, p)


def test_every_k_of_the_h2_reflect_search_matches_its_exact_sum(monkeypatch):
    searched = _searched_valuations(monkeypatch)
    for p in _primes(5, 97):
        searched.clear()
        verify_congruence_case("H2_REFLECT", p)
        exact = [padic_valuation(harmonic2(k) + harmonic2(p - 1 - k), p) for k in range(1, (p + 1) // 2)]
        assert searched == [exact], p


@pytest.mark.slow
def test_binomial_records_match_closed_forms_above_the_r2_caps():
    # r = 2 runs above p = 31 only through direct calls; the oracle takes seconds here
    for p in _primes(37, 61):
        for tag in BINOM_TAGS:
            rec = verify_congruence_case(tag, p, 2)
            assert (rec.lhs, rec.rhs, rec.achieved) == weakest_binom_pair(tag, p, 2), (tag, p)


def test_h2_reflect_records_with_every_k_resolved_exactly(monkeypatch):
    # H2(k) + H2(p-1-k) = 0 mod p at every k, so with one digit every pair
    # vanishes on residues and takes its valuation from its exact sum.
    monkeypatch.setattr(harness, "_RESIDUE_DIGITS", 1)
    resolved = []

    def counting_valuation(x, p):
        resolved.append(p)
        return padic_valuation(x, p)

    monkeypatch.setattr(harness, "padic_valuation", counting_valuation)
    primes = _primes(5, 97)
    for p in primes:
        rec = verify_congruence_case("H2_REFLECT", p)
        assert (rec.lhs, rec.rhs, rec.achieved) == weakest_h2_reflect_pair(p), p
    # one exact valuation per k <= (p-1)/2, and one for the weakest k's record
    assert len(resolved) == sum((p - 1) // 2 + 1 for p in primes)


def test_h2_reflect_residue_mismatch_is_a_bug(monkeypatch):
    # An exact pair that contradicts the residue search raises AssertionError,
    # which run_suite does not turn into a record.
    monkeypatch.setattr(harness, "_h2", lambda k: F(1))
    with pytest.raises(AssertionError, match="residue valuation 1, exact valuation 0"):
        run_suite([5], cases=["H2_REFLECT"])


def test_harmonic_case_records():
    assert verify_congruence_case("H2_HALF", 5).lhs == harmonic2(2) == F(5, 4)
    assert verify_congruence_case("H2_HALF", 5).passed
    assert verify_congruence_case("ODDH2_HALF", 5).lhs == F(10, 9)
    rec = verify_congruence_case("H2_REFLECT", 5)
    assert rec.passed and rec.achieved >= 1


def test_thmkey_spot_record():
    rec = verify_congruence_case("THMKEY", 5, 1)
    assert rec.lhs == F(4725, 9216)  # = 525/1024 in lowest terms
    assert rec.achieved == 2 and rec.passed
    for s in (2, 3):
        assert verify_congruence_case("THMKEY", 5, s).passed


def test_congruence_case_validation():
    with pytest.raises(KeyError):
        verify_congruence_case("NOPE", 5)
    with pytest.raises(NotPrimeError):
        verify_congruence_case("EQ0", 6)
    with pytest.raises(ValueError):
        verify_congruence_case("EQ0", 3)
    with pytest.raises(ValueError):
        verify_congruence_case("THM1", 2)


# ---------------------------------------------------------------------------
# exact cases
# ---------------------------------------------------------------------------


def test_comiden0_records():
    rec = verify_exact_case("COMIDEN0", 2)
    # 5 * (1 - 2 + 6/5) = 1
    assert rec.lhs == 5 * (1 - 2 + F(6, 5)) == 1 and rec.passed
    for n in range(2, 60):
        assert verify_exact_case("COMIDEN0", n).passed
    with pytest.raises(ValueError):
        verify_exact_case("COMIDEN0", 1)


@pytest.mark.parametrize("ns", [range(2, 401), [2000]], ids=["n=2..400", "n=2000"])
def test_comiden0_matches_term_by_term_sum(ns):
    # (-n)_k/k! = (-1)^k C(n,k), (n+1)_k/k! = C(n+k,k), (1/2)_k/(3/2)_k = 1/(2k+1): the 3F2 is the sum term for term
    for n in ns:
        rec = verify_exact_case("COMIDEN0", n)
        assert rec.lhs == (2 * n + 1) * comiden0_term_sum(n)
        assert rec.passed


def test_comiden1_spot_record():
    rec = verify_exact_case("COMIDEN1", 5)
    assert rec.lhs == (F(5, 16) * F(3, 4)) / (F(-1, 4) * F(-3, 16)) == 5
    assert rec.rhs == 5 and rec.passed
    with pytest.raises(ValueError):
        verify_exact_case("COMIDEN1", 4)


def test_comiden2_spot_record():
    rec = verify_exact_case("COMIDEN2", 5)
    assert rec.lhs == stepwise_rising_factorial(F(1, 4), 2) / stepwise_rising_factorial(F(-1, 2), 2) * 4 == -5
    assert rec.rhs == -5 and rec.passed


def test_comiden_hold_for_all_odd_n():
    for n in range(1, 98, 2):
        assert verify_exact_case("COMIDEN1", n).passed
        assert verify_exact_case("COMIDEN2", n).passed


def test_lemma10_and_lemma12_records():
    rec = verify_exact_case("LEMMA10", p=5)
    assert rec.lhs == rec.rhs == 5 and rec.passed
    rec = verify_exact_case("LEMMA12", p=5)
    assert rec.lhs == rec.rhs == -5 and rec.passed
    for p in (7, 11, 13):
        assert verify_exact_case("LEMMA10", p=p).passed
        assert verify_exact_case("LEMMA12", p=p).passed
    with pytest.raises(ValueError):
        verify_exact_case("LEMMA10")
    with pytest.raises(ValueError):
        verify_exact_case("LEMMA10", p=3)


def test_identity_cases_by_draw_and_explicit_params():
    rec = verify_exact_case("WHIPPLE_4F3", 0)
    assert rec.passed and rec.p == 0 and rec.param == 0
    # an explicit point goes to the one validator of a record, not to a case,
    # so no record can hold one point's sides under another draw's index
    assert identity_sides("WHIPPLE_4F3", {"a": HALF, "c": F(3), "n": 2}) == (5, 5)
    with pytest.raises(TypeError):
        verify_exact_case("WHIPPLE_4F3", 7, params={"a": HALF, "c": F(3), "n": 2})
    with pytest.raises(KeyError):
        verify_exact_case("NOT_A_CASE", 0)


@pytest.mark.parametrize(
    "tag, kwargs, message",
    [
        ("COMIDEN0", {"param": 2, "p": 7}, "case COMIDEN0 takes no prime p"),
        ("COMIDEN1", {"param": 5, "p": 7}, "case COMIDEN1 takes no prime p"),
        ("WHIPPLE_4F3", {"param": 0, "p": 5}, "case WHIPPLE_4F3 takes no prime p"),
        ("GOSPER_STRANGE", {"param": IDENTITY_DRAWS}, "case GOSPER_STRANGE takes param in"),
        ("COMIDEN0", {"param": 2.7}, "case COMIDEN0 takes an integer param, got 2.7"),
        ("COMIDEN1", {"param": True}, "case COMIDEN1 takes an integer param, got True"),
        ("COMIDEN0", {"param": "3"}, "case COMIDEN0 takes an integer param, got '3'"),
        ("WHIPPLE_4F3", {"param": 1.0}, "case WHIPPLE_4F3 takes an integer param, got 1.0"),
    ],
    ids=[
        "COMIDEN0-p", "COMIDEN1-p", "WHIPPLE_4F3-p", "GOSPER_STRANGE-index",
        "COMIDEN0-float", "COMIDEN1-bool", "COMIDEN0-str", "WHIPPLE_4F3-float-index",
    ],
)
def test_exact_case_rejects_inputs_it_does_not_use(tag, kwargs, message):
    # each once passed while ignoring the input, drew the suite again, or
    # truncated a non-integer param with int() (2.7 ran n = 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_exact_case(tag, **kwargs)


@pytest.mark.parametrize(
    "tag, p, param",
    [("THM1", 5, 1.9), ("THM1", 5, True), ("THMKEY", 5, "2"), ("EQ0", 5, 0.0)],
    ids=["THM1-float", "THM1-bool", "THMKEY-str", "EQ0-float"],
)
def test_congruence_case_rejects_a_param_that_is_not_an_int(tag, p, param):
    # int() once turned r = 1.9 into r = 1 and recorded it
    with pytest.raises(ValueError, match=re.escape(f"case {tag} takes an integer param, got {param!r}")):
        verify_congruence_case(tag, p, param)


def test_identity_records_keep_the_sides_of_their_draws(monkeypatch):
    # every draw's record holds the sides a fresh evaluation gives
    for tag in IDENTITIES:
        for i, (params, _lhs, _rhs) in enumerate(sample_identity_params(tag)):
            rec = verify_exact_case(tag, i)
            assert (rec.lhs, rec.rhs) == identity_sides(tag, params), (tag, i)
    # with the sampler's cache warm, a suite run evaluates no identity again
    calls = []

    def counting(tag, params):
        calls.append(tag)
        return identity_sides(tag, params)

    monkeypatch.setattr(hypergeometric, "identity_sides", counting)
    records = run_suite([5], cases=list(IDENTITIES))
    assert len(records) == 6 * IDENTITY_DRAWS and all(r.passed for r in records)
    assert calls == []


def test_thmkey2_x2_sum_is_evaluated_once_per_prime(monkeypatch):
    # LEM_THM1_B2K's expected side is THMKEY(2)'s x^2 sum at the same p
    harness._thmkey_x2.cache_clear()
    specs = []

    def counting(spec, order):
        specs.append(spec)
        return eval_hyp_sum_series(spec, order)

    monkeypatch.setattr(harness, "eval_hyp_sum_series", counting)
    records = run_suite([7, 11], cases=["THMKEY", "LEM_THM1_B2K"])
    assert all(r.passed for r in records)
    assert [specs.count(harness.thmkey_series_spec(p, 2)) for p in (7, 11)] == [1, 1]


#: The cases whose sums are read off the central families' running splits.
CENTRAL_TAGS = ["EQ0", "THM1", "THM2", "KILBOURN", "CONJ1", "THM3", "THM4", "THM4_STRONG", "SIX_F_FIVE_COEFFS"]

#: The cases that read H2 and OH2 off the harmonic families' running splits.
HARMONIC_TAGS = ["H2_HALF", "ODDH2_HALF", "H2_REFLECT"]


class _OneShot:
    """A stand-in family that sums every truncation from k = 0, as a per-prime evaluation does."""

    def __init__(self, build, *args):
        self.spec = build(*args)

    def at(self, K):
        return eval_hyp_sum(self.spec._replace(truncation=K))


def _records_without_history(monkeypatch, cases, push_cases, families):
    """The records of ``cases`` over 5..199 fresh, after the families were
    pushed past 5..499 by ``push_cases``, from one-prime runs in descending
    order, and from one-shot sums; they must all be equal."""
    primes = range(5, 200)
    harness._family.cache_clear()
    fresh = run_suite(primes, rs=(1, 2), cases=cases)
    assert harness._family.cache_info().currsize == families
    run_suite(range(5, 500), rs=(1, 2), cases=push_cases)
    pushed = run_suite(primes, rs=(1, 2), cases=cases)
    harness._family.cache_clear()
    per_prime = [rec for p in reversed(primes) for rec in run_suite([p], rs=(1, 2), cases=cases)]
    descending = sorted(per_prime, key=lambda rec: (CASE_ORDER.index(rec.case), rec.p, rec.param))
    # the one-shot sum of each truncation is the oracle
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_family", _OneShot)
        one_shot = run_suite(primes, rs=(1, 2), cases=cases)
    assert fresh == pushed == descending == one_shot
    return fresh


def test_central_sum_records_do_not_depend_on_history(monkeypatch):
    # the families are shared by every prime and case of a process, so a
    # record must not show how far an earlier run pushed their frontiers;
    # one family per (e, z, weight), and one each for H2 and OH2, which
    # H2_REFLECT reads below the frontier at every prime
    central = _records_without_history(monkeypatch, CENTRAL_TAGS, CENTRAL_TAGS[:-1], 6)
    assert any(rec.param == 2 for rec in central)
    harmonic = _records_without_history(monkeypatch, HARMONIC_TAGS, HARMONIC_TAGS, 2)
    assert {rec.case for rec in harmonic} == set(HARMONIC_TAGS)


def test_shared_central_sums_make_no_root_split_of_their_own(monkeypatch):
    # THM4_STRONG reads THM4's sums, CONJ1 at r = 1 THM2's and
    # SIX_F_FIVE_COEFFS EQ0's, so each pair splits as often as its first case
    roots = record_roots(monkeypatch, "_split")
    try:
        for first, second in [("THM4", "THM4_STRONG"), ("THM2", "CONJ1"), ("EQ0", "SIX_F_FIVE_COEFFS")]:
            counts = []
            for cases in ([first], [first, second]):
                harness._family.cache_clear()
                roots.clear()
                run_suite([7, 11, 13], cases=cases)
                counts.append(len(roots))
            assert counts == [3, 3], (first, second)
    finally:
        harness._family.cache_clear()  # its families hold the counting split


# ---------------------------------------------------------------------------
# series cases, with sympy as the independent expansion oracle
# ---------------------------------------------------------------------------


def test_eq10_a2_matches_sympy_expansion():
    p = 5
    expr, x = sympy_deformed_sum(
        p,
        slopes_num=[(HALF, 0), (HALF, F(-1, 2)), (HALF, F(1, 2))],
        slopes_den=[(1, F(1, 2)), (1, F(-1, 2))],
        z=-1,
        weight=(4, 1),
    )
    poly = sp.series(expr, x, 0, 3).removeO()
    rec = verify_congruence_case("EQ10_A2", p)
    assert rec.lhs == to_fraction(poly.coeff(x, 2))
    assert to_fraction(poly.coeff(x, 0)) == F(435, 512)
    assert rec.achieved >= 1 and rec.passed


def test_six_f_five_record():
    p = 5
    rec = verify_congruence_case("SIX_F_FIVE_COEFFS", p)
    assert rec.passed and rec.achieved >= 1
    # constant terms of the two deformed sums agree mod p
    assert padic_valuation(rec.lhs - rec.rhs, p) >= 1
    ser = eval_hyp_sum_series(series_case_specs(p)["SIX_F_FIVE_COEFFS"], 4)
    assert all(padic_valuation(c, p) >= 1 for c in ser.coeffs)


def _check_six_f_five_as_p_times_whipple_3f2(primes):
    # the case's sum is Whipple's 6F5 at a = 1/2, b, c = (1 -+ x)/2, d = 1 and
    # -n = (1 - p)/2, whose prefactor (3/2)_n / (1/2)_n is 2n + 1 = p: the
    # series is p times a 3F2 with p-integral coefficients, so each of its
    # coefficients has v_p >= 1
    for p in primes:
        six_f_five = eval_hyp_sum_series(six_f_five_series_spec(p), SERIES_ORDER).coeffs
        spec = HypSum([HALF, 1, F(1 - p, 2)], [(1, HALF), (1, -HALF)], argument=1, truncation=(p - 1) // 2)
        three_f_two = eval_hyp_sum_series(spec, SERIES_ORDER).coeffs
        assert six_f_five == tuple(p * c for c in three_f_two), p
        assert all(padic_valuation(c, p) >= 0 for c in three_f_two), p


def test_six_f_five_is_p_times_whipples_3f2():
    _check_six_f_five_as_p_times_whipple_3f2(_primes(5, 97))


@pytest.mark.slow
def test_six_f_five_is_p_times_whipples_3f2_to_997():
    _check_six_f_five_as_p_times_whipple_3f2(_primes(101, 997))


def test_lem_thm1_term_expansion_matches_formula_and_sympy():
    # per-term quadratic coefficient is -((1/2)_k/k!)^4 * H2(2k)
    for k in range(3):
        c2 = lem_thm1_term_series(k).coeffs[2]
        assert c2 == -central_half_ratio(k) ** 4 * harmonic2(2 * k)
    # independent conjugate-pair oracle through sympy's complex arithmetic
    x = sp.symbols("x")
    k = 2
    num = sp.Integer(1)
    den = sp.factorial(k) ** 2
    for i in range(k):
        num *= (sp.Rational(1, 2) + i) ** 2
        num *= (sp.Rational(1, 2) + x / 2 + i) * (sp.Rational(1, 2) - x / 2 + i)
        den *= (1 + sp.I * x / 2 + i) * (1 - sp.I * x / 2 + i)
    poly = sp.series(sp.expand(num / den), x, 0, 3).removeO()
    assert to_fraction(sp.re(poly.coeff(x, 2))) == lem_thm1_term_series(2).coeffs[2]


def test_lem_thm1_case_record():
    rec = verify_congruence_case("LEM_THM1_B2K", 5)
    assert rec.passed and rec.lhs == rec.rhs and rec.achieved >= 1


def _odd_x3_step(num, den):
    num[3] = 1  # never reaches x^2, so the summed coefficient stays right


def _wrong_x2_step(num, den):
    den[2] += 1


@pytest.mark.parametrize("edit", [_odd_x3_step, _wrong_x2_step])
def test_lem_thm1_rejects_a_wrong_term_ratio(monkeypatch, edit):
    ratio = harness._lem_thm1_ratio

    def perturbed(k):
        num, den = ratio(k)
        if k == 2:
            edit(num, den)
        return num, den

    monkeypatch.setattr(harness, "_lem_thm1_ratio", perturbed)
    assert not verify_congruence_case("LEM_THM1_B2K", 11).passed


def test_thm3_quotient_matches_sympy_expansion():
    p = 5
    expr, x = sympy_deformed_sum(
        p,
        slopes_num=[(HALF, 0), (HALF, F(-1, 2)), (HALF, F(1, 2))],
        slopes_den=[(1, F(1, 4)), (1, F(-1, 4))],
        z=F(1, 4),
        weight=(6, 1),
    )
    scalar = sp.nsimplify(expr.subs(x, 0))
    poly = sp.series(sp.cancel(expr / scalar), x, 0, 3).removeO()
    rec = verify_congruence_case("THM3_QUOTIENT_X2", p)
    assert rec.lhs == to_fraction(poly.coeff(x, 2))
    assert rec.passed


def test_thm3_quotient_spot_prime():
    rec = verify_congruence_case("THM3_QUOTIENT_X2", 7)
    assert rec.achieved >= 1 and rec.passed


def test_exact_div_p_resolution():
    # observed valuation is exactly 1 across the working range; the k = 2
    # numerator product (3/4)(7/4) * (5/4)(9/4) carries a single factor 5
    rec = verify_congruence_case("EXACT_DIV_P", 5)
    assert rec.lhs == (F(21, 16) * F(45, 16)) / 4 == F(945, 1024)
    assert rec.achieved == 1 and rec.passed
    assert rec.required == Requirement("val_eq", 1)
    for p in (7, 11, 13, 17, 19, 23, 29, 31):
        assert verify_congruence_case("EXACT_DIV_P", p).achieved == 1


@pytest.mark.parametrize("p", [101, 199, 401, 997])
def test_series_cases_hold_beyond_the_contract_range(p):
    for tag in ("EQ10_A2", "SIX_F_FIVE_COEFFS", "LEM_THM1_B2K", "THM3_QUOTIENT_X2", "EXACT_DIV_P"):
        rec = verify_congruence_case(tag, p)
        assert rec.passed, (tag, p, rec.achieved)


def test_series_case_validation():
    with pytest.raises(KeyError):
        verify_congruence_case("NOPE", 5)
    with pytest.raises(ValueError):
        verify_congruence_case("EQ10_A2", 3)


def test_series_specs_scalarize_consistently():
    for p in (5, 7, 13):
        for tag, spec in series_case_specs(p).items():
            ser = eval_hyp_sum_series(spec, 4)
            assert ser.coeffs[0] == eval_hyp_sum(scalarized(spec)), tag


def test_deformed_specs_specialize_to_exact_evaluations():
    # pinning the deformation variable to p turns the deformed sums into the
    # exactly evaluable ones: the alternating cube deformation becomes the
    # signed prime, and the (6k+1) deformation becomes the shifted-parameter
    # sum of the exact lemma cases, whose parameters are written out here
    for p in (5, 7, 11, 13):
        sign = -1 if ((p - 1) // 2) % 2 else 1
        assert eval_hyp_sum(specialize(eq10_series_spec(p), p)) == sign * p
        for z in (F(1, 4), F(-1, 8)):
            lemma = HypSum(
                [HALF, HALF - F(p, 2), HALF + F(p, 2)],
                [1 + F(p, 4), 1 - F(p, 4)],
                argument=z,
                truncation=(p - 1) // 2,
                weight=(6, 1),
            )
            pinned = hypergeometric.specialize(thm3_deformed_spec(p, z), p)
            assert pinned == specialize(thm3_deformed_spec(p, z), p) == lemma
        assert eval_hyp_sum(specialize(thm3_deformed_spec(p), p)) == sign * p


def test_six_f_five_compares_with_the_eq10_constant_term():
    # the case reads EQ0's scalar sum, which is EQ10's deformation at x = 0
    for p in (p for p in range(5, 98) if is_prime(p)):
        rec = verify_congruence_case("SIX_F_FIVE_COEFFS", p)
        assert rec.rhs == eval_hyp_sum_series(eq10_series_spec(p), 4).coeffs[0], p


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def test_run_suite_small_range_all_pass():
    records = run_suite([5, 6, 7])
    assert records and all(r.passed for r in records)
    order_index = {tag: i for i, tag in enumerate(CASE_ORDER)}
    keys = [(order_index[r.case], r.p, r.param) for r in records]
    assert keys == sorted(keys)
    by_case = {}
    for r in records:
        by_case.setdefault(r.case, []).append(r)
    assert len(by_case["EQ0"]) == 2
    assert len(by_case["THMKEY"]) == 6  # s in {1,2,3} at two primes
    assert len(by_case["COMIDEN0"]) == 199
    assert len(by_case["WHIPPLE_7F6"]) == IDENTITY_DRAWS
    conjectural = {tag for tag, case in CASES.items() if case.conjectural}
    assert conjectural == {"CONJ1", "THM4_STRONG", "COMCONJ2"}
    for tag in conjectural:
        assert all(r.conjectural for r in by_case[tag])
    assert all(not r.conjectural for r in by_case["EQ0"])


def test_run_suite_includes_three_only_for_kilbourn():
    records = run_suite([3, 5])
    kilbourn_ps = [r.p for r in records if r.case == "KILBOURN"]
    assert kilbourn_ps == [3, 5]
    for tag in ("EQ0", "THM1", "EQ10_A2", "LEMMA10", "COMIDEN1"):
        assert all(r.p != 3 and r.param != 3 for r in records if r.case == tag)


def test_run_suite_empty_ranges():
    assert run_suite([]) == []
    assert run_suite([4]) == []
    assert run_suite(range(0)) == []


def test_run_suite_r_caps():
    records = run_suite([5, 19, 23, 31, 37], rs=(1, 2, 3), cases=["THM1", "CONJ1"])
    thm1_r2 = [r.p for r in records if r.case == "THM1" and r.param == 2]
    conj1_r2 = [r.p for r in records if r.case == "CONJ1" and r.param == 2]
    assert thm1_r2 == [5, 19, 23, 31]
    assert conj1_r2 == [5, 19]
    assert not any(r.param == 3 for r in records)
    assert all(r.passed for r in records)
    order_index = {tag: i for i, tag in enumerate(CASE_ORDER)}
    keys = [(order_index[r.case], r.p, r.param) for r in records]
    assert keys == sorted(keys)


def test_run_suite_turns_errors_into_failed_records():
    # a_{p^r} is read before the (p^r-1)/2-term sum, so a prime past the eta
    # ceiling fails at once (it once took 10-22 s per case at p = 100003)
    start = time.perf_counter()
    records = run_suite([100003], cases=["THM2", "KILBOURN", "CONJ1"])
    assert time.perf_counter() - start < 1.0
    assert [r.case for r in records] == ["THM2", "KILBOURN", "CONJ1"]
    for rec in records:
        assert not rec.passed and rec.achieved == "error:BudgetError"
        assert rec.lhs is None and rec.rhs is None
        assert report_entry(rec)["lhs"] == ""
        assert rec.error == "p^r = 100003 exceeds the expansion ceiling 100000"
        assert "error" not in report_entry(rec)


@pytest.mark.parametrize(
    "primes, rs, what, bad",
    [
        ([7.5, 11], (1,), "primes", 7.5),
        ([True, 11], (1,), "primes", True),
        (["11"], (1,), "primes", "11"),
        ([11], (1.9, 2.2), "exponents", 1.9),
        ([11], (True,), "exponents", True),
        ([4], ("2",), "exponents", "2"),
    ],
    ids=["float-prime", "bool-prime", "str-prime", "float-r", "bool-r", "str-r-no-prime"],
)
def test_run_suite_refuses_primes_and_exponents_that_are_not_ints(primes, rs, what, bad):
    # int() once ran [7.5, True, "11"] as p = 7, 11 and rs = (1.9, 2.2) as r = 1, 2
    with pytest.raises(ValueError, match=re.escape(f"run_suite takes integer {what}, got {bad!r}")):
        run_suite(primes, rs=rs, cases=["EQ0", "THM1"])


def test_run_suite_turns_pole_errors_into_failed_records(monkeypatch):
    def pole(p, _param):
        raise PoleError("lower parameter hits a pole")

    monkeypatch.setitem(CASES, "EQ0", CASES["EQ0"]._replace(compute=pole))
    (rec,) = run_suite([5], cases=["EQ0"])
    assert not rec.passed and rec.achieved == "error:PoleError"
    assert rec.error == "lower parameter hits a pole"
    assert rec.required == Requirement("val_ge", 3)


@pytest.mark.parametrize("exc", [RuntimeError, ZeroDivisionError, RecursionError])
def test_run_suite_lets_programming_errors_propagate(monkeypatch, exc):
    def broken(p, _param):
        raise exc("a bug, not a domain error")

    monkeypatch.setitem(CASES, "EQ0", CASES["EQ0"]._replace(compute=broken))
    with pytest.raises(exc):
        run_suite([5, 7], cases=["EQ0", "THM3"])


def test_run_suite_lets_a_float_in_the_exact_layers_propagate(monkeypatch):
    # a float side reaches padic_valuation, which refuses it as a bug
    monkeypatch.setitem(CASES, "EQ0", CASES["EQ0"]._replace(compute=lambda p, _param: (0.1, F(0))))
    with pytest.raises(TypeError, match="float"):
        run_suite([5], cases=["EQ0"])


@pytest.mark.parametrize(
    "tag, r, p",
    [("THM1", 2, 37), ("THM1", 2, 53), ("THM1", 2, 97), ("CONJ1", 2, 23), ("CONJ1", 2, 29), ("THM1", 3, 13)],
)
def test_congruences_hold_beyond_the_suite_caps(tag, r, p):
    # direct calls are not subject to R_CAPS, which bound run_suite only
    cap = R_CAPS[tag].get(r)
    assert r not in R_CAPS[tag] or (cap is not None and p > cap)
    rec = verify_congruence_case(tag, p, r)
    assert rec.passed and rec.param == r
    assert rec.achieved >= 3 + r

@pytest.mark.parametrize(
    "tag, param, domain",
    [
        ("THM1", 0, "{1, 2, 3, ...}"),
        ("CAI", 0, "{1, 2, 3, ...}"),
        ("THMKEY", 0, "{1, 2, 3, ...}"),
        ("BINOM_NEG", 0, "{1, 2, 3, ...}"),
        ("WHIPPLE_4F3", -1, "{0, 1, 2, ...}"),
    ],
)
def test_out_of_domain_parameters_are_rejected(tag, param, domain):
    # each once passed vacuously, raised IndexError or read another draw
    with pytest.raises(ValueError, match=re.escape(f"case {tag} takes param in {domain}")):
        if tag == "WHIPPLE_4F3":
            verify_exact_case(tag, param)
        else:
            verify_congruence_case(tag, 5, param)


def _entry_points(tag):
    # arguments each entry point accepts for a case of its own kind; an exact
    # case takes the prime or the integer parameter, never both
    exact_args = {"p": 5} if CASES[tag].min_prime else {"param": 5}
    return {
        "congruence": lambda: verify_congruence_case(tag, 5),
        "exact": lambda: verify_exact_case(tag, **exact_args),
    }


@pytest.mark.parametrize("tag", CASE_ORDER)
def test_every_tag_belongs_to_exactly_one_entry_point(tag):
    accepted = []
    for kind, call in _entry_points(tag).items():
        try:
            rec = call()
        except KeyError:
            continue
        assert rec.case == tag and rec.passed
        accepted.append(kind)
    # a case is exact iff its requirement is equality; a series case is a congruence case
    assert accepted == ["exact" if CASES[tag].required.kind == "exact" else "congruence"]


def test_benchmark_tags_follow_the_case_table(monkeypatch):
    # the benchmark names one per-case metric per tag; read its list without
    # running the benchmark and without writing bytecode next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.ALL_TAGS == CASE_ORDER


def test_select_cases():
    assert select_cases(["eq0", "thm3"]) == ["EQ0", "THM3"]
    assert select_cases(None) == list(CASE_ORDER)
    # canonical order is restored regardless of selection order
    assert select_cases(["THM3", "EQ0"]) == ["EQ0", "THM3"]
    with pytest.raises(KeyError):
        select_cases(["bogus"])


def test_report_entry_shape():
    rec = verify_congruence_case("EQ0", 5)
    entry = report_entry(rec)
    assert list(entry) == [
        "case",
        "p",
        "param",
        "required",
        "achieved",
        "lhs",
        "rhs",
        "pass",
        "conjectural",
    ]
    assert entry["required"] == "v>=3"
    assert entry["achieved"] == "3"
    assert entry["lhs"] == "435/512" and entry["rhs"] == "5"
    assert entry["pass"] is True and entry["conjectural"] is False
    zero = verify_congruence_case("H2_HALF", 7)
    if zero.achieved is INFINITY:
        assert report_entry(zero)["achieved"] == "INF"
