"""The r = 1 congruence records against their sums in Z/p^N.

Every term with k <= (p-1)/2 of EQ0, THM1-THM4, KILBOURN, THMKEY(s) and
COMCONJ2 is p-integral, so summing the terms as residues mod p^N, with N the
case's bound plus 2, gives v_p(lhs - rhs) capped at N without a ``Fraction``
or a binary splitting.  That checks the scalar split (the c_k^e sums) and the
series split (THMKEY and COMCONJ2, read off x^2 coefficients) independently.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.exact_core import is_prime, padic_valuation
from supercong.harness import verify_congruence_case

from oracles import residue_case_gap

#: (tag, param) of every case the oracle sums; param is THMKEY's s, else r = 1 or 0.
ORACLE_CASES = (
    ("EQ0", 0),
    ("THM1", 1),
    ("THM2", 0),
    ("KILBOURN", 0),
    ("THM3", 0),
    ("THM4", 0),
    ("THM4_STRONG", 0),
    ("COMCONJ2", 0),
    ("THMKEY", 1),
    ("THMKEY", 2),
    ("THMKEY", 3),
)


def _assert_capped_valuations_match(p: int):
    for tag, param in ORACLE_CASES:
        rec = verify_congruence_case(tag, p, param)
        digits = rec.required.bound + 2
        gap = residue_case_gap(tag, p, param, digits)
        assert min(rec.achieved, digits) == min(padic_valuation(gap, p), digits), (tag, param, p)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from([p for p in range(5, 500) if is_prime(p)]))
def test_congruence_records_match_their_sums_in_z_mod_p_to_the_n(p):
    _assert_capped_valuations_match(p)


@pytest.mark.slow
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from([p for p in range(503, 2000) if is_prime(p)]))
def test_congruence_records_match_their_sums_in_z_mod_p_to_the_n_up_to_2000(p):
    _assert_capped_valuations_match(p)
