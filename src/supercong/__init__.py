"""Exact-arithmetic verification of supercongruences satisfied by truncated
hypergeometric series, with the eta-product modular form supplying the
prime-indexed targets and a case harness tying every claim to a runnable,
reportable check."""

from .exact_core import (
    INFINITY,
    NotPrimeError,
    Rational,
    Valuation,
    congruent_mod_power,
    is_prime,
    padic_valuation,
    rising_factorial,
)
from .power_series import (
    TruncSeries,
    coefficient,
    constant,
    pochhammer_norm_series,
    pochhammer_series,
    ps_invert,
    ps_mul,
    series,
)
from .hypergeometric import (
    AffineParam,
    GammaRatioExpr,
    HypSum,
    IdentityId,
    PoleError,
    UnpairableError,
    check_identity,
    eval_hyp_sum,
    eval_hyp_sum_series,
    gamma_ratio_value,
    hyp_sum,
    identity_sides,
    sample_identity_params,
    scalarized,
    specialize,
)
from .modular_form import (
    BudgetError,
    DEFAULT_BUDGET,
    QExpansion,
    coefficient_at,
    eta_product_expansion,
    prime_power_coefficient,
)
from .harness import (
    CASE_ORDER,
    Requirement,
    VerificationRecord,
    report_entry,
    run_suite,
    verify_congruence_case,
    verify_exact_case,
    verify_series_case,
)

__version__ = "0.1.0"
