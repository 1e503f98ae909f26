"""Desk-scale verification lab for Kloosterman sums, two-term exponential
sums, power-mean identities and Legendre character-sum problems."""

from .arith import (
    DRep,
    Modulus,
    factor_functions,
    gcd3,
    legendre,
    mod_inverse,
    primes_in_range,
    represent_4p,
)
from .char_sums import (
    PolynomialZ,
    char_sum_poly,
    corollary1_check,
    ning_wang_c,
    salie_twisted_char_sum,
)
from .conjecture import catalan, conjecture_report, conjecture_value
from .exp_sums import (
    PhaseFamily,
    PowerMeanResult,
    kloosterman,
    kloosterman_bound_ratio,
    power_mean,
    twisted_sum,
    two_term_sum,
    weil_ratio,
)
from .poly_search import (
    SearchHit,
    Signature,
    enumerate_polys,
    fundamentally_different,
    normalized_key,
    search_constant_pairs,
    signature,
)
from .registry import IdentityOutcome, evaluate, list_identities, sweep

__all__ = [
    "DRep",
    "Modulus",
    "IdentityOutcome",
    "PhaseFamily",
    "PolynomialZ",
    "PowerMeanResult",
    "SearchHit",
    "Signature",
    "catalan",
    "char_sum_poly",
    "conjecture_report",
    "conjecture_value",
    "corollary1_check",
    "enumerate_polys",
    "evaluate",
    "factor_functions",
    "fundamentally_different",
    "gcd3",
    "kloosterman",
    "kloosterman_bound_ratio",
    "legendre",
    "list_identities",
    "mod_inverse",
    "ning_wang_c",
    "normalized_key",
    "power_mean",
    "primes_in_range",
    "represent_4p",
    "salie_twisted_char_sum",
    "search_constant_pairs",
    "signature",
    "sweep",
    "twisted_sum",
    "two_term_sum",
    "weil_ratio",
]
