"""Desk-scale verification lab for Kloosterman sums, two-term exponential
sums, power-mean identities and Legendre character-sum problems."""

from .arith import (
    DRep,
    legendre,
    primes_in_range,
    represent_4p,
)
from .char_sums import (
    PolynomialZ,
    char_sum_poly,
    corollary1_check,
    ning_wang_c,
)
from .conjecture import catalan, conjecture_report, conjecture_value
from .exp_sums import (
    PhaseFamily,
    kloosterman,
    power_mean,
    twisted_sum,
    two_term_sum,
)
from .poly_search import (
    SearchHit,
    enumerate_polys,
    search_constant_pairs,
)
from .registry import IdentityOutcome, evaluate, list_identities, sweep

__all__ = [
    "DRep",
    "IdentityOutcome",
    "PhaseFamily",
    "PolynomialZ",
    "SearchHit",
    "catalan",
    "char_sum_poly",
    "conjecture_report",
    "conjecture_value",
    "corollary1_check",
    "enumerate_polys",
    "evaluate",
    "kloosterman",
    "legendre",
    "list_identities",
    "ning_wang_c",
    "power_mean",
    "primes_in_range",
    "represent_4p",
    "search_constant_pairs",
    "sweep",
    "twisted_sum",
    "two_term_sum",
]
