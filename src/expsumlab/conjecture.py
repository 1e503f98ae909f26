"""Numerical exploration of the 2k-th power-mean conjecture.

The conjectured asymptotic is

    sum_{m=0}^{p-1} |sum_{a=0}^{p-1} e((m a^3 + a)/p)|^{2k}
        = C_k * p^{k+1} + O(p^{k+1/2}),   C_k = binom(2k,k)/(k+1).

Exact values come from exp_sums.power_mean, a solution count with no
rounding; the error term is tracked in the conjecture's own scale
p^{k+1/2}.  Each row gets its
status from registry.verdict against closed_form(p, k), the closed forms
the registry carries for k <= 4; a row no closed form covers (p = 3 at
k = 2..4, every row at k = 5, 6) is a skip, for which only observed
maxima are reported, no threshold asserted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import check_odd_prime, primes_in_range
from .exp_sums import power_mean
from .registry import CUBIC_FAMILY, FAIL, PASS, verdict, wz_rhs, zm_rhs, zz_rhs

MAX_K = 6  # closed forms and the author's unpublished proofs stop here


class ConjectureRow(NamedTuple):
    p: int
    k: int
    value: int
    catalan: int
    main_term: int
    normalized_residual: float  # (value - main_term) / p^(k + 1/2)
    status: str  # registry.verdict against closed_form(p, k)


class ConjectureReport(NamedTuple):
    k: int
    rows: list[ConjectureRow]
    max_abs_normalized_residual: float


def catalan(k: int) -> int:
    """C_k = binom(2k, k) / (k+1), exact."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def conjecture_value(p: int, k: int) -> int:
    """Exact integer value of the conjecture's 2k-th power mean at p.

    The m = 0 term contributes 0 (sum_a e(a/p) = 0), so this is also the
    m = 1..p-1 mean of the registry's cubic identities.
    """
    check_odd_prime(p)
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    return power_mean(CUBIC_FAMILY, p, 2 * k)


def closed_form(p: int, k: int) -> int | None:
    """Known exact value of the conjecture sum, where one exists.

    k = 1 comes from a counting argument (cube-roots of unity), k = 2..4
    from the published 4th/6th/8th power-mean identities, as the registry
    carries them (zz_cubic_4th, zm_cubic_6th, wz_cubic_8th); the m = 0
    term vanishes, so those means and the conjecture sum are one mean of
    one family, registry.CUBIC_FAMILY.
    Returns None when no closed form applies.
    """
    if k == 1:
        return p * p - 2 * p if p % 3 == 1 else p * p
    rhs = {2: zz_rhs, 3: zm_rhs, 4: wz_rhs}.get(k)
    if p <= 3 or rhs is None:
        return None
    return rhs(p)


def crosscheck(summary: dict) -> str:
    """The cross-check of a report from its registry.summarize counts:
    "mismatch" if a row fails, else "ok" if a row passes, else "unchecked"
    (no closed form covers any row, as at k = 5, 6)."""
    return "mismatch" if summary[FAIL] else "ok" if summary[PASS] else "unchecked"


def conjecture_report(k: int, prime_lo: int, prime_hi: int) -> ConjectureReport:
    """Rows for every odd prime in [prime_lo, prime_hi], ascending."""
    primes = [p for p in primes_in_range(prime_lo, prime_hi) if p > 2]
    ck = catalan(k)

    def row(p: int) -> ConjectureRow:
        value = power_mean(CUBIC_FAMILY, p, 2 * k)
        main = ck * p ** (k + 1)
        norm = (value - main) / p ** (k + 0.5)
        return ConjectureRow(p, k, value, ck, main, norm, verdict(value, closed_form(p, k)))

    rows = [row(p) for p in primes]
    return ConjectureReport(
        k=k,
        rows=rows,
        max_abs_normalized_residual=max((abs(r.normalized_residual) for r in rows), default=0.0),
    )
