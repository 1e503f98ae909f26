"""Data-driven registry of the closed-form identities under test.

Each entry binds an LHS recipe (a power mean or character-sum
combination, computed as an exact integer with no rounding) to an
integer RHS closed form plus an applicability predicate of the modulus.
Both sides are functions of the modulus alone: a unit n leaves every
mean unchanged (exp_sums docstring, "Unit coefficients"), so the one
optional n of an identity that takes one only decides applicability,
by the one rule in evaluate() that n be a unit mod q, and is echoed in
its row; an identity that takes none refuses an n.  Every modulus must
be below 2^31, checked before any work.  verdict() is the one rule that
gives a checked value its status, pass, fail or skip, for registry rows
and conjecture rows alike, and summarize() the one place where statuses
are counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import char_sums, exp_sums
from .arith import Modulus, as_modulus, legendre, represent_4p
from .exp_sums import (
    TWIST_INVERSE,
    TWIST_NONE,
    PhaseFamily,
    power_mean,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class UnknownIdentityError(ValueError):
    pass


@dataclass(frozen=True)
class IdentityOutcome:
    identity_id: str
    modulus: int
    n: int | None
    lhs: int | None
    rhs: int | None
    status: str


# ---------------------------------------------------------------------------
# families: one per distinct mean; a unit n does not change a mean
# (exp_sums docstring, "Unit coefficients"), so none depends on n

# sum over units of e((m*a + abar)/q), m swept over a complete residue
# system (the displayed m=1..q / m=0..p-1 ranges coincide)
_SALIE_FAMILY = PhaseFamily(1, TWIST_INVERSE, 1, True)

_ZWL_FAMILY = PhaseFamily(2, TWIST_INVERSE, 1, True)

# sum_{a=0}^{p-1} e((m*a^3 + a)/p), m = 0..p-1: the cubic identities'
# m = 1..p-1 mean and the conjecture's sum alike, as the m = 0 term adds
# phi(p) * S_0^2k = 0 (S_0 = sum_a e(a/p) = 0)
CUBIC_FAMILY = PhaseFamily(3, TWIST_NONE, 1, True)

# sum_a e(m a^2 / p), m = 1..p-1
_GAUSS_FAMILY = PhaseFamily(2, TWIST_NONE, 0, False)


# ---------------------------------------------------------------------------
# per-entry applicability / lhs / rhs

def _odd_prime(mod: Modulus) -> bool:
    return mod.is_prime and mod.q % 2 == 1


def _prime_gt3(mod: Modulus) -> bool:
    # k = 3 degenerates at p = 3 (a^3 = a), so the cubic identities
    # start at p = 5
    return mod.is_prime and mod.q > 3


def _zhang_applies(mod: Modulus) -> bool:
    # the displayed formula fails at even q (q = 4: lhs 32, rhs 96);
    # restricted to odd q >= 3
    return mod.q >= 3 and mod.q % 2 == 1


def _zh_applies(mod: Modulus) -> bool:
    return mod.is_prime and mod.q > 3 and (mod.q - 1) % 3 != 0


def _salie_rhs(p: int) -> int:
    return 2 * p**3 - 3 * p**2 - 3 * p


def _zhang_rhs(q: int) -> int:
    mod = as_modulus(q)
    rhs = Fraction(3**mod.omega * q * q * mod.phi)
    for p in mod.unitary_primes:
        rhs *= Fraction(2, 3) - Fraction(1, 3 * p) - Fraction(4, 3 * p * (p - 1))
    if rhs.denominator != 1:
        raise ArithmeticError(f"zhang rhs not an integer at q={q}: {rhs}")
    return int(rhs)


def _zwl_rhs(p: int) -> int:
    leg3 = legendre(3, p)
    # sum((c+1+cbar)/p) = sum((c^3+c^2+c)/p), see char_sums
    t = char_sums.char_sum_poly(char_sums.CUBIC_CCC, p)
    if p % 4 == 3:
        return 2 * p**3 - 6 * p**2 - 5 * p + 2 * leg3 * p**2 - p**2 * t
    return 2 * p**3 - 10 * p**2 - 9 * p - 2 * leg3 * p**2 + p**2 * t


def _nw_rhs(p: int) -> int:
    leg3 = legendre(3, p)
    c = char_sums.ning_wang_c(p)
    if p % 4 == 3:
        return 2 * p**3 - 4 * p**2 + 2 * p**2 * leg3 - 5 * p + p**2 * c
    return 2 * p**3 - 8 * p**2 - 2 * p**2 * leg3 - 9 * p + p**2 * c


def _zz_rhs(p: int) -> int:
    return 2 * p**3 - p**2 if (p - 1) % 3 != 0 else 2 * p**3 - 7 * p**2


def _zh_rhs(p: int) -> int:
    return 5 * p**4 - 8 * p**3 - p**2


def _zm_rhs(p: int) -> int:
    if p % 6 == 5:
        return 5 * p**3 * (p - 1)
    d = represent_4p(p).d
    return 5 * p**4 - 23 * p**3 - d * d * p**2


def _wz_rhs(p: int) -> int:
    if p % 6 == 5:
        return 7 * (2 * p**5 - 3 * p**4)
    d = represent_4p(p).d
    return 14 * p**5 - 75 * p**4 - 8 * p**3 * d * d


def _mean_lhs(family, two_k):
    return lambda mod: power_mean(family, mod, two_k)


def _corollary_lhs(mod: Modulus) -> int:
    return char_sums.corollary1_check(mod.q).difference


def _gauss_lhs(mod: Modulus) -> int | None:
    # by Cauchy-Schwarz (p - 1) * M4 >= M2^2 over m = 1..p-1, with equality
    # exactly when every |S_m|^2 is the same; then each is M2 / (p - 1)
    m2 = power_mean(_GAUSS_FAMILY, mod, 2)
    m4 = power_mean(_GAUSS_FAMILY, mod, 4)
    return m2 if (mod.q - 1) * m4 == m2 * m2 else None


@dataclass(frozen=True)
class Identity:
    identity_id: str
    description: str
    applicability: str
    applies: callable
    lhs: callable
    rhs: callable
    takes_n: bool = False


_ENTRIES: dict[str, Identity] = {}


def _register(identity_id, description, applicability, applies, lhs, rhs, takes_n=False):
    _ENTRIES[identity_id] = Identity(
        identity_id, description, applicability, applies, lhs, rhs, takes_n
    )


_register(
    "salie_4th",
    "4th power mean of S(m,1;p) over m = 0..p-1 equals 2p^3-3p^2-3p",
    "odd primes p >= 3",
    _odd_prime,
    _mean_lhs(_SALIE_FAMILY, 4),
    _salie_rhs,
)
_register(
    "zhang_composite_4th",
    "4th power mean of S(m,n;q) over a complete residue system of m",
    "odd q >= 3, n a unit mod q (even q fail the displayed formula)",
    _zhang_applies,
    _mean_lhs(_SALIE_FAMILY, 4),
    _zhang_rhs,
    takes_n=True,
)
_register(
    "zwl_4th",
    "4th power mean of sum_a e((m a^2 + abar)/p), ZWL closed form",
    "primes p > 3",
    _prime_gt3,
    _mean_lhs(_ZWL_FAMILY, 4),
    _zwl_rhs,
)
_register(
    "nw_4th",
    "4th power mean of sum_a e((m a^2 + abar)/p), Ning-Wang closed form",
    "primes p > 3",
    _prime_gt3,
    _mean_lhs(_ZWL_FAMILY, 4),
    _nw_rhs,
)
_register(
    "corollary1",
    "(-1/p) sum((c^3+c^2+c)/p) minus C(p) equals 2",
    "odd primes p >= 3",
    _odd_prime,
    _corollary_lhs,
    lambda p: 2,
)
_register(
    "zz_cubic_4th",
    "4th power mean of sum_a e((m a^3 + n a)/p) over m = 1..p-1",
    "primes p > 3, n a unit mod p",
    _prime_gt3,
    _mean_lhs(CUBIC_FAMILY, 4),
    _zz_rhs,
    takes_n=True,
)
# The sweep over a = 1..p-1 is the cubic family's over m = 1..p-1: for
# a != 0, n = b/a turns sum_n e((n^3 + a n)/p) into sum_b e((a^-3 b^3 +
# b)/p), and a -> a^-3 permutes 1..p-1 exactly when gcd(3, p - 1) = 1.
# _zh_applies asks for just that and for a prime p, so that every a is a
# unit, with p > 3 the range of the published formula.
_register(
    "zh_cubic_6th_over_a",
    "6th power mean over the linear coefficient a of sum_n e((n^3 + a n)/p)",
    "primes p > 3 with 3 not dividing p-1",
    _zh_applies,
    _mean_lhs(CUBIC_FAMILY, 6),
    _zh_rhs,
)
_register(
    "zm_cubic_6th",
    "6th power mean of sum_a e((m a^3 + n a)/p) over m = 1..p-1",
    "primes p > 3, split by p mod 6",
    _prime_gt3,
    _mean_lhs(CUBIC_FAMILY, 6),
    _zm_rhs,
    takes_n=True,
)
_register(
    "wz_cubic_8th",
    "8th power mean of sum_a e((m a^3 + n a)/p) over m = 1..p-1",
    "primes p > 3, split by p mod 6",
    _prime_gt3,
    _mean_lhs(CUBIC_FAMILY, 8),
    _wz_rhs,
    takes_n=True,
)
_register(
    "gauss_magnitude",
    "2nd power mean of the quadratic Gauss family equals p(p-1), "
    "with every |S(m,0,2,p)| = sqrt(p)",
    "odd primes p >= 3",
    _odd_prime,
    _gauss_lhs,
    lambda p: p * (p - 1),
)


def list_identities() -> list[Identity]:
    return list(_ENTRIES.values())


def verdict(lhs: int | None, rhs: int | None) -> str:
    """The status of a checked value: SKIP when no RHS applies, else PASS
    or FAIL by exact comparison (every LHS is an exact integer)."""
    if rhs is None:
        return SKIP
    return PASS if lhs == rhs else FAIL


def _entry(identity_id: str, ns) -> Identity:
    """The identity's entry.  ValueError if ns gives an n to an identity
    that takes none: its sums are those of one n only."""
    if identity_id not in _ENTRIES:
        raise UnknownIdentityError(f"unknown identity: {identity_id}")
    entry = _ENTRIES[identity_id]
    if not entry.takes_n and any(n is not None for n in ns):
        raise ValueError(f"{identity_id} takes no --n")
    return entry


def evaluate(identity_id: str, modulus, n: int | None = None) -> IdentityOutcome:
    """Evaluate one identity at one modulus and optional n; a modulus the
    identity does not apply to, or an n that is no unit mod q, yields a
    skip outcome rather than an error."""
    entry = _entry(identity_id, [n])
    exp_sums._check_q(modulus)  # before as_modulus trial-divides q
    mod = as_modulus(modulus)
    lhs, rhs = None, None
    if entry.applies(mod) and (n is None or gcd(n, mod.q) == 1):
        lhs = entry.lhs(mod)
        rhs = entry.rhs(mod.q)
    return IdentityOutcome(identity_id, mod.q, n, lhs, rhs, verdict(lhs, rhs))


def sweep(
    identity_id: str,
    moduli,
    ns: list[int] | None = None,
    emit_skips: bool = False,
) -> list[IdentityOutcome]:
    """Evaluate an identity over every modulus in `moduli` x every n in
    `ns`, in deterministic (modulus, n) order; ns=None means no n, and
    ns=[] gives no rows.  The identity and ns are checked before the
    first modulus, so an empty range refuses them too.

    Inapplicable moduli are dropped unless emit_skips is set (explicit
    single-modulus queries want the skip row; range sweeps do not).
    """
    ns = [None] if ns is None else ns
    _entry(identity_id, ns)
    results = [evaluate(identity_id, int(q), n) for q in moduli for n in ns]
    return [o for o in results if emit_skips or o.status != SKIP]


def summarize(rows) -> dict:
    """Count rows (anything with a status) by status: the one place where
    statuses are tallied, in the key order of the CLI summaries.  The
    constant numeric and max_residual keys stay for the readers of that
    output format."""
    counts = Counter(r.status for r in rows)
    summary = {status: counts[status] for status in (PASS, FAIL, SKIP)}
    summary.update(numeric=0, max_residual=0.0)
    return summary
