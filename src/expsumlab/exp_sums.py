"""Complex exponential-sum kernels and exact-by-rounding power means.

Scalar sums (Kloosterman, two-term, twisted) are evaluated in double
precision from a root-of-unity table; that is plenty for their 1e-9
contracts.  Power means are a different story: at the 8th or 12th power
the totals reach 1e12..1e19 and doubles cannot place them within 1e-6 of
an integer.  power_mean therefore runs a 128-bit fixed-point integer
kernel: roots of unity are scaled to integers, inner sums are exact
integer additions, and the final mean is a rational number that is
rounded to the nearest integer.  The rounding error of the scaled roots
grows with q and the power: the residual (distance to the nearest
integer) measured for the 12th mean of the conjecture family is 1e-18
at p = 499 and 9e-12 at p = 4999.  The residual check is a
distance-to-nearest-integer test, so it is only meaningful while the
true error stays below 0.5; a larger error would round to a wrong
integer with a small residual.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .arith import Modulus, as_modulus

# residual above this flags a power mean as numerically suspect
RESIDUAL_TOL = 1e-6

# fixed-point scale for the exact kernel
_SCALE_BITS = 128
_SCALE = 1 << _SCALE_BITS

ALL_RESIDUES = "all_residues"
UNITS_ONLY = "units_only"
TWIST_NONE = "none"
TWIST_INVERSE = "inverse"
VARY_MONOMIAL = "monomial_coefficient"
VARY_LINEAR = "linear_coefficient"


class ResidualError(ArithmeticError):
    """A power mean landed further than RESIDUAL_TOL from an integer."""


@dataclass(frozen=True)
class PhaseFamily:
    """Which exponential-sum family a power mean ranges over.

    The inner sum is, per sweep value t:

      twist none,    vary monomial:  sum_a e((t*a^k + c*a) / q)
      twist none,    vary linear:    sum_a e((c*a^k + t*a) / q)
      twist inverse, vary monomial:  sum_a e((t*a^k + c*abar) / q)  (a a unit)

    where c is fixed_coefficient and the a-domain is all residues or the
    units mod q.
    """

    monomial_degree: int
    inner_domain: str = ALL_RESIDUES
    twist: str = TWIST_NONE
    varying_slot: str = VARY_MONOMIAL
    fixed_coefficient: int = 1
    include_zero_in_sweep: bool = True

    def __post_init__(self):
        if self.monomial_degree < 1:
            raise ValueError("monomial_degree must be >= 1")
        if self.inner_domain not in (ALL_RESIDUES, UNITS_ONLY):
            raise ValueError(f"bad inner_domain {self.inner_domain!r}")
        if self.twist not in (TWIST_NONE, TWIST_INVERSE):
            raise ValueError(f"bad twist {self.twist!r}")
        if self.varying_slot not in (VARY_MONOMIAL, VARY_LINEAR):
            raise ValueError(f"bad varying_slot {self.varying_slot!r}")
        if self.twist == TWIST_INVERSE and self.inner_domain != UNITS_ONLY:
            raise ValueError("inverse twist requires units_only inner domain")
        if self.twist == TWIST_INVERSE and self.varying_slot != VARY_MONOMIAL:
            raise ValueError("inverse twist varies the monomial coefficient")


@dataclass(frozen=True)
class PowerMeanResult:
    family: PhaseFamily
    modulus: Modulus
    two_k: int
    raw_value: float
    rounded: int
    residual: float

    @property
    def is_exact(self) -> bool:
        return self.residual < RESIDUAL_TOL


@lru_cache(maxsize=256)
def root_table(q: int) -> np.ndarray:
    """Entry j is e(j/q), each from its own angle 2*pi*j/q."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return np.exp(2j * np.pi * np.arange(q) / q)


_mp_lock = threading.Lock()


@lru_cache(maxsize=64)
def _fixed_root_table(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Roots of unity scaled by 2^128 and rounded to integers."""
    with _mp_lock:
        saved = mpmath.mp.dps
        mpmath.mp.dps = 60
        try:
            re, im = [], []
            for j in range(q):
                z = mpmath.expjpi(mpmath.mpf(2 * j) / q)
                re.append(int(mpmath.nint(z.real * _SCALE)))
                im.append(int(mpmath.nint(z.imag * _SCALE)))
        finally:
            mpmath.mp.dps = saved
    return tuple(re), tuple(im)


def _unit_list(q: int) -> list[int]:
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def kloosterman(m: int, n: int, q) -> complex:
    """Classical Kloosterman sum S(m, n; q) over the units mod q."""
    mod = as_modulus(q)
    q = mod.q
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    roots = root_table(q)
    total = 0j
    for a in _unit_list(q):
        abar = pow(a, -1, q)
        total += roots[(m * a + n * abar) % q]
    return complex(total)


def two_term_sum(m: int, n: int, k: int, q) -> complex:
    """Two-term exponential sum: sum over a complete residue system of
    e((m*a^k + n*a)/q)."""
    mod = as_modulus(q)
    q = mod.q
    if q < 2 or k < 1:
        raise ValueError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    roots = root_table(q)
    a = np.arange(q, dtype=np.int64)
    ak = np.array([pow(int(x), k, q) for x in range(q)], dtype=np.int64)
    return complex(roots[(m * ak + n * a) % q].sum())


def twisted_sum(m: int, k: int, p: int) -> complex:
    """Hybrid sum over units: sum_a e((m*a^k + abar)/p)."""
    roots = root_table(p)
    total = 0j
    for a in range(1, p):
        total += roots[(m * pow(a, k, p) + pow(a, -1, p)) % p]
    return complex(total)


def kloosterman_bound_ratio(m: int, n: int, q) -> float:
    """|S(m,n;q)| / ((m,n,q)^(1/2) d(q) q^(1/2)) -- exploratory statistic,
    no threshold is asserted (the Chowla-Estermann constant is implicit)."""
    mod = as_modulus(q)
    g = math.gcd(m, n, mod.q)
    return abs(kloosterman(m, n, mod)) / (math.sqrt(g) * mod.divisor_count * math.sqrt(mod.q))


def weil_ratio(m: int, n: int, k: int, p: int) -> float:
    """|S(m,n,k;p)| / sqrt(p) for 2 <= k < p and p not dividing m."""
    if k < 2:
        raise ValueError("weil_ratio requires k >= 2 (k = 1 degenerates)")
    if k >= p:
        raise ValueError(f"need k < p, got k={k}, p={p}")
    if m % p == 0:
        raise ValueError("weil_ratio requires p not dividing m")
    return abs(two_term_sum(m, n, k, p)) / math.sqrt(p)


def _family_vectors(family: PhaseFamily, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent decomposition e_a(t) = t*u_a + v_a (mod q) for the family."""
    if family.inner_domain == UNITS_ONLY:
        dom = [a for a in range(1, q) if math.gcd(a, q) == 1]
    else:
        dom = list(range(q))
    k = family.monomial_degree
    c = family.fixed_coefficient % q
    if family.twist == TWIST_INVERSE:
        u = [pow(a, k, q) for a in dom]
        v = [(c * pow(a, -1, q)) % q for a in dom]
    elif family.varying_slot == VARY_MONOMIAL:
        u = [pow(a, k, q) for a in dom]
        v = [(c * a) % q for a in dom]
    else:
        u = [a % q for a in dom]
        v = [(c * pow(a, k, q)) % q for a in dom]
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


@lru_cache(maxsize=64)
def _abs_sq_table(family: PhaseFamily, q: int) -> tuple[int, ...]:
    """|S_t|^2 for t = 0..q-1, scaled by 2^256, exact integers."""
    u, v = _family_vectors(family, q)
    re_t, im_t = _fixed_root_table(q)
    re_get, im_get = re_t.__getitem__, im_t.__getitem__
    out = []
    for t in range(q):
        exps = ((t * u + v) % q).tolist()
        sre = sum(map(re_get, exps))
        sim = sum(map(im_get, exps))
        out.append(sre * sre + sim * sim)
    return tuple(out)


def power_mean(family: PhaseFamily, modulus, two_k: int) -> PowerMeanResult:
    """2k-th power mean of |inner sum| over the sweep of the varying
    coefficient (complete residue system, zero term per the family flag).

    Exact fixed-point arithmetic throughout; the raw value, the nearest
    integer and the rounding residual are all reported.  Results are NOT
    gated here -- callers decide what residual >= RESIDUAL_TOL means.
    """
    mod = as_modulus(modulus)
    q = mod.q
    if two_k < 2 or two_k % 2 != 0:
        raise ValueError(f"two_k must be a positive even integer, got {two_k}")
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    # the cache key ignores the sweep-zero flag; slicing handles it
    table = _abs_sq_table(replace(family, include_zero_in_sweep=True), q)
    start = 0 if family.include_zero_in_sweep else 1
    k_half = two_k // 2
    total = sum(s2**k_half for s2 in table[start:])
    denom = 1 << (2 * _SCALE_BITS * k_half)
    rounded = (total + denom // 2) // denom
    frac = Fraction(total, denom) - rounded
    return PowerMeanResult(
        family=family,
        modulus=mod,
        two_k=two_k,
        raw_value=rounded + float(frac),
        rounded=int(rounded),
        residual=float(abs(frac)),
    )


def abs_two_term_all_m(n: int, k: int, p: int) -> np.ndarray:
    """|S(m, n, k; p)| for m = 0..p-1, vectorized (double precision)."""
    roots = root_table(p)
    ak = np.array([pow(a, k, p) for a in range(p)], dtype=np.int64)
    a = np.arange(p, dtype=np.int64)
    m = np.arange(p, dtype=np.int64)[:, None]
    s = roots[(m * ak[None, :] + n * a[None, :]) % p].sum(axis=1)
    return np.abs(s)
