"""Complex exponential sums and exact-by-rounding power means, all on
one fixed-point integer kernel, _sums: roots of unity are scaled by
2^128 and rounded to integers, and each inner sum is an exact integer
addition.  A scalar sum is one inner sum of a PhaseFamily, divided once
by 2^128 at the end; a real one (Kloosterman sums and odd-degree
phases, Iwaniec & Kowalski, Analytic Number Theory, ch. 11) gets an
imaginary part of exactly 0.0, as the table is mirrored.  A 12th power
mean reaches 1e19, beyond doubles, so power_mean sums the exact |S_t|^2
and rounds the rational mean once.  The roots come from integers alone,
with 320 fractional bits: pi by Machin's formula, then e(1/q) by one
Taylor series for cos and sin (Brent & Zimmermann, Modern Computer
Arithmetic, ch. 4); _fixed_root_table bounds the error.

The inner sums run in int64 numpy arithmetic without losing a bit.  Each
scaled root x lies in [-2^128, 2^128], so x + 2^128 fits in 130 bits and
is stored as limbs of w bits (the multiprecision splitting of Knuth,
TAOCP vol. 2, 4.3.1).  The width depends on q alone (_limb_shape): with
b = bitlen(q), a limb has 8 * floor((63 - b) / 8) bits, so three 48-bit
limbs for q < 2^15, four 40-bit ones below 2^23 and five 32-bit ones
below 2^31.  An inner sum adds at most q < 2^b terms, each below 2^w, so
every limb sum stays below 2^(w + b) <= 2^63 (every public function
rejects q >= 2^31 before any work).  The table holds two periods, so a
sweep block gathers at (t0*u + v) mod q plus (dt*u) mod q, an exponent
in [0, 2q - 2], with no reduction per element; t0*u + v stays below
q^2 + q < 2^63.  The limb sums are recombined into Python integers with
shifts, minus (number of terms) * 2^128 for the offset.

Most families are odd, hence real: the cubic, Salie/Kloosterman and ZH
families have e_{-a}(t) = -e_a(t) mod q on a domain closed under
a -> -a.  The Gauss family a^2 is even, e_{-a}(t) = e_a(t).  _pieces
tests both on each table's own u, v vectors: the domain without a = 0 is
ascending and reverses onto its negatives, so the family is odd iff
(u_r + u_r[::-1]) and (v_r + v_r[::-1]) vanish mod q, and even iff
(u_r - u_r[::-1]) and (v_r - v_r[::-1]) do.  Either way _sums gathers
one a of each pair {a, -a} at weight 2 plus the self-paired terms (a = 0
in the all-residues domain, a = q/2 for even q) at weight 1.  An even
family gathers re and im limbs: a and -a give the same exponent, so that
is exact.  An odd one gathers the re limbs only and returns im = 0, also
exact: the table is mirrored as integers, re[q-j] = re[j] and
im[q-j] = -im[j], and im is exactly 0 at j = 0 and j = q/2, where every
self-paired term lands, so the full gather's imaginary sum is exactly 0
and its real sum is the paired one bit for bit.  The weighted count is
still the number of terms, at most q, so the limb bound is unchanged.
ZWL (a^2 + abar) is neither and gathers the whole domain.

The rounding error of the scaled roots grows with q and the power: the
residual (distance to the nearest integer) measured for the 12th mean of
the conjecture family is 9.5e-19 at p = 499 and 8.9e-12 at p = 4999.
The residual check is a distance-to-nearest-integer test, so it is only
meaningful while the true error stays below 0.5; a larger error would
round to a wrong integer with a small residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .arith import Modulus, as_modulus, is_prime

# residual above this flags a power mean as numerically suspect
RESIDUAL_TOL = 1e-6

# fixed-point scale for the exact kernel
_SCALE_BITS = 128
_SCALE = 1 << _SCALE_BITS

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

    where c is fixed_coefficient.  The a-domain is the units mod q under
    the inverse twist and all residues mod q otherwise.
    """

    monomial_degree: int
    twist: str = TWIST_NONE
    varying_slot: str = VARY_MONOMIAL
    fixed_coefficient: int = 1
    include_zero_in_sweep: bool = True

    def __post_init__(self):
        if self.monomial_degree < 1:
            raise ValueError("monomial_degree must be >= 1")
        if self.twist not in (TWIST_NONE, TWIST_INVERSE):
            raise ValueError(f"bad twist {self.twist!r}")
        if self.varying_slot not in (VARY_MONOMIAL, VARY_LINEAR):
            raise ValueError(f"bad varying_slot {self.varying_slot!r}")
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


# the root table steps omega^j with this many fractional bits, and
# evaluates omega itself with _WORK_BITS
_GUARD_BITS = 256
_WORK_BITS = 320
# largest modulus (exclusive) whose limb sums fit in int64
_MAX_Q = 1 << 31
# consecutive sweep values t per numpy gather in _sums, and the rows of
# the (dt * u) mod q offsets it builds once per table and piece
_T_BLOCK = 64


def _atan_inv(x: int) -> int:
    """atan(1/x) * 2^320 for an integer x > 1, each series term truncated."""
    total, power, k = 0, (1 << _WORK_BITS) // x, 1
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power //= x * x
        k += 2
    return total


# pi * 2^320 by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)
_PI = 16 * _atan_inv(5) - 4 * _atan_inv(239)


def _unit_root(q: int) -> tuple[int, int]:
    """cos and sin of 2*pi/q scaled by 2^256 and rounded, from the sum of
    (i*theta)^n / n!: term n goes to re or im with the sign of i^n."""
    theta = (2 * _PI) // q
    parts, term, n = [0, 0, 0, 0], 1 << _WORK_BITS, 0
    while term:
        parts[n % 4] += term
        n += 1
        term = (term * theta >> _WORK_BITS) // n
    drop = _WORK_BITS - _GUARD_BITS
    half = 1 << (drop - 1)
    return (parts[0] - parts[2] + half) >> drop, (parts[1] - parts[3] + half) >> drop


def _limb_shape(q: int) -> tuple[int, int]:
    """(bytes per limb, limbs per root) for modulus q: w = 8 * bytes bits
    with w + bitlen(q) <= 63, so q limbs below 2^w sum below 2^63, and
    enough limbs to hold the 130 bits of x + 2^128."""
    nbytes = (63 - q.bit_length()) // 8
    return nbytes, -(-(_SCALE_BITS + 2) // (8 * nbytes))


@lru_cache(maxsize=64)
def _fixed_root_table(q: int) -> np.ndarray:
    """Roots of unity e(j/q) scaled by 2^128 and rounded to integers, as
    limbs of _limb_shape(q), L limbs of w bits: row l < L holds limb l of
    re_j + 2^128, row L + l limb l of im_j + 2^128, in [0, 2^w).  It holds
    two periods: column j + q repeats column j for j < q, so any exponent
    in [0, 2q - 2] indexes it unreduced (int64, shape (2L, 2q), read-only).

    omega = e(1/q) comes from _unit_root, in units u = 2^-320: Machin's pi
    adds 69 and 20 series terms, each truncated by under 1 u, so pi is
    within 16 * 70 + 4 * 21 < 2^11 u and theta = 2*pi/q within 2^12 u.
    The Taylor series stops at its first zero term, within 128 terms as
    theta <= 2*pi, and term n carries each earlier truncation times at
    most theta^m / m!, so the sum is off by under 128 * e^(2*pi) < 2^17 u.  omega, within 2^-302, is rounded at scale
    2^256, where the powers omega^j for j <= q/2 are stepped by integer
    multiply-and-shift; the rest follow by conjugation, e((q-j)/q) =
    conj(e(j/q)).  Each step adds under 1.5 units of 2^-256, so omega^j
    at scale 2^128 is within q * 2^-128 < 2^-97 of the exact value.  An
    entry computed alone at 60 decimal digits is within about 2^-70, and
    the 100-digit omega the table was first stepped from was within
    2^-76 at scale 2^256 (this one: 2^-46).  So the tables agree unless
    an exact value lies that close to a half-integer; the tests compare
    omega for q = 1..2000 and the tables entry by entry.
    """
    w_re, w_im = _unit_root(q)
    drop = _GUARD_BITS - _SCALE_BITS
    half_g, half_d = 1 << (_GUARD_BITS - 1), 1 << (drop - 1)
    re, im = [0] * q, [0] * q
    a, b = 1 << _GUARD_BITS, 0
    for j in range(q // 2 + 1):
        re[j] = (a + half_d) >> drop
        im[j] = (b + half_d) >> drop
        a, b = (
            (a * w_re - b * w_im + half_g) >> _GUARD_BITS,
            (a * w_im + b * w_re + half_g) >> _GUARD_BITS,
        )
    for j in range(q // 2 + 1, q):
        re[j], im[j] = re[q - j], -im[q - j]
    nbytes, n_limbs = _limb_shape(q)
    raw = b"".join((x + _SCALE).to_bytes(nbytes * n_limbs, "little") for x in re + im)
    # each limb's bytes, zero-padded to one little-endian int64
    padded = np.zeros((2, q, n_limbs, 8), dtype=np.uint8)
    padded[..., :nbytes] = np.frombuffer(raw, dtype=np.uint8).reshape(2, q, n_limbs, nbytes)
    limbs = padded.view("<i8")[..., 0].transpose(0, 2, 1).reshape(2 * n_limbs, q)
    table = np.tile(limbs, 2)
    table.flags.writeable = False
    return table


def _limb_q(modulus) -> int:
    """The modulus as an int, rejected before any work unless q < 2^31."""
    q = modulus.q if isinstance(modulus, Modulus) else int(modulus)
    if q >= _MAX_Q:
        raise ValueError(f"modulus must be below 2^31 for the int64 kernel, got {q}")
    return q


def _scalar_sum(family: PhaseFamily, q: int, t: int) -> complex:
    """The family's inner sum at sweep value t, divided once by 2^128."""
    t %= q
    ((re, im),) = _sums(family, q, range(t, t + 1))
    return complex(re / _SCALE, im / _SCALE)


def kloosterman(m: int, n: int, q) -> complex:
    """Classical Kloosterman sum S(m, n; q) over the units mod q."""
    q = _limb_q(q)
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return _scalar_sum(PhaseFamily(1, TWIST_INVERSE, VARY_MONOMIAL, n), q, m)


def two_term_sum(m: int, n: int, k: int, q) -> complex:
    """Two-term exponential sum: sum over a complete residue system of
    e((m*a^k + n*a)/q)."""
    q = _limb_q(q)
    if q < 2 or k < 1:
        raise ValueError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    return _scalar_sum(PhaseFamily(k, TWIST_NONE, VARY_MONOMIAL, n), q, m)


def twisted_sum(m: int, k: int, p: int) -> complex:
    """Hybrid sum over units: sum_a e((m*a^k + abar)/p), p prime."""
    p = _limb_q(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    # a^k depends on k mod p-1 only, which also admits k <= 0
    k = k % (p - 1) or p - 1
    return _scalar_sum(PhaseFamily(k, TWIST_INVERSE, VARY_MONOMIAL, 1), p, m)


def _family_vectors(family: PhaseFamily, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent decomposition e_a(t) = t*u_a + v_a (mod q) for the family."""
    k = family.monomial_degree
    c = family.fixed_coefficient % q
    if family.twist == TWIST_INVERSE:
        dom = [a for a in range(1, q) if math.gcd(a, q) == 1]
        u = [pow(a, k, q) for a in dom]
        v = [(c * pow(a, -1, q)) % q for a in dom]
    elif family.varying_slot == VARY_MONOMIAL:
        u = [pow(a, k, q) for a in range(q)]
        v = [(c * a) % q for a in range(q)]
    else:
        u = list(range(q))
        v = [(c * pow(a, k, q)) % q for a in range(q)]
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _pieces(u: np.ndarray, v: np.ndarray, q: int):
    """(weight, u, v) pieces of the a-domain whose weighted limb sums
    equal the full ones, and how many parts _sums must gather: 1 for re
    only, 2 for re and im.

    The domain from _family_vectors is ascending, so without a = 0 its
    reversal maps each a to -a.  If that negates u and v mod q, the
    family is odd (real); if it keeps them, even.  Either way: one a of
    each pair {a, -a} with weight 2, the self-paired a = 0 and a = q/2
    (where the domain holds them) with weight 1, over re alone for an
    odd family and re and im for an even one.  Otherwise the whole
    domain over re and im.
    """
    lead = int(len(u) == q)  # the all-residues domain starts at a = 0
    ur, vr = u[lead:], v[lead:]
    half = len(ur) // 2
    self_paired = np.r_[0:lead, lead + half:len(u) - half]
    paired = [(2, ur[:half], vr[:half]), (1, u[self_paired], v[self_paired])]
    for sign, parts in ((1, 1), (-1, 2)):
        if not ((ur + sign * ur[::-1]) % q).any() and not ((vr + sign * vr[::-1]) % q).any():
            return paired, parts
    return [(1, u, v)], 2


def _sums(family: PhaseFamily, q: int, ts: range) -> list[tuple[int, int]]:
    """Exact (re, im) of S_t * 2^128 for the consecutive sweep values ts
    in 0..q-1: per piece of the a-domain (_pieces) and per block of t,
    the exponents gather each limb row of the root table, and the exact
    int64 row sums, weighted, are recombined.

    Per table and piece, D[dt, a] = (dt * u_a) mod q is built once for
    dt < _T_BLOCK; per block starting at t0 only the vector
    (t0 * u + v) mod q is reduced, and the gather reads the two-period
    table at base + D, which lies in [0, 2q - 2].  Each limb sum is below
    2^w * q <= 2^63 (_limb_shape), the weights adding up to the number of
    terms.  The recombination dots the limb sums, as Python integers,
    with (1, 2^w, 2^2w, ...), one path for every limb count.  An odd
    family gathers the re limbs only and returns (re, 0), bit for bit
    what the full path gives (see the module docstring).
    """
    u, v = _family_vectors(family, q)
    pieces, parts = _pieces(u, v, q)
    nbytes, n_limbs = _limb_shape(q)
    limbs = _fixed_root_table(q)[:parts * n_limbs]
    shifts = np.array([1 << (8 * nbytes * i) for i in range(n_limbs)], dtype=object)
    offset = len(u) << _SCALE_BITS
    steps = np.arange(min(_T_BLOCK, len(ts)), dtype=np.int64)[:, None]
    pieces = [(weight, pu, pv, (steps * pu) % q) for weight, pu, pv in pieces]
    out = []
    for t0 in ts[::_T_BLOCK]:
        n = min(_T_BLOCK, ts.stop - t0)
        sums = 0
        for weight, pu, pv, d in pieces:
            exps = (t0 * pu + pv) % q + d[:n]
            sums = sums + weight * np.stack([row.take(exps).sum(axis=1) for row in limbs], axis=1)
        joined = sums.reshape(n, parts, n_limbs).astype(object).dot(shifts) - offset
        im = joined[:, 1].tolist() if parts == 2 else [0] * n
        out.extend(zip(joined[:, 0].tolist(), im))
    return out


@lru_cache(maxsize=256)
def _abs_sq_table(family: PhaseFamily, q: int) -> tuple[int, ...]:
    """|S_t|^2 for t = 0..q-1, scaled by 2^256, exact integers."""
    return tuple(re * re + im * im for re, im in _sums(family, q, range(q)))


def power_mean(family: PhaseFamily, modulus, two_k: int) -> PowerMeanResult:
    """2k-th power mean of |inner sum| over the sweep of the varying
    coefficient (complete residue system, zero term per the family flag).

    Exact fixed-point arithmetic throughout (int64 limb sums, hence
    q < 2^31; see the module docstring); the raw value, the nearest
    integer and the rounding residual are all reported.  Results are NOT
    gated here -- callers decide what residual >= RESIDUAL_TOL means.
    """
    if two_k < 2 or two_k % 2 != 0:
        raise ValueError(f"two_k must be a positive even integer, got {two_k}")
    q = _limb_q(modulus)
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    mod = as_modulus(modulus)
    # the cache key ignores the sweep-zero flag; slicing handles it
    table = _abs_sq_table(replace(family, include_zero_in_sweep=True), q)
    start = 0 if family.include_zero_in_sweep else 1
    k_half = two_k // 2
    total = sum(s2**k_half for s2 in table[start:])
    denom = 1 << (2 * _SCALE_BITS * k_half)
    rounded = (total + denom // 2) // denom
    # int true division rounds the exact quotient once, to nearest
    r = total - rounded * denom
    return PowerMeanResult(
        family=family,
        modulus=mod,
        two_k=two_k,
        raw_value=rounded + r / denom,
        rounded=int(rounded),
        residual=abs(r) / denom,
    )


def abs_two_term_all_m(n: int, k: int, p: int) -> np.ndarray:
    """|S(m, n, k; p)| for m = 0..p-1, from the exact |S_m|^2 table."""
    family = PhaseFamily(k, TWIST_NONE, VARY_MONOMIAL, n)
    scale = _SCALE * _SCALE
    return np.sqrt([s2 / scale for s2 in _abs_sq_table(family, _limb_q(p))])
