"""Complex exponential sums and exact power means.

A power mean is a solution count; no root of unity enters it.  For a
PhaseFamily the inner sum at sweep value t is S_t = sum_a zeta^e_a(t),
zeta = e(1/q), e_a(t) = t*u_a + v_a mod q (_family_vectors), over D
values of a.  With c_j = #{a : e_a(t) = j} and N_k the k-fold cyclic
self-convolution of c, S_t^k = sum_j N_k(j) zeta^j, and y_t = |S_t|^2k =
S_t^k * conj(S_t^k) has the coefficients sum_i N_k(i + j) N_k(i).

Trace.  The trace of zeta^j from Q(zeta) is the Ramanujan sum c_q(j) =
sum_{d | (j, q)} mu(q/d) d (Hardy & Wright, An Introduction to the
Theory of Numbers, 16.6).  Swapping the sums, Tr(y_t) = sum_{d | q}
mu(q/d) d sum_{r mod d} F_d(r)^2, F_d being N_k folded mod d.  At a
prime power q = p^e only d = p^e and p^(e-1) have mu(q/d) != 0, so
Tr(y_t) = p^e * sum_j N_k(j)^2 - p^(e-1) * sum_r F_(p^(e-1))(r)^2; at a
prime p, p * sum_j N_k(j)^2 - D^2k.

Orbits.  For a unit c mod q, sigma_c: zeta -> zeta^c commutes with
complex conjugation, so sigma_c(y_t) = |sigma_c(S_t)|^2k, and
sigma_c(S_t) = sum_a zeta^(c*e_a(t)).  Substituting a = lambda*b, a
bijection of the domain for a unit lambda, makes it S_(c^e t), with f
the fixed coefficient and k the degree:
  - inverse twist (u = a^k, v = f*abar, a a unit): a = c*b gives the
    phase c^(k+1)*t*b^k + f*bbar, so e = k + 1;
  - no twist (u = a^k, v = f*a): a = cbar*b gives c^(1-k)*t*b^k + f*b,
    so e = 1 - k.
t -> c^e*t maps the sweep t = 0..q-1 onto itself.  So its
total T = sum_t y_t is fixed by every sigma_c, hence an integer equal to
Tr(T) / phi(q), and Tr(y_t) is constant on each orbit O of the sweep
under H = {c^e}: T = sum_O |O| Tr(y_(t_O)) / phi(q).  A total that phi(q)
does not divide is an invariant breach.  H is built as {c^d}, d = gcd(e,
phi(q)): with d = a*e + b*phi(q), c^d = (c^a)^e, and c^e = (c^(e/d))^d, so
the two sets are one.  For the cubic family e = -2 and d = 2, so H is the
squares: one cheap pow per unit, not one with an exponent near phi(q).
The units come from crossing out the multiples of each prime factor of q.

The orbit of t = 0 is {0}, and S_0 = sum_a zeta^(v_a) is a rational
integer.  Without twist, v_a = f*a over all residues a: a geometric sum,
q if q | f and 0 otherwise.  Under the inverse twist, v_a = f*abar over
the units, and abar runs over the units as a does, so S_0 is the
Ramanujan sum c_q(f) = sum_{d | (f, q)} mu(q/d) d, whose d = q term is
the first case; at q = p^e it is p^e [p^e | f] - p^(e-1) [p^(e-1) | f].
So y_0 = S_0^2k, Tr(y_0) = phi(q) S_0^2k, and only the orbits of t != 0
need counts.  S_0 is multiplicative in q: q | f exactly when p^e | f at
each prime power p^e of q, and c_q(f) is multiplicative in q (Hardy &
Wright, 16.6).

Unit coefficients.  Write S_t(f) for the inner sum with fixed coefficient
f.  If f is a unit mod q, the total does not depend on f:
  - inverse twist: a = f*b is a bijection of the units, and f*abar =
    bbar, so S_t(f) = S_(t*f^k)(1);
  - no twist: a = fbar*b is a bijection of the residues, and f*a = b, so
    S_t(f) = S_(t*fbar^k)(1).
t -> t*f^(+-k) is multiplication by a unit: it permutes the residues
mod q and fixes 0, so it maps the sweep onto itself, with or without
t = 0, and the total is that of f = 1.  So a mean at a unit n is the
mean at 1, and the registry states each identity at f = 1.

Composite moduli.  Write M_q(f) for the total of a complete sweep (t =
0..q-1) at modulus q with fixed coefficient f.  Let q = rs with gcd(r,
s) = 1, sbar = s^-1 mod r and rbar = r^-1 mod s.  Then s*sbar + r*rbar =
1 mod rs, so e(x/rs) = e(x*sbar/r) * e(x*rbar/s) for every integer x,
and by CRT a mod rs runs over the pairs (a mod r, a mod s), a unit over
the pairs of units, with abar reducing to the inverse mod r and mod s.
So for either twist S_t(rs; f) = S_(t*sbar)(r; f*sbar) *
S_(t*rbar)(s; f*rbar) (Iwaniec & Kowalski, ch. 1, for Kloosterman sums).
The sweep t mod rs is the set of all pairs (t mod r, t mod s), and t ->
t*sbar permutes the residues mod r, so M_rs(f) = M_r(f*sbar) *
M_s(f*rbar).  For a unit u, M_r(f*u) = M_r(f) for every f, a unit or
not: a = ubar*b (no twist) or a = u*b (inverse twist) gives S_t(f*u) =
S_(t*ubar^k)(f) or S_(t*u^k)(f), only a permutation of t.  So M_rs(f) =
M_r(f) * M_s(f), and power_mean multiplies the means at the prime
powers of q.  For the Salie family an odd prime has 2 orbits of t != 0,
an odd prime power below 100 has 4 to 8, and an odd q of two primes
below 100 has 8 or 14; the product reads the factors' tables instead,
which the other moduli of a sweep share.  The total of a sweep without
t = 0 is that of the complete sweep less its t = 0 term, y_0 =
S_0(q)^2k, and S_0 is multiplicative (above).  So power_mean takes every
mean as the product of complete means at the prime powers of q, less
S_0(q)^2k when t = 0 is left out, and _power_mean, _orbit_table and
_trace see prime powers only.  The factor 2 of an even q is a mean at
q = 2, which _power_mean computes and power_mean refuses.

Kronecker slots.  _convolve packs two count vectors into integers, slot
j at bit B*j, multiplies them and folds the product mod z^q - 1 with
(M & mask) + (M >> q*B).  Slots are little-endian bytes: struct packs a
count list as 8-byte slots, a bytearray stride copy (out[i::w2] =
raw[i::w1]) re-widths them, and struct unpacks them after widening to 8
bytes (int.from_bytes reads a wider slot), so the host's byte order does
not matter.

The slots are sized by Cauchy-Schwarz.  Each ladder entry N_m keeps
s_m = sum_j N_m(j)^2.  The folded product F = N_a * N_b has F(j) =
sum_i N_a(i) N_b(j - i) <= sqrt(s_a * s_b), the Cauchy-Schwarz inequality
over i with j - i taken mod q, so B >= bitlen(isqrt(s_a * s_b)) bits hold
every F(j) (s_a when squaring).  No slot carries: each coefficient of
the product before the fold is a part of one F(j), so at most F(j), and
the fold adds the two parts of F(j) into F(j) itself.  Each operand's
entry is at most sqrt of its own s, below the bound as every s >= 1, so
the operands re-width to B without loss.  B is rounded up to whole
bytes.  The bound is tight: with all D values of a in one residue j,
N_1 = D at j and 0 elsewhere, and N_2(2j) = D^2 = s_1.  s_m <= (sum_j
N_m(j))^2 = D^(2m), so a slot of N_m is never wider than bitlen(D^m).

The ladder: each orbit of t != 0 keeps N_1 = c and every N_m built from
it, N_m = N_(m//2) * N_(m - m//2), with its s_m: N_2 serves the 4th, 6th
and 8th means, N_3 the 6th, 10th and 12th, and the 4th, 6th and 8th
means of one family at one q cost three products per orbit (N_2, N_3 =
N_1 * N_2, N_4 = N_2 * N_2).  _orbit_table keeps the orbits' sizes,
ladders and sums of squares for the last 64 (family, q).  N_m takes at
most q * ceil(bitlen(D^m) / 8) bytes, so an entry holds at most r * q *
sum_m ceil(bitlen(D^m) / 8) bytes of slots over the m of its ladders, r
being its number of orbits of t != 0: gcd(e, p - 1) at a prime p, 2 for
the Salie and cubic families.  With every m = 1..6 (2k up to 12) that is
at most r * q * (21 b / 8 + 6) bytes for b = bitlen(D): 1.7 MB an entry
at p near 20,000 with r = 2, and 108 MB for 64 such entries.  A family
whose H is trivial, such as degree 1 without twist (e = 0), has r = q - 1
orbits, one per t, and its entry grows as q^2.

The trace of N_k at q = p^e reads s_k for its d = q term.  At a prime
its d = 1 term is (D^k)^2, so it unpacks no slots; at e > 1 it unpacks
N_k once, to fold it mod p^(e-1).

Every public function rejects q >= 2^31 before any work.  That bound is
no memory limit: a list of q counts takes about 8q bytes, so a prime
just below 2^31 needs about 16 GB for each count list it builds.

Scalar sums (kloosterman, two_term_sum, twisted_sum) dot the counts with
a table of e(j/q) * 2^128 rounded to integers for j = 0..q/2, the count
of q - j joining that of j with a minus sign in the imaginary part, and
divide by 2^128 once; so symmetric counts (Kloosterman sums and
odd-degree phases, Iwaniec & Kowalski, Analytic Number Theory, ch. 11)
give an imaginary part of exactly 0.0.  The roots come from integers
alone: pi by Machin's formula, e(1/q) by a Taylor series (Brent &
Zimmermann, Modern Computer Arithmetic, ch. 4).
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress
from operator import add, mul, sub

from .arith import Modulus, as_modulus, factorize, is_prime

# fixed-point scale of the scalar sums' root table
_SCALE_BITS = 128
_SCALE = 1 << _SCALE_BITS

TWIST_NONE = "none"
TWIST_INVERSE = "inverse"


class PhaseFamily(namedtuple(
    "PhaseFamily",
    ["monomial_degree", "twist", "fixed_coefficient", "include_zero_in_sweep"],
    defaults=[TWIST_NONE, 1, True],
)):
    """Which exponential-sum family a power mean ranges over.

    The inner sum is, per sweep value t of the monomial coefficient:

      twist none:     sum_a e((t*a^k + c*a) / q)
      twist inverse:  sum_a e((t*a^k + c*abar) / q)  (a a unit)

    where c is fixed_coefficient.  The a-domain is the units mod q under
    the inverse twist and all residues mod q otherwise.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.monomial_degree < 1:
            raise ValueError("monomial_degree must be >= 1")
        if self.twist not in (TWIST_NONE, TWIST_INVERSE):
            raise ValueError(f"bad twist {self.twist!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "PhaseFamily":
        # _replace builds through _make: check there too
        return cls(*iterable)


# the root table steps omega^j with this many fractional bits, and
# evaluates omega itself with _WORK_BITS
_GUARD_BITS = 256
_WORK_BITS = 320
# largest modulus (exclusive) accepted (module docstring, "Kronecker slots")
_MAX_Q = 1 << 31
# (family, q) pairs whose orbit tables and ladders are kept (module
# docstring, "Kronecker slots")
_ORBIT_TABLES = 64


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


@lru_cache(maxsize=64)
def _fixed_root_table(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(re, im) of the roots of unity e(j/q) for j = 0..q//2, scaled by
    2^128 and rounded to integers; e((q-j)/q) is their conjugate.

    omega = e(1/q) comes from _unit_root, in units u = 2^-320: Machin's pi
    adds 69 and 20 series terms, each truncated by under 1 u, so pi is
    within 16 * 70 + 4 * 21 < 2^11 u and theta = 2*pi/q within 2^12 u.
    The Taylor series stops at its first zero term, within 128 terms as
    theta <= 2*pi, and term n carries each earlier truncation times at
    most theta^m / m!, so the sum is off by under 128 * e^(2*pi) < 2^17 u.
    omega, within 2^-302, is rounded at scale 2^256, where the powers
    omega^j are stepped by integer multiply-and-shift.  Each step adds
    under 1.5 units of 2^-256, so omega^j at scale 2^128 is within
    q * 2^-128 < 2^-97 of the exact value, and an entry computed alone at
    60 decimal digits within about 2^-70, so the two agree unless an exact
    value lies that close to a half-integer; the tests compare omega for
    q = 1..2000 and the tables entry by entry.
    """
    w_re, w_im = _unit_root(q)
    drop = _GUARD_BITS - _SCALE_BITS
    half_g, half_d = 1 << (_GUARD_BITS - 1), 1 << (drop - 1)
    re, im = [], []
    a, b = 1 << _GUARD_BITS, 0
    for _ in range(q // 2 + 1):
        re.append((a + half_d) >> drop)
        im.append((b + half_d) >> drop)
        a, b = (
            (a * w_re - b * w_im + half_g) >> _GUARD_BITS,
            (a * w_im + b * w_re + half_g) >> _GUARD_BITS,
        )
    return tuple(re), tuple(im)


def _check_q(modulus) -> int:
    """The modulus as an int, rejected before any work unless q < 2^31."""
    q = modulus.q if isinstance(modulus, Modulus) else int(modulus)
    if q >= _MAX_Q:
        raise ValueError(f"modulus must be below 2^31, got {q}")
    return q


def _units(q: int) -> Iterator[int]:
    """The units mod q, ascending, as an iterator: the residues left after
    crossing out the multiples of each prime factor of q."""
    mark = bytearray([1]) * q
    for p, _ in factorize(q):
        mark[::p] = bytes(len(range(0, q, p)))
    return compress(range(q), mark)


def _family_vectors(family: PhaseFamily, q: int) -> tuple[list[int], list[int]]:
    """Exponent decomposition e_a(t) = t*u_a + v_a (mod q) for the family,
    a ascending over its domain."""
    k = family.monomial_degree
    c = family.fixed_coefficient % q
    dom = list(_units(q)) if family.twist == TWIST_INVERSE else range(q)
    u = [pow(a, k, q) for a in dom]
    if family.twist == TWIST_INVERSE:
        return u, [c * pow(a, -1, q) % q for a in dom]
    return u, [c * a % q for a in dom]


def _counts(u: list[int], v: list[int], q: int, t: int) -> list[int]:
    """c_j = #{a : t*u_a + v_a = j mod q} for j = 0..q-1."""
    c = [0] * q
    for x, y in zip(u, v):
        c[(t * x + y) % q] += 1
    return c


def _scaled_sum(c: list[int], q: int) -> tuple[int, int]:
    """Exact (re, im) of sum_j c_j e(j/q) * 2^128 on the rounded table, each
    j > q/2 counted at q - j, with a minus sign in the imaginary part."""
    re, im = _fixed_root_table(q)
    half = len(re)
    lo = c[:half]
    # the count of q - j for j = 1..q - half; q/2 pairs with itself
    hi = [0, *c[:half - 1:-1]]
    hi += [0] * (half - len(hi))
    return sum(map(mul, map(add, lo, hi), re)), sum(map(mul, map(sub, lo, hi), im))


def _scalar_sum(family: PhaseFamily, q: int, t: int) -> complex:
    """The family's inner sum at sweep value t, divided once by 2^128: the
    counts c_j in one pass over the domain, without the u and v lists."""
    k, f, t = family.monomial_degree, family.fixed_coefficient % q, t % q
    c = [0] * q
    if family.twist == TWIST_INVERSE:
        for a in _units(q):
            c[(t * pow(a, k, q) + f * pow(a, -1, q)) % q] += 1
    else:
        for a in range(q):
            c[(t * pow(a, k, q) + f * a) % q] += 1
    re, im = _scaled_sum(c, q)
    return complex(re / _SCALE, im / _SCALE)


def kloosterman(m: int, n: int, q) -> complex:
    """Classical Kloosterman sum S(m, n; q) over the units mod q."""
    q = _check_q(q)
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return _scalar_sum(PhaseFamily(1, TWIST_INVERSE, n), q, m)


def two_term_sum(m: int, n: int, k: int, q) -> complex:
    """Two-term exponential sum: sum over a complete residue system of
    e((m*a^k + n*a)/q)."""
    q = _check_q(q)
    if q < 2 or k < 1:
        raise ValueError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    return _scalar_sum(PhaseFamily(k, TWIST_NONE, n), q, m)


def twisted_sum(m: int, k: int, p: int) -> complex:
    """Hybrid sum over units: sum_a e((m*a^k + abar)/p), p prime."""
    p = _check_q(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    # a^k depends on k mod p-1 only, which also admits k <= 0
    k = k % (p - 1) or p - 1
    return _scalar_sum(PhaseFamily(k, TWIST_INVERSE, 1), p, m)


def _widen(slots: bytes, q: int, nbytes: int) -> bytes:
    """q byte slots zero-extended or cut to nbytes each (values must fit)."""
    have = len(slots) // q
    if have == nbytes:
        return slots
    out = bytearray(q * nbytes)
    for i in range(min(have, nbytes)):
        out[i::nbytes] = slots[i::have]
    return out


def _convolve(x: bytes, y: bytes, q: int, bound: int) -> bytes:
    """The cyclic convolution of two q-slot vectors, as byte slots, by one
    Kronecker product (module docstring); bound caps its entries."""
    nbytes = -(-bound.bit_length() // 8)
    shift = 8 * nbytes * q
    px = int.from_bytes(_widen(x, q, nbytes), "little")
    m = px * (px if y is x else int.from_bytes(_widen(y, q, nbytes), "little"))
    m = (m & ((1 << shift) - 1)) + (m >> shift)
    return m.to_bytes(q * nbytes, "little")


def _unpack(slots: bytes, q: int) -> list[int] | tuple[int, ...]:
    """q byte slots as Python ints."""
    nbytes = len(slots) // q
    if nbytes > 8:
        return [int.from_bytes(slots[i:i + nbytes], "little") for i in range(0, len(slots), nbytes)]
    return struct.unpack(f"<{q}Q", _widen(slots, q, 8))


def _trace(slots: bytes, square: int, total: int, q: int, p: int) -> int:
    """Tr |S|^2k at q = p^e for S^k = sum_j N_k(j) zeta^j, N_k given as q
    byte slots with square = sum_j N_k(j)^2 and total = sum_j N_k(j) = D^k:
    q * square - (q/p) * sum_r (N_k folded mod q/p)(r)^2, the fold being
    total^2 at a prime, which unpacks no slots."""
    d = q // p
    if d == 1:
        folded_sq = total * total
    else:
        n = _unpack(slots, q)
        folded = [sum(n[r::d]) for r in range(d)]
        folded_sq = sum(map(mul, folded, folded))
    return q * square - d * folded_sq


def _zero_sum(family: PhaseFamily, q: int, p: int) -> int:
    """S_0 = sum_a zeta^(v_a) at q = p^e, a rational integer (module
    docstring): the Ramanujan sum c_q(f) under the inverse twist, and its
    first term, q if q | f else 0, without."""
    f = family.fixed_coefficient
    value = q if f % q == 0 else 0
    if family.twist == TWIST_INVERSE and f % (q // p) == 0:
        value -= q // p
    return value


def _galois_exponent(family: PhaseFamily, phi: int) -> int:
    """e with sigma_c(S_t) = S_(c^e t) (module docstring), mod phi(q)."""
    k = family.monomial_degree
    return (k + 1 if family.twist == TWIST_INVERSE else 1 - k) % phi


@lru_cache(maxsize=_ORBIT_TABLES)
def _orbit_table(family: PhaseFamily, mod: Modulus) -> tuple[int, list[tuple[int, dict[int, bytes], dict[int, int]]]]:
    """(D, [(|O|, {1: N_1}, {1: s_1}) for each orbit O of t != 0 under H]):
    the domain size, and per orbit its size, the ladder of its counts'
    self-convolutions as byte slots, and their sums of squares, both of
    which _self_power extends (module docstring)."""
    q = mod.q
    u, v = _family_vectors(family, q)
    nbytes = -(-len(u).bit_length() // 8)
    # H = {c^e} = {c^d}, d = gcd(e, phi(q)), each element once
    d = math.gcd(_galois_exponent(family, mod.phi), mod.phi)
    in_h = bytearray(q)
    for c in _units(q):
        in_h[pow(c, d, q)] = 1
    h = list(compress(range(q), in_h))
    seen = bytearray(q)
    seen[0] = marked = 1
    orbits = []
    t = seen.find(0)
    while t > 0:
        # the orbit H*t of the first t not yet seen, and its size
        for x in h:
            seen[x * t % q] = 1
        before, marked = marked, seen.count(1)
        c = _counts(u, v, q, t)
        slots = _widen(struct.pack(f"<{q}Q", *c), q, nbytes)
        orbits.append((marked - before, {1: slots}, {1: sum(map(mul, c, c))}))
        t = seen.find(0, t)
    return len(u), orbits


def _self_power(ladder: dict[int, bytes], squares: dict[int, int], m: int, q: int) -> bytes:
    """N_m = N_(m//2) * N_(m - m//2) from the ladder, which holds N_1 as q
    byte slots, and squares, which holds s_1; each N_m it builds stays in
    the ladder and its s_m in squares, slots sized by isqrt(s_a * s_b)."""
    if m not in ladder:
        a, b = m // 2, m - m // 2
        x = _self_power(ladder, squares, a, q)
        y = _self_power(ladder, squares, b, q)
        ladder[m] = _convolve(x, y, q, math.isqrt(squares[a] * squares[b]))
        n = _unpack(ladder[m], q)
        squares[m] = sum(map(mul, n, n))
    return ladder[m]


def power_mean(family: PhaseFamily, modulus, two_k: int) -> int:
    """2k-th power mean of |inner sum| over the sweep of the monomial
    coefficient (complete residue system, zero term per the family flag),
    exact: the product over the prime powers of q of the complete sweep's
    mean, each one trace per Galois orbit, less S_0(q)^2k for a sweep
    without t = 0 (module docstring, "Composite moduli").  The last 1024
    means at a prime power are kept, and a sweep without t = 0 shares
    those of its complete sweep, so a process computes each (family, p^e,
    2k) it repeats once; a composite's product is not kept.
    AssertionError if phi(p^e) does not divide a total."""
    if two_k < 2 or two_k % 2 != 0:
        raise ValueError(f"two_k must be a positive even integer, got {two_k}")
    q = _check_q(modulus)
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    mod = as_modulus(modulus)
    complete = family if family.include_zero_in_sweep else family._replace(include_zero_in_sweep=True)
    value = math.prod(_power_mean(complete, Modulus(p**e, ((p, e),), e == 1), two_k)
                      for p, e in mod.factorization)
    if not family.include_zero_in_sweep:
        value -= math.prod(_zero_sum(family, p**e, p) for p, e in mod.factorization) ** two_k
    return value


@lru_cache(maxsize=1024)
def _power_mean(family: PhaseFamily, mod: Modulus, two_k: int) -> int:
    """The complete sweep's mean at a prime power, for power_mean.
    AssertionError if phi(q) does not divide the total, a result no cache
    entry could hold."""
    domain, orbits = _orbit_table(family, mod)
    k, q, ((p, _),) = two_k // 2, mod.q, mod.factorization
    total = sum(size * _trace(_self_power(ladder, squares, k, q), squares[k], domain**k, q, p)
                for size, ladder, squares in orbits)
    # the orbit {0}: Tr(S_0^2k) = phi(q) * S_0^2k
    total += mod.phi * _zero_sum(family, q, p) ** two_k
    value, rest = divmod(total, mod.phi)
    if rest:
        raise AssertionError(f"power mean trace {total} not divisible by phi({mod.q}) = {mod.phi}")
    return value
