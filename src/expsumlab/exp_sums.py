"""Complex exponential sums and exact power means.

A power mean is a solution count; no root of unity enters it.  For a
PhaseFamily the inner sum at sweep value t is S_t = sum_a zeta^e_a(t),
zeta = e(1/q), e_a(t) = t*u_a + v_a mod q, u_a = a^k and v_a = f*abar
(inverse twist) or f*a (no twist), over the D values of a in the
family's domain: D = phi(q) under the inverse twist and q without.  The
counts c_j = #{a : e_a(t) = j} come from one function, _counts, for
power means and scalar sums alike.  With N_k the k-fold cyclic
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
does not divide is an invariant breach.  H = {c^d}, d = gcd(e, phi(q)):
with d = a*e + b*phi(q), c^d = (c^a)^e, and c^e = (c^(e/d))^d, so the
two sets are one.  For the cubic family e = -2 and d = 2, so H is the
squares.

At a prime power.  For odd p the units mod p^e are cyclic (Ireland &
Rosen, A Classical Introduction to Modern Number Theory, ch. 4): with g
the least primitive root mod p (arith.primitive_root), g generates them
at every e unless g^(p-1) = 1 mod p^2, and then g + p does.  The units
mod 2^e are +-5^i for i < 2^(e-2) from e = 3 on, +-1 at 4 and 1 at 2.
So the units of q = p^e are s*g^i, i < n, with s in a list of starts,
(1,) or (1, -1) (_unit_walk), and on each coset s*<g> a^k = s^k g^(k*i)
steps by g^k from one a to the next and abar = s*g^(-i) by g^-1, s =
+-1 being its own inverse.  _walk walks a in that order, so t*a^k and
f*abar (or f*a) each step by one multiplication per unit, with no pow;
without twist it first takes the q/p non-units a = 0, p, 2p, ... by pow.

The orbits of t != 0 lie in layers: t = (q/L)*u for L = q, q/p, ..., p
and u a unit mod L, and c^e t = (q/L)*(c^e u mod L), so the orbits of
layer L are the cosets among the units mod L of H mod L = {c^d : c a
unit mod L}.  At odd p that is <g^d>, of index gcd(d, n) in the cyclic
group of order n = phi(L).  At 2^e it is <5^d> when d is even, of index
2 gcd(d, n); when d is odd it holds -1 = (-1)^d and 5^d, which
generates <5> as n is a power of 2, so it is every unit.  So
_orbit_table takes t = (q/L)*s*g^i for i < gcd(d, n), s over the starts
or s = 1 alone when d is odd: r representatives, each of an orbit of
phi(L)/r elements.  It builds no H and marks nothing.  Neither the order of
a nor the choice of t can change a total.  Reordering a reorders the
terms of each count c_j.  Another t of the same orbit, c^e t, has the
counts of t with j moved to c*j (above), so the same s_m at every rung
of the ladder and the same Tr(y_t).  And T is a sum of integers, exact
in any order.

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
(M & mask) + (M >> q*B).  Slots are little-endian bytes, read and
written by int.from_bytes and int.to_bytes with "little".  Slots become
a list through an array.array of the least machine word of 1, 2, 4 or 8
bytes that holds them (_unpack), and a list of counts becomes slots
through 8-byte words (_pack).  A bytearray stride copy (out[i::w2] =
raw[i::w1], _widen) cuts the 8-byte words to the slot, widens only the
odd widths of 3, 5, 6 and 7 bytes to their word, and re-widths an
operand of _convolve; a slot wider than 8 bytes goes through
int.to_bytes and int.from_bytes one at a time.  An array's items are in
the host's byte order, so on a big-endian host they are byteswapped
after they are built from a list and before they are read back into
one.  The slots are therefore the same bytes on any host, and so are
the products and every total: the host's byte order does not matter.

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

Every public function rejects q >= 2^31 before any work, by
arith.check_q.  That bound is no memory limit: a list of q counts takes
about 8q bytes, so a prime just below 2^31 needs about 16 GB for each
count list it builds.

Scalar sums (kloosterman, two_term_sum, twisted_sum) dot the counts of
_counts, the N_1 of the power means, with roots e(j/q) built on each
call, and divide by 2^128 once; _scaled_sum takes any number of count
vectors at one q and builds those roots once for all of them, with no
cache.  At q = rs with gcd(r, s) = 1, a mod q is the pair (a mod r, a
mod s), a unit exactly when both are, abar reduces to the inverses mod r
and mod s, and the phase t*a^k + f*abar (or f*a) reduces mod r to that
of a mod r at the same t and f.  So c_q(j) = c_r(j mod r) * c_s(j mod
s), exact in integers, and _counts joins the walks at the prime powers
of q that way, one product per residue; the dot and its one rounding
are those of the counts at q however they were made.  The count of q - j
joins that of j,
added in the real part and subtracted in the imaginary part, so
symmetric counts (Kloosterman sums and odd-degree phases) give an
imaginary part of exactly 0.0.  The roots are baby steps omega^i and
giant steps (omega^s)^J, about sqrt(q/2) of each at 2^256, whose
products reach every j <= q/2 (_scaled_sum); the sum at 2^512 is
rounded once to 2^128, within E = 1 unit of 2^-128 of the exact part, so
an exact zero gives 0.0.  The counts come from the walks at the prime
powers of q ("At a prime power"), and no table of powers is stored for
either kind of sum.  The roots come from integers alone: pi by Machin's
formula, e(1/q) by a Taylor series (Brent & Zimmermann, Modern Computer
Arithmetic, ch. 4).
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce
from itertools import cycle, islice
from operator import add, mul, sub

from .arith import check_q, factorize, is_prime, primitive_root

# fixed-point scale of the scalar sums' (re, im)
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


# _powers steps the roots with this many fractional bits, and _unit_root
# evaluates omega itself with _WORK_BITS
_GUARD_BITS = 256
_WORK_BITS = 320
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


def _powers(w: tuple[int, int], n: int) -> list[tuple[int, int]]:
    """(re, im) of w^i for i = 0..n-1 at scale 2^256, each from the last by
    one multiply-and-shift, rounded.

    In units of 2^-256 and in complex magnitude, let the given w be within
    delta of an exact root of unity.  A step multiplies a power within e
    of the exact one by w and rounds each part by at most 1/2, so the next
    is within e + delta * (1 + e * 2^-256) + 0.71 < e + delta + 1, and w^i
    within i * (delta + 1).

    _unit_root's omega = e(1/q), in units u = 2^-320: Machin's pi adds 69
    and 20 series terms, each truncated by under 1 u, so pi is within
    16 * 70 + 4 * 21 < 2^11 u and theta = 2*pi/q within 2^12 u; the Taylor
    series stops at its first zero term, within 128 terms as theta <=
    2*pi, and term n carries each earlier truncation times at most
    theta^m / m!, so the sum is off by under 128 * e^(2*pi) < 2^17 u.
    With the rounding of each part to 2^256, omega is within delta < 0.71
    + 2^-45 units of 2^-256, so omega^i is within 1.75 i.
    """
    w_re, w_im = w
    half = 1 << (_GUARD_BITS - 1)
    out, a, b = [], 1 << _GUARD_BITS, 0
    for _ in range(n):
        out.append((a, b))
        a, b = (a * w_re - b * w_im + half) >> _GUARD_BITS, (a * w_im + b * w_re + half) >> _GUARD_BITS
    return out


def _unit_walk(q: int, p: int) -> tuple[tuple[int, ...], int, int]:
    """(starts, g, n) such that the units mod the prime power q of p are
    s*g^i mod q, s in starts and i < n, each once (module docstring, "At a
    prime power"): at odd p, starts = (1,), g the least primitive root mod
    p, or g + p when g^(p-1) = 1 mod p^2, and n = phi(q); at p = 2,
    starts = (1, -1), or (1,) at q = 2, g = 5 and n = max(1, q/4)."""
    if p == 2:
        return (1, q - 1) if q > 2 else (1,), 5, max(1, q // 4)
    g = primitive_root(p)
    if pow(g, p - 1, p * p) == 1:
        g += p
    return (1,), g, q - q // p


def _walk(family: PhaseFamily, q: int, p: int, t: int) -> list[int]:
    """c_j = #{a : t*a^k + f*abar (or f*a) = j mod q} for j = 0..q-1 at the
    prime power q of p, a over the family's domain: without twist the q/p
    non-units a = 0, p, 2p, ... first, by pow, then each coset s*<g> of
    _unit_walk's units a = s*g^i, on which t*a^k and f*abar (or f*a) step
    by g^k and by g^-1 (or g), one multiplication each (module docstring,
    "At a prime power")."""
    k, f, t = family.monomial_degree, family.fixed_coefficient % q, t % q
    inverse = family.twist == TWIST_INVERSE
    c = [0] * q
    if not inverse:
        for a in range(0, q, p):
            c[(t * pow(a, k, q) + f * a) % q] += 1
    starts, g, n = _unit_walk(q, p)
    step_x, step_y = pow(g, k, q), pow(g, -1 if inverse else 1, q)
    for s in starts:
        # s = +-1 is its own inverse
        x, y = t * pow(s, k, q) % q, f * s % q
        for _ in range(n):
            c[(x + y) % q] += 1
            x = x * step_x % q
            y = y * step_y % q
    return c


def _counts(family: PhaseFamily, q: int, t: int) -> list[int]:
    """c_j = #{a : t*a^k + f*abar (or f*a) = j mod q} for j = 0..q-1, a
    over the family's domain: the counts of _walk at each prime power of
    q, joined by CRT as c_rs(j) = c_r(j mod r) * c_s(j mod s) (module
    docstring, "Scalar sums")."""
    walks = (_walk(family, p**e, p, t) for p, e in factorize(q))
    return reduce(lambda x, y: list(map(mul, islice(cycle(x), len(x) * len(y)), cycle(y))), walks)


def _scaled_sum(counts: Iterable[list[int]], q: int) -> Iterator[tuple[int, int]]:
    """(re, im) of sum_j c_j e(j/q) * 2^128 for each vector c of counts of
    q > 1 residues, in order, within E = 1 of the exact parts: each is the
    nearest integer to its exact part unless that lies within 2^-65 of a
    half-integer, and a part that is exactly 0 gives 0.  The roots are
    built once, by the call, and each vector is dotted with them as the
    returned iterator reaches it.

    j = 0 and, at even q, j = q/2 pair with themselves, at the exact roots
    1 and -1.  Every other j <= (q-1)/2 pairs with q - j, whose root is the
    conjugate: a_j = c_j + c_(q-j) goes with the real part of e(j/q) and
    b_j = c_j - c_(q-j) with its imaginary part.  Baby step, giant step,
    with s = isqrt((q-1)/2) + 1: e(j/q) for j = 1 + i + s*J, i < s, is
    omega^(i+1) * W^J with W = omega^s.  Each block of s pairs is folded
    just before its four dots with the baby roots, whose sums its giant
    root turns at scale 2^512, where no product is rounded.

    By _powers, a baby root is within 1.75 s units of 2^-256 and W^J, s*J
    < (q-1)/2, within J * (1.75 s + 1), so their product within 1.28 q
    (checked for q < 2*10^6, and 0.875 q + 2 sqrt(q) + 1 beyond).  The D
    values of a each add one count to one a_j and one b_j, so before the
    single rounding to 2^128 each part is within D * 2q * 2^-128 < 2^-65
    units of its exact part, as D <= q < 2^31.  Symmetric counts
    (Kloosterman sums and odd-degree phases, Iwaniec & Kowalski, Analytic
    Number Theory, ch. 11) make every b_j 0, so their imaginary part is 0
    before the rounding.
    """
    pairs = (q - 1) // 2
    s = math.isqrt(pairs) + 1
    base = _powers(_unit_root(q), s + 1)
    baby_re, baby_im = zip(*base[1:])
    giant = _powers(base[s], -(-pairs // s))
    drop = 2 * _GUARD_BITS - _SCALE_BITS
    half = 1 << (drop - 1)

    def dot(c: list[int]) -> tuple[int, int]:
        re, im = (c[0] - (c[q // 2] if q % 2 == 0 else 0)) << 2 * _GUARD_BITS, 0
        for j, (g_re, g_im) in zip(range(1, pairs + 1, s), giant):
            end = min(j + s, pairs + 1)
            lo, hi = c[j:end], c[q - j:q - end:-1]
            a, b = list(map(add, lo, hi)), list(map(sub, lo, hi))
            re += g_re * sum(map(mul, a, baby_re)) - g_im * sum(map(mul, a, baby_im))
            im += g_re * sum(map(mul, b, baby_im)) + g_im * sum(map(mul, b, baby_re))
        return (re + half) >> drop, (im + half) >> drop

    return map(dot, counts)


def _scalar_sum(family: PhaseFamily, q: int, t: int) -> complex:
    """The family's inner sum at sweep value t: its counts dotted with the
    roots by _scaled_sum, divided once by 2^128 (module docstring, "Scalar
    sums")."""
    re, im = next(_scaled_sum([_counts(family, q, t)], q))
    return complex(re / _SCALE, im / _SCALE)


def kloosterman(m: int, n: int, q) -> complex:
    """Classical Kloosterman sum S(m, n; q) over the units mod q."""
    q = check_q(q)
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return _scalar_sum(PhaseFamily(1, TWIST_INVERSE, n), q, m)


def two_term_sum(m: int, n: int, k: int, q) -> complex:
    """Two-term exponential sum: sum over a complete residue system of
    e((m*a^k + n*a)/q)."""
    q = check_q(q)
    if q < 2 or k < 1:
        raise ValueError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    return _scalar_sum(PhaseFamily(k, TWIST_NONE, n), q, m)


def twisted_sum(m: int, k: int, p: int) -> complex:
    """Hybrid sum over units: sum_a e((m*a^k + abar)/p), p prime."""
    p = check_q(p)
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


# array typecodes by item size: the machine words of 1, 2, 4 and 8 bytes
_WORDS = {array(code).itemsize: code for code in "BHILQ"}


def _words(data, size: int) -> array:
    """data, a list of ints or little-endian slots of size bytes, as an
    array of machine words of size = 1, 2, 4 or 8 bytes, its items
    byteswapped on a big-endian host so that their bytes are the
    little-endian slots (module docstring)."""
    words = array(_WORDS[size], data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _pack(values: list[int], nbytes: int) -> bytes:
    """values as little-endian slots of nbytes each (values must fit):
    as 8-byte machine words cut to nbytes by _widen up to 8 bytes, and by
    int.to_bytes beyond.  Not 1- or 2-byte words: array sets those items
    from ints through a slower conversion, which costs more than the
    8-byte words and the cut together."""
    if nbytes > 8:
        return b"".join(v.to_bytes(nbytes, "little") for v in values)
    return _widen(_words(values, 8).tobytes(), len(values), nbytes)


def _unpack(slots: bytes, q: int) -> list[int]:
    """q byte slots as a list of Python ints: as the least machine words
    of 1, 2, 4 or 8 bytes that hold them, an odd width of 3, 5, 6 or 7
    bytes widened to its word by _widen, and by int.from_bytes beyond 8.
    A list, not the array, as summing squares over an array boxes every
    item again."""
    nbytes = len(slots) // q
    if nbytes > 8:
        return [int.from_bytes(slots[i:i + nbytes], "little") for i in range(0, len(slots), nbytes)]
    size = 1 << (nbytes - 1).bit_length()
    return _words(_widen(slots, q, size), size).tolist()


def _trace(slots: bytes, square: int, total: int, q: int, p: int) -> int:
    """Tr |S|^2k at q = p^e for S^k = sum_j N_k(j) zeta^j, N_k given as q
    byte slots with square = sum_j N_k(j)^2 and total = sum_j N_k(j) = D^k:
    q * square - (q/p) * sum_r (N_k folded mod q/p)(r)^2, the fold being
    total^2 at a prime, which unpacks no slots."""
    d = q // p
    if d == 1:
        return q * square - total * total
    n = _unpack(slots, q)
    folded = [sum(n[r::d]) for r in range(d)]
    return q * square - d * sum(map(mul, folded, folded))


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
def _orbit_table(family: PhaseFamily, q: int, p: int) -> tuple[int, list[tuple[int, dict[int, bytes], dict[int, int]]]]:
    """(D, [(|O|, {1: N_1}, {1: s_1}) for each orbit O of t != 0 under H])
    at the prime power q of p: the domain size D, phi(q) under the inverse
    twist and q without, and per orbit its size, the ladder of the
    self-convolutions of the counts _walk gives at the orbit's
    representative t, and their sums of squares, both of which _self_power
    extends (module docstring).  N_1 is packed by _pack into slots of the
    bytes of D, the largest count, so 1 to 4 bytes below 2^31."""
    phi = q - q // p
    # the domain: the units under the inverse twist, every residue without
    domain = phi if family.twist == TWIST_INVERSE else q
    nbytes = -(-domain.bit_length() // 8)
    d = math.gcd(_galois_exponent(family, phi), phi)
    reps, layer = [], q
    while layer > 1:
        # t = (q/layer)*u, u a unit mod layer: the cosets of {c^d} there
        # (module docstring, "At a prime power")
        starts, g, n = _unit_walk(layer, p)
        cosets = [s * pow(g, i, layer) * (q // layer) % q
                  for s in (starts if d % 2 == 0 else starts[:1]) for i in range(math.gcd(d, n))]
        reps += [(t, (layer - layer // p) // len(cosets)) for t in cosets]
        layer //= p
    counts = ((size, _walk(family, q, p, t)) for t, size in reps)
    return domain, [(size, {1: _pack(c, nbytes)}, {1: sum(map(mul, c, c))}) for size, c in counts]


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


def power_mean(family: PhaseFamily, modulus: int, two_k: int) -> int:
    """2k-th power mean of |inner sum| over the sweep of the monomial
    coefficient (complete residue system, zero term per the family flag)
    at the modulus, an int q, exact: the product over the prime powers of
    factorize(q) of the complete sweep's mean, each one trace per Galois
    orbit, less S_0(q)^2k for a sweep without t = 0 (module docstring,
    "Composite moduli").  The last 1024 means at a prime power are kept,
    and a sweep without t = 0 shares those of its complete sweep, so a
    process computes each (family, p^e, 2k) it repeats once; a
    composite's product is not kept.  AssertionError if phi(p^e) does not
    divide a total."""
    if two_k < 2 or two_k % 2 != 0:
        raise ValueError(f"two_k must be a positive even integer, got {two_k}")
    q = check_q(modulus)
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    complete = family if family.include_zero_in_sweep else family._replace(include_zero_in_sweep=True)
    fac = factorize(q)
    value = math.prod(_power_mean(complete, p**e, p, two_k) for p, e in fac)
    if not family.include_zero_in_sweep:
        value -= math.prod(_zero_sum(family, p**e, p) for p, e in fac) ** two_k
    return value


@lru_cache(maxsize=1024)
def _power_mean(family: PhaseFamily, q: int, p: int, two_k: int) -> int:
    """The complete sweep's mean at the prime power q of p, for
    power_mean.  AssertionError if phi(q) does not divide the total, a
    result no cache entry could hold."""
    domain, orbits = _orbit_table(family, q, p)
    k, phi = two_k // 2, q - q // p
    total = sum(size * _trace(_self_power(ladder, squares, k, q), squares[k], domain**k, q, p)
                for size, ladder, squares in orbits)
    # the orbit {0}: Tr(S_0^2k) = phi(q) * S_0^2k
    total += phi * _zero_sum(family, q, p) ** two_k
    value, rest = divmod(total, phi)
    if rest:
        raise AssertionError(f"power mean trace {total} not divisible by phi({q}) = {phi}")
    return value
