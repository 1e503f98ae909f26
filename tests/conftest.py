"""Shared brute-force oracles, independent of the library's fast paths,
and the certified Weil comparison built on the exact scaled sums."""

import cmath
import functools
import math
from fractions import Fraction

import mpmath
import pytest

from expsumlab import exp_sums, registry
from expsumlab.exp_sums import TWIST_INVERSE, TWIST_NONE, PhaseFamily, _counts, _scaled_sum
from expsumlab.registry import CUBIC_FAMILY


KERNEL_FAMILIES = [
    # Salie at n = 1, 2 and 5, and the cubic family at n = 1, 2 and 3,
    # without its t = 0 term
    registry._SALIE_FAMILY,
    PhaseFamily(1, TWIST_INVERSE, 2, True),
    registry._ZWL_FAMILY,
    PhaseFamily(3, TWIST_NONE, 1, False),
    PhaseFamily(3, TWIST_NONE, 2, False),
    # 3 is no unit of q = 3, 9, 12, ...: the kernel computes it as given
    PhaseFamily(3, TWIST_NONE, 3, False),
    CUBIC_FAMILY,
    PhaseFamily(1, TWIST_INVERSE, 5, True),
    PhaseFamily(5, TWIST_NONE, 1, True),
    registry._GAUSS_FAMILY,
]
# a -> -a keeps every phase of these
EVEN_FAMILIES = [
    registry._GAUSS_FAMILY,
    PhaseFamily(4, TWIST_NONE, 0, True),
    PhaseFamily(2, TWIST_INVERSE, 0, True),
]
# both twists, degrees up to 6, and fixed coefficients that are not a
# unit of every q
ORBIT_FAMILIES = KERNEL_FAMILIES + EVEN_FAMILIES[1:] + [
    PhaseFamily(4, TWIST_NONE, 1, True),
    PhaseFamily(6, TWIST_NONE, 1, True),
    PhaseFamily(5, TWIST_NONE, 6, False),
    PhaseFamily(3, TWIST_INVERSE, 10, False),
]


def totient(q: int) -> int:
    """Euler's phi by counting the units mod q."""
    return sum(1 for a in range(q) if math.gcd(a, q) == 1)


def e_p(x: int, p: int) -> complex:
    """e(x/p) straight from cmath; the test-side root of unity."""
    return cmath.exp(2j * math.pi * (x % p) / p)


@functools.cache
def _nonzero_squares(p: int) -> frozenset[int]:
    return frozenset(x * x % p for x in range(1, p))


def legendre_by_squares(a: int, p: int) -> int:
    """Legendre symbol by enumerating the nonzero squares mod p."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in _nonzero_squares(p) else -1


def char_sum_direct(coeffs, p: int, include_zero: bool = False) -> int:
    """Direct character sum of the ascending-coefficient polynomial."""
    total = 0
    for x in range(0 if include_zero else 1, p):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        total += legendre_by_squares(v, p)
    return total


def power_mean_direct(inner_terms, sweep, power: int) -> float:
    """sum over the sweep of |inner sum|^power, all in plain cmath."""
    return math.fsum(abs(sum(inner_terms(t))) ** power for t in sweep)


@functools.cache
def reference_root_table(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(re, im) of e(j/q) * 2^128 for j = 0..q-1, each entry computed alone
    at 60 digits by mpmath and rounded to an integer."""
    with mpmath.workdps(60):
        re, im = [], []
        for j in range(q):
            z = mpmath.expjpi(mpmath.mpf(2 * j) / q)
            re.append(int(mpmath.nint(z.real * 2**128)))
            im.append(int(mpmath.nint(z.imag * 2**128)))
    return tuple(re), tuple(im)


@functools.cache
def fine_root_table(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(re, im) of e(j/q) * 2^192 for j = 0..q-1, each entry computed alone
    at 60 digits (about 2^-199) by mpmath and rounded to an integer, so
    within 0.51 units of 2^-192."""
    with mpmath.workdps(60):
        re, im = [], []
        for j in range(q):
            z = mpmath.expjpi(mpmath.mpf(2 * j) / q)
            re.append(int(mpmath.nint(z.real * 2**192)))
            im.append(int(mpmath.nint(z.imag * 2**192)))
    return tuple(re), tuple(im)


def reference_scaled_sum(counts, q: int) -> tuple[int, int]:
    """(re, im) of sum_j counts_j e(j/q) * 2^128, the 60-digit dot rounded
    once: the dot of fine_root_table, within 0.51 * sum(counts) * 2^-64 <
    2^-32 units of 2^-128 of the exact parts for sums below 2^31, rounded
    to integers."""
    re_t, im_t = fine_root_table(q)
    half = 1 << 63
    re = sum(c * r for c, r in zip(counts, re_t) if c)
    im = sum(c * i for c, i in zip(counts, im_t) if c)
    return (re + half) >> 64, (im + half) >> 64


def counts_of(phases, q: int) -> list[int]:
    """c_j = #{x in phases : x = j mod q} for j = 0..q-1."""
    counts = [0] * q
    for x in phases:
        counts[x % q] += 1
    return counts


def reference_mean(table, two_k: int, start: int) -> Fraction:
    """The rounded-root mean over the sweep from start, as a Fraction, for
    a table of |S_t|^2 * 2^256."""
    k = two_k // 2
    return Fraction(sum(s**k for s in table[start:]), 2 ** (256 * k))


def reference_phases(family, q, t):
    """e_a(t) mod q for every a of the family's domain, from its definition."""
    k, f = family.monomial_degree, family.fixed_coefficient
    if family.twist == TWIST_INVERSE:
        phases = [t * a**k + f * pow(a, -1, q) for a in range(1, q) if math.gcd(a, q) == 1]
    else:
        phases = [t * a**k + f * a for a in range(q)]
    return [x % q for x in phases]


@functools.lru_cache(maxsize=256)
def reference_abs_sq_table(family, q):
    """|S_t|^2 * 2^256 for t = 0..q-1 in exact integers, summing
    reference_root_table's rounded roots over the phases of
    reference_phases."""
    re_t, im_t = reference_root_table(q)
    out = []
    for t in range(q):
        exps = reference_phases(family, q, t)
        sre = sum(map(re_t.__getitem__, exps))
        sim = sum(map(im_t.__getitem__, exps))
        out.append(sre * sre + sim * sim)
    return tuple(out)


def reference_power_mean(family, q: int, two_k: int) -> int:
    """The family's 2k-th mean at q over its own sweep, from the rounded-root
    table: the oracle power_mean's integers are held to."""
    start = 0 if family.include_zero_in_sweep else 1
    return round(reference_mean(reference_abs_sq_table(family, q), two_k, start))


# verdicts of certify_weil
CERTIFIED, FLAGGED, EXCEEDS = "certified", "flagged", "exceeds"

# E: each part of exp_sums._scaled_sum is within 1/2 + 2^-65 units of
# 2^-128 of the exact part times 2^128 (its docstring), so within 1
SCALED_SUM_E = 1


def certify_weil(n: int, k: int, p: int) -> list[str]:
    """Weil's bound |S(m,n,k;p)|^2 <= (k-1)^2 p for m = 1..p-1, decided in
    integers on a certified interval around the exact scaled sums, one
    verdict per m.

    _scaled_sum gives the integers (re, im), each its exact part times
    2^128 rounded once from within 2^-65, so within E = SCALED_SUM_E = 1
    of 2^128 Re S and 2^128 Im S.  Then
    max(|re| - E, 0)^2 + max(|im| - E, 0)^2 <= |S|^2 * 2^256
    <= (|re| + E)^2 + (|im| + E)^2.  CERTIFIED: the upper end is within
    the bound; EXCEEDS: the lower end is above it; FLAGGED: the interval
    straddles the bound, as it does wherever |S|^2 equals it.
    """
    family = PhaseFamily(k, TWIST_NONE, n)
    err = SCALED_SUM_E
    bound = (k - 1) ** 2 * p << 256
    verdicts = []
    for m in range(1, p):
        re, im = _scaled_sum(_counts(family, p, m), p)
        re, im = abs(re), abs(im)
        if (re + err) ** 2 + (im + err) ** 2 <= bound:
            verdicts.append(CERTIFIED)
        elif max(re - err, 0) ** 2 + max(im - err, 0) ** 2 > bound:
            verdicts.append(EXCEEDS)
        else:
            verdicts.append(FLAGGED)
    return verdicts


@pytest.fixture(scope="session")
def small_odd_primes():
    return [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.fixture
def orbit_tables_built(monkeypatch):
    """The moduli at which power means call exp_sums._orbit_table during
    the test, in call order, with its cache and _power_mean's cleared."""
    built = []
    table = exp_sums._orbit_table
    table.cache_clear()
    exp_sums._power_mean.cache_clear()

    def recording(family, q, p):
        built.append(q)
        return table(family, q, p)

    monkeypatch.setattr(exp_sums, "_orbit_table", recording)
    return built
