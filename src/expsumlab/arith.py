"""Exact integer arithmetic primitives.

A modulus is a plain int.  check_q is the one rule of what a valid one
is: every modulus, and the top of every range, is refused from 2^31 on,
before any work.  check_range also refuses a reversed range, and
check_odd_prime every p but an odd prime, for the Legendre symbol, the
character sums, the pair search and the conjecture alike.  Everything
here is deterministic trial-division arithmetic, adequate below that
bound: sweeps reach 2 * 10^4, `sum` runs at 10^6 + 3, and factorize
trial-divides each q once per process while q is among the last 4096 it
was asked for.  No probabilistic primality, no big-number shortcuts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, repeat
from typing import NamedTuple


class NotRepresentableError(ValueError):
    """Raised when 4p = d^2 + 27 b^2 has no admissible solution."""


@lru_cache(maxsize=4096)
def factorize(q: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of q >= 1 as ((p, e), ...), ascending primes;
    the last 4096 are kept, as a registry row asks for that of its q more
    than once."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    out = []
    n = q
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


# the largest modulus (exclusive): exp_sums docstring, "Kronecker slots"
_MAX_Q = 1 << 31


def check_q(q: int) -> int:
    """q as an int, refused before any work unless q < 2^31."""
    q = int(q)
    if q >= _MAX_Q:
        raise ValueError(f"modulus must be below 2^31, got {q}")
    return q


def check_odd_prime(p: int) -> None:
    """Refuses every p but an odd prime, with one message."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def primitive_root(p: int) -> int:
    """The least primitive root mod the prime p: the least g with
    g^((p-1)/r) != 1 for every prime r | p - 1, so of order p - 1; 1 at
    p = 2.  Refuses p >= 2^31 (check_q) and a non-prime."""
    p = check_q(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    cofactors = [(p - 1) // r for r, _ in factorize(p - 1)]
    g = 1
    while 1 in map(pow, repeat(g), cofactors, repeat(p)):
        g += 1
    return g


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion; p must be an odd prime."""
    check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def check_range(lo: int, hi: int) -> None:
    """The one check of every modulus range: lo > hi is a usage error, and
    so is hi >= 2^31 (check_q), refused before any sieve is allocated."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    check_q(hi)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending: the primes up to
    isqrt(hi) cross out their multiples in a window of hi - lo + 1 bytes,
    so the cost follows the width of the range, not hi."""
    check_range(lo, hi)
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for d in range(2, root + 1):
        if base[d]:
            base[d * d :: d] = bytes(len(range(d * d, root + 1, d)))
            # the first multiple of d in the window from d*d on; smaller
            # ones have a smaller prime factor
            start = max(d * d, -(-lo // d) * d) - lo
            window[start::d] = bytes(len(range(start, len(window), d)))
    return list(compress(range(lo, hi + 1), window))


class DRep(NamedTuple):
    """The representation 4p = d^2 + 27 b^2 with d = 1 mod 3, b >= 0."""

    d: int
    b: int


def represent_4p(p: int) -> DRep:
    """Unique (d, b) with 4p = d^2 + 27 b^2 and d = 1 (mod 3).

    Exists exactly for primes p = 1 (mod 3); the sign of d is forced by
    the congruence.
    """
    if not is_prime(p) or p % 3 != 1:
        raise NotRepresentableError(f"p = {p} is not a prime with p = 1 mod 3")
    for b in range(math.isqrt(4 * p // 27) + 1):
        r = 4 * p - 27 * b * b
        d = math.isqrt(r)
        if d * d == r:
            for s in (d, -d):
                if s % 3 == 1:
                    return DRep(d=s, b=b)
    raise NotRepresentableError(f"no representation found for p = {p}")
