"""Legendre-symbol character sums of integer polynomials.

Includes the two specific sums whose difference is the corollary under
test: (-1/p) * sum((c^3+c^2+c)/p) and C(p) = sum(((b^2+1)(b^2+4b+1))/p).
The ZWL closed form's sum((c+1+cbar)/p), cbar = 1/c mod p, is that cubic sum
term by term: c+1+cbar = cbar*(c^2+c+1) and (cbar/p) = (c/p).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .arith import check_odd_prime, legendre


class PolynomialZ(namedtuple("PolynomialZ", ["coeffs"])):
    """Integer polynomial, coefficients ascending; () is the zero poly."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return self

    @classmethod
    def _make(cls, iterable) -> "PolynomialZ":
        # _replace builds through _make: check there too
        return cls(*iterable)

    @classmethod
    def of(cls, *coeffs: int) -> "PolynomialZ":
        """Build from ascending coefficients, trimming trailing zeros."""
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if abs(c) == 1 else f"{abs(c)}{xs}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        s0, t0 = parts[0]
        out = ("-" if s0 == "-" else "") + t0
        for sign, term in parts[1:]:
            out += sign + term
        return out


X = PolynomialZ.of(0, 1)

# the two polynomials of the corollary
CUBIC_CCC = PolynomialZ.of(0, 1, 1, 1)  # x^3 + x^2 + x
NING_WANG_QUARTIC = PolynomialZ.of(1, 4, 2, 4, 1)  # (x^2+1)(x^2+4x+1)


@lru_cache(maxsize=512)
def legendre_table(p: int) -> tuple[int, ...]:
    """(a/p) for a = 0..p-1, built from the set of nonzero squares."""
    check_odd_prime(p)
    table = [-1] * p
    table[0] = 0
    for x in range(1, p):
        table[x * x % p] = 1
    return tuple(table)


@lru_cache(maxsize=1024)
def char_sum_poly(f: PolynomialZ, p: int) -> int:
    """sum_{x=1}^{p-1} ((f(x))/p), by Horner's rule on the coefficients
    reduced mod p, in Python ints: one % p per point.  The last 1024
    results are kept: zwl_4th, nw_4th and corollary1 ask for the same two
    sums at the same primes."""
    if f.is_zero:
        raise ValueError("character sum of the zero polynomial")
    table = legendre_table(p)
    lead, *rest = [c % p for c in reversed(f.coeffs)]
    total = 0
    for x in range(1, p):
        v = lead
        for c in rest:
            v = v * x + c
        total += table[v % p]
    return total


def ning_wang_c(p: int) -> int:
    """C(p) = sum_{b=1}^{p-1} (((b^2+1)(b^2+4b+1))/p)."""
    return char_sum_poly(NING_WANG_QUARTIC, p)


class Corollary1Result(NamedTuple):
    p: int
    term1: int  # (-1/p) * sum((c^3+c^2+c)/p)
    term2: int  # C(p)
    difference: int  # the corollary claims 2; registry.verdict decides


def corollary1_check(p: int) -> Corollary1Result:
    """The corollary's two character sums and their difference."""
    term1 = legendre(-1, p) * char_sum_poly(CUBIC_CCC, p)
    term2 = ning_wang_c(p)
    return Corollary1Result(p=p, term1=term1, term2=term2, difference=term1 - term2)
