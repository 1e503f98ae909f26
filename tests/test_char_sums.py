import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsumlab.arith import legendre, primes_in_range
from expsumlab.char_sums import (
    CUBIC_CCC,
    NING_WANG_QUARTIC,
    PolynomialZ,
    X,
    char_sum_poly,
    corollary1_check,
    legendre_table,
    ning_wang_c,
)

from conftest import char_sum_direct, legendre_by_squares

ODD_PRIMES = st.sampled_from(primes_in_range(3, 200))


def shift(f: PolynomialZ, t: int) -> PolynomialZ:
    """f(x + t), by Horner's rule on coefficient lists."""
    out = [0]
    for c in reversed(f.coeffs):
        # out(x) = out(x) * (x + t) + c
        nxt = [0] * (len(out) + 1)
        for i, o in enumerate(out):
            nxt[i + 1] += o
            nxt[i] += o * t
        nxt[0] += c
        out = nxt
    return PolynomialZ.of(*out)


def scale(f: PolynomialZ, s: int) -> PolynomialZ:
    """s * f."""
    return PolynomialZ.of(*(s * c for c in f.coeffs))


def derivative(f: PolynomialZ) -> PolynomialZ:
    """f'."""
    return PolynomialZ.of(*(i * c for i, c in enumerate(f.coeffs) if i > 0))


def full_sum(f: PolynomialZ, p: int) -> int:
    """sum_{x=0}^{p-1} ((f(x))/p): the library's x = 1..p-1 sum plus x = 0."""
    return char_sum_poly(f, p) + legendre_by_squares(f(0), p)


def test_polynomial_construction_and_eval():
    f = PolynomialZ.of(1, 4, 2, 4, 1)
    assert f.degree == 4
    assert f(2) == 65
    assert PolynomialZ.of(0, 0, 0).is_zero
    with pytest.raises(ValueError):
        PolynomialZ((1, 0))
    with pytest.raises(ValueError):
        PolynomialZ.of().degree


def test_polynomial_shift_reflect_scale():
    f = PolynomialZ.of(0, 0, 1)  # x^2
    assert shift(f, 1) == PolynomialZ.of(1, 2, 1)
    assert shift(shift(f, -3), 3) == f
    g = PolynomialZ.of(1, 2, 3)
    assert scale(g, 2) == PolynomialZ.of(2, 4, 6)
    assert derivative(g) == PolynomialZ.of(2, 6)


def test_polynomial_str():
    assert str(CUBIC_CCC) == "x^3+x^2+x"
    assert str(PolynomialZ.of(-1, 0, 2)) == "2x^2-1"
    assert str(PolynomialZ.of(0)) == "0"
    assert str(X) == "x"


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(-20, 20),
       st.integers(-30, 30))
def test_shift_agrees_with_evaluation(coeffs, t, x):
    f = PolynomialZ.of(*coeffs)
    assert shift(f, t)(x) == f(x + t)


def test_legendre_table_matches_symbol():
    for p in (3, 5, 7, 29):
        assert list(legendre_table(p)) == [legendre(a, p) for a in range(p)]
        # the tuple of Python ints stays the public form
        assert type(legendre_table(p)) is tuple
        assert all(type(v) is int for v in legendre_table(p))


def test_char_sum_examples():
    # squares mod 5 are {1, 4}: (1/5)+(4/5)+(4/5)+(1/5) = 4 for x^2
    sq = PolynomialZ.of(0, 0, 1)
    assert char_sum_poly(sq, 5) == 4
    assert full_sum(sq, 5) == 4
    # linear polynomial hits every residue class once
    assert full_sum(X, 7) == 0
    assert char_sum_poly(X, 7) == 0
    assert char_sum_poly(CUBIC_CCC, 7) == char_sum_direct((0, 1, 1, 1), 7)
    # coefficients near or beyond int64 (seeded search polynomials) stay exact
    for c in (2**63 - 2, 2**64 + 3, -(2**70)):
        f = PolynomialZ.of(c, 1, 1)
        for p in (5, 7, 11):
            assert char_sum_poly(f, p) == char_sum_direct(f.coeffs, p), (c, p)


def test_char_sum_rejects_zero_poly():
    with pytest.raises(ValueError):
        char_sum_poly(PolynomialZ.of(), 7)


@given(ODD_PRIMES, st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_char_sum_matches_direct(p, coeffs):
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    f = PolynomialZ.of(*coeffs) if any(coeffs) else X
    if f.is_zero:
        f = X
    assert char_sum_poly(f, p) == char_sum_direct(f.coeffs, p)
    assert full_sum(f, p) == char_sum_direct(f.coeffs, p, include_zero=True)


@given(ODD_PRIMES, st.integers(-10, 10))
def test_full_range_sum_is_translation_invariant(p, t):
    f = NING_WANG_QUARTIC
    assert full_sum(shift(f, t), p) == full_sum(f, p)


@given(ODD_PRIMES, st.integers(1, 50))
def test_square_scaling_leaves_sum_fixed(p, s):
    if s % p == 0:
        s += 1
    f = CUBIC_CCC
    assert full_sum(scale(f, s * s), p) == full_sum(f, p)


def test_quadratic_closed_form():
    # sum_{x=0}^{p-1} ((x^2 + a)/p) = -1 whenever p does not divide a
    for p in primes_in_range(3, 200):
        for a in range(-10, 11):
            if a % p == 0:
                continue
            f = PolynomialZ.of(a, 0, 1)
            assert full_sum(f, p) == -1, (p, a)


def test_salie_twisted_equals_cubic_sum():
    # the ZWL closed form sums (c+1+cbar)/p through CUBIC_CCC: c+1+cbar =
    # cbar(c^2+c+1) and (cbar/p) = (c/p), term by term
    for p in primes_in_range(3, 200):
        brute = sum(legendre_by_squares(c + 1 + pow(c, -1, p), p) for c in range(1, p))
        assert brute == char_sum_poly(CUBIC_CCC, p), p


def test_ning_wang_c_small():
    assert ning_wang_c(3) == char_sum_direct((1, 4, 2, 4, 1), 3)
    assert ning_wang_c(5) == char_sum_direct((1, 4, 2, 4, 1), 5)
    assert ning_wang_c(7) == char_sum_direct((1, 4, 2, 4, 1), 7)


def test_corollary1_examples():
    r = corollary1_check(7)
    assert r.difference == 2
    assert r.term1 == legendre_by_squares(-1, 7) * char_sum_direct((0, 1, 1, 1), 7)
    assert r.term2 == char_sum_direct((1, 4, 2, 4, 1), 7)


def test_corollary1_holds_widely():
    assert all(corollary1_check(p).difference == 2 for p in primes_in_range(3, 500))


def _is_squarefree_mod(f: PolynomialZ, p: int) -> bool:
    # gcd(f, f') over GF(p) must be constant
    def reduce(poly):
        cs = [c % p for c in poly]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a, b = reduce(f.coeffs), reduce(derivative(f).coeffs)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], -1, p)
        shiftn = len(a) - len(b)
        factor = a[-1] * inv % p
        a = [(c - factor * (b[i - shiftn] if 0 <= i - shiftn < len(b) else 0)) % p
             for i, c in enumerate(a)]
        while a and a[-1] == 0:
            a.pop()
    return len(a) <= 1 and len(reduce(f.coeffs)) >= 1


def test_weil_character_bound_exhaustive():
    # |sum((f(x))/p)| <= (deg f - 1) sqrt(p) for squarefree f mod p
    import math

    from itertools import product

    polys = []
    for deg in (2, 3):
        for tail in product(range(-2, 3), repeat=deg):
            polys.append(PolynomialZ.of(*tail, 1))
    for p in primes_in_range(5, 60):
        for f in polys:
            if not _is_squarefree_mod(f, p):
                continue
            bound = (f.degree - 1) * math.sqrt(p) + 1e-9
            assert abs(full_sum(f, p)) <= bound, (p, str(f))
