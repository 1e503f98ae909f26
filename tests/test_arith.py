import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsumlab.arith import (
    DRep,
    Modulus,
    NotRepresentableError,
    factorize,
    is_prime,
    legendre,
    primes_in_range,
    represent_4p,
)

from conftest import legendre_by_squares

ODD_PRIMES = st.sampled_from(primes_in_range(3, 200))


def test_legendre_examples():
    assert legendre(1, 7) == 1
    assert legendre(14, 7) == 0
    assert legendre(3, 7) == -1  # squares mod 7 are {1, 2, 4}


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(2, 8)
    with pytest.raises(ValueError):
        legendre(2, 15)


@given(ODD_PRIMES, st.integers(-500, 500))
def test_legendre_matches_squares_oracle(p, a):
    assert legendre(a, p) == legendre_by_squares(a, p)


@given(ODD_PRIMES, st.integers(0, 500), st.integers(0, 500))
def test_legendre_multiplicative(p, a, b):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@given(ODD_PRIMES)
def test_legendre_sums_to_zero(p):
    assert sum(legendre(a, p) for a in range(1, p)) == 0


@given(st.integers(1, 5000))
def test_factorization_reassembles(q):
    prod = 1
    for p, e in factorize(q):
        assert is_prime(p)
        prod *= p**e
    assert prod == q


@pytest.mark.parametrize("n, expected", [
    (-7, False), (0, False), (1, False), (2, True), (4, False),
    (2**31 - 1, True), (2**31 - 3, False),
])
def test_is_prime_edges(n, expected):
    assert is_prime(n) == expected
    if n >= 1:
        assert Modulus.from_int(n).is_prime == expected


def test_modulus_fields():
    m = Modulus.from_int(45)
    assert m.factorization == ((3, 2), (5, 1))
    assert not m.is_prime
    assert m.phi == 24 and m.omega == 2
    assert m.unitary_primes == (5,)
    assert Modulus.from_int(7).is_prime


def test_primes_in_range():
    assert primes_in_range(3, 10) == [3, 5, 7]
    assert primes_in_range(14, 16) == []
    assert primes_in_range(190, 200) == [191, 193, 197, 199]
    assert primes_in_range(1, 2) == [2]


@given(st.integers(0, 300), st.integers(0, 300))
def test_primes_in_range_matches_trial_division(a, b):
    lo, hi = min(a, b), max(a, b)
    assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_primes_in_range_windows_match_trial_division():
    rng = random.Random(19)
    windows = [(lo, hi) for lo in range(4) for hi in range(lo, 12)]
    for _ in range(100):
        lo = rng.randrange(10**6)
        windows.append((lo, lo + rng.randrange(1000)))
    for lo, hi in windows:
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)


def test_primes_in_range_memory_follows_the_window():
    # the sieve used to hold hi + 1 bytes: 50 MB for this empty band
    tracemalloc.start()
    try:
        assert primes_in_range(50_000_000, 50_000_000) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_primes_in_range_rejects_a_reversed_range():
    with pytest.raises(ValueError, match="empty range: lo=5 > hi=3"):
        primes_in_range(5, 3)


def test_represent_4p_examples():
    assert represent_4p(7) == DRep(d=1, b=1)
    assert represent_4p(13) == DRep(d=-5, b=1)
    assert represent_4p(31) == DRep(d=4, b=2)


def test_represent_4p_rejects_wrong_class():
    with pytest.raises(NotRepresentableError):
        represent_4p(5)  # 5 = 2 mod 3
    with pytest.raises(NotRepresentableError):
        represent_4p(15)


def test_represent_4p_unique_below_1000():
    # brute-force over every (d, b) pair confirms existence and
    # uniqueness of the d = 1 mod 3 representation
    for p in primes_in_range(7, 999):
        if p % 3 != 1:
            continue
        sols = []
        for b in range(math.isqrt(4 * p // 27) + 1):
            r = 4 * p - 27 * b * b
            d = math.isqrt(r)
            if d * d == r:
                for s in (d, -d):
                    if s % 3 == 1 and (s, b) not in sols:
                        sols.append((s, b))
        rep = represent_4p(p)
        assert sols == [(rep.d, rep.b)]
        assert rep.d * rep.d + 27 * rep.b * rep.b == 4 * p
        assert rep.d % 3 == 1
