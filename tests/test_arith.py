import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsumlab import arith
from expsumlab.arith import (
    DRep,
    NotRepresentableError,
    check_q,
    factorize,
    is_prime,
    legendre,
    primes_in_range,
    primitive_root,
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


def test_check_q_refuses_from_2_pow_31():
    # the largest accepted q passes through as an int; from 2^31 on the
    # refusal keeps its message word for word
    for q in (3, 2**31 - 1):
        assert check_q(q) == q
    for q in (2**31, 2**31 + 1, 2**61 - 1):
        with pytest.raises(ValueError) as err:
            check_q(q)
        assert str(err.value) == f"modulus must be below 2^31, got {q}"


def multiplicative_order(g, p):
    """The least i >= 1 with g^i = 1 mod p, by repeated multiplication."""
    x, i = g % p, 1
    while x != 1 % p:
        x, i = x * g % p, i + 1
    return i


def test_primitive_root_is_the_least_element_of_order_p_minus_1():
    for p in primes_in_range(2, 1999):
        least = next(g for g in range(1, p) if multiplicative_order(g, p) == p - 1)
        assert primitive_root(p) == least, p
    assert primitive_root(2) == 1
    assert [primitive_root(p) for p in (3, 7, 23, 41, 191, 409)] == [2, 3, 5, 6, 19, 21]


@pytest.mark.parametrize("n", [-7, 0, 1, 4, 9, 561, 32767, 2**31 - 3])
def test_primitive_root_refuses_a_non_prime(n):
    with pytest.raises(ValueError, match=f"^p must be prime, got {n}$"):
        primitive_root(n)


def test_primitive_root_keeps_the_last_4096_primes():
    # the same bound as factorize's, stated beside it in the docstring
    assert primitive_root.cache_info().maxsize == factorize.cache_info().maxsize == 4096
    assert "primitive_root keeps its last 4096 primes" in arith.__doc__


def test_primitive_root_refuses_from_2_pow_31_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("primitive_root did work before rejecting p")

    for name in ("factorize", "is_prime"):
        monkeypatch.setattr(arith, name, no_work)
    for p in (2**31, 2**31 + 11, 2**61 - 1):
        with pytest.raises(ValueError) as err:
            primitive_root(p)
        assert str(err.value) == f"modulus must be below 2^31, got {p}"


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


def test_primes_in_range_refuses_a_top_from_2_pow_31_before_sieving(monkeypatch):
    # a window of hi - lo + 1 bytes up to 10^11 would be a 100 GB sieve
    def no_work(*args):
        raise AssertionError("primes_in_range allocated before checking hi")

    monkeypatch.setattr(arith, "bytearray", no_work, raising=False)
    for lo, hi in ((3, 2**31), (2**31 - 10, 2**31 + 10), (3, 10**11)):
        with pytest.raises(ValueError) as err:
            primes_in_range(lo, hi)
        assert str(err.value) == f"modulus must be below 2^31, got {hi}"
    # a reversed range keeps its own message, and the largest top is sieved
    with pytest.raises(ValueError, match=f"^empty range: lo={10**12} > hi={10**11}$"):
        primes_in_range(10**12, 10**11)
    with pytest.raises(AssertionError, match="allocated"):
        primes_in_range(2**31 - 10, 2**31 - 1)


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
