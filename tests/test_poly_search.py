import hashlib
import inspect
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from conftest import legendre_by_squares
from hypothesis import given
from hypothesis import strategies as st

from expsumlab import char_sums, poly_search
from expsumlab.arith import legendre, primes_in_range
from expsumlab.char_sums import CUBIC_CCC, NING_WANG_QUARTIC, PolynomialZ, X, char_sum_poly
from expsumlab.poly_search import (
    _candidates,
    _differing,
    _euler_sums,
    _group,
    _order_key,
    _sound,
    _symbol_rows,
    enumerate_polys,
    search_constant_pairs,
)

PRIMES = tuple(primes_in_range(3, 100))
# a seeded polynomial may have coefficients beyond int64
HUGE = PolynomialZ.of(-(2**70) - 1, 2**64 + 3, 5, 2**63 + 7)


def _sum_rows(polys, primes) -> list[tuple[int, ...]]:
    sums, _ = _symbol_rows(polys, primes)
    return [tuple(row) for row in sums.tolist()]


def test_symbol_rows_examples():
    sq = PolynomialZ.of(0, 0, 1)
    rows = _sum_rows([sq, X, CUBIC_CCC], (5, 7, 11))
    assert rows[0] == (4, 6, 10)  # x^2 over x = 1..p-1 gives p - 1
    assert rows[1] == (0, 0, 0)
    assert rows[2][0] == sum(legendre(x**3 + x**2 + x, 5) for x in range(1, 5))


def test_group_keys_are_shift_invariant():
    sq = PolynomialZ.of(0, 0, 1)
    shifted = PolynomialZ.of(1, 2, 1)  # (x+1)^2: sums (3, 5, 9), one less than x^2
    sums, _ = _symbol_rows([sq, X, shifted], (5, 7, 11))
    groups = _group(sums)
    # x^2 and (x+1)^2 differ by a constant, so they land in the same
    # bucket, in row order
    assert sorted(groups.values()) == [[0, 2], [1]]


def _tuple_key(row) -> tuple:
    return tuple(s - row[0] for s in row)


@st.composite
def _sums_matrices(draw):
    """(sums, minus_one): a random int64 sums matrix with every entry of
    column k within +-(p_k - 1), and minus_one[k] = (-1/p_k).  Besides
    fresh rows it plants duplicates of earlier rows, rows offset from one
    by a constant, and rows equal to one signed by minus_one plus a
    constant, so that groups and twisted lookups have members."""
    primes = draw(st.lists(st.sampled_from([3, 5, 7, 13, 101, 65_537, 2**31 - 1]), min_size=1, max_size=6))
    bounds = [p - 1 for p in primes]
    minus_one = [legendre(-1, p) for p in primes]
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "offset", "signed"])) if rows else "fresh"
        if kind == "fresh":
            rows.append([draw(st.integers(-b, b)) for b in bounds])
            continue
        base = draw(st.sampled_from(rows))
        if kind == "signed":
            base = [m * s for m, s in zip(minus_one, base)]
        c = 0
        if kind != "duplicate":
            # any constant that keeps every entry within its bound
            c = draw(st.integers(max(-b - s for b, s in zip(bounds, base)),
                                 min(b - s for b, s in zip(bounds, base))))
        rows.append([s + c for s in base])
    return np.array(rows, dtype=np.int64), minus_one


@given(_sums_matrices(), st.booleans())
def test_byte_keys_group_and_look_up_like_tuple_keys(matrix, twisted):
    # the reference keys every row by the Python tuple of the row minus its
    # first entry, and looks up each (-1/p)-signed row's tuple among them
    sums, minus_one = matrix
    rows = sums.tolist()
    reference: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        reference.setdefault(_tuple_key(row), []).append(i)
    assert sorted(_group(sums).values()) == sorted(reference.values())
    expected = []
    for members in reference.values():
        expected += [(rows[i][0] - rows[j][0], i, j, 0) for i, j in itertools.combinations(members, 2)]
    if twisted:
        for i, row in enumerate(rows):
            signed = [m * s for m, s in zip(minus_one, row)]
            expected += [(signed[0] - rows[j][0], i, j, 1)
                         for j in reference.get(_tuple_key(signed), ()) if j != i]
    found = _candidates(sums, minus_one, twisted)
    assert found.dtype == np.int64 and found.shape == (len(expected), 4)
    assert sorted(map(tuple, found.tolist())) == sorted(expected)


def _pairs(*pairs) -> np.ndarray:
    # the rows i and j of _differing's arguments, as one (2, n) array
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def test_differ_cases():
    f = PolynomialZ.of(1, 0, 1)  # x^2 + 1
    _, symbols = _symbol_rows([f, PolynomialZ.of(4, 0, 4), PolynomialZ.of(4, 0, 1)], PRIMES)
    # f against itself, against 4f (the same symbols), against x^2+4 and,
    # in the other order, x^2+4 against f
    decided = _differing(symbols, *_pairs((0, 0), (0, 1), (0, 2), (2, 0)))
    assert decided.tolist() == [False, False, True, True]
    assert _differing(symbols, *_pairs()).shape == (0,)


def test_enumerate_canonical_representatives():
    polys = list(enumerate_polys(1, 1))
    assert X in polys
    # -x is outside the sign-normalized space; x+1 is a shift of x, and a
    # shift is no symmetry of the from-one sum: (x/p) sums to 0, ((x+1)/p)
    # to -1, so x+1 is kept
    assert PolynomialZ.of(0, -1) not in polys
    assert PolynomialZ.of(1, 1) in polys


def test_enumerate_prunes_only_exact_symmetries():
    # every polynomial enumerate_polys(2, 4) drops has a kept representative
    # with the identical from-one signature
    kept = list(enumerate_polys(2, 4))
    kept_sums = set(_sum_rows(kept, PRIMES))
    candidates = [
        PolynomialZ((a, b, c)[: degree + 1])
        for degree in (1, 2)
        for a in range(-4, 5)
        for b in range(-4, 5)
        for c in range(-4, 5)
        if (a, b, c)[degree] > 0 and (degree == 2 or c == 0)
    ]
    dropped = sorted(set(candidates) - set(kept), key=_order_key)
    assert dropped  # the pruning does prune
    for f, row in zip(dropped, _sum_rows(dropped, PRIMES), strict=True):
        assert row in kept_sums, str(f)


def _reference_enumeration(max_degree, bound):
    """The former rule, rebuilt test-side: lower coefficients from a
    recursive generator, f dropped when 4 divides every coefficient or
    when f(-x) has a positive lead and a smaller _order_key."""
    def rec(prefix, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for c in range(-bound, bound + 1):
            yield from rec([*prefix, c], remaining - 1)

    def reflect(coeffs):
        return tuple((-1) ** i * c for i, c in enumerate(coeffs))

    out = []
    for degree in range(1, max_degree + 1):
        for lead in range(1, bound + 1):
            for lower in rec([], degree):
                f = PolynomialZ((*lower, lead))
                if all(c % 4 == 0 for c in f.coeffs):
                    continue
                g = PolynomialZ(reflect(f.coeffs))
                if g.coeffs[-1] > 0 and _order_key(g) < _order_key(f):
                    continue
                out.append(f.coeffs)
    return out


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_enumerate_matches_reference_rule(degree, bound):
    assert [f.coeffs for f in enumerate_polys(degree, bound)] == (
        _reference_enumeration(degree, bound))


def test_seeding_twice_or_inside_the_space_changes_nothing():
    primes = tuple(primes_in_range(3, 103))
    inside = PolynomialZ.of(1, 0, 1)  # x^2+1, already enumerated
    once = search_constant_pairs(2, 2, primes, twisted=True, extra_polys=(CUBIC_CCC,))
    again = search_constant_pairs(
        2, 2, primes, twisted=True, extra_polys=(CUBIC_CCC, inside, CUBIC_CCC))
    assert inside in enumerate_polys(2, 2)
    assert again.n_polynomials == once.n_polynomials == len(list(enumerate_polys(2, 2))) + 1
    assert again.hits == once.hits


def test_enumerate_excludes_square_multiples():
    polys = list(enumerate_polys(2, 4))
    assert PolynomialZ.of(0, 4) not in polys  # 4x = 2^2 * x
    assert PolynomialZ.of(0, 0, 4) not in polys
    assert PolynomialZ.of(0, 2) in polys  # content 2 is squarefree


def test_enumerate_is_deterministic():
    a = [f.coeffs for f in enumerate_polys(2, 3)]
    b = [f.coeffs for f in enumerate_polys(2, 3)]
    assert a == b
    assert len(a) == len(set(a))


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        list(enumerate_polys(0, 3))
    with pytest.raises(ValueError):
        list(enumerate_polys(2, 0))


def test_search_requires_enough_primes():
    with pytest.raises(ValueError):
        search_constant_pairs(2, 2, (5, 7, 11))


@pytest.mark.parametrize("bad", [1, 2, 9, 91])
def test_search_validates_evidence_primes_before_any_work(monkeypatch, bad):
    def no_work(*args):
        raise AssertionError("the search did work before checking its primes")

    for name in ("enumerate_polys", "_euler_sums", "_symbol_rows"):
        monkeypatch.setattr(poly_search, name, no_work)
    with pytest.raises(ValueError, match="odd prime"):
        search_constant_pairs(2, 2, [bad, 3, 5, 7, 11, 13, 17, 19])
    with pytest.raises(ValueError, match="odd prime"):
        search_constant_pairs(2, 2, [3, 5, 7, 11, 13, 17, 19, bad])


@pytest.mark.parametrize("primes", [[3] * 8, [3, 5, 7, 11, 13, 17, 19, 19]])
def test_search_refuses_duplicate_primes_before_any_work(monkeypatch, primes):
    # a repeated prime is no further evidence: eight copies of 3 are one prime
    def no_work(*args):
        raise AssertionError("the search did work before checking its primes")

    for name in ("enumerate_polys", "_euler_sums", "_symbol_rows"):
        monkeypatch.setattr(poly_search, name, no_work)
    with pytest.raises(ValueError, match="evidence primes must be distinct"):
        search_constant_pairs(2, 2, primes)


def test_search_refuses_a_zero_polynomial_before_any_work(monkeypatch):
    # the zero polynomial has no character sum and no degree to order by:
    # refused with the other inputs, before a polynomial is enumerated
    def no_work(*args):
        raise AssertionError("the search did work before checking its polynomials")

    for name in ("enumerate_polys", "_euler_sums", "_symbol_rows"):
        monkeypatch.setattr(poly_search, name, no_work)
    with pytest.raises(ValueError) as info:
        search_constant_pairs(1, 1, PRIMES[:8], extra_polys=(CUBIC_CCC, PolynomialZ(())))
    assert str(info.value) == "character sum of the zero polynomial"


def test_hits_in_row_order_are_in_key_order():
    # hits are sorted by (c, row of f, row of g, twisted); the rows are in
    # _order_key order with unique keys, so that is the order of the keys
    polys = list(enumerate_polys(3, 2))
    assert len({_order_key(f) for f in polys}) == len(polys)
    res = search_constant_pairs(3, 2, primes_in_range(3, 103), twisted=True)
    keys = [(h.c, _order_key(h.f), _order_key(h.g), h.twisted) for h in res.hits]
    assert res.hits and keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_search_finds_quadratic_pair():
    res = search_constant_pairs(2, 4, PRIMES)
    pairs = {(h.f.coeffs, h.g.coeffs, h.c) for h in res.hits}
    # sum((x^2 + a)/p) over x = 1..p-1 is -1 - (a/p): equal sums whenever
    # (1/p) = (4/p), i.e. always, so this pair sits at c = 0
    assert ((1, 0, 1), (4, 0, 1), 0) in pairs
    # both sum to -1 at every p (a nonzero discriminant, and a root at x = 0);
    # x^2-2x is the shift of x^2-1 by -1, whose sum -1 - (-1/p) differs, so
    # it must not be pruned in favour of x^2-1
    assert ((0, -1, 1), (0, -2, 1), 0) in pairs
    # (2/p) genuinely varies with p, so x^2+1 vs x^2+2 must not appear
    assert not any(
        {h.f.coeffs, h.g.coeffs} == {(1, 0, 1), (2, 0, 1)} for h in res.hits
    )


def test_search_histogram_matches_hits():
    res = search_constant_pairs(2, 4, PRIMES)
    assert sum(res.histogram.values()) == len(res.hits)
    assert all(res.histogram[h.c] >= 1 for h in res.hits)
    assert res.n_polynomials == len(list(enumerate_polys(2, 4)))


def test_search_hits_are_sound():
    # re-verify every reported pair from scratch with the slow symbol sum,
    # in both modes
    for twisted in (False, True):
        res = search_constant_pairs(2, 3, PRIMES, twisted=twisted)
        assert any(h.twisted for h in res.hits) == twisted
        for h in res.hits:
            for p in PRIMES:
                sf = sum(legendre(h.f(x), p) for x in range(1, p))
                sg = sum(legendre(h.g(x), p) for x in range(1, p))
                if h.twisted:
                    sf *= legendre(-1, p)
                assert sf - sg == h.c, (str(h.f), str(h.g), p)


def test_quadratic_closed_form_predicts_buckets():
    # sum_{x=1}^{p-1} ((x^2 + a)/p) = -1 - (a/p), the closed form behind
    # the c = 0 bucket of the quadratic families
    for p in primes_in_range(3, 200):
        for a in range(-10, 11):
            if a % p == 0:
                continue
            f = PolynomialZ.of(a, 0, 1)
            observed = sum(legendre(f(x), p) for x in range(1, p))
            assert observed == -1 - legendre(a, p), (p, a)


def test_twisted_search_finds_corollary_pair():
    res = search_constant_pairs(
        1, 1, PRIMES, twisted=True, extra_polys=(CUBIC_CCC, NING_WANG_QUARTIC)
    )
    match = [
        h
        for h in res.hits
        if h.twisted and {h.f, h.g} == {CUBIC_CCC, NING_WANG_QUARTIC}
    ]
    assert len(match) == 1
    assert match[0].c == 2
    assert match[0].f == CUBIC_CCC  # twisted side carries the (-1/p) factor


# one higher part, x^3-2x^2+5x, under the constants 0, negative, at least
# every prime below 60, 0 mod 3, 5, 7 and 11 (1155), and beyond int64 on
# either side, interleaved with other higher parts and two constant-only
# seeds, one beyond int64
SPLIT = [
    PolynomialZ.of(0, 5, -2, 1), CUBIC_CCC, PolynomialZ.of(-1, 5, -2, 1), PolynomialZ.of(5),
    PolynomialZ.of(-7, 5, -2, 1), HUGE, PolynomialZ.of(61, 5, -2, 1), PolynomialZ.of(-(2**65)),
    PolynomialZ.of(1155, 5, -2, 1), PolynomialZ.of(-1, 5, 2), PolynomialZ.of(2**70 + 3, 5, -2, 1),
    PolynomialZ.of(-(2**64) - 1, 5, -2, 1),
]
# SPLIT in another row order
SHUFFLED_SPLIT = random.Random(5).sample(SPLIT, len(SPLIT))
# two higher parts, x^3-2x^2+5x and 3x^2, each under 38 constants:
# negative, 0, at least every prime below 60, and beyond int64 on either
# side, so that many constants share one residue mod each prime
MANY_CONSTANTS = [
    PolynomialZ.of(c, *h)
    for c in [*range(-97, 140, 7), 2**64 + 1, -(2**64) - 1, 2**70 + 3, -(2**70)]
    for h in ((5, -2, 1), (0, 3))
]


def _brute_sums(f, primes):
    return tuple(sum(legendre(f(x), p) for x in range(1, p)) for p in primes)


def test_euler_oracle_matches_brute_force(monkeypatch):
    # the oracle must share no code with the signature path it checks: every
    # function of poly_search but the oracle itself (the signature path and
    # its helpers, the library's scalar Legendre symbol) and every function
    # of char_sums (its Legendre table, char_sum_poly) refuses to run
    def refuse(*args):
        raise AssertionError("the oracle used the signature path")

    primes = tuple(primes_in_range(3, 60))
    # seeded polynomials may have coefficients beyond int64
    huge = PolynomialZ.of(-(2**70) - 1, 2**64 + 3, 5, 2**63 + 7)
    polys = [*enumerate_polys(2, 2), CUBIC_CCC, NING_WANG_QUARTIC, huge, *SPLIT]
    refused = set()
    for module in (char_sums, poly_search):
        for name, obj in list(vars(module).items()):
            if name != "_euler_sums" and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                monkeypatch.setattr(module, name, refuse)
                refused.add(name)
    assert {"_symbol_rows", "legendre", "legendre_table", "char_sum_poly"} <= refused
    rows = _euler_sums(polys, primes)
    assert rows.shape == (len(polys), len(primes))
    for f, row in zip(polys, rows.tolist()):
        # the reference enumerates squares: no Euler's criterion on this side
        expected = [sum(legendre_by_squares(f(x), p) for x in range(1, p)) for p in primes]
        assert row == expected, str(f)


@pytest.mark.parametrize("polys", [SPLIT, SHUFFLED_SPLIT, MANY_CONSTANTS],
                         ids=["split", "shuffled", "many_constants"])
def test_split_into_higher_part_and_constant_matches_brute_force(polys):
    # both passes evaluate each higher part once per prime and add the
    # constant mod p, whatever the order of the rows and however many
    # constants share a higher part
    primes = tuple(primes_in_range(3, 60))
    assert len(set(polys)) == len(polys)
    brute = [_brute_symbols(f, primes) for f in polys]
    expected = [list(_brute_sums(f, primes)) for f in polys]
    sums, symbols = _symbol_rows(polys, primes)
    assert symbols.tolist() == brute
    assert sums.tolist() == expected
    assert _euler_sums(polys, primes).tolist() == expected


def test_symbol_rows_sums_match_char_sum_poly():
    primes = tuple(primes_in_range(3, 103))
    polys = [*enumerate_polys(3, 2), CUBIC_CCC, NING_WANG_QUARTIC, HUGE]
    sums, symbols = _symbol_rows(polys, primes)
    assert sums.shape == (len(polys), len(primes))
    assert symbols.shape == (len(polys), sum(p - 1 for p in primes))
    for f, row in zip(polys, sums.tolist()):
        assert row == [char_sum_poly(f, p) for p in primes], str(f)


def _brute_symbols(f, primes):
    return [legendre_by_squares(f(x), p) for p in primes for x in range(1, p)]


def test_symbol_rows_decide_difference_like_brute_force():
    primes = tuple(primes_in_range(3, 60))
    f = PolynomialZ.of(1, 0, 1)  # x^2+1
    four_f = PolynomialZ.of(4, 0, 4)  # same symbols as f
    x2_f = PolynomialZ.of(0, 0, 1, 0, 1)  # x^2*f: differs from f only at x = 0
    # (x+1)^2*f: differs from f only where it is 0, at x = -1
    shifted_square_f = PolynomialZ.of(1, 2, 2, 2, 1)
    quad_4 = PolynomialZ.of(4, 0, 1)  # the same sums as f, other symbols
    small = [
        f, four_f, x2_f, shifted_square_f, quad_4,
        PolynomialZ.of(-1, 0, -1),  # -f
        PolynomialZ.of(2, 0, 1),
        PolynomialZ.of(0, 0, 1),
        X,
        CUBIC_CCC,
        NING_WANG_QUARTIC,
        HUGE,
    ]
    brute = [_brute_symbols(g, primes) for g in small]
    _, symbols = _symbol_rows(small, primes)
    assert symbols.tolist() == brute
    pairs = list(itertools.combinations(range(len(small)), 2))
    decided = {}
    for (i, j), differ in zip(pairs, _differing(symbols, *_pairs(*pairs)).tolist()):
        a, b = small[i], small[j]
        decided[a, b] = differ
        # per x: both symbols nonzero and different
        assert differ == any(u * v == -1 for u, v in zip(brute[i], brute[j])), (str(a), str(b))
    assert not decided[f, four_f]
    assert not decided[f, x2_f]
    assert not decided[f, shifted_square_f]
    assert decided[f, quad_4]


def _one_block(polys, primes):
    """The reference both passes are checked against at scale: per prime,
    f(x) mod p for every f (rows) and x = 1..p-1 as one int64 (rows x
    (p-1)) array, by Horner's rule on the reduced coefficients, and its
    symbols read from the squares.  Yields (p, symbols) per prime."""
    width = max(len(f.coeffs) for f in polys)
    for p in primes:
        squares = np.array([legendre_by_squares(v, p) for v in range(p)], dtype=np.int8)
        coeffs = np.array([[c % p for c in f.coeffs + (0,) * (width - len(f.coeffs))] for f in polys],
                          dtype=np.int64)
        vals = np.zeros((len(polys), p - 1), dtype=np.int64)
        for col in coeffs.T[::-1]:
            vals = (vals * np.arange(1, p) + col[:, None]) % p
        yield p, squares[vals]


def test_symbol_rows_blocks_match_one_block():
    # the per-constant gathers fill the symbol matrix and the sums exactly
    # as one gather of every row's values would
    primes = tuple(primes_in_range(3, 103))
    polys = [*enumerate_polys(3, 2), CUBIC_CCC, NING_WANG_QUARTIC, HUGE]
    sums, symbols = _symbol_rows(polys, primes)
    lo = 0
    for j, (p, one_block) in enumerate(_one_block(polys, primes)):
        assert (symbols[:, lo:lo + p - 1] == one_block).all(), p
        assert (sums[:, j] == one_block.sum(axis=1)).all(), p
        lo += p - 1


def test_pair_block_budget_keeps_the_hits(monkeypatch):
    # the pair test runs in blocks of at most _PAIR_BLOCK symbol elements;
    # any budget, from one pair per block to one block for all, keeps the
    # same hits
    primes = tuple(primes_in_range(3, 103))
    default = search_constant_pairs(3, 2, primes, twisted=True)
    for budget in (1, 7, 5000, 1 << 30):
        monkeypatch.setattr(poly_search, "_PAIR_BLOCK", budget)
        assert search_constant_pairs(3, 2, primes, twisted=True).hits == default.hits, budget


# degree 6 and 8, one with coefficients beyond int64: at the primes
# 601..700, p^7 >= 2^63, so the oracle's Horner loop, which reduces mod p
# after every step, would overflow at either width if it reduced only at
# the end; a lead of -1 (p - 1 once reduced) takes the unreduced values
# past 2^63
DEGREE_6 = [PolynomialZ.of(3, -1, 0, 2, 5, -7, -1), PolynomialZ.of(-5, 0, 0, 0, 0, 0, 2)]
DEGREE_8 = [PolynomialZ.of(1, 2, 3, 4, 5, 6, 7, 8, 9),
            PolynomialZ.of(2**64 + 1, -(2**70), 0, 3, 0, 0, 0, 2**63 + 5, -1)]


@pytest.mark.parametrize("polys", [DEGREE_6, DEGREE_6 + DEGREE_8], ids=["width7", "width9"])
def test_wide_polynomials_at_large_primes_match_brute_force(polys):
    primes = tuple(primes_in_range(601, 700))
    assert len(primes) >= 8 and all(p**7 >= 2**63 for p in primes)
    brute = [_brute_symbols(f, primes) for f in polys]
    expected = []
    for row in brute:
        rest = iter(row)
        expected.append([sum(itertools.islice(rest, p - 1)) for p in primes])
    assert _euler_sums(polys, primes).tolist() == expected
    sums, symbols = _symbol_rows(polys, primes)
    assert sums.tolist() == expected
    assert symbols.tolist() == brute


@pytest.mark.parametrize("max_degree, extra, width, inside, beyond", [
    (4, (), 5, 1_358_187_913, 1_358_187_923),
    # the width is set by a seeded degree-8 polynomial
    (2, (DEGREE_8[0],), 9, 1_012_333_499, 1_012_333_519),
])
def test_search_rejects_primes_beyond_the_power_basis_bound(monkeypatch, max_degree, extra, width,
                                                             inside, beyond):
    # the power-basis product is exact in int64 while width * (p - 1)^2 <
    # 2^63; a prime beyond that is refused before any matrix is allocated
    assert width * (inside - 1) ** 2 < 2**63 <= width * (beyond - 1) ** 2

    def no_work(*args):
        raise AssertionError("the search did work before checking its primes")

    for name in ("enumerate_polys", "_euler_sums", "_symbol_rows"):
        monkeypatch.setattr(poly_search, name, no_work)
    small = [3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError, match=f"prime {beyond} too large"):
        search_constant_pairs(max_degree, 2, [*small, beyond], extra_polys=extra)
    with pytest.raises(AssertionError, match="did work"):
        search_constant_pairs(max_degree, 2, [*small, inside], extra_polys=extra)


def test_euler_oracle_blocks_match_one_block():
    # the histogram sums, one product per residue of the constants, equal
    # the row sums of one gather of every row's values
    primes = tuple(primes_in_range(3, 103))
    polys = [*enumerate_polys(3, 2), CUBIC_CCC, NING_WANG_QUARTIC, HUGE]
    oracle = _euler_sums(polys, primes)
    for j, (p, one_block) in enumerate(_one_block(polys, primes)):
        assert (oracle[:, j] == one_block.sum(axis=1)).all(), p


@pytest.mark.parametrize("evaluate", [_euler_sums, _symbol_rows], ids=["oracle", "signature"])
def test_both_passes_build_no_rows_by_points_array(evaluate):
    # one higher part under 200 constants at p = 101: each pass holds its
    # int64 values per higher part, 1 x 100 entries, never the 200 x 100 of
    # one int64 (rows x points) array
    p = 101
    polys = [PolynomialZ.of(c, 5, -2, 1) for c in range(-60, 140)]
    rows_by_points = len(polys) * (p - 1) * 8
    tracemalloc.start()
    try:
        evaluate(polys, (p,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows_by_points / 2, (peak, rows_by_points)


def test_sound_rejects_wrong_constant_and_flipped_twist():
    minus_one = [legendre(-1, p) for p in PRIMES]
    oracle = _euler_sums(
        [PolynomialZ.of(1, 0, 1), PolynomialZ.of(4, 0, 1), CUBIC_CCC, NING_WANG_QUARTIC],
        PRIMES,
    )
    # known hits: x^2+1 vs x^2+4 at c = 0, and the corollary's twisted pair
    # at c = 2; then a wrong c on each, and a flipped twist on each
    hits = [(0, 0, 1, False), (2, 2, 3, True),
            (1, 0, 1, False), (3, 2, 3, True),
            (0, 0, 1, True), (2, 2, 3, False)]
    assert _sound(oracle, minus_one, hits).tolist() == [True, True] + [False] * 4
    assert _sound(oracle, minus_one, []).shape == (0,)


def test_unsound_grouping_raises(monkeypatch):
    # zeroed sums put every polynomial in one bucket with c = 0, and the real
    # symbols let pairs through to the re-verify, which must refuse them
    real = poly_search._symbol_rows

    def zeroed(polys, primes):
        sums, symbols = real(polys, primes)
        return np.zeros_like(sums), symbols

    monkeypatch.setattr(poly_search, "_symbol_rows", zeroed)
    with pytest.raises(AssertionError, match="unsound hit: x vs x-1"):
        search_constant_pairs(2, 2, PRIMES)


def test_grouping_finds_every_constant_difference_pair():
    # brute force over every ordered pair of enumerated polynomials: the
    # hits are exactly the fundamentally different pairs whose sums differ
    # by one constant, plain (each unordered pair once, in _order_key
    # order) and twisted ((-1/p) on the first side)
    primes = tuple(primes_in_range(3, 31))
    assert len(primes) == 10
    polys = list(enumerate_polys(2, 2))
    sums = {f: _brute_sums(f, primes) for f in polys}
    symbols = {f: _brute_symbols(f, primes) for f in polys}
    minus_one = [legendre(-1, p) for p in primes]
    expected = set()
    for f, g in itertools.permutations(polys, 2):
        if not any(u * v == -1 for u, v in zip(symbols[f], symbols[g])):
            continue
        plain = {a - b for a, b in zip(sums[f], sums[g])}
        if len(plain) == 1 and _order_key(f) < _order_key(g):
            expected.add((f, g, plain.pop(), False))
        twisted = {s * a - b for s, a, b in zip(minus_one, sums[f], sums[g])}
        if len(twisted) == 1:
            expected.add((f, g, twisted.pop(), True))
    res = search_constant_pairs(2, 2, primes, twisted=True)
    found = [(h.f, h.g, h.c, h.twisted) for h in res.hits]
    assert len(found) == len(set(found))
    assert set(found) == expected
    assert any(t for *_, t in expected) and not all(t for *_, t in expected)


@pytest.mark.slow
def test_degree_four_search_finds_corollary_pair():
    # the degree-4 gate: every degree-4, bound-4 polynomial, twisted, at
    # the primes 3..103
    res = search_constant_pairs(4, 4, primes_in_range(3, 103), twisted=True)
    assert len(res.hits) == 29_810
    # every hit, in order, as (str f, str g, c, twisted)
    blob = json.dumps([(str(h.f), str(h.g), h.c, h.twisted) for h in res.hits])
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        "e0cea5ddfa8278348cb96908618184006d58db03fc29615bb355e7a4b2e446ad")
    assert any(
        h.f == CUBIC_CCC and str(h.g) == "x^4-4x^3+2x^2-4x+1" and h.c == 2 and h.twisted
        for h in res.hits
    )
