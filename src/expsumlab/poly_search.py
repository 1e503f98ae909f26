"""Search for pairs of polynomials whose character sums differ by a constant.

Enumerates bounded integer polynomials, computes the row of Legendre
character sums sum_{x=1}^{p-1} (f(x)/p) across a prime list, and groups
row indices by the row minus its first entry, keyed by its int64 bytes,
so that pairs whose sums differ by a fixed constant land in the same
bucket.

The enumeration covers degree 1..max_degree, coefficients in
[-bound, bound], leading coefficient positive, and prunes only by two
exact symmetries of that sum at every odd prime p:
  - 4f has the same symbol as f, so f is dropped when 4 divides every
    coefficient (f/4 is enumerated instead);
  - x -> -x permutes 1..p-1, so f is dropped when f(-x) is also in the
    space and is smaller.  f(-x) has the degree and the sum of absolute
    coefficients of f, and the leading coefficient (-1)^deg * lead.  At
    odd degree it is therefore outside the space; at even degree its
    _order_key is smaller exactly when its coefficient tuple is.
    enumerate_polys decides both rules on the ascending coefficient tuple
    and builds a PolynomialZ only for the tuples it keeps.
Sign normalization is a scope choice, not a symmetry: -f carries a factor
(-1/p), which the twisted pass covers.  Shifts x -> x+t are not symmetries
of the from-one sum (they move it by (f(t)/p) - (f(0)/p)) and prune nothing.

Sums and symbols come from one batched pass per prime (_symbol_rows).
Each f is split into its higher part h = f - f(0) and its constant f(0):
polynomials that differ only in the constant share h, and its values.
The degree-3, bound-2 enumeration has 290 polynomials but 58 higher
parts (5 constants each); degree 4, bound 4 has 16,335 and 1,824.  Per
prime, every distinct h is evaluated exactly once, into one (parts x
(p-1)) int64 array, in the power basis: one int64 matrix product of its
coefficients of x^1..x^(width-1), reduced mod p, with a table of the
powers x^i mod p evaluates it at x = 1..p-1, and one % p reduces each
value.  The rows are then gathered once per distinct constant, straight
into the int8 symbol matrix: the rows of one constant have distinct
higher parts, so each gather reads at most (parts x (p-1)) values.
f(x) mod p is h(x) mod p + f(0) mod p reduced once more, but that sum is
below 2p, so the symbols are read at it from the Legendre table of p
laid out twice (2p entries): no second % p runs.  A product entry is at
most (width-1)*(p-1)^2 for width coefficients of the widest f;
search_constant_pairs rejects, before any work, a prime where
width*(p-1)^2 reaches 2^63, which is conservative: the product has one
term fewer.  Row i of both matrices belongs to polynomial i.  Grouping
keys each row by its bytes in the int64 matrix sums - sums[:, :1]: one
tobytes() covers every row, and one fixed-width slice of it is a row's
dict key.  The keys are exact: every entry is a character sum, so
|s| <= p - 1 < 2^31 and each difference is exact in int64, and two rows
have equal bytes exactly when they are equal rows.  The twisted pass
keys the (-1/p)-signed matrix the same way and looks each row up among
the plain groups.  The candidate pairs are one (pairs x 4) int64 array,
and one array test over blocks of pairs (_differing) keeps the
fundamentally different ones: some x where both symbols are nonzero and
differ.  The search has one signature path and no per-x Python loop.

Every emitted hit is re-verified at every evidence prime by an
independent oracle computed once for all polynomials of the search
(_euler_sums): f(x) is evaluated by Horner's rule, not in the power
basis, and classified by a table of Euler's criterion y^((p-1)/2) mod p,
built by pow, never through char_sums.legendre_table's squares,
arith.legendre, char_sum_poly or _symbol_rows.  It makes its own split
into higher part and constant, and evaluates each higher part, with a
zero constant, exactly once per prime, into its own (parts x (p-1))
array.  Its Horner loop reduces mod p after every step: every entry
stays below p, so a step is at most (p-1)^2 + (p-1) < 2^62, exact for
any p < 2^31 (which the power-basis bound implies, width >= 2) and any
number of coefficients.  It then sums through value histograms:
hist[h, v] counts the x with h(x) = v mod p, and a row's sum is the
product of hist[h] with its 2p-entry table from f(0) mod p on, one
matrix-vector product per distinct f(0) mod p.  The oracle thus shares
neither evaluation nor classification code with the signature path it
checks.  After grouping, one array expression (_sound) checks every hit
at every prime.  Hits are conjectural evidence, never theorems.

Neither pass builds an array of (polynomials x points): per prime, every
int64 array of either pass has at most parts x p entries.  Beside them
they hold only the int8 symbol matrix, the (polynomials x primes)
results and one index per polynomial.

A separate twisted mode allows a prime-dependent sign (-1/p) on one side,
the form the corollary's own pair takes.

numpy is imported inside the functions that use it: the search is the
one command that needs arrays, and every other command imports this
module without loading numpy.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, NamedTuple

from . import char_sums
from .arith import check_odd_prime, legendre
from .char_sums import PolynomialZ

if TYPE_CHECKING:
    import numpy as np

# elements of one int8 (pairs x symbol columns) block in _differing: 53
# pairs at the 1236 columns of primes 3..103, so that the blocks' few
# temporaries stay small beside the symbol matrix
_PAIR_BLOCK = 1 << 16
# no int64 entry of the power-basis product may reach this
_INT64_LIMIT = 2**63


class SearchHit(NamedTuple):
    f: PolynomialZ
    g: PolynomialZ
    c: int
    primes: tuple[int, ...]
    twisted: bool


class SearchResult(NamedTuple):
    hits: list[SearchHit]
    histogram: Counter  # c value -> hit count
    n_polynomials: int


def _symbol_rows(polys, primes) -> tuple[np.ndarray, np.ndarray]:
    """The signature path: sums and symbols of every f in polys (rows).

    sums[i, j] = sum_{x=1}^{p_j-1} (f_i(x)/p_j), an int64 matrix.  symbols
    is the int8 matrix of the symbols (f_i(x)/p) themselves, sum(p - 1)
    columns: x = 1..p-1 of the first prime, then of the next.

    Each f is split into its higher part h = f - f(0) and its constant
    f(0).  Per prime, every distinct higher part is evaluated exactly once,
    into one int64 (parts x (p-1)) array: parts <= rows, and at degree 4,
    bound 4 it is 1,824 x 102 entries (1.5 MB) at p = 103.  Their
    coefficients of x^1..x^(width-1), width the number of coefficients of
    the widest f, are reduced mod p first, as Python integers, so seeded
    polynomials of any size stay exact.  Then, with powers[i, x-1] =
    x^(i+1) mod p, one int64 matrix product (reduced coefficients) @
    powers gives h(x) before reduction, and one % p reduces it.  Each
    entry of the product is a sum of width - 1 terms below p each times
    below p, exact in int64 while (width-1)*(p-1)^2 < 2^63;
    search_constant_pairs rejects any prime where width*(p-1)^2 reaches
    2^63, one term more than the product needs.  The rows are then
    gathered once per distinct constant: the rows of one constant have
    distinct higher parts, so each gather of their values is at most
    (parts x (p-1)) int64 entries.  f(x) mod p is (h(x) mod p + f(0) mod
    p) mod p, and the sum before that last reduction is below 2p, so each
    gather reads its symbols at that sum from char_sums.legendre_table(p)
    (which also validates p) laid out twice, 2p entries: no second % p
    runs.  Each int8 block goes straight into its rows of the one
    preallocated symbol matrix, and its row sums are those rows' sums.
    """
    import numpy as np

    width = max(2, *(len(f.coeffs) for f in polys))
    # per row, the numbers of its higher part (the coefficients of
    # x^1..x^(width-1), zero-padded) and of its constant
    highs, consts = {}, {}
    high_of = np.array([highs.setdefault(f.coeffs[1:] + (0,) * (width - len(f.coeffs)), len(highs))
                        for f in polys], dtype=np.intp)
    const_of = np.array([consts.setdefault(f.coeffs[0], len(consts)) for f in polys], dtype=np.intp)
    # the rows of constant k, in row order, are by_const[ends[k]:ends[k+1]]
    by_const = np.argsort(const_of, kind="stable")
    ends = [0, *np.cumsum(np.bincount(const_of)).tolist()]
    # as Python ints (object dtype), so that % p is exact at any size
    high_coeffs = np.array(list(highs), dtype=object)
    sums = np.empty((len(polys), len(primes)), dtype=np.int64)
    symbols = np.empty((len(polys), sum(p - 1 for p in primes)), dtype=np.int8)
    lo = 0
    for j, p in enumerate(primes):
        table = np.tile(np.array(char_sums.legendre_table(p), dtype=np.int8), 2)
        powers = np.empty((width - 1, p - 1), dtype=np.int64)
        powers[0] = np.arange(1, p)
        for i in range(1, width - 1):
            powers[i] = powers[i - 1] * powers[0] % p
        high = (high_coeffs % p).astype(np.int64) @ powers
        high %= p
        for k, c in enumerate(consts):
            rows = by_const[ends[k]:ends[k + 1]]
            # table[c % p:][v] is the symbol at v + f(0) mod p < 2p
            block = table[c % p:][high[high_of[rows]]]
            symbols[rows, lo:lo + p - 1] = block
            sums[rows, j] = block.sum(axis=1)
        lo += p - 1
    return sums, symbols


def _differing(symbols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per pair k, True iff rows i[k] and j[k] of the symbol matrix are
    fundamentally different: some column multiplies to -1, both symbols
    nonzero and different.  One array expression over blocks of pairs, each
    (pairs x columns) block holding at most _PAIR_BLOCK elements."""
    import numpy as np

    out = np.empty(len(i), dtype=bool)
    step = max(1, _PAIR_BLOCK // symbols.shape[1])
    for k in range(0, len(i), step):
        block = symbols[i[k:k + step]]
        block *= symbols[j[k:k + step]]
        out[k:k + step] = (block == -1).any(axis=1)
    return out


def _order_key(f: PolynomialZ) -> tuple:
    # prefer small representatives: low degree, small coefficients
    return (f.degree, sum(abs(c) for c in f.coeffs), f.coeffs)


def enumerate_polys(max_degree: int, coeff_bound: int):
    """Deterministic stream of canonical polynomials: degree 1..max_degree,
    coefficients in [-bound, bound], leading coefficient positive."""
    if max_degree < 1 or coeff_bound < 1:
        raise ValueError("need max_degree >= 1 and coeff_bound >= 1")
    span = range(-coeff_bound, coeff_bound + 1)
    for degree in range(1, max_degree + 1):
        for lead in range(1, coeff_bound + 1):
            for lower in itertools.product(span, repeat=degree):
                c = (*lower, lead)
                if all(a % 4 == 0 for a in c):
                    continue
                if degree % 2 == 0 and c > tuple(-a if i % 2 else a for i, a in enumerate(c)):
                    continue
                yield PolynomialZ(c)


def _euler_sums(polys, primes) -> np.ndarray:
    """sum_{x=1}^{p-1} (f(x)/p) for f in polys (rows) and p in primes
    (columns): the re-verify oracle, an int64 matrix.

    Per prime, Euler's criterion classifies every residue once: euler[y]
    is y^((p-1)/2) mod p by Python pow, read as 1, -1 (for p-1) or 0, for
    y = 0..p-1 and again for y = p..2p-1.  The table is built from that
    power alone, not from legendre_table's squares nor from
    arith.legendre, and the polynomials are evaluated by Horner's rule,
    not by _symbol_rows' power basis, so the oracle shares no code with
    the signature path it checks.  It makes its own split of each f into
    the higher part h = f - f(0), as descending coefficients with a zero
    constant, and the constant f(0).  Per prime, every distinct higher
    part is evaluated exactly once: every coefficient is reduced mod p
    first so seeded polynomials of any size stay exact, and the Horner
    loop then runs in place on one int64 (parts x (p-1)) array, the size
    of _symbol_rows' own, from the leading coefficient down.  It reduces
    mod p after every step, so every entry stays below p and a step is at
    most (p-1)^2 + (p-1) < 2^62: exact for any p < 2^31 and any number of
    coefficients.

    The sums then go through value histograms: np.bincount gives the
    (parts x p) array hist[h, v] = #{x in 1..p-1 : h(x) = v mod p}, and
    for c = f(0) mod p

        sum_x euler[h(x) + c] = sum_v hist[h, v] * euler[v + c],

    with v + c < 2p read from the doubled table.  The (parts x residues)
    table hist @ shifted, shifted[v, c] = euler[v + c], is built one
    column per distinct f(0) mod p, as hist times the p-entry slice
    euler[c:c + p], so shifted itself is never held; there are at most p
    residues, so the table has at most parts x p entries.  Each row reads
    its sum at (its part, its residue).  Every term is a count times -1,
    0 or 1, so the sums are exact in int64.  The primes are the search's
    evidence primes, validated as odd primes by search_constant_pairs.
    """
    import numpy as np

    width = max(len(f.coeffs) for f in polys)
    # per row, the numbers of its higher part (descending coefficients,
    # zero-padded, with a zero constant) and of its constant
    parts, consts = {}, {}
    part_of = np.array([parts.setdefault((0,) * (width - len(f.coeffs)) + f.coeffs[:0:-1] + (0,), len(parts))
                        for f in polys], dtype=np.intp)
    const_of = np.array([consts.setdefault(f.coeffs[0], len(consts)) for f in polys], dtype=np.intp)
    # as Python ints (object dtype), so that % p is exact at any size
    coeffs = np.array(list(parts), dtype=object)
    out = np.empty((len(polys), len(primes)), dtype=np.int64)
    for j, p in enumerate(primes):
        # y^((p-1)/2) is 0, 1 or p-1, and (e + 1) % p - 1 reads p-1 as -1
        euler = np.array([(pow(y, (p - 1) // 2, p) + 1) % p - 1 for y in range(p)] * 2, dtype=np.int64)
        xs = np.arange(1, p, dtype=np.int64)
        lead, *rest = (coeffs % p).astype(np.int64).T
        vals = np.repeat(lead[:, None], p - 1, axis=1)
        for col in rest:
            vals *= xs  # in place: no temporaries beside the parts array
            vals += col[:, None]
            vals %= p
        # part h's values move to h*p..h*p+p-1, so one bincount counts
        # every part's values
        vals += np.arange(0, len(parts) * p, p)[:, None]
        hist = np.bincount(vals.ravel(), minlength=len(parts) * p).reshape(len(parts), p)
        # per constant, the number of its residue f(0) mod p
        residues = {}
        residue_of = np.array([residues.setdefault(c % p, len(residues)) for c in consts], dtype=np.intp)
        table = np.empty((len(parts), len(residues)), dtype=np.int64)
        for k, c in enumerate(residues):
            table[:, k] = hist @ euler[c:c + p]
        out[:, j] = table[part_of, residue_of[const_of]]
    return out


def _sound(oracle: np.ndarray, minus_one, hits) -> np.ndarray:
    """Per hit (c, i, j, twisted), True iff (-1/p)^twisted * oracle[i] -
    oracle[j] == c at every prime, for the _euler_sums matrix oracle and
    minus_one[k] = (-1/p_k): every hit in one array expression."""
    import numpy as np

    c, i, j, twisted = np.asarray(hits, dtype=np.int64).reshape(-1, 4).T
    sign = np.where(twisted[:, None] == 1, minus_one, 1)
    return (sign * oracle[i] - oracle[j] == c[:, None]).all(axis=1)


def _keys(sums: np.ndarray, signs=1):
    """The key of each row of the int64 matrix sums * signs, in row order:
    the bytes of that row minus its first entry, so that rows that differ
    by the same constant at every prime share a key.  One tobytes() covers
    every row, and each key is one fixed-width slice of it.

    The keys are exact: every entry is a character sum, |s| <= p - 1 <
    2^31, so each difference is exact in int64, and two rows of one int64
    matrix have equal bytes exactly when they are equal rows."""
    # the signed matrix becomes its own difference matrix, in place
    diff = sums * signs
    diff -= diff[:, :1]
    width = diff.itemsize * diff.shape[1]
    flat = diff.tobytes()
    return (flat[k:k + width] for k in range(0, len(flat), width))


def _group(sums: np.ndarray) -> dict[bytes, list[int]]:
    """Row indices of the int64 matrix sums by _keys, in row order."""
    groups: dict[bytes, list[int]] = defaultdict(list)
    for i, key in enumerate(_keys(sums)):
        groups[key].append(i)
    return groups


def _candidates(sums: np.ndarray, minus_one, twisted: bool) -> np.ndarray:
    """(c, i, j, twisted) of every candidate pair, one row each of an int64
    (pairs x 4) array: rows i < j of the same _group (twisted 0), then,
    with twisted=True, rows i != j where row i signed by minus_one[k] =
    (-1/p_k) has row j's key (twisted 1).  c is the constant difference,
    read at the first prime.  The groups and the key bytes are freed on
    return."""
    import numpy as np

    groups = _group(sums)
    i: list[int] = []
    j: list[int] = []
    for members in groups.values():
        for a, first in enumerate(members[:-1]):
            i += [first] * (len(members) - a - 1)
            j += members[a + 1:]
    n_plain = len(i)
    if twisted:
        # each twisted row looks up its key among the plain rows
        for row, key in enumerate(_keys(sums, minus_one)):
            for other in groups.get(key, ()):
                if other != row:
                    i.append(row)
                    j.append(other)
    i, j = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)
    is_twisted = np.arange(len(i)) >= n_plain
    first = sums[:, 0]
    return np.column_stack((np.where(is_twisted, minus_one[0], 1) * first[i] - first[j], i, j, is_twisted))


def search_constant_pairs(
    max_degree: int,
    coeff_bound: int,
    primes,
    twisted: bool = False,
    extra_polys=(),
) -> SearchResult:
    """Find pairs (f, g) of fundamentally different polynomials whose
    character sums differ by the same constant at every evidence prime.

    With twisted=True an additional pass pairs the (-1/p)-twisted sums of
    f against the plain sums of g.  extra_polys lets callers seed
    specific polynomials (e.g. the corollary's quartic, whose
    coefficients may exceed the enumeration bound).
    """
    import numpy as np

    primes = tuple(primes)
    extra_polys = tuple(extra_polys)
    if len(primes) < 8:
        raise ValueError("evidence prime list must have at least 8 primes")
    if len(set(primes)) < len(primes):
        raise ValueError("evidence primes must be distinct")
    if any(f.is_zero for f in extra_polys):
        raise ValueError("character sum of the zero polynomial")
    # coefficients of the widest polynomial: _symbol_rows' power-basis
    # product has one term fewer, so this refusal is conservative
    width = max([max_degree + 1, *(len(f.coeffs) for f in extra_polys)])
    for p in primes:
        check_odd_prime(p)
        if width * (p - 1) ** 2 >= _INT64_LIMIT:
            raise ValueError(f"prime {p} too large for int64 sums: {width} * ({p} - 1)^2 >= 2^63")
    # unique keys, so that row order is _order_key order
    polys = sorted({*enumerate_polys(max_degree, coeff_bound), *extra_polys}, key=_order_key)
    # the oracle's parts arrays and blocks come and go before the symbol
    # matrix is allocated
    oracle = _euler_sums(polys, primes)
    sums, symbols = _symbol_rows(polys, primes)
    minus_one = [legendre(-1, p) for p in primes]
    # every candidate pair; the groups, their key bytes and the sums
    # (several MB at degree 4, bound 4, primes to 103) are freed before the
    # pair test, whose hits are the fundamentally different candidates
    found = _candidates(sums, minus_one, twisted)
    del sums
    found = found[_differing(symbols, found[:, 1], found[:, 2])]
    # every pair is decided: free the symbols (19 MB at degree 4, bound 4,
    # primes to 103) before the hits x primes arrays of the re-verify
    del symbols
    unsound = np.flatnonzero(~_sound(oracle, minus_one, found))
    if unsound.size:
        _, i, j, _ = found[unsound[0]]
        raise AssertionError(f"grouping produced an unsound hit: {polys[i]} vs {polys[j]}")

    # in (c, i, j, twisted) order; tolist() gives Python ints
    found = found[np.lexsort(found.T[::-1])].tolist()
    hits = [SearchHit(polys[i], polys[j], c, primes, bool(t)) for c, i, j, t in found]
    return SearchResult(hits=hits, histogram=Counter(h.c for h in hits), n_polynomials=len(polys))
