import math
import random
import struct
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import cli, exp_sums, registry
from expsumlab.arith import factorize, is_prime, primes_in_range
from expsumlab.exp_sums import (
    TWIST_INVERSE,
    TWIST_NONE,
    PhaseFamily,
    kloosterman,
    power_mean,
    twisted_sum,
    two_term_sum,
)
from expsumlab.registry import CUBIC_FAMILY

from conftest import (
    CERTIFIED,
    EVEN_FAMILIES,
    EXCEEDS,
    FLAGGED,
    KERNEL_FAMILIES,
    ORBIT_FAMILIES,
    SCALED_SUM_E,
    certify_weil,
    counts_of,
    e_p,
    power_mean_direct,
    reference_abs_sq_table,
    reference_mean,
    reference_phases,
    reference_power_mean,
    reference_root_table,
    reference_scaled_sum,
    totient,
)


def test_kloosterman_zero_args_gives_phi():
    for q in (5, 12, 45):
        assert kloosterman(0, 0, q) == pytest.approx(totient(q), abs=1e-9)


def test_kloosterman_s115():
    expected = 2 + 2 * math.cos(4 * math.pi / 5)  # direct 4-term evaluation
    assert kloosterman(1, 1, 5) == pytest.approx(expected, abs=1e-12)
    assert kloosterman(1, 1, 5).real == pytest.approx(0.3819660, abs=1e-7)


def test_kloosterman_ramanujan_case():
    # S(1, 0; 6) is the Ramanujan sum c_6(1) = mu(6) = 1
    assert kloosterman(1, 0, 6) == pytest.approx(1.0, abs=1e-9)


def test_kloosterman_real_and_symmetric():
    for q in (5, 7, 12, 15, 49):
        for m, n in [(1, 1), (2, 3), (0, 5), (4, 9)]:
            s = kloosterman(m, n, q)
            assert abs(s.imag) < 1e-9
            assert s == pytest.approx(kloosterman(n, m, q), abs=1e-9)


def test_two_term_trivial_cases():
    assert two_term_sum(0, 0, 3, 7) == pytest.approx(7, abs=1e-9)
    assert two_term_sum(7, 14, 5, 7) == pytest.approx(7, abs=1e-9)
    # k = 1 geometric sum
    assert two_term_sum(3, 4, 1, 7) == pytest.approx(7, abs=1e-9)
    assert two_term_sum(3, 5, 1, 7) == pytest.approx(0, abs=1e-9)


def test_two_term_gauss_magnitude():
    assert abs(two_term_sum(1, 0, 2, 5)) == pytest.approx(math.sqrt(5), abs=1e-9)


def test_two_term_matches_direct(small_odd_primes):
    for p in small_odd_primes:
        direct = sum(e_p(2 * a**3 + 3 * a, p) for a in range(p))
        assert two_term_sum(2, 3, 3, p) == pytest.approx(direct, abs=1e-9)


def test_twisted_sum_examples():
    for p in (5, 7, 13):
        assert twisted_sum(0, 3, p) == pytest.approx(-1, abs=1e-9)
        assert twisted_sum(1, 1, p) == pytest.approx(kloosterman(1, 1, p), abs=1e-9)
    expected = 1 + e_p(1, 5) + 2 * e_p(2, 5)  # direct 4-term evaluation
    assert twisted_sum(1, 2, 5) == pytest.approx(expected, abs=1e-12)
    assert twisted_sum(1, 2, 5) == pytest.approx(-0.3090170 + 2.1266270j, abs=1e-7)


SALIE = PhaseFamily(1, TWIST_INVERSE, 1, True)
CUBIC_N1 = PhaseFamily(3, TWIST_NONE, 1, False)


def test_power_mean_salie_p5_brute_force():
    def inner(m):
        return (e_p(a + m * pow(a, -1, 5), 5) for a in range(1, 5))

    brute = power_mean_direct(inner, range(5), 4)
    assert power_mean(SALIE, 5, 4) == 160 == round(brute)


def test_power_mean_cubic_p7():
    assert power_mean(CUBIC_N1, 7, 4) == 343  # 2p^3 - 7p^2 branch, 3 | p-1
    def inner(m):
        return (e_p(m * a**3 + a, 7) for a in range(7))
    assert round(power_mean_direct(inner, range(1, 7), 4)) == 343


def test_power_mean_degenerate_linear_family():
    # n = 0, k = 1, full residues: |S(m)| = p at m = 0 and 0 otherwise
    fam = PhaseFamily(1, TWIST_NONE, 0, True)
    for p in (5, 11):
        assert power_mean(fam, p, 4) == p**4


def test_power_mean_matches_direct_double(small_odd_primes):
    for p in small_odd_primes[:6]:
        def inner(m):
            return (e_p(m * a**3 + a, p) for a in range(p))
        brute = power_mean_direct(inner, range(p), 6)
        assert power_mean(CUBIC_FAMILY, p, 6) == pytest.approx(brute, rel=1e-9)


def test_power_mean_near_integral_sampled():
    # the exact counts give the published integers at every prime to 100
    for q in primes_in_range(3, 100):
        assert power_mean(SALIE, q, 4) == 2 * q**3 - 3 * q**2 - 3 * q, q
        if q > 3:
            assert power_mean(CUBIC_N1, q, 8) == registry.wz_rhs(q), q


def test_wide_slots_pin_the_twelfth_mean():
    # Cauchy-Schwarz slots at p = 1999: 7 bytes for N_6 (1999^6 would need
    # 9) and 10 bytes for N_8, past struct's 8; the values are exact counts
    assert power_mean(CUBIC_FAMILY, 1999, 12) == 16752866660353798632014860
    assert power_mean(SALIE, 1999, 12) == 16293634516098608833512659
    assert power_mean(CUBIC_FAMILY, 1999, 16) == 722703631864213661231564391876039
    assert power_mean(SALIE, 1999, 16) == 690830899527773477226705502288462


def test_power_mean_validates_args():
    with pytest.raises(ValueError):
        power_mean(SALIE, 5, 3)
    with pytest.raises(ValueError):
        power_mean(SALIE, 2, 4)
    with pytest.raises(ValueError):
        PhaseFamily(3, "units_only")  # the domain follows the twist


def test_conjecture_family_counting_oracle(small_odd_primes):
    # independent integer-counting oracle: sum_m |S_m|^4 = p * sum_s |U_s|^2
    # where U_s = sum_r T[s,r] e(r/p) and T counts (a,b) with a^3+b^3 = s,
    # a+b = r mod p
    for p in small_odd_primes:
        T = np.zeros((p, p), dtype=np.int64)
        for a in range(p):
            for b in range(p):
                T[(a**3 + b**3) % p, (a + b) % p] += 1
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        U = T @ roots
        oracle = p * float((U * U.conj()).real.sum())
        value = power_mean(CUBIC_FAMILY, p, 4)
        assert value == round(oracle)
        assert abs(oracle - value) < 1e-5


def test_weil_ratio_gauss_case():
    # |S(m, 0, 2; p)| / sqrt(p) = 1: a quadratic Gauss sum
    for p in (5, 7, 13):
        for m in range(1, p):
            assert abs(two_term_sum(m, 0, 2, p)) / math.sqrt(p) == pytest.approx(1.0, abs=1e-9)


def test_weil_ratio_cubic_bound():
    # |S(m, 1, 3; 7)| <= 2 sqrt(7) for m = 1..6, on the certified interval
    assert certify_weil(1, 3, 7) == [CERTIFIED] * 6


def test_weil_bound_exhaustive_small():
    # |S(m,n,k;p)| <= (k-1) sqrt(p): every m, every n, k in {2, 3}.  At
    # k = 2 the bound is attained, so it is decided exactly: M2 = p(p-1)
    # and (p-1) M4 = M2^2, the Cauchy-Schwarz equality over m = 1..p-1,
    # make every |S(m,n,2;p)|^2 equal to p.  At k = 3 every m certifies.
    for p in primes_in_range(5, 59):
        for n in range(p):
            family = PhaseFamily(2, TWIST_NONE, n, False)
            m2, m4 = (power_mean(family, p, two_k) for two_k in (2, 4))
            assert m2 == p * (p - 1) and (p - 1) * m4 == m2 * m2, (p, 2, n)
            assert certify_weil(n, 3, p) == [CERTIFIED] * (p - 1), (p, 3, n)


def test_certify_weil_flags_an_attained_bound():
    # |S(m,n,2;p)|^2 = p, the k = 2 bound itself: the interval always
    # straddles it, so no m passes
    for p in (5, 7, 31, 59):
        for n in (0, 1, p - 1):
            assert certify_weil(n, 2, p) == [FLAGGED] * (p - 1), (p, n)


def test_certify_weil_finds_a_sum_above_the_bound():
    # k = 1: the bound is 0, S(m,n,1;p) is p at m = -n and 0 elsewhere; an
    # exact 0 straddles the bound, the sum p lies wholly above it
    for p in (5, 7, 31):
        for n in (1, 3):
            expected = [FLAGGED] * (p - 1)
            expected[-n % p - 1] = EXCEEDS
            assert certify_weil(n, 1, p) == expected, (p, n)


def test_gauss_magnitude_all_m():
    # the row passes with LHS p(p-1) only when (p-1) M4 = M2^2, the
    # Cauchy-Schwarz equality: then |S(m,0,2,p)|^2 = p for every m = 1..p-1
    for p in primes_in_range(3, 499):
        out = registry.evaluate("gauss_magnitude", p)
        assert out.status == registry.PASS and out.lhs == p * (p - 1), p


# The exact paths against 60-digit mpmath (conftest): each part of a
# scalar sum within E of the dot rounded once, and the power means the
# nearest integers to the rounded means of a per-entry root table.

def check_scaled_sums(family, q):
    """Each part of _scaled_sum at every t within E of the 60-digit dot
    rounded once, on the counts of reference_phases."""
    for t in range(q):
        got = exp_sums._scaled_sum(exp_sums._counts(family, q, t), q)
        ref = reference_scaled_sum(counts_of(reference_phases(family, q, t), q), q)
        assert all(abs(x - y) <= SCALED_SUM_E for x, y in zip(got, ref)), (family, q, t, got, ref)


def test_integer_omega_matches_100_digit_mpmath():
    # e(1/q) at scale 2^256 from Machin's pi and a Taylor series, against
    # the 100-digit evaluation the root tables were first built from
    with mpmath.workdps(100):
        for q in range(1, 2001):
            w = mpmath.expjpi(mpmath.mpf(2) / q)
            ref = (int(mpmath.nint(w.real * 2**256)), int(mpmath.nint(w.imag * 2**256)))
            assert exp_sums._unit_root(q) == ref, q


def root_error(z, j, q, scale=256):
    """|z - e(j/q) * 2^scale| for z = (re, im), at the caller's precision."""
    return abs(mpmath.mpc(*z) - mpmath.expjpi(mpmath.mpf(2 * j) / q) * mpmath.mpf(2) ** scale)


def test_baby_and_giant_roots_are_within_the_stepping_bound():
    # _scaled_sum's roots (its docstring, and _powers') against mpmath at
    # 100 digits, as 60 (about 2^-199) cannot resolve units of 2^-256:
    # the baby roots omega^i, i <= s, within 1.75 i, the giant roots W^J
    # within J * (1.75 s + 1), and below q = 100 and at 1009 every product
    # omega^(i+1) * W^J at 2^512 within 1.28 q units of 2^-256
    with mpmath.workdps(100):
        for q in list(range(2, 401)) + [1009, 1021, 4999, 1000003]:
            pairs = (q - 1) // 2
            s = math.isqrt(pairs) + 1
            base = exp_sums._powers(exp_sums._unit_root(q), s + 1)
            giant = exp_sums._powers(base[s], -(-pairs // s))
            assert len(base) == s + 1 and len(giant) == -(-pairs // s), q
            for i, z in enumerate(base):
                assert root_error(z, i, q) <= 1.75 * i, (q, i)
            for big_j, z in enumerate(giant):
                assert root_error(z, s * big_j, q) <= big_j * (1.75 * s + 1), (q, big_j)
            if q < 100 or q == 1009:
                for j in range(1, pairs + 1):
                    (b_re, b_im), (g_re, g_im) = base[1 + (j - 1) % s], giant[(j - 1) // s]
                    z = (b_re * g_re - b_im * g_im, b_re * g_im + b_im * g_re)
                    assert root_error(z, j, q, 512) <= 1.28 * q * 2**256, (q, j)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("include_zero", [True, False])
def test_abs_sq_table_matches_big_integer_loop(family, include_zero):
    family = family._replace(include_zero_in_sweep=include_zero)
    start = 0 if include_zero else 1
    # even q hold the self-paired a = q/2; under the inverse twist only
    # the units count
    for q in [3, 4, 5, 7, 8, 9, 12, 15, 16, 25, 30, 31, 45, 49, 53, 101, 211]:
        check_scaled_sums(family, q)
        ref = reference_abs_sq_table(family, q)
        for two_k in (2, 6):
            assert power_mean(family, q, two_k) == round(reference_mean(ref, two_k, start)), (q, two_k)


def test_even_families_match_big_integer_loop():
    for family in EVEN_FAMILIES[1:]:
        for q in [3, 4, 5, 8, 9, 16, 30, 31, 49, 101]:
            check_scaled_sums(family, q)
            ref = reference_abs_sq_table(family, q)
            for two_k in (4, 8):
                assert power_mean(family, q, two_k) == round(reference_mean(ref, two_k, 0)), q


# moduli up to 5000, even and odd, prime, prime powers and composites;
# each 60-digit reference table is built once
ANY_COUNT_MODULI = [2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 27, 97, 210, 1024, 2187, 2310, 4096, 4999, 5000]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(ANY_COUNT_MODULI), seed=st.integers(0, 2**32), top=st.sampled_from([1, 3, 10**6]),
       zeros=st.sampled_from([0.0, 0.5, 0.99]))
def test_scaled_sum_of_any_counts_is_within_e_of_the_60_digit_dot(q, seed, top, zeros):
    # arbitrary counts, dense or mostly 0, entries up to 10^6
    rng = random.Random(seed)
    counts = [0 if rng.random() < zeros else rng.randint(0, top) for _ in range(q)]
    got = exp_sums._scaled_sum(counts, q)
    ref = reference_scaled_sum(counts, q)
    assert all(abs(x - y) <= SCALED_SUM_E for x, y in zip(got, ref)), (got, ref)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11, 13, 67]), seed=st.integers(0, 2**32),
       top=st.sampled_from([1, 10**6]))
def test_counts_of_period_q_over_p_sum_to_exactly_zero(data, p, seed, top):
    # at q = p^e up to 5000, sum_j c_j zeta^j = 0 when c_j = c_(j + q/p),
    # as 1 + zeta^(q/p) + ... + zeta^((p-1) q/p) = 0: both parts come out 0
    e = data.draw(st.integers(1, int(math.log(5000, p))), label="e")
    rng = random.Random(seed)
    block = [rng.randint(0, top) for _ in range(p ** (e - 1))]
    assert exp_sums._scaled_sum(block * p, p**e) == (0, 0)


def test_exact_zero_sums_are_zero():
    # S(0, 1; 9) = c_9(1) = mu(9) = 0, and S(3, 5; 999999) = 0, as its
    # factor at 27 is (module docstring, "Composite moduli")
    assert kloosterman(0, 1, 9) == 0j
    assert kloosterman(3, 5, 999999) == 0j


def test_scaled_sum_peak_memory_is_a_few_root_lists():
    # two lists of about sqrt(q/2) roots and one block of counts, not a
    # table of q/2 roots: under 2 MiB beyond the counts at q = 1,000,003
    q = 1000003
    counts = exp_sums._counts(PhaseFamily(1, TWIST_INVERSE, 1), q, 1)
    tracemalloc.start()
    try:
        exp_sums._scaled_sum(counts, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def cyclic_convolution(x, y, q):
    out = [0] * q
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[(i + j) % q] += xi * yj
    return out


def all_t_means(family, q):
    """{2k: mean} for 2k = 2, 4, 6 over every t of the sweep, no orbits,
    in plain ints: the counts of reference_phases, their self-convolutions
    N_1, N_2, N_3 by a plain loop, and Tr |S|^2k = sum_(i, j) N_k(i) N_k(j)
    c_q(i - j), the Ramanujan sums from a test-side Mobius function."""
    phi = totient(q)
    ramanujan = [sum(mobius(q // d) * d for d in range(1, q + 1) if q % d == 0 and j % d == 0)
                 for j in range(q)]
    totals = {2: 0, 4: 0, 6: 0}
    for t in range(0 if family.include_zero_in_sweep else 1, q):
        n1 = [0] * q
        for j in reference_phases(family, q, t):
            n1[j] += 1
        n2 = cyclic_convolution(n1, n1, q)
        for two_k, n in ((2, n1), (4, n2), (6, cyclic_convolution(n2, n1, q))):
            totals[two_k] += sum(n[i] * n[j] * ramanujan[(i - j) % q] for i in range(q) if n[i] for j in range(q))
    for two_k, total in totals.items():
        assert total % phi == 0, (family, q, two_k)
    return {two_k: total // phi for two_k, total in totals.items()}


@pytest.mark.parametrize("family", ORBIT_FAMILIES)
def test_orbit_rule_matches_all_t_trace(family):
    for q in [3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 18, 25, 27, 31]:
        # sigma_c maps S_t to S_(c^e t): the counts of c^e t are those of
        # t with every phase j moved to c*j
        e = exp_sums._galois_exponent(family, totient(q))
        counts = [exp_sums._counts(family, q, t) for t in range(q)]
        for c in exp_sums._units(q):
            for t in range(q):
                image = counts[pow(c, e, q) * t % q]
                assert [image[c * j % q] for j in range(q)] == counts[t], (q, c, t)
        for two_k, mean in all_t_means(family, q).items():
            assert power_mean(family, q, two_k) == mean, (q, two_k)


@pytest.mark.parametrize("twist", [TWIST_NONE, TWIST_INVERSE])
def test_zero_sum_is_the_brute_force_sum(twist):
    # S_0 = sum_a zeta^(v_a) at q = p^e: q or 0 without twist, the
    # Ramanujan sum c_q(f) under the inverse twist
    prime_powers = [(q, fac[0][0]) for q in range(2, 61) if len(fac := factorize(q)) == 1]
    assert len(prime_powers) == 25
    for q, p in prime_powers:
        for f in {0, 1, q, q - 1, 2 * q + 1} | {d for d in range(2, q) if q % d == 0}:
            family = PhaseFamily(2, twist, f)
            brute = sum(e_p(j, q) for j in reference_phases(family, q, 0))
            assert exp_sums._zero_sum(family, q, p) == pytest.approx(brute, abs=1e-9), (q, f)


def counted_convolve(monkeypatch):
    calls = []
    convolve = exp_sums._convolve

    def counting(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(exp_sums, "_convolve", counting)
    exp_sums._power_mean.cache_clear()
    exp_sums._orbit_table.cache_clear()
    return calls


def test_lower_mean_after_higher_makes_no_convolution(monkeypatch):
    # conjecture --k 4 builds N_2 and N_4 per orbit; --k 2 then only
    # reads N_2 from the ladder
    calls = counted_convolve(monkeypatch)
    assert cli.main(["conjecture", "--k", "4", "--pmin", "1009", "--pmax", "1021"]) == 0
    orbits = sum(len(exp_sums._orbit_table(CUBIC_FAMILY, p, p)[1])
                 for p in primes_in_range(1009, 1021))
    assert len(calls) == 2 * orbits
    del calls[:]
    assert cli.main(["conjecture", "--k", "2", "--pmin", "1009", "--pmax", "1021"]) == 0
    assert calls == []


def test_cubic_means_share_one_ladder(monkeypatch):
    # the 4th, 6th and 8th means of one family at one p: N_2 = N_1 * N_1,
    # N_3 = N_1 * N_2 and N_4 = N_2 * N_2, three products per orbit
    calls = counted_convolve(monkeypatch)
    p = 101
    for identity in ("zz_cubic_4th", "zm_cubic_6th", "wz_cubic_8th"):
        assert registry.evaluate(identity, p).status == registry.PASS, identity
    orbits = exp_sums._orbit_table(CUBIC_FAMILY, p, p)[1]
    assert len(orbits) == 2 and len(calls) == 3 * len(orbits)
    assert all(sorted(ladder) == sorted(squares) == [1, 2, 3, 4] for _, ladder, squares in orbits)


def test_units_and_subgroup_of_powers():
    # the units by crossing out prime factors, and H = {c^e} = {c^d} with
    # d = gcd(e, phi(q)) (module docstring, "Orbits")
    for q in range(2, 90):
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        assert list(exp_sums._units(q)) == units, q
        phi = len(units)
        for e in range(2 * phi + 1):
            d = math.gcd(e, phi)
            assert {pow(c, e, q) for c in units} == {pow(c, d, q) for c in units}, (q, e)


# The walk over a primitive root at a prime (module docstring, "At a
# prime") against the generic path of the prime powers, which runs at a
# prime when exp_sums sees is_prime(p) as False.

PRIMES_BELOW_600 = primes_in_range(2, 599)
PATH_MEANS = (2, 4, 6, 8, 12)


def both_paths(family, p):
    """({t: counts} for t = 0, 1, 2 and p - 1, domain, sorted (orbit size,
    s_1), {2k: mean}) at the prime p, by the prime path and by the generic
    path, each from its own table."""
    family = family._replace(include_zero_in_sweep=True)
    out = []
    for prime in (exp_sums.is_prime, lambda n: False):
        with mock.patch.object(exp_sums, "is_prime", prime):
            counts = {t: exp_sums._counts(family, p, t) for t in (0, 1, 2, p - 1)}
            table = exp_sums._orbit_table.__wrapped__(family, p, p)
            with mock.patch.object(exp_sums, "_orbit_table", lambda *args: table):
                means = {two_k: exp_sums._power_mean.__wrapped__(family, p, p, two_k) for two_k in PATH_MEANS}
        domain, orbits = table
        out.append((counts, domain, sorted((size, squares[1]) for size, _, squares in orbits), means))
    return out


def check_prime_path(family, p):
    (counts, domain, orbits, means), generic = both_paths(family, p)
    assert (domain, orbits, means) == generic[1:], (family, p)
    # the counts of the phases t*a^k + f*abar (or f*a) of the ascending-a
    # definition, by the generic path and by the prime path's walk
    k, f = family.monomial_degree, family.fixed_coefficient
    for t, walked in counts.items():
        if family.twist == TWIST_INVERSE:
            phases = [t * pow(a, k, p) + f * pow(a, -1, p) for a in range(1, p)]
        else:
            phases = [t * pow(a, k, p) + f * a for a in range(p)]
        defined = [0] * p
        for x in phases:
            defined[x % p] += 1
        assert generic[0][t] == defined, (family, p, t)
        assert walked == defined, (family, p, t)
    assert sum(size for size, _ in orbits) == p - 1, (family, p)


@pytest.mark.parametrize("family", [registry._SALIE_FAMILY, registry._ZWL_FAMILY, CUBIC_FAMILY,
                                    registry._GAUSS_FAMILY], ids=["salie", "zwl", "cubic", "gauss"])
def test_prime_path_is_the_generic_path_for_registry_families(family):
    for p in PRIMES_BELOW_600:
        check_prime_path(family, p)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES_BELOW_600), twist=st.sampled_from([TWIST_NONE, TWIST_INVERSE]),
       fixed=st.sampled_from(["0", "1", "p", "2p+1", "random"]))
def test_prime_path_is_the_generic_path(data, p, twist, fixed):
    # k up to 2p, k = 0 mod p - 1 among them, where every unit has a^k = 1
    k = data.draw(st.one_of(st.sampled_from([p - 1, 2 * (p - 1)]), st.integers(1, 2 * p)), label="k")
    if fixed == "random":
        f = data.draw(st.integers(-10**6, 10**6), label="f")
    else:
        f = {"0": 0, "1": 1, "p": p, "2p+1": 2 * p + 1}[fixed]
    check_prime_path(PhaseFamily(k, twist, f), p)


def test_scalar_sum_walk_is_the_generic_path():
    # the same counts, hence the same complex value to the last bit
    for p in PRIMES_BELOW_600[::7]:
        for family in (PhaseFamily(1, TWIST_INVERSE, 5), PhaseFamily(3, TWIST_NONE, 5),
                       PhaseFamily(p - 1, TWIST_INVERSE, 1), PhaseFamily(2 * p, TWIST_NONE, 0)):
            walked = [exp_sums._scalar_sum(family, p, t) for t in (0, 1, 3, p - 1)]
            with mock.patch.object(exp_sums, "is_prime", lambda n: False):
                assert [exp_sums._scalar_sum(family, p, t) for t in (0, 1, 3, p - 1)] == walked, (family, p)


def one_orbit_ladder(counts):
    """A ladder holding N_1 = counts as 8-byte slots, and its s_1."""
    return {1: struct.pack(f"<{len(counts)}Q", *counts)}, {1: sum(c * c for c in counts)}


def check_ladder(counts, powers):
    """_self_power's N_m and s_m for each m in powers, in that order,
    against N_m = N_(m-1) * N_1 by the plain O(q^2) cyclic convolution."""
    q = len(counts)
    ladder, squares = one_orbit_ladder(counts)
    direct = {1: counts}
    for m in range(2, max(powers) + 1):
        direct[m] = cyclic_convolution(direct[m - 1], counts, q)
    for m in powers:
        slots = exp_sums._self_power(ladder, squares, m, q)
        assert list(exp_sums._unpack(slots, q)) == direct[m], (q, m)
        assert squares[m] == sum(x * x for x in direct[m]), (q, m)
        # Cauchy-Schwarz slots are never wider than those of D^m
        width = len(slots) // q
        assert width == -(-math.isqrt(squares[m // 2] * squares[m - m // 2]).bit_length() // 8)
        assert width <= -(-(sum(counts) ** m).bit_length() // 8), (q, m)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([4, 6, 9, 10, 12, 15, 30, 36]),
    data=st.data(),
    top=st.sampled_from([1, 3, 300, 70000]),
    powers=st.permutations([2, 3, 4, 5, 6]),
)
def test_self_power_ladder_is_the_cyclic_convolution(q, data, top, powers):
    counts = data.draw(st.lists(st.integers(0, top), min_size=q, max_size=q).filter(any))
    check_ladder(counts, powers)


@pytest.mark.parametrize("domain", [1, 16, 255, 256, 4096, 2**16, 2**40])
def test_self_power_tight_case(domain):
    # all D values of a in one residue j: N_2(2j) = D^2 = s_1, the bound
    # itself; D = 16, 4096 and 2^16 put D^2 one bit past a whole byte, so
    # one bit fewer per slot would lose it
    for q in (3, 5, 12):
        for j in (0, 1, q - 1):
            counts = [0] * q
            counts[j] = domain
            check_ladder(counts, [2, 3, 4, 6])


def test_unpack_wide_slots():
    # slots of 1 to 17 bytes, through struct up to 8 and int.from_bytes beyond
    for nbytes in (1, 2, 7, 8, 9, 16, 17):
        top = 2 ** (8 * nbytes)
        values = [0, 1, top - 1, top // 2 + 1, 0x9E3779B97F4A7C15F39CC0605CEDC835 % top]
        slots = b"".join(v.to_bytes(nbytes, "little") for v in values)
        assert list(exp_sums._unpack(slots, len(values))) == values, nbytes


def test_orbit_table_cache_has_the_documented_bound():
    assert exp_sums._orbit_table.cache_info().maxsize == exp_sums._ORBIT_TABLES == 64
    assert f"for the last {exp_sums._ORBIT_TABLES} (family, q)" in exp_sums.__doc__


@settings(max_examples=100, deadline=None)
@given(
    degree=st.integers(1, 6),
    twist=st.sampled_from([TWIST_NONE, TWIST_INVERSE]),
    fixed=st.integers(-50, 50),
    include_zero=st.booleans(),
    q=st.integers(3, 40),
    two_k=st.sampled_from([2, 4, 6]),
)
def test_power_mean_is_exact(degree, twist, fixed, include_zero, q, two_k):
    family = PhaseFamily(degree, twist, fixed, include_zero)
    ref = reference_abs_sq_table(family, q)
    assert power_mean(family, q, two_k) == round(reference_mean(ref, two_k, 0 if include_zero else 1))


def test_power_mean_rejects_moduli_from_2_pow_31(monkeypatch):
    def no_work(*args):
        raise AssertionError("power_mean did work before rejecting q")

    for name in ("factorize", "_counts", "_units", "primitive_root"):
        monkeypatch.setattr(exp_sums, name, no_work)
    for q in (2**31, 2**31 + 1, 2**40):
        with pytest.raises(ValueError, match="2\\^31"):
            power_mean(SALIE, q, 4)


@pytest.mark.parametrize("shape", [PhaseFamily(1, TWIST_NONE), PhaseFamily(1, TWIST_INVERSE)])
@pytest.mark.parametrize("include_zero", [True, False])
def test_unit_coefficient_mean_is_the_direct_computation(shape, include_zero):
    # a unit coefficient c gives the mean of c = 1 (module docstring, "Unit
    # coefficients"), the theorem the registry's means at a unit n rest on;
    # power_mean computes each c as given
    for q in range(3, 41):
        one = shape._replace(monomial_degree=1 + q % 4, include_zero_in_sweep=include_zero)
        for c in range(2, q):
            if math.gcd(c, q) != 1:
                continue
            family = one._replace(fixed_coefficient=c)
            for two_k in (2, 4, 6):
                assert power_mean(family, q, two_k) == power_mean(one, q, two_k), (family, q, two_k)


@pytest.mark.parametrize("family, q", [
    (PhaseFamily(3, TWIST_NONE, 3, True), 9),
    (PhaseFamily(2, TWIST_NONE, 5, False), 15),
    (PhaseFamily(2, TWIST_INVERSE, 2, True), 12),
    (PhaseFamily(3, TWIST_NONE, 11, False), 11),
    (PhaseFamily(4, TWIST_INVERSE, 10, True), 25),
])
def test_non_unit_and_linear_coefficients_keep_their_own_mean(family, q):
    # a fixed coefficient that is not a unit mod q, of the linear term c*a
    # (no twist) or of abar, is its own cache entry: computing it does not
    # hit the entry of 1.  Each mean keeps one entry per prime-power
    # factor of q, 4 and 3 at q = 12, and a sweep without t = 0 keeps
    # those of its complete sweep (module docstring, "Composite moduli")
    one = family._replace(fixed_coefficient=1)
    exp_sums._power_mean.cache_clear()
    for two_k in (2, 4, 6):
        power_mean(one, q, two_k)
        assert power_mean(family, q, two_k) == reference_power_mean(family, q, two_k), two_k
    info = exp_sums._power_mean.cache_info()
    assert (info.hits, info.misses) == (0, 6 * len(factorize(q)))


def test_a_factor_2_is_a_mean_below_the_public_floor(orbit_tables_built):
    # an even q of two or more primes takes its mean at 2 through
    # _power_mean, though power_mean itself refuses q = 2
    complete = [f for f in ORBIT_FAMILIES if f.include_zero_in_sweep]
    cases = [(family, q, two_k) for family in complete for q in (6, 10, 30, 42) for two_k in (2, 4, 6)]
    values = [power_mean(*case) for case in cases]
    assert set(orbit_tables_built) == {2, 3, 5, 7}
    for (family, q, two_k), value in zip(cases, values):
        assert value == reference_power_mean(family, q, two_k), (family, q, two_k)
    for family in complete:
        with pytest.raises(ValueError, match="modulus must be >= 3, got 2"):
            power_mean(family, 2, 4)


def test_a_sweep_without_zero_keeps_the_orbit_path(orbit_tables_built):
    # t = 1..q-1 is no product of the sweeps at q's factors: the Gauss
    # family's mean at q = 15 or 21 differs from the product of the
    # factors' means.  It is the complete sweep's mean, a product of orbit
    # tables at the primes, less S_0(q)^2k, so no table is built at q
    gauss = registry._GAUSS_FAMILY
    for q in (15, 21):
        r, s = (p for p, _ in factorize(q))
        for two_k in (2, 4):
            assert power_mean(gauss, q, two_k) != power_mean(gauss, r, two_k) * power_mean(gauss, s, two_k)
            assert power_mean(gauss, q, two_k) == reference_power_mean(gauss, q, two_k), (q, two_k)
    assert set(orbit_tables_built) == {3, 5, 7}


def test_scalar_sums_reject_moduli_from_2_pow_31(monkeypatch):
    def no_work(*args):
        raise AssertionError("a scalar sum did work before rejecting q")

    for name in ("factorize", "is_prime", "primitive_root", "_counts", "_powers", "_unit_root"):
        monkeypatch.setattr(exp_sums, name, no_work)
    for q in (2**31, 2**31 + 1, 2**40):
        for call in (
            lambda: kloosterman(1, 1, q),
            lambda: two_term_sum(1, 1, 3, q),
        ):
            with pytest.raises(ValueError, match="2\\^31"):
                call()
    for p in (2**31, 2**31 + 11, 2**40):
        with pytest.raises(ValueError, match="2\\^31"):
            twisted_sum(1, 3, p)


# The scalar sums against independent loops over the 60-digit mpmath
# root table: the per-entry table of 2^128 roots, or the dot rounded once.

SCALAR_MODULI = [2, 3, 4, 5, 7, 9, 12, 15, 16, 31, 45, 97, 101, 210]


def reference_sum(q, phases):
    re_t, im_t = reference_root_table(q)
    phases = [x % q for x in phases]
    return complex(sum(re_t[j] for j in phases) / 2**128, sum(im_t[j] for j in phases) / 2**128)


def rounded_once_sum(q, phases):
    """The 60-digit dot over the phases, rounded once to 2^128, divided."""
    re, im = reference_scaled_sum(counts_of(phases, q), q)
    return complex(re / 2**128, im / 2**128)


def test_scalar_sums_are_the_exact_kernel_divided_once():
    for q in SCALAR_MODULI:
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        for m in (0, 1, 2, -3, q + 1):
            for n in (0, 1, 5, -2):
                ref = rounded_once_sum(q, [m * a + n * pow(a, -1, q) for a in units])
                assert kloosterman(m, n, q) == ref, (m, n, q)
                for k in (1, 2, 3, 4):
                    ref = rounded_once_sum(q, [m * a**k + n * a for a in range(q)])
                    assert two_term_sum(m, n, k, q) == ref, (m, n, k, q)
            if is_prime(q):
                for k in (-1, 1, 2, 3, 4, q):
                    ref = rounded_once_sum(q, [m * pow(a, k, q) + pow(a, -1, q) for a in units])
                    assert twisted_sum(m, k, q) == ref, (m, k, q)


def test_scalar_sums_at_q_32767_and_32768():
    # q = 2^15 - 1 and 2^15, an odd composite and a power of 2, against
    # the reference sums
    for q in (2**15 - 1, 2**15):
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        for m, n in [(1, 1), (2, 5), (q - 3, 7)]:
            ref = reference_sum(q, [m * a + n * pow(a, -1, q) for a in units])
            assert kloosterman(m, n, q) == ref, (m, n, q)
            for k in (2, 3):
                ref = reference_sum(q, [m * a**k + n * a for a in range(q)])
                assert two_term_sum(m, n, k, q) == ref, (m, n, k, q)


def test_real_sums_have_zero_imaginary_part():
    # a -> -a negates the phase of a Kloosterman sum and of an odd-degree
    # two-term sum, so the counts of j and q - j agree and the imaginary
    # part is exactly 0
    for q in SCALAR_MODULI:
        for m in (0, 1, 2, -3, q + 1):
            for n in (0, 1, 5):
                assert kloosterman(m, n, q).imag == 0.0, (m, n, q)
                for k in (1, 3, 5):
                    assert two_term_sum(m, n, k, q).imag == 0.0, (m, n, k, q)


def test_star_import_resolves_every_public_name():
    import expsumlab

    names = {}
    exec("from expsumlab import *", names)
    for name in expsumlab.__all__:
        assert names[name] is getattr(expsumlab, name), name
    deleted = ("root_table", "salie_twisted_char_sum", "kloosterman_bound_ratio", "weil_ratio",
               "gcd3", "factor_functions", "mod_inverse", "Signature", "signature",
               "normalized_key", "fundamentally_different", "PowerMeanResult")
    for name in deleted:
        assert name not in names and not hasattr(expsumlab, name), name


def test_names_nothing_calls_stay_deleted():
    import inspect

    from expsumlab import arith, char_sums, cli, conjecture, poly_search, registry, reporting

    gone = {
        arith: ("gcd3", "factor_functions", "mod_inverse", "Modulus", "as_modulus",
                "_check_odd_prime"),
        # factorize is the one cache of a modulus's arithmetic
        arith.check_odd_prime: ("cache_info",),
        char_sums: ("salie_twisted_char_sum", "FROM_ONE", "FROM_ZERO"),
        char_sums.PolynomialZ: ("shift", "scale", "derivative", "eval_mod", "reflect"),
        exp_sums: ("kloosterman_bound_ratio", "weil_ratio", "_limb_shape", "_limb_q", "_pieces", "_sums",
                   "_T_BLOCK", "_abs_sq_table", "ResidualError", "RESIDUAL_TOL", "PowerMeanResult",
                   "VARY_LINEAR", "VARY_MONOMIAL", "abs_sq_coefficients", "abs_two_term_all_m",
                   "_check_q", "_MAX_Q", "_fixed_root_table"),
        poly_search: ("_structural_notes", "char_sum_poly", "legendre_table", "Signature",
                      "signature", "normalized_key", "fundamentally_different", "_verify_pair",
                      "_is_canonical", "_differ", "_legendre_array"),
        registry: ("SweepSummary", "SweepResult", "IdentityDescriptor", "_Entry", "NUMERIC",
                   "RESIDUAL_TOL", "_ZH_FAMILY", "_salie_family", "_cubic_family",
                   "CONJECTURE_FAMILY", "_prime_gt3_unit_n", "_register", "UnknownIdentityError"),
        conjecture: ("CrossCheck",),
        cli: ("_finish_checked",),
        reporting: ("prepare_reals",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    fields = poly_search.SearchHit._fields
    assert "structural_notes" not in fields
    assert "varying_slot" not in PhaseFamily._fields
    fields = conjecture.ConjectureReport._fields
    assert "crosscheck" not in fields and "max_power_mean_residual" not in fields
    for record in (registry.IdentityOutcome, conjecture.ConjectureRow):
        assert "residual" not in record._fields, record
    # the status alone says pass or skip, and n is one optional int
    for name in ("params", "passed", "skipped"):
        assert not hasattr(registry.IdentityOutcome, name), name
    assert "params" not in registry.IdentityOutcome._fields
    assert list(inspect.signature(registry.verdict).parameters) == ["lhs", "rhs"]
    assert list(inspect.signature(registry.evaluate).parameters) == ["identity_id", "modulus", "n"]
    assert list(inspect.signature(registry.sweep).parameters) == ["identity_id", "moduli", "ns", "emit_skips"]
    assert "passed" not in char_sums.Corollary1Result._fields
    assert list(inspect.signature(char_sums.char_sum_poly).parameters) == ["f", "p"]


def test_no_module_reads_a_private_name_of_a_sibling():
    # a name one module of the package reads from another is public: no
    # `from .sibling import _name` and no `sibling._name`; the package
    # imports its siblings by relative imports only
    import ast
    from pathlib import Path

    import expsumlab

    package = Path(expsumlab.__file__).parent
    siblings = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert {"arith", "registry", "conjecture"} <= siblings

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # the local names bound to sibling modules, e.g. conj for conjecture
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("expsumlab") for a in node.names), path.name
            if isinstance(node, ast.ImportFrom):
                assert node.level == 1 or not (node.module or "").startswith("expsumlab"), path.name
                for alias in node.names if node.level == 1 else ():
                    if node.module is None and alias.name in siblings:
                        bound[alias.asname or alias.name] = alias.name
                    elif node.module in siblings and private(alias.name):
                        reads.append(f"{path.name}: from .{node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound and private(node.attr)):
                reads.append(f"{path.name}:{node.lineno}: {bound[node.value.id]}.{node.attr}")
    assert reads == []
