import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import cli, exp_sums, registry
from expsumlab.arith import Modulus, is_prime, primes_in_range
from expsumlab.exp_sums import (
    TWIST_INVERSE,
    TWIST_NONE,
    PhaseFamily,
    abs_two_term_all_m,
    kloosterman,
    power_mean,
    twisted_sum,
    two_term_sum,
)
from expsumlab.registry import CUBIC_FAMILY

from conftest import e_p, power_mean_direct, reference_mean, reference_root_table


def test_kloosterman_zero_args_gives_phi():
    for q in (5, 12, 45):
        assert kloosterman(0, 0, q) == pytest.approx(Modulus.from_int(q).phi, abs=1e-9)


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
            assert power_mean(CUBIC_N1, q, 8) == registry._wz_rhs(q), q


def test_wide_slots_pin_the_twelfth_mean():
    # 1999^6 needs 9-byte Kronecker slots; the values are exact counts
    assert power_mean(CUBIC_FAMILY, 1999, 12) == 16752866660353798632014860
    assert power_mean(SALIE, 1999, 12) == 16293634516098608833512659


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
    worst = max(abs(two_term_sum(m, 1, 3, 7)) / math.sqrt(7) for m in range(1, 7))
    assert worst <= 2.0 + 1e-9


def test_weil_bound_exhaustive_small():
    # |S(m,n,k;p)| <= (k-1) sqrt(p): every m, every n, k in {2, 3}
    for p in primes_in_range(5, 59):
        for k in (2, 3):
            bound = (k - 1) * math.sqrt(p) + 1e-6
            for n in range(p):
                mags = abs_two_term_all_m(n, k, p)[1:]
                assert float(mags.max()) <= bound, (p, k, n)


def test_gauss_magnitude_all_m():
    for p in primes_in_range(3, 499):
        mags = abs_two_term_all_m(0, 2, p)[1:]
        assert float(abs(mags - math.sqrt(p)).max()) < 1e-9 * math.sqrt(p)


# The exact paths against a big-integer loop over a per-entry 60-digit
# mpmath root table (conftest): the scalar sums must give the same
# integers bit for bit, and the power means the nearest integers to its
# rounded means.

def reference_phases(family, q, t):
    """e_a(t) mod q for every a of the family's domain, from its definition."""
    k, f = family.monomial_degree, family.fixed_coefficient
    if family.twist == TWIST_INVERSE:
        phases = [t * a**k + f * pow(a, -1, q) for a in range(1, q) if math.gcd(a, q) == 1]
    else:
        phases = [t * a**k + f * a for a in range(q)]
    return [x % q for x in phases]


def reference_abs_sq_table(family, q):
    re_t, im_t = reference_root_table(q)
    out = []
    for t in range(q):
        exps = reference_phases(family, q, t)
        sre = sum(map(re_t.__getitem__, exps))
        sim = sum(map(im_t.__getitem__, exps))
        out.append(sre * sre + sim * sim)
    return tuple(out)


def scalar_abs_sq_table(family, q):
    u, v = exp_sums._family_vectors(family, q)
    sums = (exp_sums._scaled_sum(exp_sums._counts(u, v, q, t), q) for t in range(q))
    return tuple(re * re + im * im for re, im in sums)


def test_integer_omega_matches_100_digit_mpmath():
    # e(1/q) at scale 2^256 from Machin's pi and a Taylor series, against
    # the 100-digit evaluation the root tables were first built from
    with mpmath.workdps(100):
        for q in range(1, 2001):
            w = mpmath.expjpi(mpmath.mpf(2) / q)
            ref = (int(mpmath.nint(w.real * 2**256)), int(mpmath.nint(w.imag * 2**256)))
            assert exp_sums._unit_root(q) == ref, q


def test_root_table_matches_per_entry_mpmath():
    for q in list(range(1, 401)) + [1009, 1021, 4999]:
        re, im = exp_sums._fixed_root_table(q)
        half = q // 2 + 1
        assert len(re) == len(im) == half, q
        ref_re, ref_im = reference_root_table(q)
        assert (re, im) == (ref_re[:half], ref_im[:half]), q
        # the rest of the circle is the conjugate of the stored half
        for j in range(half, q):
            assert (ref_re[j], ref_im[j]) == (re[q - j], -im[q - j]), (q, j)


def test_exponents_stay_in_int64():
    # the largest accepted q: every exponent t*u + v and every _pow_mod
    # product stays below 2^63
    q = 2**31 - 1
    assert (q - 1) * (q - 1) + (q - 1) < 2**63
    a = np.array([0, 1, 2, 3, 65537, q - 2, q - 1], dtype=np.int64)
    for e in (0, 1, 2, 3, q - 2, 2**40 + 3):
        assert exp_sums._pow_mod(a, e, q).tolist() == [pow(int(x), e, q) for x in a], e
    assert (((q - 1) * a + a) % q).tolist() == [((q - 1) * int(x) + int(x)) % q for x in a]


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


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("include_zero", [True, False])
def test_abs_sq_table_matches_big_integer_loop(family, include_zero):
    family = replace(family, include_zero_in_sweep=include_zero)
    start = 0 if include_zero else 1
    # even q hold the self-paired a = q/2; under the inverse twist only
    # the units count
    for q in [3, 4, 5, 7, 8, 9, 12, 15, 16, 25, 30, 31, 45, 49, 53, 101, 211]:
        ref = reference_abs_sq_table(family, q)
        assert scalar_abs_sq_table(family, q) == ref, q
        for two_k in (2, 6):
            assert power_mean(family, q, two_k) == round(reference_mean(ref, two_k, start)), (q, two_k)


def test_even_families_match_big_integer_loop():
    for family in EVEN_FAMILIES[1:]:
        for q in [3, 4, 5, 8, 9, 16, 30, 31, 49, 101]:
            ref = reference_abs_sq_table(family, q)
            assert scalar_abs_sq_table(family, q) == ref, q
            for two_k in (4, 8):
                assert power_mean(family, q, two_k) == round(reference_mean(ref, two_k, 0)), q


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
    phi = Modulus.from_int(q).phi
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
        mod = Modulus.from_int(q)
        # sigma_c maps S_t to S_(c^e t): the counts of c^e t are those of
        # t with every phase j moved to c*j
        e = exp_sums._galois_exponent(family, mod.phi)
        u, v = exp_sums._family_vectors(family, q)
        for c in exp_sums._units(q).tolist():
            moved = (c * np.arange(q)) % q
            for t in range(q):
                image = exp_sums._counts(u, v, q, pow(c, e, q) * t % q)
                assert np.array_equal(image[moved], exp_sums._counts(u, v, q, t)), (q, c, t)
        for two_k, mean in all_t_means(family, q).items():
            assert power_mean(family, q, two_k) == mean, (q, two_k)


@pytest.mark.parametrize("twist", [TWIST_NONE, TWIST_INVERSE])
def test_zero_sum_is_the_brute_force_sum(twist):
    # S_0 = sum_a zeta^(v_a): q or 0 without twist, the Ramanujan sum
    # c_q(f) under the inverse twist
    for q in range(3, 61):
        divisors = exp_sums._signed_divisors(Modulus.from_int(q))
        for f in {0, 1, q, q - 1, 2 * q + 1} | {d for d in range(2, q) if q % d == 0}:
            family = PhaseFamily(2, twist, f)
            brute = sum(e_p(j, q) for j in reference_phases(family, q, 0))
            assert exp_sums._zero_sum(family, divisors) == pytest.approx(brute, abs=1e-9), (q, f)


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
    orbits = sum(len(exp_sums._orbit_table(CUBIC_FAMILY, Modulus.from_int(p))[1])
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
    orbits = exp_sums._orbit_table(CUBIC_FAMILY, Modulus.from_int(p))[1]
    assert len(orbits) == 2 and len(calls) == 3 * len(orbits)
    assert all(sorted(ladder) == [1, 2, 3, 4] for _, ladder in orbits)


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

    for name in ("as_modulus", "_family_vectors", "_units"):
        monkeypatch.setattr(exp_sums, name, no_work)
    for q in (2**31, Modulus.from_int(2**31), 2**40):
        with pytest.raises(ValueError, match="2\\^31"):
            power_mean(SALIE, q, 4)


@pytest.mark.parametrize("shape", [PhaseFamily(1, TWIST_NONE), PhaseFamily(1, TWIST_INVERSE)])
@pytest.mark.parametrize("include_zero", [True, False])
def test_unit_coefficient_mean_is_the_direct_computation(shape, include_zero):
    # a unit coefficient c gives the mean of c = 1 (module docstring, "Unit
    # coefficients"), the theorem the registry's means at a unit n rest on;
    # power_mean computes each c as given
    for q in range(3, 41):
        one = replace(shape, monomial_degree=1 + q % 4, include_zero_in_sweep=include_zero)
        for c in range(2, q):
            if math.gcd(c, q) != 1:
                continue
            family = replace(one, fixed_coefficient=c)
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
    # hit the entry of 1
    one = replace(family, fixed_coefficient=1)
    exp_sums._power_mean.cache_clear()
    for two_k in (2, 4, 6):
        power_mean(one, q, two_k)
        value = power_mean(family, q, two_k)
        assert value == exp_sums._power_mean.__wrapped__(family, Modulus.from_int(q), two_k)
    info = exp_sums._power_mean.cache_info()
    assert (info.hits, info.misses) == (0, 6)


def test_scalar_sums_reject_moduli_from_2_pow_31(monkeypatch):
    def no_work(*args):
        raise AssertionError("a scalar sum did work before rejecting q")

    for name in ("as_modulus", "is_prime", "_family_vectors", "_fixed_root_table"):
        monkeypatch.setattr(exp_sums, name, no_work)
    for q in (2**31, Modulus.from_int(2**31), 2**40):
        for call in (
            lambda: kloosterman(1, 1, q),
            lambda: two_term_sum(1, 1, 3, q),
            lambda: abs_two_term_all_m(1, 3, q),
        ):
            with pytest.raises(ValueError, match="2\\^31"):
                call()
    for p in (2**31, 2**31 + 11, 2**40):
        with pytest.raises(ValueError, match="2\\^31"):
            twisted_sum(1, 3, p)


# The scalar sums against independent loops over the 60-digit mpmath
# root table: the same integers, divided once by 2^128.

SCALAR_MODULI = [2, 3, 4, 5, 7, 9, 12, 15, 16, 31, 45, 97, 101, 210]


def reference_sum(q, phases):
    re_t, im_t = reference_root_table(q)
    phases = [x % q for x in phases]
    return complex(sum(re_t[j] for j in phases) / 2**128, sum(im_t[j] for j in phases) / 2**128)


def test_scalar_sums_are_the_exact_kernel_divided_once():
    for q in SCALAR_MODULI:
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        for m in (0, 1, 2, -3, q + 1):
            for n in (0, 1, 5, -2):
                ref = reference_sum(q, [m * a + n * pow(a, -1, q) for a in units])
                assert kloosterman(m, n, q) == ref, (m, n, q)
                for k in (1, 2, 3, 4):
                    ref = reference_sum(q, [m * a**k + n * a for a in range(q)])
                    assert two_term_sum(m, n, k, q) == ref, (m, n, k, q)
            if is_prime(q):
                for k in (-1, 1, 2, 3, 4, q):
                    ref = reference_sum(q, [m * pow(a, k, q) + pow(a, -1, q) for a in units])
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


def test_abs_two_term_all_m_is_the_exact_table():
    for p in (3, 5, 7, 31, 101):
        for n, k in [(0, 2), (1, 3), (5, 4)]:
            fam = PhaseFamily(k, TWIST_NONE, n)
            ref = np.sqrt([s / 2**256 for s in reference_abs_sq_table(fam, p)])
            assert np.array_equal(abs_two_term_all_m(n, k, p), ref), (p, n, k)


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
    import dataclasses
    import inspect

    from expsumlab import arith, char_sums, cli, conjecture, poly_search, registry

    gone = {
        arith: ("gcd3", "factor_functions", "mod_inverse"),
        arith.Modulus: ("divisor_count",),
        char_sums: ("salie_twisted_char_sum", "FROM_ONE", "FROM_ZERO"),
        char_sums.PolynomialZ: ("shift", "scale", "derivative", "eval_mod", "reflect"),
        exp_sums: ("kloosterman_bound_ratio", "weil_ratio", "_limb_shape", "_limb_q", "_pieces", "_sums",
                   "_T_BLOCK", "_abs_sq_table", "ResidualError", "RESIDUAL_TOL", "PowerMeanResult",
                   "VARY_LINEAR", "VARY_MONOMIAL", "abs_sq_coefficients"),
        poly_search: ("_structural_notes", "char_sum_poly", "legendre_table", "Signature",
                      "signature", "normalized_key", "fundamentally_different", "_verify_pair",
                      "_is_canonical", "_differ"),
        registry: ("SweepSummary", "SweepResult", "IdentityDescriptor", "_Entry", "NUMERIC",
                   "RESIDUAL_TOL", "_ZH_FAMILY", "_salie_family", "_cubic_family",
                   "CONJECTURE_FAMILY", "_prime_gt3_unit_n"),
        conjecture: ("CrossCheck",),
        cli: ("_finish_checked",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    fields = [f.name for f in dataclasses.fields(poly_search.SearchHit)]
    assert "structural_notes" not in fields
    assert "varying_slot" not in [f.name for f in dataclasses.fields(PhaseFamily)]
    fields = [f.name for f in dataclasses.fields(conjecture.ConjectureReport)]
    assert "crosscheck" not in fields and "max_power_mean_residual" not in fields
    for record in (registry.IdentityOutcome, conjecture.ConjectureRow):
        assert "residual" not in [f.name for f in dataclasses.fields(record)], record
    # the status alone says pass or skip, and n is one optional int
    for name in ("params", "passed", "skipped"):
        assert not hasattr(registry.IdentityOutcome, name), name
    assert "params" not in [f.name for f in dataclasses.fields(registry.IdentityOutcome)]
    assert list(inspect.signature(registry.verdict).parameters) == ["lhs", "rhs"]
    assert list(inspect.signature(registry.evaluate).parameters) == ["identity_id", "modulus", "n"]
    assert list(inspect.signature(registry.sweep).parameters) == ["identity_id", "moduli", "ns", "emit_skips"]
    assert "passed" not in [f.name for f in dataclasses.fields(char_sums.Corollary1Result)]
    assert list(inspect.signature(char_sums.char_sum_poly).parameters) == ["f", "p"]
