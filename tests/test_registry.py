from fractions import Fraction
from math import gcd, prod

import pytest

from expsumlab import char_sums, exp_sums, registry
from expsumlab.arith import factorize, primes_in_range
from expsumlab.exp_sums import TWIST_INVERSE, TWIST_NONE, power_mean
from expsumlab.registry import (
    FAIL,
    PASS,
    SKIP,
    evaluate,
    list_identities,
    summarize,
    sweep,
    verdict,
)

from conftest import ORBIT_FAMILIES, reference_abs_sq_table, reference_mean, reference_root_table

ALL_IDS = [
    "salie_4th",
    "zhang_composite_4th",
    "zwl_4th",
    "nw_4th",
    "corollary1",
    "zz_cubic_4th",
    "zh_cubic_6th_over_a",
    "zm_cubic_6th",
    "wz_cubic_8th",
    "gauss_magnitude",
]


def test_registry_lists_all_identities():
    assert [d.identity_id for d in list_identities()] == ALL_IDS


def test_unknown_identity_raises():
    # a usage error, mapped to exit 2 by cli.main() with this text
    for call in (lambda: evaluate("no_such_identity", 7), lambda: sweep("no_such_identity", [])):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value) == "unknown identity: no_such_identity"


def test_salie_spot_values():
    # frozen from an independent cmath brute force
    assert evaluate("salie_4th", 5).lhs == 160
    assert evaluate("salie_4th", 7).lhs == 518
    for p in (5, 7):
        out = evaluate("salie_4th", p)
        assert out.status == PASS and out.lhs == out.rhs


def test_zhang_composite_spot_values():
    out = evaluate("zhang_composite_4th", 5, 1)
    assert out.status == PASS and out.lhs == 160
    out = evaluate("zhang_composite_4th", 15, 1)
    assert out.status == PASS and out.lhs == 2880


def test_zhang_composite_skips_even_and_non_unit_n():
    assert evaluate("zhang_composite_4th", 4).status == SKIP
    assert evaluate("zhang_composite_4th", 15, 3).status == SKIP


def _zhang_rhs_fraction(q, fac):
    """The closed form as the Fraction product it is displayed as, from
    the factorization fac of q: 3^omega q^2 phi(q) times a factor per
    unitary prime."""
    phi = prod((p - 1) * p ** (e - 1) for p, e in fac)
    rhs = Fraction(3 ** len(fac) * q**2 * phi)
    for p in (p for p, e in fac if e == 1):
        rhs *= Fraction(2, 3) - Fraction(1, 3 * p) - Fraction(4, 3 * p * (p - 1))
    return rhs


@pytest.mark.parametrize("q", [0, -5])
def test_every_identity_refuses_a_modulus_below_one(q):
    # before any predicate runs: zhang_composite_4th's alone would read
    # q < 3 as a skip
    for identity in ALL_IDS:
        with pytest.raises(ValueError) as err:
            evaluate(identity, q)
        assert str(err.value) == f"q must be >= 1, got {q}", identity


def test_zhang_rhs_in_integers_is_the_fraction_product():
    for q in range(3, 2002, 2):
        rhs = _zhang_rhs_fraction(q, factorize(q))
        assert rhs.denominator == 1 and registry._zhang_rhs(q) == rhs, q


def test_zhang_rhs_refuses_a_product_that_is_no_integer(monkeypatch):
    # no odd q gives one; a factorization that disagrees with its q does
    fake = ((5, 1),)
    monkeypatch.setattr(registry, "factorize", lambda q: fake)
    rhs = _zhang_rhs_fraction(1, fake)
    assert rhs == Fraction(32, 5)
    with pytest.raises(ArithmeticError, match=f"^zhang rhs not an integer at q=1: {rhs}$"):
        registry._zhang_rhs(1)


def test_identity_without_n_refuses_one_before_any_work(monkeypatch):
    # salie_4th at n = 5 would be S(m, 5; 5), whose mean is not the RHS;
    # zwl_4th has no n at all: both refuse it rather than echo it
    def no_work(*args):
        raise AssertionError("did work before refusing n")

    monkeypatch.setattr(registry, "factorize", no_work)
    for identity, q, n in (("salie_4th", 5, 5), ("zwl_4th", 7, 3)):
        with pytest.raises(ValueError, match=f"^{identity} takes no --n$"):
            evaluate(identity, q, n)
        # before the first modulus, so an empty range refuses it too
        for moduli in ([q], []):
            with pytest.raises(ValueError, match=f"^{identity} takes no --n$"):
                sweep(identity, moduli, [None, n])


def zhang_mean(q):
    """sum_{m mod q} |S(m, 1; q)|^4, the LHS of zhang_composite_4th."""
    return exp_sums.power_mean(registry._SALIE_FAMILY, q, 4)


def test_zhang_mean_is_multiplicative():
    """M(rs) = M(r) M(s) for coprime r, s, even q included, for every
    family of a complete sweep in ORBIT_FAMILIES, which span both twists.

    Kloosterman sums are twistedly multiplicative (Iwaniec & Kowalski,
    Analytic Number Theory, ch. 1), and so is every inner sum of a
    complete sweep; the exp_sums docstring, "Composite moduli", gives the
    proof.  power_mean is that product by construction, so the statement
    is checked on the test-side oracle, the rounded-root means of
    reference_abs_sq_table at every t, and power_mean is checked against
    the oracle at rs, for the complete sweeps and their twins without
    t = 0, which subtract S_0(rs)^2k.  rs <= 100 takes about 1.5 s on
    2 vCPUs.
    """
    families = [f for f in ORBIT_FAMILIES if f.include_zero_in_sweep]
    assert {f.twist for f in families} == {TWIST_NONE, TWIST_INVERSE}
    pairs = [(r, s) for r in range(2, 10) for s in range(r + 1, 100 // r + 1) if gcd(r, s) == 1]
    for family in families:
        twin = family._replace(include_zero_in_sweep=False)
        for r, s in pairs:
            tables = [reference_abs_sq_table(family, q) for q in (r * s, r, s)]
            for two_k in (2, 4, 6):
                rs, m_r, m_s = (round(reference_mean(table, two_k, 0)) for table in tables)
                assert rs == m_r * m_s, (family, r, s, two_k)
                assert power_mean(family, r * s, two_k) == rs, (family, r, s, two_k)
                assert power_mean(twin, r * s, two_k) == round(reference_mean(tables[0], two_k, 1)), (twin, r, s, two_k)


def test_zhang_sweep_builds_orbit_tables_only_at_prime_powers(orbit_tables_built):
    # registry_mix's zhang command: each odd q of two or more primes is
    # the product of the means at its prime-power factors, each built once
    rows = sweep("zhang_composite_4th", range(3, 96), [1, 7])
    assert all(o.status == PASS for o in rows) and len(rows) == 87
    assert orbit_tables_built == [q for q in range(3, 96, 2) if len(factorize(q)) == 1]


def test_corollary1_after_zwl_and_nw_reuses_their_character_sums(monkeypatch):
    # zwl_4th and nw_4th read the two character sums of corollary1 at
    # every prime p > 3; corollary1 computes only those at p = 3
    cached = char_sums.char_sum_poly
    cached.cache_clear()
    missed = []

    def recording(f, p):
        before = cached.cache_info().misses
        value = cached(f, p)
        if cached.cache_info().misses > before:
            missed.append((str(f), p))
        return value

    monkeypatch.setattr(char_sums, "char_sum_poly", recording)
    primes = primes_in_range(3, 190)
    for identity in ("zwl_4th", "nw_4th"):
        sweep(identity, primes)
    assert sorted(missed) == sorted((str(f), p) for f in (char_sums.CUBIC_CCC, char_sums.NING_WANG_QUARTIC)
                                    for p in primes[1:])
    missed.clear()
    assert all(o.status == PASS for o in sweep("corollary1", primes))
    assert sorted(missed) == [("x^3+x^2+x", 3), ("x^4+4x^3+2x^2+4x+1", 3)]


def test_zhang_mean_at_powers_of_two_observed():
    # observed, not proved: the 2-adic factor of the multiplicative mean,
    # where the published RHS does not hold (q = 4: 32 against 96); from
    # 2^5 on it is 3 * 8^e, twice the 3q^2 phi(q) of an odd prime power
    assert [zhang_mean(2**e) for e in (2, 3, 4)] == [32, 512, 4096]
    for e in range(5, 13):
        assert zhang_mean(2**e) == 3 * 8**e, e


def test_zwl_nw_spot_value():
    # brute force at p = 5: sum over m of |sum_a e((m a^2 + abar)/5)|^4 = 55
    for iid in ("zwl_4th", "nw_4th"):
        out = evaluate(iid, 5)
        assert out.status == PASS and out.lhs == 55


def test_zwl_and_nw_closed_forms_agree():
    # two independently published right-hand sides for the same mean
    for p in primes_in_range(5, 200):
        a = evaluate("zwl_4th", p)
        b = evaluate("nw_4th", p)
        assert a.lhs == b.lhs and a.rhs == b.rhs == a.lhs, p


def test_corollary1_outcome():
    out = evaluate("corollary1", 13)
    assert out.status == PASS and out.lhs == 2 and out.rhs == 2
    assert evaluate("corollary1", 15).status == SKIP


def test_zz_cubic_spot_values():
    assert evaluate("zz_cubic_4th", 7).lhs == 343  # 3 | p-1 branch
    out = evaluate("zz_cubic_4th", 5)
    assert out.status == PASS and out.lhs == 2 * 125 - 25


def test_a_unit_n_is_echoed_and_any_other_n_is_a_skip():
    # one rule for every identity that takes n: a unit n gives the row
    # without n, n echoed; any other n, 0 and q included, is a skip
    # (the theorem that a unit n leaves the mean unchanged is
    # test_unit_coefficient_mean_is_the_direct_computation)
    takes_n = [i.identity_id for i in list_identities() if i.takes_n]
    assert takes_n == ["zhang_composite_4th", "zz_cubic_4th", "zm_cubic_6th", "wz_cubic_8th"]
    for identity in takes_n:
        for q in (5, 7, 13, 15, 21):
            plain = evaluate(identity, q)
            for n in (0, 1, 2, 3, 5, 7, q - 1, q, q + 1, -1, 2 * q):
                out = evaluate(identity, q, n)
                if gcd(n, q) == 1:
                    assert out == plain._replace(n=n), (identity, q, n)
                else:
                    assert (out.n, out.lhs, out.rhs, out.status) == (n, None, None, SKIP), (identity, q, n)


def test_zh_cubic_factual_failure():
    # the displayed sixth-moment closed form does not match the sum it is
    # attached to: at p = 5 the sum is 2500 but the formula gives 2100
    out = evaluate("zh_cubic_6th_over_a", 5)
    assert out.status == FAIL
    assert out.lhs == 2500 and out.rhs == 2100


def zh_abs_sq_table(p):
    """|sum_n e((n^3 + a n)/p)|^2 * 2^256 for a = 0..p-1 on the 60-digit
    root table: ZH's sweep of the linear coefficient, from its definition."""
    re_t, im_t = reference_root_table(p)
    out = []
    for a in range(p):
        phases = [(n**3 + a * n) % p for n in range(p)]
        sre = sum(map(re_t.__getitem__, phases))
        sim = sum(map(im_t.__getitem__, phases))
        out.append(sre * sre + sim * sim)
    return out


def test_zh_mean_is_the_cubic_family_mean():
    # the registry computes ZH's LHS as the cubic family's mean (the
    # substitution at its entry); a brute force over the linear
    # coefficient a = 1..p-1 gives the same integer
    for p in primes_in_range(5, 200):
        if p % 3 != 2:
            continue
        mean = reference_mean(zh_abs_sq_table(p), 6, 1)
        lhs = evaluate("zh_cubic_6th_over_a", p).lhs
        assert abs(mean - lhs) < Fraction(1, 2**40), p


def test_zh_cubic_lhs_matches_sibling_identity():
    # the substitution n = b/a makes ZH's mean the mean of the cubic
    # family (n = 1) over m = 1..p-1, which zm_cubic_6th gives as
    # 5p^3(p-1) at p = 5 mod 6
    for p in primes_in_range(5, 60):
        if (p - 1) % 3 == 0:
            continue
        out = evaluate("zh_cubic_6th_over_a", p)
        assert out.lhs == 5 * p**3 * (p - 1), p


def test_zm_wz_spot_values():
    assert evaluate("zm_cubic_6th", 7).lhs == 4067
    assert evaluate("zm_cubic_6th", 5).lhs == 2500
    assert evaluate("wz_cubic_8th", 7).lhs == 52479
    assert evaluate("wz_cubic_8th", 5).lhs == 30625
    for iid in ("zm_cubic_6th", "wz_cubic_8th"):
        for p in (5, 7, 13):
            assert evaluate(iid, p).status == PASS, (iid, p)


def test_gauss_magnitude_outcome():
    out = evaluate("gauss_magnitude", 11)
    assert out.status == PASS and out.lhs == 110 and out.rhs == 110


@pytest.mark.parametrize("p", [499, 1999])
def test_gauss_magnitude_is_checked_on_its_power_means(p):
    # M2 = p(p - 1) and (p - 1) M4 = M2^2, the Cauchy-Schwarz equality:
    # every |S_m|^2, m = 1..p-1, is p
    out = evaluate("gauss_magnitude", p)
    assert out.status == PASS
    m2, m4 = (exp_sums.power_mean(registry._GAUSS_FAMILY, p, two_k) for two_k in (2, 4))
    assert m2 == p * (p - 1) and (p - 1) * m4 == m2 * m2


@pytest.mark.parametrize("offset", [1, -1])
def test_gauss_magnitude_flags_a_skewed_fourth_mean(monkeypatch, offset):
    # a 4th mean off by one breaks the Cauchy-Schwarz equality, so the
    # magnitudes are no longer all equal and the row fails, with no LHS
    real = registry.power_mean

    def skewed(family, modulus, two_k):
        return real(family, modulus, two_k) + (offset if two_k == 4 else 0)

    monkeypatch.setattr(registry, "power_mean", skewed)
    out = evaluate("gauss_magnitude", 13)
    assert out.status == FAIL and out.lhs is None and out.rhs == 156


def test_skip_versus_fail_distinction():
    out = evaluate("salie_4th", 4)
    assert out.status == SKIP and out.lhs is None and out.rhs is None


def test_sweep_counts_and_skip_handling():
    s = summarize(sweep("salie_4th", range(3, 20)))
    assert s["pass"] == len(primes_in_range(3, 19))
    assert s["fail"] == 0 and s["skip"] == 0
    outcomes = sweep("salie_4th", [4], emit_skips=True)
    assert summarize(outcomes)["skip"] == 1 and len(outcomes) == 1


def test_sweep_ns_in_evaluate_order():
    ns = [1, 2]
    primes = primes_in_range(5, 40)
    outcomes = sweep("zz_cubic_4th", primes, ns)
    assert outcomes == [evaluate("zz_cubic_4th", p, n) for p in primes for n in ns]
    assert summarize(outcomes)["pass"] == 2 * len(primes)
    # no ns is no n; an empty ns, like an empty range, gives no rows
    assert sweep("zz_cubic_4th", primes) == [evaluate("zz_cubic_4th", p) for p in primes]
    assert sweep("zz_cubic_4th", primes, []) == []
    assert sweep("zz_cubic_4th", [], ns) == []


def test_outcomes_are_hashable():
    outcomes = sweep("zhang_composite_4th", range(3, 16), [1, 3], emit_skips=True)
    assert len(set(outcomes)) == len(outcomes) == 26


def test_verdict_order():
    # a missing RHS is a skip, before any comparison
    assert verdict(5, None) == SKIP
    assert verdict(None, None) == SKIP
    assert verdict(5, 5) == PASS
    assert verdict(5, 6) == FAIL
    assert verdict(None, 6) == FAIL


def test_summarize_counts_every_status_in_order():
    skip, five, seven = (evaluate("salie_4th", q) for q in (4, 5, 7))
    outcomes = [
        skip,
        five,
        seven,
        five._replace(status=FAIL),
    ]
    s = summarize(outcomes)
    # numeric and max_residual are constants kept for the output format
    assert list(s) == ["pass", "fail", "skip", "numeric", "max_residual"]
    assert s == {"pass": 2, "fail": 1, "skip": 1, "numeric": 0, "max_residual": 0.0}
    assert summarize([]) == {"pass": 0, "fail": 0, "skip": 0, "numeric": 0, "max_residual": 0.0}


def test_salie_prime_case_agrees_with_composite_formula():
    # at prime q the composite closed form must collapse to the prime one
    for p in primes_in_range(3, 100):
        a = evaluate("salie_4th", p)
        b = evaluate("zhang_composite_4th", p)
        assert a.lhs == b.lhs and a.rhs == b.rhs
