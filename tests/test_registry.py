import dataclasses

import pytest

from expsumlab import exp_sums, registry
from expsumlab.arith import primes_in_range
from expsumlab.registry import (
    FAIL,
    PASS,
    SKIP,
    UnknownIdentityError,
    evaluate,
    list_identities,
    summarize,
    sweep,
    verdict,
)

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
    with pytest.raises(UnknownIdentityError):
        evaluate("no_such_identity", 7)


def test_salie_spot_values():
    # frozen from an independent cmath brute force
    assert evaluate("salie_4th", 5).lhs == 160
    assert evaluate("salie_4th", 7).lhs == 518
    for p in (5, 7):
        out = evaluate("salie_4th", p)
        assert out.passed and out.lhs == out.rhs


def test_zhang_composite_spot_values():
    out = evaluate("zhang_composite_4th", 5, {"n": 1})
    assert out.passed and out.lhs == 160
    out = evaluate("zhang_composite_4th", 15, {"n": 1})
    assert out.passed and out.lhs == 2880


def test_zhang_composite_skips_even_and_non_unit_n():
    assert evaluate("zhang_composite_4th", 4).status == SKIP
    assert evaluate("zhang_composite_4th", 15, {"n": 3}).status == SKIP


def test_zwl_nw_spot_value():
    # brute force at p = 5: sum over m of |sum_a e((m a^2 + abar)/5)|^4 = 55
    for iid in ("zwl_4th", "nw_4th"):
        out = evaluate(iid, 5)
        assert out.passed and out.lhs == 55


def test_zwl_and_nw_closed_forms_agree():
    # two independently published right-hand sides for the same mean
    for p in primes_in_range(5, 200):
        a = evaluate("zwl_4th", p)
        b = evaluate("nw_4th", p)
        assert a.lhs == b.lhs and a.rhs == b.rhs == a.lhs, p


def test_corollary1_outcome():
    out = evaluate("corollary1", 13)
    assert out.passed and out.lhs == 2 and out.rhs == 2
    assert evaluate("corollary1", 15).status == SKIP


def test_zz_cubic_spot_values():
    assert evaluate("zz_cubic_4th", 7).lhs == 343  # 3 | p-1 branch
    out = evaluate("zz_cubic_4th", 5)
    assert out.passed and out.lhs == 2 * 125 - 25


def test_zz_cubic_independent_of_unit_n():
    for p in (5, 7, 13):
        vals = {evaluate("zz_cubic_4th", p, {"n": n}).lhs for n in (1, 2, p - 1)}
        assert len(vals) == 1


def test_zh_cubic_factual_failure():
    # the displayed sixth-moment closed form does not match the sum it is
    # attached to: at p = 5 the sum is 2500 but the formula gives 2100
    out = evaluate("zh_cubic_6th_over_a", 5)
    assert out.status == FAIL
    assert out.lhs == 2500 and out.rhs == 2100


def test_zh_mean_is_the_cubic_family_mean():
    # for a != 0, n = b/a turns sum_n e((n^3 + a n)/p) into
    # sum_b e((a^-3 b^3 + b)/p); at p = 2 mod 3, gcd(3, p - 1) = 1, so
    # a -> a^-3 permutes 1..p-1 and ZH's sweep over the linear coefficient
    # has the multiset of |S| of the cubic family (n = 1) over m = 1..p-1
    for p in primes_in_range(5, 200):
        if p % 3 != 2:
            continue
        for two_k in (2, 4, 6, 8):
            zh = exp_sums.power_mean(registry._ZH_FAMILY, p, two_k)
            assert zh == exp_sums.power_mean(registry._cubic_family(1), p, two_k), (p, two_k)


def test_zh_cubic_lhs_matches_sibling_identity():
    # for 3 not dividing p-1, cubing is a bijection, so the mean over the
    # linear slot equals (p-1) copies of the n = 1 monomial-slot mean plus
    # the a = 0 term p^6... here just freeze the observed closed form
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
            assert evaluate(iid, p).passed, (iid, p)


def test_gauss_magnitude_outcome():
    out = evaluate("gauss_magnitude", 11)
    assert out.passed and out.lhs == 110 and out.rhs == 110


@pytest.mark.parametrize("p", [499, 1999])
def test_gauss_magnitude_is_checked_on_exact_table(p):
    # every |S_m|^2 is the integer y_0 - y_1 of one exact autocorrelation
    out = evaluate("gauss_magnitude", p)
    assert out.passed
    y = exp_sums.abs_sq_coefficients(registry._GAUSS_FAMILY, p, 1)
    assert y[0] - y[1] == p and len(set(y[1:])) == 1


@pytest.mark.parametrize("offsets", [{1: 1, 2: -1}, {1: 1, 12: -1}])
def test_gauss_magnitude_flags_one_bad_table_entry(monkeypatch, offsets):
    # two coefficients of |S_1|^2 moved apart, with their total kept: no
    # longer an integer, so no magnitude is sqrt(p) and the row fails
    real = exp_sums.abs_sq_coefficients

    def skewed(family, q, t):
        y = real(family, q, t)
        for j, off in offsets.items():
            y[j] += off
        return y

    monkeypatch.setattr(exp_sums, "abs_sq_coefficients", skewed)
    out = evaluate("gauss_magnitude", 13)
    assert out.status == FAIL and out.lhs is None and out.rhs == 156


def test_skip_versus_fail_distinction():
    out = evaluate("salie_4th", 4)
    assert out.skipped and out.lhs is None and out.rhs is None
    assert not out.passed


def test_sweep_counts_and_skip_handling():
    s = summarize(sweep("salie_4th", range(3, 20)))
    assert s["pass"] == len(primes_in_range(3, 19))
    assert s["fail"] == 0 and s["skip"] == 0
    outcomes = sweep("salie_4th", [4], emit_skips=True)
    assert summarize(outcomes)["skip"] == 1 and len(outcomes) == 1


def test_sweep_params_grid_in_evaluate_order():
    grid = [{"n": 1}, {"n": 2}]
    primes = primes_in_range(5, 40)
    outcomes = sweep("zz_cubic_4th", primes, grid)
    assert outcomes == [evaluate("zz_cubic_4th", p, g) for p in primes for g in grid]
    assert summarize(outcomes)["pass"] == 2 * len(primes)


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
        dataclasses.replace(five, status=FAIL),
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
