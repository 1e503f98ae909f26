import pytest

from expsumlab.arith import primes_in_range
from expsumlab.registry import PASS, SKIP, summarize
from expsumlab.conjecture import (
    MAX_K,
    catalan,
    closed_form,
    conjecture_report,
    conjecture_value,
)

from conftest import e_p


def test_catalan_numbers():
    assert [catalan(k) for k in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        catalan(0)


def test_conjecture_value_rejects_bad_input():
    for p in (8, 2, 1, 0, -3, 9):
        with pytest.raises(ValueError) as info:
            conjecture_value(p, 1)
        assert str(info.value) == f"p must be an odd prime, got {p}"
    with pytest.raises(ValueError) as info:
        conjecture_value(7, MAX_K + 1)
    assert str(info.value) == f"k must be in 1..{MAX_K}, got {MAX_K + 1}"


def test_second_moment_counting_oracle():
    # expanding the square: sum_m |S_m|^2 = p * sum over pairs with
    # a^3 = b^3 mod p of e((a-b)/p), an independent double-loop oracle
    for p in primes_in_range(3, 60):
        paired = sum(
            e_p(a - b, p)
            for a in range(p)
            for b in range(p)
            if (a**3 - b**3) % p == 0
        )
        assert conjecture_value(p, 1) == round((p * paired).real)
        assert conjecture_value(p, 1) == closed_form(p, 1)


def test_k1_closed_form_split():
    assert conjecture_value(5, 1) == 25
    assert conjecture_value(7, 1) == 35  # p^2 - 2p at p = 1 mod 3


def test_k2_matches_fourth_moment_forms():
    for p in primes_in_range(5, 100):
        assert conjecture_value(p, 2) == closed_form(p, 2)


def test_spot_values_small():
    assert conjecture_value(7, 2) == 343
    assert conjecture_value(7, 3) == 4067
    assert conjecture_value(7, 4) == 52479


def test_report_crosscheck_k_le_4():
    for k in (1, 2, 3, 4):
        rep = conjecture_report(k, 5, 80)
        # every row was checked against its closed form, and matched
        bad = [(r.p, r.status) for r in rep.rows if r.status != PASS]
        assert not bad, (k, bad)
        assert summarize(rep.rows)["max_residual"] < 1e-6
        assert all(r.catalan == catalan(k) for r in rep.rows)


def test_report_high_k_residuals_stay_tiny():
    for k in (5, 6):
        rep = conjecture_report(k, 5, 60)
        # no row was checked
        assert all(r.status == SKIP for r in rep.rows)
        assert summarize(rep.rows)["max_residual"] < 1e-6
        assert rep.max_abs_normalized_residual < float("inf")
        assert all(closed_form(r.p, k) is None for r in rep.rows)


def test_report_rows_match_per_prime_values():
    rep = conjecture_report(3, 5, 60)
    primes = primes_in_range(5, 60)
    assert [r.p for r in rep.rows] == primes
    assert [r.value for r in rep.rows] == [conjecture_value(p, 3) for p in primes]


def test_normalized_residual_definition():
    rep = conjecture_report(2, 7, 7)
    (row,) = rep.rows
    assert row.main_term == 2 * 7**3
    assert row.normalized_residual == pytest.approx(
        (row.value - row.main_term) / 7**2.5
    )
