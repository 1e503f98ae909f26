"""End-to-end acceptance gate: twelve numbered criteria, one test each.

Every test prints a single PASS/FAIL line (run with -s to see them all)
and then asserts.  Criterion 6 is a known, documented failure: the
published sixth-moment closed form does not match the sum it is attached
to, and this suite reports that honestly instead of hiding it.
"""

import json
import math
import time

from expsumlab import cli
from expsumlab.arith import primes_in_range, represent_4p
from expsumlab.char_sums import CUBIC_CCC, NING_WANG_QUARTIC, PolynomialZ
from expsumlab.conjecture import closed_form, conjecture_report, conjecture_value
from expsumlab.poly_search import search_constant_pairs
from expsumlab.registry import PASS, SKIP, evaluate, summarize, sweep

from conftest import CERTIFIED, certify_weil


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_01_corollary_difference_is_two():
    t0 = time.perf_counter()
    outcomes = sweep("corollary1", primes_in_range(3, 199))
    elapsed = time.perf_counter() - t0
    s = summarize(outcomes)
    ok = (
        s["fail"] == 0
        and s["pass"] == len(primes_in_range(3, 199))
        and all(o.lhs == 2 for o in outcomes)
        and elapsed < 1.0
    )
    _report(1, ok, f"difference 2 at all {s['pass']} odd primes < 200 in {elapsed:.3f}s")


def test_acceptance_02_salie_fourth_mean():
    t0 = time.perf_counter()
    outcomes = sweep("salie_4th", primes_in_range(3, 499))
    elapsed = time.perf_counter() - t0
    s = summarize(outcomes)
    ok = (
        s["fail"] == 0
        and s["max_residual"] < 1e-6
        and elapsed < 30.0
    )
    _report(2, ok, f"2p^3-3p^2-3p exact for {s['pass']} primes < 500, "
                   f"max residual {s['max_residual']:.2e}, {elapsed:.1f}s")


def test_acceptance_03_composite_fourth_mean():
    checked = 0
    worst = ""
    for q in range(3, 301, 2):
        units = [u for u in range(2, q) if math.gcd(u, q) == 1]
        ns = sorted({1, units[0] if units else 1, q - 1})
        for n in ns:
            out = evaluate("zhang_composite_4th", q, n)
            if out.status == SKIP:
                continue
            checked += 1
            if out.status != PASS:
                worst = f"q={q} n={n}: lhs {out.lhs} rhs {out.rhs}"
                break
        if worst:
            break
    spots = (
        evaluate("zhang_composite_4th", 5, 1).lhs == 160
        and evaluate("zhang_composite_4th", 15, 1).lhs == 2880
    )
    # the rhs builder raises if the rational product is not an integer,
    # so reaching this point certifies integrality at every q
    ok = not worst and spots and checked > 0
    _report(3, ok, worst or f"{checked} (q, n) pairs exact, integer rhs throughout, spots 160/2880")


def test_acceptance_04_quadratic_twisted_fourth_mean():
    bad = ""
    for p in primes_in_range(5, 199):
        a = evaluate("zwl_4th", p)
        b = evaluate("nw_4th", p)
        if not (a.status == b.status == PASS and a.lhs == b.lhs):
            bad = f"p={p}: {a.lhs} vs rhs {a.rhs}/{b.rhs}"
            break
    ok = not bad and evaluate("zwl_4th", 5).lhs == 55
    _report(4, ok, bad or "both closed forms match the mean for 5 <= p < 200; p=5 gives 55")


def test_acceptance_05_cubic_fourth_mean():
    bad = ""
    for p in primes_in_range(5, 199):
        for n in (1, 2):
            out = evaluate("zz_cubic_4th", p, n)
            if out.status != PASS:
                bad = f"p={p} n={n}: lhs {out.lhs} rhs {out.rhs}"
                break
        if bad:
            break
    _report(5, ok := not bad, bad or "2p^3-p^2 / 2p^3-7p^2 split exact for 5 <= p < 200, n in {1,2}")


def test_acceptance_06_cubic_sixth_mean_over_linear_slot():
    # Known defect in the published closed form: the stated value
    # 5p^4-8p^3-p^2 contradicts the sum itself (p=5: sum 2500 vs 2100) and
    # its own sibling identities.  Kept faithful, reported honestly.
    # Why it must fail: for a != 0 the substitution n = b/a turns
    # sum_n e((n^3 + a n)/p) into sum_b e((a^-3 b^3 + b)/p).  For 3 not
    # dividing p-1, a -> a^-3 permutes 1..p-1, so this mean is the mean of
    # the cubic family sum_b e((m b^3 + b)/p) over m = 1..p-1, which
    # zm_cubic_6th (acceptance 7) gives as 5p^3(p-1).  The displayed form
    # would need 5p^4-8p^3-p^2 = 5p^4-5p^3, i.e. 3p^3 = -p^2, at every p.
    bad = ""
    for p in primes_in_range(5, 199):
        if (p - 1) % 3 == 0:
            continue
        out = evaluate("zh_cubic_6th_over_a", p)
        if out.status != PASS:
            bad = f"p={p}: lhs {out.lhs} != rhs {out.rhs} (known discrepancy)"
            break
    _report(6, not bad, bad or "5p^4-8p^3-p^2 exact for p < 200 with 3 not dividing p-1")


def test_acceptance_07_cubic_sixth_and_eighth_means():
    bad = ""
    for p in primes_in_range(5, 149):
        for iid in ("zm_cubic_6th", "wz_cubic_8th"):
            out = evaluate(iid, p)
            if out.status != PASS:
                bad = f"{iid} p={p}: lhs {out.lhs} rhs {out.rhs}"
                break
        if bad:
            break
    spots = (
        evaluate("zm_cubic_6th", 7).lhs == 4067
        and evaluate("wz_cubic_8th", 7).lhs == 52479
        and evaluate("zm_cubic_6th", 5).lhs == 2500
        and evaluate("wz_cubic_8th", 5).lhs == 30625
        and represent_4p(7).d == 1
    )
    ok = not bad and spots
    _report(7, ok, bad or "6th/8th means exact for p < 150 incl. the 4p = d^2+27b^2 branch")


def test_acceptance_08_conjecture_crosscheck_and_high_k():
    bad = ""
    for k in (1, 2, 3, 4):
        for p in primes_in_range(3 if k == 1 else 5, 149):
            cf = closed_form(p, k)
            if cf is not None and conjecture_value(p, k) != cf:
                bad = f"k={k} p={p}"
                break
        if bad:
            break
    finite_max = 0.0
    if not bad:
        for k in (5, 6):
            rep = conjecture_report(k, 50, 300)
            residual = summarize(rep.rows)["max_residual"]
            if residual >= 1e-6:
                bad = f"k={k}: residual {residual}"
                break
            if not math.isfinite(rep.max_abs_normalized_residual):
                bad = f"k={k}: non-finite normalized residual"
                break
            finite_max = max(finite_max, rep.max_abs_normalized_residual)
    _report(8, not bad, bad or f"k<=4 match closed forms; k=5,6 on [50,300] exact-by-rounding, "
                               f"max |normalized residual| {finite_max:.4f}")


def test_acceptance_09_gauss_magnitude():
    # gauss_magnitude passes with LHS p(p-1) only when (p-1) M4 = M2^2, the
    # Cauchy-Schwarz equality: then every |S(m,0,2,p)|^2, m = 1..p-1, is p
    bad = ""
    for p in primes_in_range(3, 299):
        out = evaluate("gauss_magnitude", p)
        if out.status != PASS or out.lhs != p * (p - 1):
            bad = f"p={p}: {out.status}, lhs {out.lhs}"
            break
    _report(9, not bad, bad or "|S(m,0,2,p)|^2 = p exactly, all m, odd p < 300")


def test_acceptance_10_weil_bound_cubic():
    bad = ""
    for p in primes_in_range(5, 299):
        for n in (0, 1, 2):
            verdicts = certify_weil(n, 3, p)
            if verdicts != [CERTIFIED] * (p - 1):
                m = next(m for m, v in enumerate(verdicts, 1) if v != CERTIFIED)
                bad = f"p={p} n={n} m={m}: {verdicts[m - 1]}"
                break
        if bad:
            break
    _report(10, not bad, bad or "|S(m,n,3,p)|^2 <= 4p on a certified interval, all m, "
                                "5 <= p < 300, n in {0,1,2}")


def test_acceptance_11_search_soundness_smoke():
    primes = [p for p in primes_in_range(3, 99)]
    res = search_constant_pairs(2, 4, primes)
    pairs = {(h.f.coeffs, h.g.coeffs, h.c) for h in res.hits}
    found = ((1, 0, 1), (4, 0, 1), 0) in pairs
    spurious = any(
        {h.f.coeffs, h.g.coeffs} == {(1, 0, 1), (2, 0, 1)} for h in res.hits
    )
    # every hit re-verified from scratch (the library itself re-verifies
    # too, but the gate does not take its word for it)
    from expsumlab.arith import legendre

    sound = all(
        all(
            (legendre(-1, p) if h.twisted else 1)
            * sum(legendre(h.f(x), p) for x in range(1, p))
            - sum(legendre(h.g(x), p) for x in range(1, p))
            == h.c
            for p in primes
        )
        for h in res.hits
    )
    ok = found and not spurious and sound
    _report(11, ok, f"{len(res.hits)} hits all re-verify; (x^2+1, x^2+4) at c=0 found, "
                    f"(x^2+1, x^2+2) correctly absent")


def test_acceptance_12_cli_determinism(tmp_path):
    outs = []
    for w in ("1", "8"):
        path = tmp_path / f"va{w}.json"
        cli.main(["verify-all", "--format", "json", "--workers", w,
                  "--output", str(path)])
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and json.loads(outs[0])["command"] == "verify-all"
    _report(12, ok, "verify-all JSON byte-identical at worker counts 1 and 8")
