import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from expsumlab import cli, exp_sums, poly_search, registry
from expsumlab import conjecture as conj
from expsumlab.arith import NotRepresentableError, primes_in_range
from expsumlab.reporting import SCHEMA_VERSION, emit_csv, emit_json, prepare_reals


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_single_prime_ok(capsys):
    code, out = run(capsys, "verify", "--identity", "salie_4th", "--q", "5",
                    "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "verify"
    assert doc["rows"][0]["lhs"] == 160
    assert doc["rows"][0]["pass"] is True
    assert doc["summary"]["pass"] == 1 and doc["summary"]["fail"] == 0
    assert doc["summary"]["max_residual"] < 1e-6


def test_verify_inapplicable_modulus_is_skip_not_fail(capsys):
    code, out = run(capsys, "verify", "--identity", "salie_4th", "--q", "4",
                    "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["rows"][0]["pass"] == "skip"
    assert doc["summary"]["skip"] == 1


def test_verify_known_failure_exits_1(capsys):
    code, out = run(capsys, "verify", "--identity", "zh_cubic_6th_over_a",
                    "--q", "5", "--format", "json")
    assert code == cli.EXIT_FAIL
    doc = json.loads(out)
    assert doc["rows"][0]["lhs"] == 2500 and doc["rows"][0]["rhs"] == 2100


def test_verify_unknown_identity_usage_error(capsys):
    code, _ = run(capsys, "verify", "--identity", "nope", "--q", "5")
    assert code == cli.EXIT_USAGE


def test_verify_missing_range_usage_error(capsys):
    code, _ = run(capsys, "verify", "--identity", "salie_4th")
    assert code == cli.EXIT_USAGE


def test_bad_subcommand_usage_error(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_corrupted_rhs_flips_exit_code(capsys, monkeypatch):
    entry = registry._ENTRIES["salie_4th"]
    monkeypatch.setitem(
        registry._ENTRIES,
        "salie_4th",
        entry._replace(rhs=lambda p: entry.rhs(p) + 1),
    )
    code, _ = run(capsys, "verify", "--identity", "salie_4th", "--q", "5")
    assert code == cli.EXIT_FAIL


def test_csv_output_header_and_rows(capsys):
    code, out = run(capsys, "verify", "--identity", "corollary1",
                    "--pmin", "3", "--pmax", "20", "--format", "csv")
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "identity,modulus,n,lhs,rhs,residual,pass"
    assert lines[1] == "corollary1,3,,2,2,0,true"
    assert len(lines) == 1 + 7  # primes 3..19


def test_json_key_order_is_stable():
    payload = emit_json("verify", ("x",), {"a": 1}, [(1.23456789012345,)], {"pass": 1})
    doc = json.loads(payload)
    assert list(doc.keys()) == ["schema_version", "command", "config_echo", "rows", "summary"]
    assert doc["rows"][0]["x"] == 1.23456789012


def test_csv_none_and_bool_cells():
    columns = ("identity", "modulus", "n", "lhs", "rhs", "residual", "pass")
    payload = emit_csv(columns, [("x", 5, None, 1, 1, 0.0, True)])
    assert payload.decode().splitlines() == [",".join(columns), "x,5,,1,1,0,true"]


# one small argv of each command; every format of it names the
# command's columns in their order
FORMAT_ARGVS = [
    ["verify", "--identity", "zz_cubic_4th", "--pmin", "5", "--pmax", "13", "--n", "2"],
    ["verify-all"],
    ["conjecture", "--k", "2", "--pmin", "5", "--pmax", "13"],
    ["search", "--max-degree", "1", "--coeff-bound", "1", "--prime-max", "43"],
    ["sum", "--family", "two-term", "--m", "1", "--k", "3", "--q", "7"],
]


@pytest.mark.parametrize("argv", FORMAT_ARGVS, ids=[a[0] for a in FORMAT_ARGVS])
def test_json_csv_and_text_follow_the_command_columns(capsys, argv):
    columns = list(cli.COMMANDS[argv[0]][2])
    _, out = run(capsys, *argv, "--format", "json")
    rows = json.loads(out)["rows"]
    assert rows and all(list(row) == columns for row in rows)
    _, out = run(capsys, *argv, "--format", "csv")
    lines = out.splitlines()
    assert lines[0].split(",") == columns and len(lines) == 1 + len(rows)
    if argv[0] == "sum":  # its text format is the one complex value
        return
    _, out = run(capsys, *argv, "--format", "text")
    lines = out.splitlines()
    assert len(lines) == len(rows) + 1 and lines[-1].startswith("summary: ")
    for line in lines[:-1]:
        assert [cell.split("=", 1)[0] for cell in line.split("  ")] == columns, line


def test_verify_all_deterministic_across_workers(capsys, tmp_path):
    outputs = {}
    for w in ("1", "8"):
        path = tmp_path / f"out{w}.json"
        code = cli.main(["verify-all", "--format", "json", "--output", str(path), "--workers", w])
        assert code == cli.EXIT_FAIL  # the sixth-moment entry fails on its own
        outputs[w] = path.read_bytes()
    assert outputs["1"] == outputs["8"]
    doc = json.loads(outputs["1"])
    fails = [r for r in doc["rows"] if r["pass"] is False]
    assert fails and all(r["identity"] == "zh_cubic_6th_over_a" for r in fails)
    assert doc["summary"]["max_residual"] < 1e-6


def test_verify_all_text_fails_only_the_known_false_formula(capsys):
    # zh_cubic_6th_over_a reproduces a false published formula: 12 rows fail
    code, out = run(capsys, "verify-all", "--format", "text")
    assert code == cli.EXIT_FAIL
    summary = out.splitlines()[-1]
    assert summary.startswith("summary: ") and "  fail=12  " in summary
    failing = {line.split()[0] for line in out.splitlines() if line.endswith("pass=false")}
    assert failing == {"identity=zh_cubic_6th_over_a"}


def test_verify_empty_prime_range_reports_zero_counts(capsys):
    code, out = run(capsys, "verify", "--identity", "salie_4th", "--pmin", "24",
                    "--pmax", "28", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["rows"] == []
    assert doc["summary"] == {"pass": 0, "fail": 0, "skip": 0, "numeric": 0, "max_residual": 0.0}


def test_verify_all_summary_is_the_sum_of_the_sweeps(capsys):
    code, out = run(capsys, "verify-all", "--format", "json")
    assert code == cli.EXIT_FAIL
    total = {"pass": 0, "fail": 0, "skip": 0, "numeric": 0, "max_residual": 0.0}
    for ident, (kind, lo, hi) in cli.VERIFY_ALL_RANGES.items():
        moduli = primes_in_range(lo, hi) if kind == "primes" else range(lo, hi + 1, 2)
        s = registry.summarize(registry.sweep(ident, moduli))
        for key in ("pass", "fail", "skip", "numeric"):
            total[key] += s[key]
        total["max_residual"] = max(total["max_residual"], s["max_residual"])
    assert json.loads(out)["summary"] == prepare_reals(total)


def test_conjecture_command(capsys):
    code, out = run(capsys, "conjecture", "--k", "2", "--pmin", "5",
                    "--pmax", "40", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["crosscheck"] == "ok"
    assert all(r["catalan"] == 2 for r in doc["rows"])


def test_conjecture_crosscheck_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(conj, "closed_form", lambda p, k: conj.conjecture_value(p, k) + 1)
    assert all(r.status == registry.FAIL for r in conj.conjecture_report(2, 5, 13).rows)
    code, out = run(capsys, "conjecture", "--k", "2", "--pmin", "5", "--pmax", "13",
                    "--format", "json")
    assert code == cli.EXIT_FAIL
    summary = json.loads(out)["summary"]
    assert (summary["pass"], summary["fail"], summary["crosscheck"]) == (0, 4, "mismatch")


def test_conjecture_without_closed_form_is_unchecked(capsys):
    # no closed form covers k = 5: the rows are skips, not passes, and the
    # exit code stays 0
    code, out = run(capsys, "conjecture", "--k", "5", "--pmin", "5", "--pmax", "13",
                    "--format", "json")
    assert code == cli.EXIT_OK
    summary = json.loads(out)["summary"]
    assert (summary["pass"], summary["fail"], summary["skip"], summary["crosscheck"]) == (
        0, 0, 4, "unchecked")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_conjecture_row_without_closed_form_is_a_skip(capsys, k):
    # closed_form(3, k) is None for k = 2..4: p = 3 is a skip, not a pass
    code, out = run(capsys, "conjecture", "--k", str(k), "--pmin", "3", "--pmax", "7",
                    "--format", "json")
    assert code == cli.EXIT_OK
    summary = json.loads(out)["summary"]
    assert (summary["pass"], summary["fail"], summary["skip"], summary["numeric"],
            summary["crosscheck"]) == (2, 0, 1, 0, "ok")
    code, out = run(capsys, "conjecture", "--k", str(k), "--pmin", "3", "--pmax", "3",
                    "--format", "json")
    assert code == cli.EXIT_OK
    summary = json.loads(out)["summary"]
    assert (summary["pass"], summary["skip"], summary["crosscheck"]) == (0, 1, "unchecked")


def test_conjecture_bad_k(capsys):
    code, _ = run(capsys, "conjecture", "--k", "9", "--pmin", "5", "--pmax", "40")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "salie_4th", "--pmin", "50", "--pmax", "10"),
    ("verify", "--identity", "salie_4th", "--q", "-5"),
    ("conjecture", "--k", "2", "--pmin", "1", "--pmax", "2"),
    ("conjecture", "--k", "2", "--pmin", "50", "--pmax", "10"),
    # salie_4th takes no n; n = 0 would change the sum it compares
    ("verify", "--identity", "salie_4th", "--q", "5", "--n", "0"),
    ("search", "--prime-min", "50", "--prime-max", "20"),
    # the twisted sum is defined for a prime modulus only
    ("sum", "--family", "twisted", "--m", "1", "--k", "2", "--q", "1"),
    ("sum", "--family", "twisted", "--m", "1", "--k", "2", "--q", "4"),
    ("sum", "--family", "twisted", "--m", "1", "--k", "2", "--q", "0"),
    # a flag the family has no parameter for
    ("sum", "--family", "twisted", "--m", "1", "--n", "5", "--q", "7"),
    ("sum", "--family", "twisted", "--m", "1", "--n", "0", "--k", "2", "--q", "7"),
    ("sum", "--family", "kloosterman", "--m", "1", "--k", "9", "--q", "7"),
    ("sum", "--family", "kloosterman", "--m", "1", "--n", "1", "--k", "1", "--q", "7"),
])
def test_bad_range_is_usage_error_without_traceback(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    err = captured.err.strip()
    assert err and "\n" not in err and "Traceback" not in err


def test_search_with_too_few_evidence_primes_is_a_usage_error(capsys):
    # primes 3..17 are 6 of the 8 a constant-difference pair needs
    code = cli.main(["search", "--prime-max", "17"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines()[-1] == "evidence prime list must have at least 8 primes"


@pytest.mark.parametrize("where", [("--q", "5"), ("--pmin", "24", "--pmax", "28"), ("--qmin", "8", "--qmax", "9")])
def test_n_for_an_identity_without_one_is_the_registry_usage_error(capsys, where):
    # the registry refuses the n, for a single modulus and for an empty range
    code = cli.main(["verify", "--identity", "salie_4th", *where, "--n", "1"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (cli.EXIT_USAGE, "", "salie_4th takes no --n\n")


# each input error has one message, checked in a fixed order: the
# identity, then the range, then the n
@pytest.mark.parametrize("argv, err", [
    (("--identity", "nope"), "unknown identity: nope\n"),
    (("--identity", "nope", "--q", "5"), "unknown identity: nope\n"),
    (("--identity", "nope", "--n", "2"), "unknown identity: nope\n"),
    (("--identity", "nope", "--pmin", "9", "--pmax", "3"), "unknown identity: nope\n"),
    (("--identity", "salie_4th", "--n", "3"), "verify needs --q, --pmin/--pmax, or --qmin/--qmax\n"),
    (("--identity", "salie_4th", "--n", "3", "--pmin", "7", "--pmax", "3"), "empty range: lo=7 > hi=3\n"),
])
def test_verify_usage_errors_are_checked_identity_then_range_then_n(capsys, argv, err):
    code = cli.main(["verify", *argv])
    assert (code, *capsys.readouterr()) == (cli.EXIT_USAGE, "", err)


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def _with_rhs(identity, rhs):
    return registry._ENTRIES[identity]._replace(rhs=rhs)


@pytest.mark.parametrize("patch, argv, code, prefix", [
    # the zhang RHS raises ArithmeticError when its product is not an integer
    (lambda mp: mp.setitem(registry._ENTRIES, "zhang_composite_4th", _with_rhs(
        "zhang_composite_4th", _raise(ArithmeticError("zhang rhs not an integer")))),
     ("verify", "--identity", "zhang_composite_4th", "--q", "15"),
     cli.EXIT_NUMERIC, "numeric error"),
    (lambda mp: mp.setattr(conj, "power_mean", _raise(ArithmeticError("not an integer"))),
     ("conjecture", "--k", "2", "--pmin", "5", "--pmax", "13"),
     cli.EXIT_NUMERIC, "numeric error"),
    # a NotRepresentableError is a ValueError, yet not a usage error
    (lambda mp: mp.setattr(registry, "represent_4p", _raise(NotRepresentableError("p = 7"))),
     ("verify", "--identity", "zm_cubic_6th", "--pmin", "5", "--pmax", "13", "--workers", "2"),
     cli.EXIT_FAIL, "internal invariant breach"),
    # the conjecture cross-check calls the registry's right-hand sides
    (lambda mp: mp.setattr(registry, "represent_4p", _raise(NotRepresentableError("p = 7"))),
     ("conjecture", "--k", "3", "--pmin", "5", "--pmax", "13"),
     cli.EXIT_FAIL, "internal invariant breach"),
], ids=["verify_rhs_not_integer", "conjecture_arithmetic",
        "verify_not_representable", "conjecture_not_representable"])
def test_arithmetic_errors_map_to_exit_codes(capsys, monkeypatch, patch, argv, code, prefix):
    patch(monkeypatch)
    assert cli.main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(prefix)
    assert "\n" not in err and "Traceback" not in err


def test_search_invariant_breach_exits_1(capsys, monkeypatch):
    # zeroed sums put every polynomial in one bucket, which hands the
    # re-verify pairs whose sums do not differ by a constant
    real = poly_search._symbol_rows

    def zeroed(polys, primes):
        sums, symbols = real(polys, primes)
        return sums * 0, symbols

    monkeypatch.setattr(poly_search, "_symbol_rows", zeroed)
    code = cli.main(["search", "--max-degree", "2", "--coeff-bound", "2",
                     "--prime-max", "60", "--format", "json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FAIL
    assert captured.out == ""
    err = captured.err.strip()
    assert err == "internal invariant breach: grouping produced an unsound hit: x vs x-1"


def test_search_rejects_a_prime_beyond_int64_sums(capsys, monkeypatch):
    # 5 * (p - 1)^2 >= 2^63 for every prime of the window: exit 2 before
    # any polynomial is enumerated
    def no_work(*args):
        raise AssertionError("the search did work before checking its primes")

    monkeypatch.setattr(poly_search, "enumerate_polys", no_work)
    code = cli.main(["search", "--max-degree", "4", "--coeff-bound", "1",
                     "--prime-min", "1358187914", "--prime-max", "1358188200"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.strip() == ("prime 1358187923 too large for int64 sums: "
                                    "5 * (1358187923 - 1)^2 >= 2^63")


def test_search_command(capsys):
    code, out = run(capsys, "search", "--max-degree", "2", "--coeff-bound", "4",
                    "--prime-max", "100", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert {"f": "x^2+1", "g": "x^2+4", "c": 0, "primes_checked": 24,
            "twisted": False} in doc["rows"]


def test_benchmark_size_search_bytes_are_pinned(capsys):
    # the twisted degree-3, bound-2 search at primes 3..103: enumeration,
    # grouping and re-verify must keep printing the same bytes
    code, out = run(capsys, "search", "--max-degree", "3", "--coeff-bound", "2",
                    "--prime-min", "3", "--prime-max", "103", "--twisted", "--format", "json")
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "8e10dd9205088feec75d4cbcfa0f6d4abec790bac521ae43fab0590159c4e75e")


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "salie_4th", "--q", "5"),
    ("sum", "--family", "kloosterman", "--m", "1", "--q", "5"),
])
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_is_usage_error_without_traceback(capsys, tmp_path, argv, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    code = cli.main([*argv, "--format", "json", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"cannot write {path}: ")
    assert "\n" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sum_text_format(capsys):
    code, out = run(capsys, "sum", "--family", "kloosterman", "--m", "1",
                    "--n", "1", "--q", "5")
    assert code == cli.EXIT_OK
    assert out == "0.3819660 + 0.0000000i\n"
    # a part that rounds to zero prints unsigned, also where the exact
    # kernel leaves about -1e-38 (q = 210, 499) before the rounding
    for argv, text in [
        (("twisted", "--m", "1", "--k", "2", "--q", "5"), "-0.3090170 + 2.1266270i"),
        (("two-term", "--m", "1", "--n", "0", "--k", "1", "--q", "7"), "0.0000000 + 0.0000000i"),
        (("two-term", "--m", "1", "--n", "1", "--k", "3", "--q", "210"), "0.0000000 + 0.0000000i"),
        (("two-term", "--m", "-3", "--n", "1", "--k", "2", "--q", "210"), "0.0000000 + 0.0000000i"),
        (("two-term", "--m", "2", "--n", "0", "--k", "2", "--q", "210"), "20.4939015 + 0.0000000i"),
        (("two-term", "--m", "2", "--n", "0", "--k", "2", "--q", "499"), "0.0000000 - 22.3383079i"),
    ]:
        code, out = run(capsys, "sum", "--family", *argv)
        assert (code, out) == (cli.EXIT_OK, text + "\n"), argv


# `sum --format json` bytes on both sides of q = 2^15: the count vector
# dotted with the integer root table must keep printing the same digits
SUM_PINS = [
    ("kloosterman", 3, 5, 1, 32749, "333.411076412", "0.0"),
    ("kloosterman", 3, 5, 1, 32771, "89.639160143", "0.0"),
    ("two-term", 3, 5, 2, 32749, "156.758041672", "90.4207740027"),
    ("two-term", 3, 5, 2, 32771, "90.5764255153", "156.738352489"),
    ("two-term", 3, 5, 3, 32749, "103.529849034", "0.0"),
    ("two-term", 3, 5, 3, 32771, "160.061244014", "0.0"),
    ("twisted", 3, 0, 0, 32749, "-0.999999834356", "-0.000575576502512"),
    ("twisted", 3, 0, 0, 32771, "-0.999999834578", "-0.000575190103511"),
    ("twisted", 3, 0, -5, 32749, "75.7608202356", "0.0"),
    ("twisted", 3, 0, -5, 32771, "43.0729172869", "0.0"),
]


@pytest.mark.parametrize("family, m, n, k, q, real, imag", SUM_PINS)
def test_sum_json_bytes_are_pinned(capsys, family, m, n, k, q, real, imag):
    argv = ["sum", "--family", family, "--m", str(m), "--q", str(q), "--format", "json"]
    argv += {"kloosterman": ["--n", str(n)], "two-term": ["--n", str(n), "--k", str(k)],
             "twisted": ["--k", str(k)]}[family]
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert out == (
        '{"schema_version":"1","command":"sum","config_echo":{"family":"%s"},'
        '"rows":[{"family":"%s","m":%d,"n":%d,"k":%d,"q":%d,"real":%s,"imag":%s}],'
        '"summary":{"pass":1,"fail":0,"skip":0,"max_residual":0.0}}\n'
        % (family, family, m, n, k, q, real, imag))


# the constant "residual", "numeric" and "max_residual" keys stay in the
# bytes that readers of the output format parse
CHECKED_PINS = [
    (("verify", "--identity", "salie_4th", "--q", "5"),
     '{"schema_version":"1","command":"verify","config_echo":{"identity":"salie_4th","q":5,"n":null},'
     '"rows":[{"identity":"salie_4th","modulus":5,"n":null,"lhs":160,"rhs":160,"residual":0.0,'
     '"pass":true}],"summary":{"pass":1,"fail":0,"skip":0,"numeric":0,"max_residual":0.0}}\n'),
    (("conjecture", "--k", "2", "--pmin", "5", "--pmax", "7"),
     '{"schema_version":"1","command":"conjecture","config_echo":{"k":2,"pmin":5,"pmax":7},'
     '"rows":[{"p":5,"k":2,"value":225,"catalan":2,"main_term":250,"normalized_residual":-0.4472135955},'
     '{"p":7,"k":2,"value":343,"catalan":2,"main_term":686,"normalized_residual":-2.64575131106}],'
     '"summary":{"pass":2,"fail":0,"skip":0,"numeric":0,"max_residual":0.0,'
     '"max_normalized_residual":2.64575131106,"crosscheck":"ok"}}\n'),
    # unit n at prime and composite q; the non-unit n = 3 rows at q = 3,
    # 9 and 15 are not applicable and print nothing
    (("verify", "--identity", "zhang_composite_4th", "--qmin", "3", "--qmax", "15", "--n", "1", "--n", "3"),
     '{"schema_version":"1","command":"verify","config_echo":{"identity":"zhang_composite_4th","qmin":3,"qmax":15,"n":[1,3]},'
     '"rows":[{"identity":"zhang_composite_4th","modulus":3,"n":1,"lhs":18,"rhs":18,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":5,"n":1,"lhs":160,"rhs":160,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":5,"n":3,"lhs":160,"rhs":160,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":7,"n":1,"lhs":518,"rhs":518,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":7,"n":3,"lhs":518,"rhs":518,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":9,"n":1,"lhs":1458,"rhs":1458,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":11,"n":1,"lhs":2266,"rhs":2266,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":11,"n":3,"lhs":2266,"rhs":2266,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":13,"n":1,"lhs":3848,"rhs":3848,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":13,"n":3,"lhs":3848,"rhs":3848,"residual":0.0,"pass":true},'
     '{"identity":"zhang_composite_4th","modulus":15,"n":1,"lhs":2880,"rhs":2880,"residual":0.0,"pass":true}],'
     '"summary":{"pass":11,"fail":0,"skip":0,"numeric":0,"max_residual":0.0}}\n'),
]


@pytest.mark.parametrize("argv, expected", CHECKED_PINS, ids=["verify", "conjecture", "verify-two-n"])
def test_checked_command_json_bytes_are_pinned(capsys, argv, expected):
    code, out = run(capsys, *argv, "--format", "json")
    assert (code, out) == (cli.EXIT_OK, expected)


def _verify_n(identity, lo_flag, lo, hi_flag, hi):
    return ("verify", "--identity", identity, lo_flag, lo, hi_flag, hi, "--n", "1", "--n", "7")


# the sha256 of longer JSON outputs: every identity, both n of each
# identity that takes one, and the conjecture at every k
CHECKED_DIGESTS = {
    "verify-all": (("verify-all",), cli.EXIT_FAIL,
                   "a8500c207a69482097b871b48f4648d13a54e20a5dc6ec135badd0a687e257aa"),
    "gauss": (("verify", "--identity", "gauss_magnitude", "--pmin", "3", "--pmax", "400"), cli.EXIT_OK,
              "4056bbde2e2321579ef58bf62cdc496315d93c0e282ea31eefc4f0f1ec857ee1"),
    "zhang-n": (_verify_n("zhang_composite_4th", "--qmin", "3", "--qmax", "60"), cli.EXIT_OK,
                "0d41c1e0f6777cfc54f9f927ec6c385cccaa3d439440b77babe18e0487f4d454"),
    # registry_mix's zhang command: its moduli hold the composites 45, 63
    # and 75 of two primes, and the prime power 81 = 3^4
    "zhang-n-95": (_verify_n("zhang_composite_4th", "--qmin", "3", "--qmax", "95"), cli.EXIT_OK,
                   "d508575067456e9435499a0e4740f8519bd003970e6cf7bb6bd4bc231f9b8cd3"),
    "zz-n": (_verify_n("zz_cubic_4th", "--pmin", "3", "--pmax", "100"), cli.EXIT_OK,
             "ffd343594f3e97a8f97866599a81feb25b0ac7e42475bf5bb12625fa7672cc37"),
    "zm-n": (_verify_n("zm_cubic_6th", "--pmin", "3", "--pmax", "100"), cli.EXIT_OK,
             "61fe8b9adaa7eaee41cdc067f44fe9bf642dd0a30c2883ba12b90f22cdfd2e80"),
    "wz-n": (_verify_n("wz_cubic_8th", "--pmin", "3", "--pmax", "100"), cli.EXIT_OK,
             "68e35a5bd767f5b24a91569ad8b91cb9aa790051043bbfb1d2caa7bc61e2f4ed"),
    # a single modulus keeps the skip row of a non-unit n, in --n order
    "zhang-q-skip-n": (("verify", "--identity", "zhang_composite_4th", "--q", "15", "--n", "3", "--n", "1"),
                       cli.EXIT_OK, "15462b429b044b3699038dc96b7c867b825703087cc07d341cd1c2b217df07da"),
    "zz-q-skip-n": (("verify", "--identity", "zz_cubic_4th", "--q", "7", "--n", "7", "--n", "1"),
                    cli.EXIT_OK, "dcf3a26553d3cc49f803651d9057a3c385f357836f4edecfb3afa044ba14fb40"),
    **{f"conjecture-k{k}": (("conjecture", "--k", str(k), "--pmin", "3", "--pmax", "150"), cli.EXIT_OK, digest)
       for k, digest in enumerate([
           "6f0c9194e3f814fc6493c8a03d2197df86c2a1871b5625832a037555c40c0cf5",
           "e98c196a644ffc8d12fc743fa30d409e3a8397fae075e0ea35919d2ac5d57c1d",
           "a23c51d28595c33713f629ba366a1c591a5f295da295f4d34ab4528a1cca9f04",
           "0ed6de043756eec326184c81e2b06e6be8bc0791b4e38df5e04831c18360a213",
           "d4cbb2448e70189d1f1c9034191d9781ed658211f036e6352c737c5f685d16a7",
           "c789bce510cbfd53e6fd0654a49baeecab999c3abca31a762bbce5e9f10a5929",
       ], start=1)},
}


@pytest.mark.parametrize("argv, code, digest", CHECKED_DIGESTS.values(), ids=CHECKED_DIGESTS.keys())
def test_checked_command_json_sha256_is_pinned(capsys, argv, code, digest):
    got, out = run(capsys, *argv, "--format", "json")
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


def test_each_power_mean_is_computed_once_per_process(capsys):
    # every row of either n computes the one cubic family's mean at its
    # p, and p = 7 has no n = 7 row, as 7 is no unit there
    exp_sums._power_mean.cache_clear()
    code, _ = run(capsys, "verify", "--identity", "zz_cubic_4th", "--pmin", "5", "--pmax", "61",
                  "--n", "1", "--n", "7")
    assert code == cli.EXIT_OK
    primes = primes_in_range(5, 61)
    info = exp_sums._power_mean.cache_info()
    assert (info.misses, info.hits) == (len(primes), len([p for p in primes if p != 7]))


def test_parser_is_built_once_and_keeps_no_arguments_between_calls(capsys):
    # the cached parser returns a fresh namespace per call: the --n list
    # of one command does not leak into the next
    cli.build_parser.cache_clear()
    argv = ["verify", "--identity", "zz_cubic_4th", "--q", "11", "--format", "json"]
    code, before = run(capsys, *argv)
    assert code == cli.EXIT_OK
    code, with_n = run(capsys, *argv, "--n", "1", "--n", "7")
    assert code == cli.EXIT_OK and json.loads(with_n)["config_echo"]["n"] == [1, 7]
    code, after = run(capsys, *argv)
    assert code == cli.EXIT_OK and after == before
    doc = json.loads(after)
    assert doc["config_echo"]["n"] is None and [r["n"] for r in doc["rows"]] == [None]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("argv, parsers", [
    (["conjecture", "--k", "2", "--pmin", "5", "--pmax", "7"], 1),
    # the top-level parser and its five sub-parsers
    (["-h"], 6),
])
def test_a_run_builds_only_the_parsers_it_reports_from(capsys, monkeypatch, argv, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(argv) == cli.EXIT_OK
    assert len(built) == parsers, built


# the sha256 of json.dumps([argv, exit code, stdout, stderr]) for what
# argparse itself prints: help, usage errors, abbreviations, "--opt=value",
# a bad int or choice, and tokens left over after a command
PARSER_PINS = [
    ([], "68f47bcdc435e81c07f0521aecc8b98d9f265e303293f7f4577cc6068742657f"),
    (["-h"], "a60fba13550d541b29de067748b0f12c80e0699b853e144a98763093ba182a73"),
    (["--help"], "a08e4fa2dcf85d7bcac21aa69c2084a15691bf9e4cd57544287f87e1b702d022"),
    (["frobnicate"], "25ddf467b2ea3b72006185b14dae232bb5df25728f47d4894ad9efae411c2c84"),
    (["-x"], "c18f2c43b4a2e716cffb45fce177a07e21e6e655f9ece6e60f8706dfadafc947"),
    (["verify", "-h"], "7e79d37840f7bb1841a4c543708dfecb1911ee315e3253fc6d9a7df2fdb3a47b"),
    (["verify-all", "-h"], "5baed33635305c447a500090b410c983cc2198553d0175294186eec2e9c7c940"),
    (["conjecture", "-h"], "bcbb9cadf124b195e0b40cc26d3cd787198a5db007361135f57ab63f0c4fa67c"),
    (["search", "-h"], "aa9103a45192732b6ec5be571829c501280524da53a0cbba62f98546cf03f459"),
    (["sum", "-h"], "a0299dbd62e641b75b4b16f99962dcdc97b90a790500279708afac369f892544"),
    (["verify"], "7d1f23f20eae889d0f3e45daf8e8a96a60d92efc6b054c764ebba20d18ddc5f9"),
    (["verify", "--q", "x"], "f6666c1f335bcd84a51c0584b7f74a9a336e1f926c9ba5c07aeabd7307dfc8ab"),
    (["verify", "--identity", "salie_4th", "--q", "5", "--bogus"],
     "324d57a36204b4877bc62ae844d70310c5f0da60cd35ae89849c089d75d0f0bd"),
    (["verify", "--ident", "salie_4th"], "a33794f67317589568939093f2bb1326a66d3a0f639ea85ac3b258f09ae4764b"),
    (["verify", "--identity=salie_4th", "--q=7"],
     "3681a8242a1d340132b03561b5ad357893f9781f8e37083221676ac717f29eb4"),
    (["sum", "--family", "nope"], "961acfdf4980250fd5f13799288a3f031f911f2c998e89a69e794296ac87ec7f"),
    (["verify-all", "--", "x"], "d8aea5c466366aabeaf8af355fc5d62732bfd0aef89314f0b5e4371f59f4e4b7"),
    (["conjecture", "--k", "4"], "422f39ffafedf524efa6b2117329e3bd746ed4993d2235e8f2e09ed0dfb6f8af"),
    (["conjecture", "--k", "4", "--pmin", "5", "--pmax", "30", "extra"],
     "2ab76a3abbd93d471e80786a845c2c9b1228ff2edf63a5f99d482b9899459abb"),
    # a token before the command: the top-level parser still hands the
    # rest to the command's full parser
    (["-x", "verify", "-h"], "670d2f1bd608f9b68ca78ddb6ffeda77fb6d34df7e692eaf8c3ee64f530a5ff9"),
    (["--bogus", "conjecture", "--k", "4"], "ecfc528781a09b805a42d3c370e0c28ec760352db59dad78aa1c6f767a3aa3cb"),
    (["-x", "verify", "--identity", "salie_4th", "--q", "5"],
     "0ae8b44483833ca3a84cdb22d763b6fe4c4580b95a095d51e719f718e43f8af7"),
    (["--", "verify", "--identity", "salie_4th", "--q", "5"],
     "1488599bf0decb73712d345982379517c3ab46265515795056aac7a8ba999899"),
]


@pytest.mark.parametrize("argv, digest", PARSER_PINS, ids=[" ".join(a) or "none" for a, _ in PARSER_PINS])
def test_parser_output_is_pinned(capsys, monkeypatch, argv, digest):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    blob = json.dumps([argv, code, out, err])
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == digest, (code, out, err)


@pytest.mark.parametrize("q", [2**31, 2**61 - 1])
@pytest.mark.parametrize("identity", ["salie_4th", "corollary1"])
def test_verify_rejects_moduli_beyond_int64_before_any_work(capsys, monkeypatch, identity, q):
    # as_modulus trial-divides up to sqrt(q), and corollary1 would build a
    # q-entry Legendre table: q is refused first
    def no_work(*args):
        raise AssertionError("verify did work before rejecting q")

    monkeypatch.setattr(registry, "as_modulus", no_work)
    code = cli.main(["verify", "--identity", identity, "--q", str(q)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    err = captured.err.strip()
    assert "2^31" in err and "\n" not in err and "Traceback" not in err


def test_sum_json_format(capsys):
    code, out = run(capsys, "sum", "--family", "two-term", "--m", "1",
                    "--n", "0", "--k", "2", "--q", "5", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["real"] ** 2 + row["imag"] ** 2 == pytest.approx(5.0, abs=1e-9)


def test_sum_echoes_defaults_and_names_an_ignored_flag(capsys):
    code, out = run(capsys, "sum", "--family", "kloosterman", "--m", "1",
                    "--q", "5", "--format", "json")
    assert code == cli.EXIT_OK
    row = json.loads(out)["rows"][0]
    assert (row["n"], row["k"], row["imag"]) == (0, 1, 0.0)
    for family, flag in [("twisted", "--n"), ("kloosterman", "--k")]:
        code = cli.main(["sum", "--family", family, "--m", "1", flag, "5", "--q", "7"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"{family} takes no {flag}\n"


def test_workers_flag_validation(capsys):
    code, _ = run(capsys, "verify", "--identity", "salie_4th", "--q", "5",
                  "--workers", "0")
    assert code == cli.EXIT_USAGE


def test_workers_start_no_thread(capsys, monkeypatch):
    # the sums are pure Python under the GIL, so sweeps and conjecture
    # reports run serially whatever --workers says
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, _ = run(capsys, "verify", "--identity", "zz_cubic_4th", "--pmin", "5",
                  "--pmax", "40", "--workers", "2")
    assert code == cli.EXIT_OK
    code, _ = run(capsys, "conjecture", "--k", "3", "--pmin", "5", "--pmax", "40",
                  "--workers", "2")
    assert code == cli.EXIT_OK


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_runs_without_mpmath():
    # the root tables are built from integers alone, so mpmath is a
    # test-side reference only
    proc = run_python("import sys, expsumlab.cli; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    proc = run_python(
        "import sys; sys.modules['mpmath'] = None\n"
        "from expsumlab import cli\n"
        "sys.exit(cli.main(['verify', '--identity', 'gauss_magnitude', '--q', '13']))"
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr


def test_only_search_imports_numpy():
    # every command but search runs on Python ints and bytes; search
    # imports numpy when it runs
    proc = run_python(
        "import contextlib, os, sys\n"
        "import expsumlab\n"
        "from expsumlab import cli\n"
        "seen = ['numpy' in sys.modules]\n"
        "for argv in (['verify-all'], ['conjecture', '--k', '6', '--pmin', '5', '--pmax', '60'],\n"
        "             ['sum', '--family', 'kloosterman', '--m', '1', '--n', '1', '--q', '7'],\n"
        "             ['search', '--max-degree', '2', '--coeff-bound', '1', '--prime-max', '40']):\n"
        "    with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "        cli.main(argv)\n"
        "    seen.append('numpy' in sys.modules)\n"
        "print(seen)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False, True]"


def test_start_up_loads_no_dataclasses_or_fractions():
    # the records are named tuples and Zhang's RHS is an integer quotient,
    # so neither the import nor a run loads these modules or what they pull in
    proc = run_python(
        "import contextlib, os, sys\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "import expsumlab.cli\n"
        "seen = [sorted(m for m in heavy if m in sys.modules)]\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = expsumlab.cli.main(['verify-all'])\n"
        "seen.append(sorted(m for m in heavy if m in sys.modules))\n"
        "print(code, seen)\n"
    )
    assert proc.returncode == 0, proc.stderr
    # verify-all exits 1 on zh_cubic_6th_over_a, the false published formula
    assert proc.stdout.strip() == "1 [[], []]"


def test_a_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # the suite's warning filters turn warnings into errors; a failing
    # @given test must still end as one FAILED line, and the run go on
    test_file = tmp_path / "test_given_fails.py"
    test_file.write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x != x\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider", "-q",
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert any(line.startswith("FAILED ") for line in out.splitlines()), out
    assert "INTERNALERROR" not in out
