"""The scripts under scripts/, each run in a subprocess at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_search_pairs_prints_hits():
    r = run_script("search_pairs.py", "--max-degree", "2", "--coeff-bound", "1",
                   "--prime-max", "60")
    assert r.returncode == 0, r.stderr
    assert "  c=+1  x  vs  x+1   (deg 1 vs deg 1)\n" in r.stdout


def test_search_pairs_too_few_primes_is_a_usage_error():
    r = run_script("search_pairs.py", "--prime-max", "17")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1] == (
        "search_pairs.py: error: evidence prime list must have at least 8 primes")


@pytest.mark.parametrize("script, argv, error", [
    ("search_pairs.py", ("--prime-max", "2"), "empty range: lo=3 > hi=2"),
    ("conjecture_sweep.py", ("--pmin", "5", "--pmax", "3"), "empty range: lo=5 > hi=3"),
], ids=["search_pairs", "conjecture_sweep"])
def test_empty_range_is_a_usage_error(script, argv, error):
    # exit 2 with argparse's usage and one error line, as the CLI exits 2
    r = run_script(script, *argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("usage: ") and "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1] == f"{script}: error: {error}"


def test_conjecture_sweep_reports_every_k():
    r = run_script("conjecture_sweep.py", "--pmin", "5", "--pmax", "40")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"k={k}" for k in range(1, 7)]
    # the CLI's cross-check words: closed forms cover k <= 4 at p >= 5
    assert [line.rsplit(" ", 1)[1] for line in lines] == ["ok"] * 4 + ["unchecked"] * 2


def test_conjecture_sweep_without_a_checked_row_is_unchecked():
    # p = 3 has no closed form at k = 2..4: those rows are skips, not "k > 4"
    r = run_script("conjecture_sweep.py", "--pmin", "3", "--pmax", "3")
    assert r.returncode == 0, r.stderr
    words = [line.rsplit(" ", 1)[1] for line in r.stdout.splitlines()]
    assert words == ["ok"] + ["unchecked"] * 5

