"""Tests of the benchmark itself: a tiny-size smoke run of every workload,
the oracle, and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from child import run_command  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    report = "\n".join(lines[:-1])
    for name in ("wall_s", "items_per_s", "setup_s", "peak_rss_mb", "failed_share", "max_residual",
                 "machine: nproc="):
        assert name in report


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = run_bench("pair_search", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_times_are_scaled_by_the_calibration_loop():
    bench_run = run.Run(workloads.build("pair_search", 1, "tiny"), time.monotonic())
    rep = bench_run.spawn([])
    assert rep["error"] is None
    assert len(rep["cal_s"]) == 40 and min(rep["cal_s"]) > 0
    scale = run.CAL_REF_S / statistics.fmean(rep["cal_s"])
    assert rep["setup_s"] == pytest.approx(rep["raw_setup_s"] * scale)
    assert rep["wall_s"] == rep["raw_wall_s"] == 0


def test_seed_picks_inputs_deterministically():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7).commands == workloads.build(name, 7).commands
    assert len({tuple(map(tuple, workloads.build("pair_search", s).commands)) for s in range(20)}) > 1


def _outputs(wl):
    from expsumlab import cli

    return [run_command(cli.main, argv)["out"] for argv in wl.commands]


def test_oracle_accepts_the_program_and_rejects_a_changed_value():
    wl = workloads.build("registry_mix", 1, "tiny")
    outs = _outputs(wl)
    assert wl.check_outputs(outs).failed == 0
    doc = json.loads(outs[0])
    doc["rows"][2]["lhs"] += 1
    assert wl.check_outputs([json.dumps(doc)] + outs[1:]).errors[0]
    # the known-false identity must fail with its true value
    i = workloads.REGISTRY_ORDER.index(workloads.KNOWN_FALSE)
    doc = json.loads(outs[i])
    doc["rows"][0]["pass"] = True
    assert wl.check_outputs(outs[:i] + [json.dumps(doc)] + outs[i + 1:]).errors[i]


def test_pair_oracle_rejects_a_wrong_constant():
    wl = workloads.build("pair_search", 1, "tiny")
    (out,) = _outputs(wl)
    doc = json.loads(out)
    assert doc["rows"] and wl.check_outputs([out]).failed == 0
    doc["rows"][0]["c"] += 1
    assert wl.check_outputs([json.dumps(doc)]).failed == 1


def test_power_oracle_closed_forms():
    from expsumlab.conjecture import closed_form

    for p in workloads.primes_between(5, 400):
        for k in (2, 4):
            assert workloads.conjecture_closed_form(p, k) == closed_form(p, k)


def test_parse_poly_round_trips():
    from expsumlab.poly_search import enumerate_polys

    for f in enumerate_polys(3, 2):
        assert workloads.parse_poly(str(f)) == f


def test_tracer_counts_exactly_under_threads():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    n_threads, n_calls = 6, 3000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer(i) for i in range(n_calls)]) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    acc, _ = tracer.totals()
    assert acc["outer"][0] == n_threads * n_calls
    assert acc["inner"][0] == 2 * n_threads * n_calls
    calls, busy, self_s = acc["outer"]
    assert 0 <= self_s <= busy
    assert busy >= acc["inner"][1] - 1e-9
