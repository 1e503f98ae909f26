"""expsumlab benchmark: cold-process CLI workloads with end-to-end and
per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload power_large --seed 1 --seconds 36 --trace 0

Each sample is a fresh ``python3 bench/child.py`` process that imports
expsumlab from ``src/`` and runs the workload's commands through
``expsumlab.cli.main``, so every sample starts with empty caches, as a
CLI user's run does.  Samples run one after another (closed loop, one
caller) until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (see BENCHMARK.json):
medians over the run's samples.  The timings are scaled to a reference
host speed: the shared host this benchmark was written on runs a core
at speeds up to 1.5x apart, switching within milliseconds and drifting
over minutes, so each process also times chunks of fixed work in the
gaps around its commands (child.calibrate), and its times are
multiplied by CAL_REF_S over the mean chunk time.  A faster or slower
program moves the scaled times as it moves the raw ones; the report
prints both.  ``--trace 1`` spends half the time on untraced samples
and half on traced ones, and reports the per-layer metrics from the
traced samples plus the tracing overhead.

Outside the timed samples the benchmark checks the outputs: the
workload oracle (workloads.py), identical output bytes across every
sample of the run, identical output at ``--workers 1`` for
registry_mix, and identical output traced and untraced.  A failed check
counts its command as a failed operation.  The last stdout line is the
JSON result; the lines before it are a readable report that also
records the machine.  Numbers from different machines are not
comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
CAL_REF_S = 0.004  # the calibration chunk time of the reference host speed
SETUP_PROBES = 4  # import-only processes per run, on top of one per sample
RUN_LIMIT_S = 150  # start no sample past this
DEADLINE_S = 170  # and stop any process still running at this, to end within 180 s

# the per-layer counts that must repeat exactly across traced samples
EXACT_COUNTS = (
    "arith.legendre.calls",
    "exp_sums.power_mean.calls",
    "registry.outcomes.pass",
    "registry.outcomes.fail",
    "registry.outcomes.skip",
    "registry.outcomes.numeric",
    "poly_search.polys",
    "poly_search.hits",
)


def tail(samples: list[float]) -> str:
    """The highest percentile with ten samples above it, if any."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    k = n - 10
    return f"p{100 * k // n} {sorted(samples)[k - 1]:.6g} (n={n})"


def machine() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import mpmath
    import numpy

    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} mpmath={mpmath.__version__} "
            "(numbers from different machines are not comparable)")


class Run:
    """The samples of one benchmark run and the checks on them."""

    def __init__(self, workload, t_start: float):
        self.wl = workload
        self.deadline = t_start + DEADLINE_S
        self.last_start = t_start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None  # of the first sample's output
        self.oracle = None  # the workload oracle's findings on that output

    def record(self, report: dict) -> bool:
        """Count a sample's commands; check the first output with the
        oracle and every output against the first one's digest."""
        n = len(self.wl.commands)
        self.attempted += n
        if report["error"]:
            self.fail(n, report["error"])
            return False
        if report["origin"] != str(ROOT / "src" / "expsumlab" / "cli.py"):
            self.fail(n, f"imported expsumlab from {report['origin']}")
            return False
        d = workloads.digest(report["results"])
        if self.digest is None:
            self.digest = d
            self.oracle = self.wl.check(report["results"])
            for argv, errs in zip(self.wl.commands, self.oracle.errors):
                if errs:
                    self.fail(1, f"{' '.join(argv[:3])}: " + "; ".join(errs[:5]))
        elif d != self.digest:
            self.fail(n, f"output sha256 {d[:16]} differs from {self.digest[:16]}")
        return True

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    def spawn(self, commands: list[list[str]], trace: bool = False) -> dict:
        """Run one child process; return its report plus its setup and wall
        times, raw and scaled to the reference host speed."""
        env = {k: v for k, v in os.environ.items() if k != "EXPSUMLAB_WORKERS"}
        spec = json.dumps({"commands": commands, "trace": trace})
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), spec], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            return {"error": "child stopped at the run's deadline"}
        if proc.returncode != 0 or not proc.stdout.strip():
            return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["scale"] = CAL_REF_S / statistics.fmean(report["cal_s"])
        report["raw_setup_s"] = report["t_ready"] - t_spawn
        report["raw_wall_s"] = report["busy_s"]
        report["setup_s"] = report["raw_setup_s"] * report["scale"]
        report["wall_s"] = report["busy_s"] * report["scale"]
        report["error"] = None
        return report

    def sample(self, seconds: float, trace: bool = False) -> list[dict]:
        reports = []
        t0 = time.monotonic()
        while not reports or (time.monotonic() - t0 < seconds and time.monotonic() < self.last_start):
            rep = self.spawn(self.wl.commands, trace)
            if not self.record(rep):
                break
            reports.append(rep)
        return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run of the same workloads")
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not (ROOT / "src" / "expsumlab" / "cli.py").is_file():
        print(f"no expsumlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for the oracle
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.size)
    run = Run(wl, t_start)
    print(f"machine: {machine()}")
    print(f"workload: {wl.name} seed={args.seed} size={args.size} inputs: {wl.inputs}")

    # one untimed process compiles the bytecode; users pay that once per install
    run.spawn([])
    setup = [r["setup_s"] for r in (run.spawn([]) for _ in range(SETUP_PROBES)) if not r["error"]]

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run.sample(seconds)
    traced = run.sample(seconds, trace=True) if args.trace else []

    # determinism against --workers 1, outside the timed samples
    if wl.serial_commands:
        run.attempted += len(wl.serial_commands)
        rep = run.spawn(wl.serial_commands)
        if rep["error"] or workloads.digest(rep["results"]) != run.digest:
            run.fail(len(wl.serial_commands), "output at --workers 1 differs from --workers 2")

    if not plain or (args.trace and not traced):
        print("no sample completed: " + "; ".join(run.problems[:3]), file=sys.stderr)
        return 1
    wall = [r["wall_s"] for r in plain]
    values = {
        "wall_s": wall,
        "items_per_s": [run.oracle.items / w for w in wall],
        "setup_s": setup + [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in plain],
    }
    metrics = {name: {"value": statistics.median(v), "unit": unit_of(name)} for name, v in values.items()}
    if args.trace:
        layers = [r["layers"] for r in traced]
        for name in EXACT_COUNTS:
            if len({lay[name] for lay in layers}) > 1:
                run.fail(len(wl.commands), f"{name} differs across traced samples")
        traced_metrics = {}
        for name, first in layers[0].items():
            # counts stay whole numbers: the lower median is a sample
            median = statistics.median_low if isinstance(first, int) else statistics.median
            traced_metrics[name] = {"value": median(lay[name] for lay in layers), "unit": unit_of(name)}
        overhead = statistics.median(r["wall_s"] for r in traced) - metrics["wall_s"]["value"]
        traced_metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(f"output sha256: {run.digest} ({len(plain) + len(traced)} samples)")
    for name, v in values.items():
        print(f"{name}: median {metrics[name]['value']:.6g} {unit_of(name)}; {tail(v)}")
    print(f"wall_s samples: {' '.join(f'{w:.4f}' for w in wall)}")
    for name in ("wall_s", "setup_s"):
        raw = [r["raw_" + name] for r in plain]
        print(f"raw {name} (unscaled): median {statistics.median(raw):.6g} s; {tail(raw)}")
    print(f"host speed: calibration chunk median {statistics.median(CAL_REF_S / r['scale'] for r in plain) * 1e3:.4g} ms"
          f" (reference {CAL_REF_S * 1e3:g} ms)")
    print(f"failed_share: {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} operations)")
    print(f"max_residual: {run.oracle.max_residual:.6g} "
          f"(numeric flags from row residuals: {run.oracle.numeric})")
    if args.trace:
        metrics = traced_metrics
        if traced[0]["missing"]:
            print("not traced (name not found): " + ", ".join(traced[0]["missing"]))
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    for why in run.problems[:20]:
        print(f"FAILED: {why}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
