"""One cold benchmark process: import expsumlab, run CLI commands, report.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON is {"commands": [argv, ...], "trace": bool}.  The package is
imported from the checkout's src/ directory.  Each command's stdout is
captured in memory.  Before, between and after the commands the process
times chunks of fixed work, the calibration that run.py uses to scale
times to a reference host speed.  One JSON line goes to
the real stdout at the end: the import-done monotonic time, the time
spent inside the commands, the calibration chunk times, each command's
exit code, output and error, ru_maxrss, and the per-layer metrics when
traced.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import expsumlab.cli  # noqa: E402

T_READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


CAL_CHUNKS = 40  # calibration chunks per process, spread over the gaps around the commands
_CAL_TABLE = {i: i * i for i in range(4096)}
_CAL_MOD = (1 << 127) - 1
_CAL_BIG = tuple(i * 0x9E3779B97F4A7C15F39CC0605CEDC835 % (1 << 130) for i in range(1021))
_CAL_ORDER = [i * 389 % 1021 for i in range(1021)]
_CAL_U = np.array([pow(a, 3, 1021) for a in range(1021)], dtype=np.int64)
_CAL_V = np.arange(1021, dtype=np.int64)


class _CalPoint:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def _cal_lookup(table: dict, key: int) -> int:
    return table.get(key, 0) + 1


def calibrate(chunks: int) -> list[float]:
    """Seconds taken by each of `chunks` runs of a fixed mix of the kinds
    of work the workloads do: interpreted calls, dict lookups, small
    objects and integer arithmetic (pair_search, the registry's
    bookkeeping), C-level sums of 130-bit integers (the power_mean inner
    sums) and numpy exponent vectors (root-table indexing).  The shares
    were chosen so that, on the shared host, the three workloads' times
    divided by the chunk time vary least as the host's speed changes."""
    get = _CAL_BIG.__getitem__
    times = []
    for _ in range(chunks):
        t = time.perf_counter()
        acc, x = 0, 3
        for i in range(1500):
            acc += _cal_lookup(_CAL_TABLE, (i * 7919) & 4095)
            pt = _CalPoint(i, acc & 255)
            acc += pt.x * pt.y & 255
            x = x * 1000003 % _CAL_MOD
            acc += i * i % 7
        for _ in range(6):
            big = sum(map(get, _CAL_ORDER))
            acc += big * big & 255
        for j in range(15):
            acc += ((j * _CAL_U + _CAL_V) % 1021).tolist()[j]
        times.append(time.perf_counter() - t)
    return times


def run_command(main, argv: list[str]) -> dict:
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    real, sys.stdout = sys.stdout, text
    try:
        rc, error = main(argv), None
    except Exception:
        rc, error = None, traceback.format_exc()
    finally:
        text.flush()
        sys.stdout = real
    out = buf.getvalue()
    text.detach()
    return {"rc": rc, "out": out.decode("utf-8", "replace"), "error": error}


def main() -> None:
    spec = json.loads(sys.argv[1])
    main_fn = expsumlab.cli.main
    layers = None
    if spec["trace"]:
        from tracing import LayerTrace

        layers = LayerTrace()
        main_fn = layers.main
    per_gap = max(4, CAL_CHUNKS // (len(spec["commands"]) + 1))
    cal = calibrate(per_gap)
    results, busy = [], 0.0
    for argv in spec["commands"]:
        t = time.perf_counter()
        results.append(run_command(main_fn, argv))
        busy += time.perf_counter() - t
        cal += calibrate(per_gap)
    report = {
        "origin": expsumlab.cli.__file__,
        "t_ready": T_READY,
        "busy_s": busy,
        "cal_s": cal,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "layers": layers.metrics() if layers else None,
        "missing": layers.tracer.missing if layers else [],
    }
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
