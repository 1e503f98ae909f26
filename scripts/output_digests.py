#!/usr/bin/env python3
"""Print the sha256 of the outputs of each benchmark workload's command lines.

For each (workload, seed) below, the command lines of bench/workloads.py
at full size run in order in this process through expsumlab.cli.main,
and one sha256 covers every command's stdout bytes, stderr bytes and
exit code.  The seeds are those with distinct inputs: power_large and
pair_search pick one of three bands or windows (seeds 1, 5 and 7 cover
all three), and registry_mix picks the n of its rows (seeds 1, 2 and 3).
Then the command lines of EXTRA, which no workload runs, get one sha256
per group the same way: `sum` at composites with 2 as a factor or with
many factors, at a power of 2 and at a prime near 10^6, and the
zhang_composite_4th sweep over q = 3..3000.  A change that must leave
every output byte as it is prints the same lines before and after.

    python3 scripts/output_digests.py
"""

import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from expsumlab.cli import main as cli_main  # noqa: E402

SEEDS = {"power_large": (1, 5, 7), "registry_mix": (1, 2, 3), "pair_search": (1, 5, 7)}
EXTRA = {
    "sum": [["sum", "--family", family, "--m", "3", *extra, "--q", str(q), "--format", "json"]
            for family, extra in (("kloosterman", ["--n", "5"]), ("two-term", ["--n", "5", "--k", "3"]))
            for q in (2310, 4096, 999999)]
    + [["sum", "--family", "kloosterman", "--m", "1", "--n", "1", "--q", str(q)]
       for q in (999999, 9699690, 1000003)],
    "verify zhang_composite_4th": [["verify", "--identity", "zhang_composite_4th", "--qmin", "3",
                                    "--qmax", "3000"]],
}


def captured(argv: list[str]) -> tuple[bytes, bytes, int]:
    """stdout bytes, stderr bytes and exit code of one command line."""
    out, err = io.BytesIO(), io.BytesIO()
    streams = [io.TextIOWrapper(buf, encoding="utf-8", write_through=True) for buf in (out, err)]
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = streams
    try:
        rc = cli_main(argv)
    finally:
        sys.stdout, sys.stderr = real
    for stream in streams:
        stream.flush()
    return out.getvalue(), err.getvalue(), rc


def digest(commands: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in commands:
        out, err, rc = captured(argv)
        h.update(b"%d\0%s\0%d\0%s\0%d\0" % (len(out), out, len(err), err, rc))
    return h.hexdigest()


def main() -> int:
    for name, seeds in SEEDS.items():
        for seed in seeds:
            print(f"{name} seed {seed}: {digest(workloads.build(name, seed).commands)}")
    for name, commands in EXTRA.items():
        print(f"{name}: {digest(commands)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
