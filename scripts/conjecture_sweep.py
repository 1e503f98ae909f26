#!/usr/bin/env python3
"""Sweep the 2k-th power-mean conjecture for k = 1..6 and report the
normalized error-term maxima in the conjecture's own p^(k+1/2) scale."""

import argparse

from expsumlab.arith import check_range
from expsumlab.conjecture import MAX_K, conjecture_report, crosscheck
from expsumlab.registry import summarize


def run(pmin: int, pmax: int):
    for k in range(1, MAX_K + 1):
        rep = conjecture_report(k, pmin, pmax)
        print(
            f"k={k}: {len(rep.rows)} primes, C_k={rep.rows[0].catalan if rep.rows else '-'}, "
            f"max |normalized residual| = {rep.max_abs_normalized_residual:.6f}, "
            f"crosscheck {crosscheck(summarize(rep.rows))}"
        )


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--pmin", type=int, default=5)
    ap.add_argument("--pmax", type=int, default=150)
    args = ap.parse_args()
    try:
        check_range(args.pmin, args.pmax)
    except ValueError as exc:
        ap.error(str(exc))
    run(args.pmin, args.pmax)
