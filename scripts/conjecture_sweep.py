#!/usr/bin/env python3
"""Sweep the 2k-th power-mean conjecture for k = 1..6 and report the
normalized error-term maxima in the conjecture's own p^(k+1/2) scale."""

import argparse

from expsumlab.conjecture import MAX_K, conjecture_report
from expsumlab.registry import summarize


def run(pmin: int, pmax: int):
    for k in range(1, MAX_K + 1):
        rep = conjecture_report(k, pmin, pmax)
        s = summarize(rep.rows)
        cc = "MISMATCH" if s["fail"] else (
            "exact match with closed forms" if s["pass"] else "no closed form (k > 4)"
        )
        print(
            f"k={k}: {len(rep.rows)} primes, C_k={rep.rows[0].catalan if rep.rows else '-'}, "
            f"max |normalized residual| = {rep.max_abs_normalized_residual:.6f}, {cc}"
        )


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--pmin", type=int, default=5)
    ap.add_argument("--pmax", type=int, default=150)
    args = ap.parse_args()
    run(args.pmin, args.pmax)
