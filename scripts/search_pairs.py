#!/usr/bin/env python3
"""Search constant-difference polynomial pairs (plain and twisted mode)
and print the observed histogram of c values."""

import argparse

from expsumlab.arith import primes_in_range
from expsumlab.char_sums import CUBIC_CCC, NING_WANG_QUARTIC
from expsumlab.poly_search import search_constant_pairs

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-degree", type=int, default=2)
    ap.add_argument("--coeff-bound", type=int, default=4)
    ap.add_argument("--prime-max", type=int, default=199)
    ap.add_argument("--twisted", action="store_true")
    ap.add_argument("--seed-corollary-pair", action="store_true",
                    help="seed the corollary's own (twisted) pair into the pool")
    args = ap.parse_args()

    extra = [CUBIC_CCC, NING_WANG_QUARTIC] if args.seed_corollary_pair else []
    try:
        res = search_constant_pairs(args.max_degree, args.coeff_bound,
                                    primes_in_range(3, args.prime_max),
                                    twisted=args.twisted, extra_polys=extra)
    except ValueError as exc:  # an empty range, too few evidence primes or bad bounds
        ap.error(str(exc))
    print(f"{res.n_polynomials} canonical polynomials, {len(res.hits)} hits")
    print("histogram of c:", dict(sorted(res.histogram.items())))
    for h in res.hits:
        tag = " [twisted]" if h.twisted else ""
        print(f"  c={h.c:+d}{tag}  {h.f}  vs  {h.g}   (deg {h.f.degree} vs deg {h.g.degree})")
