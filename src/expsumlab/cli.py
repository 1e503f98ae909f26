"""Command-line front end: identity sweeps, conjecture reports, pair
search, and ad-hoc sum evaluation.

Exit codes: 0 all checks passed (skips allowed), 1 identity/invariant
failure, 2 usage error (also an --output path that cannot be written),
3 arithmetic error (a closed form that is not an integer).  The runners return 0 or 1 from the fail count of their
summary and 2 for a usage error they spot themselves; main() alone maps
exceptions to exit codes.  Machine output (JSON/CSV) goes to --output or
stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import conjecture as conj
from . import exp_sums, poly_search, registry, reporting
from .arith import NotRepresentableError, check_range, primes_in_range

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# default sweep ranges for `verify-all`, small enough to finish in seconds
VERIFY_ALL_RANGES = {
    "salie_4th": ("primes", 3, 100),
    "zhang_composite_4th": ("odd", 3, 60),
    "zwl_4th": ("primes", 5, 100),
    "nw_4th": ("primes", 5, 100),
    "corollary1": ("primes", 3, 199),
    "zz_cubic_4th": ("primes", 5, 100),
    "zh_cubic_6th_over_a": ("primes", 5, 100),
    "zm_cubic_6th": ("primes", 5, 100),
    "wz_cubic_8th": ("primes", 5, 100),
    "gauss_magnitude": ("primes", 3, 100),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged,
    and every call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="expsumlab",
        description="Verification lab for exponential-sum and character-sum identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--workers", type=int, default=1,
                       help="checked (>= 1) but unused: work runs serially")

    p = sub.add_parser("verify", help="verify one identity over a modulus range")
    p.add_argument("--identity", required=True)
    p.add_argument("--pmin", type=int, default=None, help="sweep primes from pmin")
    p.add_argument("--pmax", type=int, default=None, help="sweep primes up to pmax (inclusive)")
    p.add_argument("--qmin", type=int, default=None, help="sweep all moduli from qmin")
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--q", type=int, default=None, help="single modulus")
    p.add_argument("--n", type=int, action="append", default=None, help="free unit parameter (repeatable)")
    add_common(p)

    p = sub.add_parser("verify-all", help="verify every registry identity at desk scale")
    add_common(p)

    p = sub.add_parser("conjecture", help="power-mean conjecture report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    add_common(p)

    p = sub.add_parser("search", help="search constant-difference polynomial pairs")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--coeff-bound", type=int, default=4)
    p.add_argument("--prime-min", type=int, default=3)
    p.add_argument("--prime-max", type=int, default=199)
    p.add_argument("--twisted", action="store_true", help="also pair (-1/p)-twisted signatures")
    add_common(p)

    p = sub.add_parser("sum", help="evaluate one exponential sum")
    p.add_argument("--family", choices=["kloosterman", "two-term", "twisted"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="default 0; not for twisted")
    p.add_argument("--k", type=int, default=None, help="default 1; not for kloosterman")
    p.add_argument("--q", type=int, required=True)
    add_common(p)

    return parser


def _outcome_row(o: registry.IdentityOutcome) -> dict:
    return {
        "identity": o.identity_id,
        "modulus": o.modulus,
        "n": o.n,
        "lhs": o.lhs,
        "rhs": o.rhs,
        "residual": 0.0,  # every lhs is exact; kept for the output format
        "pass": "skip" if o.status == registry.SKIP else (o.status == registry.PASS),
    }


def _write(args, payload: bytes) -> None:
    if args.output:
        # opened only now, so that a usage error found during the work
        # leaves no empty file behind
        try:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _finish(args, command, config_echo, rows, summary) -> int:
    """Write the rows and summary; the exit code comes from the fail
    count alone."""
    if args.format == "json":
        payload = reporting.emit_json(command, config_echo, rows, summary)
    elif args.format == "csv":
        payload = reporting.emit_csv(command, rows)
    else:
        payload = reporting.emit_text(command, rows, summary)
    _write(args, payload)
    return EXIT_FAIL if summary["fail"] else EXIT_OK


def _run_verify(args) -> int:
    ident = args.identity
    registry.sweep(ident, [])  # refuses an unknown identity before the range is read
    if args.q is not None:
        moduli, where, emit_skips = [args.q], {"q": args.q}, True
    elif args.pmin is not None and args.pmax is not None:
        moduli = primes_in_range(args.pmin, args.pmax)
        where, emit_skips = {"pmin": args.pmin, "pmax": args.pmax}, False
    elif args.qmin is not None and args.qmax is not None:
        check_range(args.qmin, args.qmax)
        moduli = range(args.qmin, args.qmax + 1)
        where, emit_skips = {"qmin": args.qmin, "qmax": args.qmax}, False
    else:
        print("verify needs --q, --pmin/--pmax, or --qmin/--qmax", file=sys.stderr)
        return EXIT_USAGE
    outcomes = registry.sweep(ident, moduli, args.n, emit_skips)
    echo = {"identity": ident, **where, "n": args.n}
    rows = [_outcome_row(o) for o in outcomes]
    return _finish(args, "verify", echo, rows, registry.summarize(outcomes))


def _run_verify_all(args) -> int:
    outcomes = []
    for identity in registry.list_identities():
        kind, lo, hi = VERIFY_ALL_RANGES[identity.identity_id]
        moduli = primes_in_range(lo, hi) if kind == "primes" else range(lo, hi + 1, 2)
        outcomes += registry.sweep(identity.identity_id, moduli)
    echo = {"ranges": {k: list(v) for k, v in VERIFY_ALL_RANGES.items()}}
    rows = [_outcome_row(o) for o in outcomes]
    return _finish(args, "verify-all", echo, rows, registry.summarize(outcomes))


def _run_conjecture(args) -> int:
    if not 1 <= args.k <= conj.MAX_K:
        print(f"--k must be in 1..{conj.MAX_K}", file=sys.stderr)
        return EXIT_USAGE
    report = conj.conjecture_report(args.k, args.pmin, args.pmax)
    if not report.rows:
        print(f"no odd primes in [{args.pmin}, {args.pmax}]", file=sys.stderr)
        return EXIT_USAGE
    rows = [
        {
            "p": r.p,
            "k": r.k,
            "value": r.value,
            "catalan": r.catalan,
            "main_term": r.main_term,
            "normalized_residual": r.normalized_residual,
        }
        for r in report.rows
    ]
    summary = registry.summarize(report.rows)
    summary["max_normalized_residual"] = report.max_abs_normalized_residual
    summary["crosscheck"] = conj.crosscheck(summary)
    echo = {"k": args.k, "pmin": args.pmin, "pmax": args.pmax}
    return _finish(args, "conjecture", echo, rows, summary)


def _run_search(args) -> int:
    primes = [p for p in primes_in_range(args.prime_min, args.prime_max) if p > 2]
    result = poly_search.search_constant_pairs(
        args.max_degree, args.coeff_bound, primes, twisted=args.twisted
    )
    # each polynomial sits in many hits: format it once
    name = functools.cache(str)
    rows = [
        {
            "c": h.c,
            "f": name(h.f),
            "g": name(h.g),
            "primes_checked": len(h.primes),
            "twisted": h.twisted,
        }
        for h in result.hits
    ]
    summary = {
        "pass": len(result.hits),
        "fail": 0,
        "skip": 0,
        "max_residual": 0.0,
        "polynomials": result.n_polynomials,
        "histogram": {str(c): n for c, n in sorted(result.histogram.items())},
    }
    return _finish(args, "search", {
        "max_degree": args.max_degree,
        "coeff_bound": args.coeff_bound,
        "prime_min": args.prime_min,
        "prime_max": args.prime_max,
        "twisted": args.twisted,
    }, rows, summary)


def _run_sum(args) -> int:
    unused = {"kloosterman": "k", "twisted": "n"}.get(args.family)
    if unused and getattr(args, unused) is not None:
        print(f"{args.family} takes no --{unused}", file=sys.stderr)
        return EXIT_USAGE
    n = args.n or 0
    k = 1 if args.k is None else args.k
    if args.family == "kloosterman":
        val = exp_sums.kloosterman(args.m, n, args.q)
    elif args.family == "two-term":
        val = exp_sums.two_term_sum(args.m, n, k, args.q)
    else:
        val = exp_sums.twisted_sum(args.m, k, args.q)
    if args.format == "text":
        # rounded first, so that a part that rounds to zero prints no sign
        re, im = (round(x, 7) + 0.0 for x in (val.real, val.imag))
        sign = "+" if im >= 0 else "-"
        _write(args, f"{re:.7f} {sign} {abs(im):.7f}i\n".encode("utf-8"))
        return EXIT_OK
    rows = [{
        "family": args.family,
        "m": args.m,
        "n": n,
        "k": k,
        "q": args.q,
        "real": val.real,
        "imag": val.imag,
    }]
    return _finish(args, "sum", {"family": args.family}, rows,
                   {"pass": 1, "fail": 0, "skip": 0, "max_residual": 0.0})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # checked so that existing command lines keep their exit codes; work
    # runs serially, as threads only added lock waits under the GIL
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    runner = {
        "verify": _run_verify,
        "verify-all": _run_verify_all,
        "conjecture": _run_conjecture,
        "search": _run_search,
        "sum": _run_sum,
    }[args.command]
    try:
        return runner(args)
    except (NotRepresentableError, AssertionError) as exc:  # before ValueError, its base class
        # a prime p = 1 mod 3 with no 4p = d^2 + 27b^2, a search hit that
        # fails its independent re-verification, or a power-mean trace
        # that phi(q) does not divide
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        # an unknown identity, an empty or reversed range, a modulus
        # below 1, or an n for an identity that takes none
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a non-integral closed form
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
