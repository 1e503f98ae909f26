"""The benchmark's workloads: CLI argv generated from a seed, and the
oracle that checks their outputs.

Each workload is a list of ``expsumlab`` command lines, run in order in
one fresh process (closed loop, one caller).  The seed picks the inputs
among choices of equal cost; the program sees only the argv.

- power_large: ``conjecture --k 4`` then ``--k 2`` over a band of four
  primes just above 1000.  The O(p^2) inner sums of exp_sums dominate;
  the second pass reuses the cached tables (the warm path).  The seed
  picks one of three neighbouring bands whose sums of p^2, the cost
  model, lie within 2.1% of each other.
- registry_mix: ``verify`` for all ten registry identities, registry
  order, ``--workers 2``, primes 3..190, ``zhang_composite_4th`` over
  q = 3..95, and ``--n 1 --n N`` where the identity takes n.  Many small
  moduli: root tables, per-call overhead, and a working set (80 cubic
  tables) larger than the 64-entry table cache.  The seed picks N, a
  prime above every modulus, so each N gives the same rows and cost.
- pair_search: ``search --max-degree 3 --coeff-bound 2 --twisted`` over
  an evidence-prime window.  poly_search, char_sums and arith.legendre;
  no exp_sums.  Re-verification costs about (hits x sum of the window's
  primes); the seed picks one of three windows on which that product
  lies within 2.1% of the others.

The sizes are smaller than the ones first proposed for these workloads
(17 primes, primes to 300, primes to 199) so that a run of the
benchmark's length holds well over ten cold processes.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd, isqrt

# the program's documented numeric limit (exp_sums.RESIDUAL_TOL): a
# residual at or above it flags a row as numeric
RESIDUAL_TOL = 1e-6

REGISTRY_ORDER = (
    "salie_4th",
    "zhang_composite_4th",
    "zwl_4th",
    "nw_4th",
    "corollary1",
    "zz_cubic_4th",
    "zh_cubic_6th_over_a",
    "zm_cubic_6th",
    "wz_cubic_8th",
    "gauss_magnitude",
)
TAKES_N = {"zhang_composite_4th", "zz_cubic_4th", "zm_cubic_6th", "wz_cubic_8th"}
# the published formula is false; its rows must fail with the true value
KNOWN_FALSE = "zh_cubic_6th_over_a"

SIZES = {
    "full": {
        "band": 4, "band_from": 1000, "band_starts": 3,
        "pmax": 190, "qmax": 95, "n_from": 307, "n_to": 997,
        "degree": 3, "bound": 2,
        # (window low, window high): hits x sum(primes) within 2.1%
        "windows": ((3, 103), (5, 101), (11, 97)),
    },
    "tiny": {
        "band": 2, "band_from": 100, "band_starts": 2,
        "pmax": 30, "qmax": 15, "n_from": 31, "n_to": 97,
        "degree": 2, "bound": 1,
        "windows": ((3, 37), (5, 41)),
    },
}


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, isqrt(n) + 1))]


@dataclass
class Check:
    """What the oracle found in one set of outputs."""

    errors: list[list[str]]  # per command
    items: int = 0
    numeric: int = 0
    max_residual: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for e in self.errors if e)


@dataclass
class Workload:
    name: str
    inputs: str
    commands: list[list[str]]
    expected_rc: list[int]
    check_outputs: Callable[[list[str]], Check]
    # the same commands at --workers 1, whose output must be identical
    serial_commands: list[list[str]] | None = None

    def check(self, results: list[dict]) -> Check:
        """Exit codes, errors, and the workload's own oracle."""
        if len(results) != len(self.commands):
            return Check([["process produced no result"] for _ in self.commands])
        try:
            chk = self.check_outputs([r["out"] for r in results])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            chk = Check([[f"unreadable output: {exc!r}"] for _ in self.commands])
        for errs, r, rc in zip(chk.errors, results, self.expected_rc):
            if r["error"]:
                errs.append("exception: " + r["error"].strip().splitlines()[-1])
            elif r["rc"] != rc:
                errs.append(f"exit code {r['rc']}, expected {rc}")
        return chk


def digest(results: list[dict]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r["out"].encode("utf-8"))
        h.update(f"\0{r['rc']}\0".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# power_large

def _d_squared(p: int) -> int:
    """d^2 in 4p = d^2 + 27 b^2 (p = 1 mod 3), by search over b."""
    b = 1
    while 27 * b * b < 4 * p:
        r = 4 * p - 27 * b * b
        if isqrt(r) ** 2 == r:
            return r
        b += 1
    raise ValueError(f"no representation 4p = d^2 + 27b^2 for p = {p}")


def conjecture_closed_form(p: int, k: int) -> int:
    """The cubic family's 4th (k=2) and 8th (k=4) power means."""
    if k == 2:
        return 2 * p**3 - p**2 if (p - 1) % 3 else 2 * p**3 - 7 * p**2
    if p % 6 == 5:
        return 7 * (2 * p**5 - 3 * p**4)
    return 14 * p**5 - 75 * p**4 - 8 * p**3 * _d_squared(p)


def power_large(seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    pool = primes_between(size["band_from"], 2 * size["band_from"])
    start = rng.randrange(size["band_starts"])
    band = pool[start:start + size["band"]]
    ks = (4, 2)
    commands = [["conjecture", "--k", str(k), "--pmin", str(band[0]), "--pmax", str(band[-1]),
                 "--workers", "1", "--format", "json"] for k in ks]

    def check_outputs(outputs):
        chk = Check([[] for _ in outputs])
        for errs, out, k in zip(chk.errors, outputs, ks):
            doc = json.loads(out)
            summary = doc["summary"]
            if summary["crosscheck"] != "ok":
                errs.append(f"k={k}: crosscheck {summary['crosscheck']}")
            residual = summary["max_residual"]
            chk.max_residual = max(chk.max_residual, residual)
            if residual >= RESIDUAL_TOL:
                chk.numeric += 1
                errs.append(f"k={k}: residual {residual}")
            rows = doc["rows"]
            if [r["p"] for r in rows] != band:
                errs.append(f"k={k}: rows cover {[r['p'] for r in rows]}, expected {band}")
            for r in rows:
                want = conjecture_closed_form(r["p"], k)
                if r["k"] != k or r["value"] != want:
                    errs.append(f"k={k} p={r['p']}: value {r['value']}, closed form {want}")
            chk.items += len(rows)
        return chk

    return Workload("power_large", f"band {band[0]}..{band[-1]} ({len(band)} primes)", commands,
                    [0] * len(commands), check_outputs)


# ---------------------------------------------------------------------------
# registry_mix

def _expected_rows(ident: str, pmax: int, qmax: int, ns: tuple[int, int]) -> list[tuple[int, int | None]]:
    if ident == "zhang_composite_4th":
        return [(q, n) for q in range(3, qmax + 1, 2) for n in ns if gcd(n, q) == 1]
    primes = primes_between(3, pmax)
    if ident in ("salie_4th", "corollary1", "gauss_magnitude"):
        return [(p, None) for p in primes]
    primes = [p for p in primes if p > 3]
    if ident == KNOWN_FALSE:
        return [(p, None) for p in primes if (p - 1) % 3]
    if ident in TAKES_N:
        return [(p, n) for p in primes for n in ns if gcd(n, p) == 1]
    return [(p, None) for p in primes]


def registry_mix(seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    pmax, qmax = size["pmax"], size["qmax"]
    n2 = rng.choice(primes_between(size["n_from"], size["n_to"]))
    ns = (1, n2)

    def commands_at(workers: int) -> list[list[str]]:
        out = []
        for ident in REGISTRY_ORDER:
            argv = ["verify", "--identity", ident]
            if ident == "zhang_composite_4th":
                argv += ["--qmin", "3", "--qmax", str(qmax)]
            else:
                argv += ["--pmin", "3", "--pmax", str(pmax)]
            if ident in TAKES_N:
                argv += ["--n", "1", "--n", str(n2)]
            out.append(argv + ["--workers", str(workers), "--format", "json"])
        return out

    def check_outputs(outputs):
        chk = Check([[] for _ in outputs])
        for errs, out, ident in zip(chk.errors, outputs, REGISTRY_ORDER):
            rows = json.loads(out)["rows"]
            got = [(r["modulus"], r["n"]) for r in rows]
            want = _expected_rows(ident, pmax, qmax, ns)
            if got != want:
                errs.append(f"{ident}: {len(got)} rows, expected {len(want)} (moduli x n)")
            for r in rows:
                where = f"{ident} q={r['modulus']} n={r['n']}"
                chk.max_residual = max(chk.max_residual, r["residual"])
                if r["identity"] != ident:
                    errs.append(f"{where}: row of {r['identity']}")
                elif r["residual"] >= RESIDUAL_TOL:
                    chk.numeric += 1
                    errs.append(f"{where}: residual {r['residual']}")
                elif ident == KNOWN_FALSE:
                    p = r["modulus"]
                    if r["pass"] is not False or r["lhs"] != 5 * p**3 * (p - 1):
                        errs.append(f"{where}: lhs {r['lhs']}, expected a failure at 5p^3(p-1)")
                elif r["pass"] is not True or r["lhs"] != r["rhs"]:
                    errs.append(f"{where}: lhs {r['lhs']} rhs {r['rhs']} pass {r['pass']}")
            chk.items += len(rows)
        return chk

    commands = commands_at(2)
    return Workload("registry_mix", f"primes 3..{pmax}, zhang q 3..{qmax}, n in {{1, {n2}}}",
                    commands, [1 if ident == KNOWN_FALSE else 0 for ident in REGISTRY_ORDER],
                    check_outputs, serial_commands=commands_at(1))


# ---------------------------------------------------------------------------
# pair_search

_TERM = re.compile(r"[+-]?[^+-]+")


def parse_poly(text: str):
    """Inverse of str(PolynomialZ), e.g. "x^3-2x+1"."""
    from expsumlab.char_sums import PolynomialZ

    coeffs: dict[int, int] = {}
    for term in _TERM.findall(text):
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        if "x" in body:
            c, _, power = body.partition("x")
            exp = int(power[1:]) if power else 1
        else:
            c, exp = body, 0
        coeffs[exp] = sign * (int(c) if c else 1)
    poly = PolynomialZ.of(*(coeffs.get(i, 0) for i in range(max(coeffs) + 1)))
    if str(poly) != text:
        raise ValueError(f"cannot parse polynomial {text!r}")
    return poly


def pair_search(seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    lo, hi = rng.choice(size["windows"])
    primes = primes_between(lo, hi)
    argv = ["search", "--max-degree", str(size["degree"]), "--coeff-bound", str(size["bound"]),
            "--prime-min", str(lo), "--prime-max", str(hi), "--twisted", "--workers", "1",
            "--format", "json"]

    def check_outputs(outputs):
        # each hit's constant is re-derived through char_sum_poly, a path
        # independent of the search's own re-verification
        from expsumlab.char_sums import char_sum_poly, legendre_table

        chk = Check([[]])
        errs = chk.errors[0]
        doc = json.loads(outputs[0])
        sums: dict[tuple[str, int], int] = {}

        def char_sum(text: str, p: int) -> int:
            if (text, p) not in sums:
                sums[text, p] = char_sum_poly(parse_poly(text), p)
            return sums[text, p]

        for r in doc["rows"]:
            diffs = {char_sum(r["f"], p) * (legendre_table(p)[p - 1] if r["twisted"] else 1)
                     - char_sum(r["g"], p) for p in primes}
            if diffs != {r["c"]} or r["primes_checked"] != len(primes):
                errs.append(f"hit {r['f']} vs {r['g']}: c {r['c']}, re-derived {sorted(diffs)}")
        if doc["summary"]["pass"] != len(doc["rows"]):
            errs.append("summary pass count differs from the rows")
        chk.items = doc["summary"]["polynomials"]
        return chk

    return Workload("pair_search", f"window {lo}..{hi} ({len(primes)} primes)", [argv], [0],
                    check_outputs)


WORKLOADS = {"power_large": power_large, "registry_mix": registry_mix, "pair_search": pair_search}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, SIZES[size])
