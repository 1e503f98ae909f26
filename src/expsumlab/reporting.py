"""Stable JSON/CSV serialization for the CLI.

Machine output is byte-deterministic: fixed key order, reals at 12
significant digits, integers exact, rows in construction order.
Human-readable logs never share a stream with machine output.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = "1"

CSV_HEADERS = {
    "verify": ["identity", "modulus", "n", "lhs", "rhs", "residual", "pass"],
    "verify-all": ["identity", "modulus", "n", "lhs", "rhs", "residual", "pass"],
    "conjecture": ["p", "k", "value", "catalan", "main_term", "normalized_residual"],
    "search": ["c", "f", "g", "primes_checked", "twisted"],
    "sum": ["family", "m", "n", "k", "q", "real", "imag"],
}


def _round_real(x: float) -> float:
    return float(f"{x:.12g}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{_round_real(v):.12g}"
    return str(v)


def prepare_reals(obj):
    """Recursively round floats to 12 significant digits."""
    if isinstance(obj, float):
        return _round_real(obj)
    if isinstance(obj, dict):
        return {k: prepare_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [prepare_reals(v) for v in obj]
    return obj


def emit_json(command: str, config_echo: dict, rows: list[dict], summary: dict) -> bytes:
    """Rows are flat dicts of scalars, so their reals are rounded in one
    pass; the config echo and the summary may nest lists and dicts."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": prepare_reals(config_echo),
        "rows": [{k: _round_real(v) if isinstance(v, float) else v for k, v in row.items()}
                 for row in rows],
        "summary": prepare_reals(summary),
    }
    return (json.dumps(doc, separators=(",", ":"), sort_keys=False) + "\n").encode("utf-8")


def emit_csv(command: str, rows: list[dict]) -> bytes:
    header = CSV_HEADERS[command]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in header))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_text(command: str, rows: list[dict], summary: dict) -> bytes:
    header = CSV_HEADERS[command]
    lines = []
    for row in rows:
        lines.append("  ".join(f"{col}={_csv_cell(row.get(col))}" for col in header))
    lines.append("summary: " + "  ".join(f"{k}={_csv_cell(v)}" for k, v in summary.items()))
    return ("\n".join(lines) + "\n").encode("utf-8")
