"""Stable JSON/CSV serialization for the CLI.

Machine output is byte-deterministic: fixed key order, reals at 12
significant digits, integers exact, columns from the caller.  A row is a
tuple in the order of its columns, so JSON keys, the CSV header and the
text fields all follow the one column list.  Human-readable logs never
share a stream with machine output.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = "1"


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


def emit_json(command: str, columns: tuple[str, ...], config_echo: dict, rows: list[tuple],
              summary: dict) -> bytes:
    """Rows are flat tuples of scalars, so their reals are rounded in one
    pass; the config echo and the summary may nest lists and dicts."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": prepare_reals(config_echo),
        "rows": [{k: _round_real(v) if isinstance(v, float) else v
                  for k, v in zip(columns, row, strict=True)} for row in rows],
        "summary": prepare_reals(summary),
    }
    return (json.dumps(doc, separators=(",", ":"), sort_keys=False) + "\n").encode("utf-8")


def emit_csv(columns: tuple[str, ...], rows: list[tuple]) -> bytes:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for _, v in zip(columns, row, strict=True)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_text(columns: tuple[str, ...], rows: list[tuple], summary: dict) -> bytes:
    lines = []
    for row in rows:
        cells = zip(columns, row, strict=True)
        lines.append("  ".join(f"{col}={_csv_cell(v)}" for col, v in cells))
    lines.append("summary: " + "  ".join(f"{k}={_csv_cell(v)}" for k, v in summary.items()))
    return ("\n".join(lines) + "\n").encode("utf-8")
