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


def _rounded(items) -> dict:
    """(key, value) pairs as a dict, each real rounded to 12 significant
    digits."""
    return {k: float(f"{v:.12g}") if isinstance(v, float) else v for k, v in items}


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_json(command: str, columns: tuple[str, ...], config_echo: dict, rows: list[tuple],
              summary: dict) -> bytes:
    """Reals sit only at the top level of a row or of the summary, so
    each is rounded in one flat pass; a nested value there, such as the
    search's histogram, holds ints.  The config echo holds no real and
    goes out as given."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": config_echo,
        "rows": [_rounded(zip(columns, row, strict=True)) for row in rows],
        "summary": _rounded(summary.items()),
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
