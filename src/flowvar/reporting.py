"""Report artifacts: versioned CSV tables and grayscale uncertainty maps.

Reruns of an experiment must produce byte-identical CSVs, so anything
wall-clock (seconds, ratios of seconds) goes into the commands' plain-text
summary files and never enters a CSV row. Counts are deterministic and stay
in the CSV.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "ReportError",
    "SCHEMA_VERSION",
    "format_float",
    "write_csv",
    "write_pgm",
    "write_uq_map",
]

SCHEMA_VERSION = 1


class ReportError(ValueError):
    pass


def format_float(x) -> str:
    """Canonical float rendering for CSV cells: shortest %.12g form."""
    return format(float(x), ".12g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    s = str(v)
    if "," in s or "\n" in s:
        raise ReportError(f"CSV cell may not contain separators: {s!r}")
    return s


def write_csv(path, name: str, columns, rows) -> None:
    """Write a versioned CSV. Every row gets a leading schema tag column."""
    tag = f"{name}-v{SCHEMA_VERSION}"
    lines = ["schema," + ",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ReportError(f"row width {len(row)} != {len(columns)} columns")
        lines.append(",".join([tag] + [_cell(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---- portable graymap -------------------------------------------------------


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ReportError("expected a 2-d uint8 pixel array")
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_uq_map(estimate, side: int, normalization, path):
    """Render a per-pixel map (an estimate's ``diag`` or a plain array) as an
    8-bit graymap.

    ``normalization`` is "per-frame" or an explicit (lo, hi) range shared
    across frames. Returns the (lo, hi) actually applied so the caller can
    record it next to the CSV row. A degenerate range maps every pixel to 0.
    """
    vals = np.asarray(getattr(estimate, "diag", estimate),
                      dtype=np.float64).reshape(-1)
    if vals.shape[0] != side * side:
        raise ReportError(f"map has {vals.shape[0]} entries, expected {side * side}")
    if normalization == "per-frame":
        lo, hi = float(vals.min()), float(vals.max())
    else:
        lo, hi = (float(v) for v in normalization)
        if hi < lo:
            raise ReportError("normalization range is reversed")
    if hi == lo:
        px = np.zeros(vals.shape, dtype=np.uint8)
    else:
        scaled = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
        px = np.rint(scaled * 255.0).astype(np.uint8)
    write_pgm(path, px.reshape(side, side))
    return lo, hi
