"""Report artifacts: CSV tables, grayscale uncertainty maps, cost ledger.

Reruns of an experiment must produce byte-identical CSVs, so anything
wall-clock (seconds, ratios of seconds) is segregated into a plain-text
summary file and never enters a CSV row. Counts are deterministic and stay
in the CSV.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ReportError",
    "SCHEMA_VERSION",
    "format_float",
    "write_csv",
    "write_pgm",
    "write_uq_map",
    "CostEntry",
    "CostLedger",
    "cost_report",
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


# ---- cost accounting --------------------------------------------------------


@dataclass
class CostEntry:
    train_seconds: float = 0.0
    infer_seconds: float = 0.0
    train_equivalents: int = 0
    infer_equivalents: int = 0

    def _check(self):
        if min(self.train_seconds, self.infer_seconds,
               self.train_equivalents, self.infer_equivalents) < 0:
            raise ReportError("cost entries must be nonnegative")

    @property
    def total_seconds(self) -> float:
        return self.train_seconds + self.infer_seconds

    @property
    def total_equivalents(self) -> int:
        return self.train_equivalents + self.infer_equivalents


@dataclass
class CostLedger:
    entries: dict = field(default_factory=dict)

    def _entry(self, method: str) -> CostEntry:
        return self.entries.setdefault(method, CostEntry())

    def add_training(self, method: str, seconds: float, equivalents: int):
        e = self._entry(method)
        e.train_seconds += seconds
        e.train_equivalents += int(equivalents)
        e._check()

    def add_inference(self, method: str, seconds: float, equivalents: int):
        e = self._entry(method)
        e.infer_seconds += seconds
        e.infer_equivalents += int(equivalents)
        e._check()


def cost_report(ledger: CostLedger, out_dir):
    """Write cost.csv (deterministic counts) and cost_summary.txt (seconds).

    Ratios compare each method's total to the reference method:
    "tweedie-fm" when present, otherwise the cheapest method by counts.
    """
    if not ledger.entries:
        raise ReportError("empty cost ledger")
    out_dir = Path(out_dir)
    methods = list(ledger.entries)
    reference = ("tweedie-fm" if "tweedie-fm" in ledger.entries else
                 min(methods, key=lambda m: ledger.entries[m].total_equivalents))
    ref = ledger.entries[reference]

    rows = []
    for m in methods:
        e = ledger.entries[m]
        ratio = (e.total_equivalents / ref.total_equivalents
                 if ref.total_equivalents else float("nan"))
        rows.append((m, e.train_equivalents, e.infer_equivalents,
                     e.total_equivalents, ratio))
    write_csv(out_dir / "cost.csv", "cost",
              ["method", "train_equivalents", "infer_equivalents",
               "total_equivalents", f"count_ratio_vs_{reference}"], rows)

    lines = [f"wall-clock cost summary (reference: {reference})"]
    for m in methods:
        e = ledger.entries[m]
        lines.append(f"{m}: train {e.train_seconds:.3f}s + inference "
                     f"{e.infer_seconds:.3f}s = {e.total_seconds:.3f}s")
    for m in methods:
        if m == reference:
            continue
        e = ledger.entries[m]
        if ref.total_seconds > 0:
            lines.append(f"ratio({m} / {reference}) = "
                         f"{e.total_seconds / ref.total_seconds:.1f}x wall-clock")
    (out_dir / "cost_summary.txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    return rows
