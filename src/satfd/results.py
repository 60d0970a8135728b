"""The campaign results table: results.csv, one row per grid cell.

Standard library only, so that reading a table (satfd report) loads none
of the campaign code that wrote it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .experiment import CellResult

RESULT_COLUMNS = [
    "faults", "magnitude_m", "threshold_label", "threshold_value", "dl",
    "trials", "tp", "fn", "fp", "tn", "tpr", "fpr", "ppv", "f1", "p4",
]


def write_results_csv(path: str | Path, results: Sequence[CellResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in results:
            writer.writerow([
                r.faults, repr(r.magnitude), r.threshold.label,
                repr(r.threshold.scalar), r.dl, r.trials,
                r.counts.tp, r.counts.fn, r.counts.fp, r.counts.tn,
                repr(r.metrics.tpr), repr(r.metrics.fpr), repr(r.metrics.ppv),
                repr(r.metrics.f1), repr(r.metrics.p4),
            ])


def read_results_csv(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise ValueError(
                f"results file has columns {reader.fieldnames}, want {RESULT_COLUMNS}"
            )
        return [dict(row) for row in reader]
