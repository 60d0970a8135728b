"""The campaign table results.csv, one row per cell, and write_csv, every table's writer.

Standard library only, so that reading a table (satfd report) loads none
of the campaign code that wrote it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .experiment import CellResult

# The MetricSet fields, in the order of the table's last columns.
METRICS = ("tpr", "fpr", "ppv", "f1", "p4")
RESULT_COLUMNS = [
    "faults", "magnitude_m", "threshold_label", "threshold_value", "dl",
    "trials", "tp", "fn", "fp", "tn", *METRICS,
]


def write_csv(path: str | Path, header: list, rows: Iterable) -> None:
    """One UTF-8 CSV table: the header row, then every row of rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path: str | Path, results: Sequence[CellResult]) -> None:
    write_csv(path, RESULT_COLUMNS, ([
        r.faults, repr(r.magnitude), r.threshold.label,
        repr(r.threshold.scalar), r.dl, r.trials,
        r.counts.tp, r.counts.fn, r.counts.fp, r.counts.tn,
        *(repr(getattr(r.metrics, m)) for m in METRICS),
    ] for r in results))


def read_results_csv(path: str | Path) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != RESULT_COLUMNS:
                raise ValueError(f"results file has columns {reader.fieldnames}, "
                                 f"want {RESULT_COLUMNS}")
            return [dict(row) for row in reader]
    except OSError as exc:  # its text names the file
        raise ValueError(f"cannot read results file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read results file: {path} is not UTF-8: {exc}") from exc
