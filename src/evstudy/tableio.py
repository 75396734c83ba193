"""CSV schemas and the flat key=value config format used by the CLI.

Panel files carry exactly the columns ``unit,time,treated,outcome``;
estimate tables carry ``estimator,relative_time,coefficient,std_error,
ci_low,ci_high,omitted``. Decimals are written with repr, the shortest
representation that round-trips, so emitted files are stable golden-file
targets.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .spec import CsvFormatError, NonIntegerTime

if TYPE_CHECKING:
    from .estimators import EventStudyEstimate
    from .panel import PanelDataset

PANEL_COLUMNS = ["unit", "time", "treated", "outcome"]
ESTIMATE_COLUMNS = [
    "estimator", "relative_time", "coefficient", "std_error", "ci_low", "ci_high", "omitted",
]


def _num(x: float) -> str:
    return repr(float(x))


def write_panel_csv(panel: PanelDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PANEL_COLUMNS)
        w.writerows((uid, t, d, repr(y)) for uid, t, d, y in panel.to_rows())


def read_panel_csv(path) -> PanelDataset:
    """Columns in any order, blank lines skipped; errors name the physical line."""
    from .panel import panel_from_columns  # numpy; estimate tables and configs need none

    units, times, treated, outcomes = [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or sorted(header) != sorted(PANEL_COLUMNS):
            raise CsvFormatError(f"expected columns {PANEL_COLUMNS}, got {header}")
        pick = operator.itemgetter(*map(header.index, PANEL_COLUMNS))
        for row in filter(None, reader):  # skips blank lines
            if len(row) != len(PANEL_COLUMNS):
                raise CsvFormatError(f"line {reader.line_num}: wrong number of fields")
            unit, time, d, y = pick(row)
            try:
                times.append(int(time))
            except ValueError:
                raise NonIntegerTime(f"line {reader.line_num}: time {time!r}") from None
            if d not in ("0", "1"):
                raise CsvFormatError(f"line {reader.line_num}: treated must be 0 or 1")
            try:
                outcomes.append(float(y))
            except ValueError:
                raise CsvFormatError(f"line {reader.line_num}: bad outcome {y!r}") from None
            units.append(sys.intern(unit))  # one str object per unit, not per row
            treated.append(d == "1")
    return panel_from_columns(units, times, treated, outcomes)


def estimate_table_rows(estimates: list[EventStudyEstimate]) -> list[dict[str, str]]:
    """Flatten estimates into table rows sorted by (estimator, relative_time)."""
    rows = []
    for est in estimates:
        rel = sorted(set(est.coefficients) | set(est.omitted))
        for r in rel:
            if r in est.omitted:
                rows.append({
                    "estimator": est.estimator, "relative_time": str(r),
                    "coefficient": "", "std_error": "", "ci_low": "", "ci_high": "",
                    "omitted": "1",
                })
            else:
                se = est.se.get(r) if est.se else None
                ci = est.ci.get(r) if est.ci else None
                rows.append({
                    "estimator": est.estimator, "relative_time": str(r),
                    "coefficient": _num(est.coefficients[r]),
                    "std_error": _num(se) if se is not None else "",
                    "ci_low": _num(ci[0]) if ci is not None else "",
                    "ci_high": _num(ci[1]) if ci is not None else "",
                    "omitted": "0",
                })
    rows.sort(key=lambda row: (row["estimator"], int(row["relative_time"])))
    return rows


def write_estimate_table(estimates: list[EventStudyEstimate], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=ESTIMATE_COLUMNS)
        w.writeheader()
        w.writerows(estimate_table_rows(estimates))


@dataclass
class TableRow:
    estimator: str
    relative_time: int
    coefficient: float | None
    std_error: float | None
    ci_low: float | None
    ci_high: float | None
    omitted: bool


def read_estimate_table(path) -> list[TableRow]:
    """Rows of an estimate table; errors name the physical line.

    Every number must be finite, each (estimator, relative_time) may appear
    once, a row with ``omitted=0`` needs a coefficient and a row with
    ``omitted=1`` carries no numbers.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ESTIMATE_COLUMNS:
            raise CsvFormatError(f"expected columns {ESTIMATE_COLUMNS}, got {header}")
        out = []
        first_line: dict[tuple[str, int], int] = {}
        for row in filter(None, reader):
            try:
                if len(row) != len(ESTIMATE_COLUMNS):
                    raise ValueError(f"expected {len(ESTIMATE_COLUMNS)} fields, got {len(row)}")
                estimator, rel, *numbers, omitted = row
                if omitted not in ("0", "1"):
                    raise ValueError(f"omitted must be 0 or 1, got {omitted!r}")
                key = (estimator, int(rel))
                values = [float(v) if v != "" else None for v in numbers]
                for name, v in zip(ESTIMATE_COLUMNS[2:6], values):
                    if v is not None and not math.isfinite(v):
                        raise ValueError(f"{name} must be finite, got {v}")
                if omitted == "1" and any(v is not None for v in values):
                    raise ValueError("a row with omitted=1 must leave its numbers empty")
                if omitted == "0" and values[0] is None:
                    raise ValueError("a row with omitted=0 needs a coefficient")
                if key in first_line:
                    raise ValueError(f"repeated row for {estimator} at relative time {key[1]} "
                                     f"(first on line {first_line[key]})")
                first_line[key] = reader.line_num
                out.append(TableRow(*key, *values, omitted == "1"))
            except ValueError as exc:
                raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    return out


def parse_config_file(path) -> dict[str, tuple[str, int]]:
    """Flat key=value config as key -> (raw value, line number).

    '#' starts a comment, blank lines are ignored, and a repeated key is an
    error naming both lines.
    """
    values: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CsvFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise CsvFormatError(
                    f"{path}:{lineno}: duplicate key {key!r} (first on line {values[key][1]})"
                )
            values[key] = (value, lineno)
    return values
