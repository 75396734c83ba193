"""CSV schemas and the flat key=value config format used by the CLI.

Panel files carry exactly the columns ``unit,time,treated,outcome``;
estimate tables carry ``estimator,relative_time,coefficient,std_error,
ci_low,ci_high,omitted``. Decimals are written with repr, the shortest
representation that round-trips, so emitted files are stable golden-file
targets.

Panel files take memory in proportion to their cells, not their rows'
Python objects: the writer formats one block of units at a time, and the
reader flushes each block of rows into typed columns (integer unit codes,
times, flags and outcomes) that ``panel.panel_from_columns`` reads without
a copy.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from itertools import islice
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


# Rows per block of the panel writer and reader: the Python objects of one
# block are all that exist at a time beside the typed columns.
_BLOCK_ROWS = 1 << 16


class _Echo:
    """A file whose write returns its text, so a csv.writer's writerow returns the line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def write_panel_csv(panel: PanelDataset, path) -> None:
    """The panel as csv.writer would write its ``to_rows()`` with repr outcomes,
    block of units by block: each unit id is quoted once, each ``,time,treated,``
    run formatted once, and each block written in one call."""
    quote = csv.writer(_Echo()).writerow
    mids = [[f",{t},{d}," for t in range(panel.t_min, panel.t_max + 1)] for d in (0, 1)]
    flags = panel.treated.tolist()
    step = max(1, _BLOCK_ROWS // panel.n_periods)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(quote(PANEL_COLUMNS))
        for lo in range(0, panel.n_units, step):
            hi = lo + step
            # csv quotes a field by its content alone; [:-3] drops the ",\r\n" of (uid, "").
            ids = [quote((uid, ""))[:-3] for uid in panel.unit_ids[lo:hi]]
            fh.write("".join([
                f"{uid}{mid}{y!r}\r\n"
                for uid, d, ys in zip(ids, flags[lo:hi], panel.outcomes[lo:hi].tolist())
                for mid, y in zip(mids[d], ys)
            ]))


def read_panel_csv(path) -> PanelDataset:
    """Columns in any order, blank lines skipped; errors name the physical line.

    Each block of rows is flushed into typed columns: unit codes and times
    as ``array('q')``, flags as a ``bytearray``, outcomes as ``array('d')``,
    so memory grows by about 25 bytes per row, not by Python objects.
    """
    # numpy and array load here: estimate tables and configs need neither
    from array import array

    from .panel import _code_units, panel_from_columns

    codes: dict[str, int] = {}
    units, times, treated, outcomes = array("q"), array("q"), bytearray(), array("d")
    extend_times = times.fromlist  # leaves times unchanged when it raises
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or sorted(header) != sorted(PANEL_COLUMNS):
            raise CsvFormatError(f"expected columns {PANEL_COLUMNS}, got {header}")
        pick = operator.itemgetter(*map(header.index, PANEL_COLUMNS))
        rows = filter(None, reader)  # skips blank lines
        while True:
            u_blk, t_blk, d_blk, y_blk = [], [], [], []
            for row in islice(rows, _BLOCK_ROWS):
                if len(row) != len(PANEL_COLUMNS):
                    raise CsvFormatError(f"line {reader.line_num}: wrong number of fields")
                unit, time, d, y = pick(row)
                try:
                    t_blk.append(int(time))
                except ValueError:
                    raise NonIntegerTime(f"line {reader.line_num}: time {time!r}") from None
                if d not in ("0", "1"):
                    raise CsvFormatError(f"line {reader.line_num}: treated must be 0 or 1")
                try:
                    y_blk.append(float(y))
                except ValueError:
                    raise CsvFormatError(f"line {reader.line_num}: bad outcome {y!r}") from None
                u_blk.append(unit)
                d_blk.append(d == "1")
            if not u_blk:
                break
            units.fromlist(_code_units(codes, u_blk))
            try:
                extend_times(t_blk)
            except OverflowError:  # a time beyond int64; keep exact ints to name it
                times = [*times, *t_blk]
                extend_times = times.extend
            treated += bytes(d_blk)
            outcomes.fromlist(y_blk)
    return panel_from_columns(list(codes), units, times, treated, outcomes)


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
