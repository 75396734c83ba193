"""CSV schemas and the flat key=value config format used by the CLI.

Panel files carry exactly the columns ``unit,time,treated,outcome``;
estimate tables carry ``estimator,relative_time,coefficient,std_error,
ci_low,ci_high,omitted``, one ``TableRow`` a line, whose rules the writer
and the reader share; Monte Carlo tables carry ``MC_COLUMNS``. Decimals
are written with repr, the shortest representation that round-trips, so
emitted files are stable golden-file targets.

Panel files take memory in proportion to their cells, not their rows'
Python objects: the writer formats one block of units at a time, and the
reader appends each row as it reads it to the typed columns of
``panel.new_columns``, so a time outside int64 fails at its line.

The reader fills those columns in one pass, block by block: numpy's
tokenizer reads a block whose content is canonical, the strict csv loop
any other; ``read_panel_csv`` says how they share the work.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING

from .oracle import population_curve
from .spec import CsvFormatError, DgpConfig, EventStudyEstimate, NonIntegerTime, UnbalancedPanel

if TYPE_CHECKING:
    from .panel import PanelDataset

PANEL_COLUMNS = ["unit", "time", "treated", "outcome"]
ESTIMATE_COLUMNS = [
    "estimator", "relative_time", "coefficient", "std_error", "ci_low", "ci_high", "omitted",
]
MC_COLUMNS = [
    "estimator", "relative_time", "mean_coefficient", "population_value", "abs_deviation", "mc_se",
]


# Rows per block of the panel writer: one block's lines are all that exist
# at a time beside the panel.
_BLOCK_ROWS = 1 << 12


class _Echo:
    """A file whose write returns its text, so a csv.writer's writerow returns the line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def write_panel_csv(panel: PanelDataset, path) -> None:
    """The bytes ``csv.writer`` gives for the header and the panel's (unit,
    time, treated, repr(outcome)) rows in unit-major order, written a block of
    units at a time: each unit id is quoted once, each ``,time,treated,`` run
    formatted once, and each block written in one call."""
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

    The file is opened once and read in order. csv reads the header; then
    each block of ``_CANONICAL_LINES`` lines goes to ``_canonical_block``,
    which parses it with numpy's C tokenizer when its content allows. A
    block it declines goes to ``_strict_rows``, the csv loop that defines
    what a panel file may hold, which reads that block's rows and finishes
    one that crosses its end; the next block goes to ``_canonical_block``
    again. Both append to the same typed columns.
    """
    from .panel import new_columns, panel_from_columns

    codes: dict[str, int] = {}
    columns = new_columns()
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        header = next(_csv_rows(reader), None)
        if header is None or sorted(header) != sorted(PANEL_COLUMNS):
            raise CsvFormatError(f"expected columns {PANEL_COLUMNS}, got {header}")
        offset = reader.line_num
        while lines := list(islice(fh, _CANONICAL_LINES)):
            if _canonical_block(lines, header, codes, columns):
                offset += len(lines)
            else:
                offset = _strict_rows(chain(lines, fh), len(lines), header, offset, codes, columns)
    return panel_from_columns(list(codes), *columns)


def _csv_rows(reader, offset=0):
    """The rows of a csv.reader; a csv.Error, such as a field over csv's
    size limit, becomes a CsvFormatError naming the physical line, the
    reader's line number plus ``offset``."""
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(f"line {offset + reader.line_num}: {exc}") from None


@contextmanager
def _utf8_text(path):
    """``path`` opened as UTF-8 text with its line ends kept and a leading
    byte-order mark skipped; a byte that is not UTF-8 raises a
    CsvFormatError naming the file and the byte's line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise CsvFormatError(_undecodable(path, exc)) from None


def _undecodable(path, exc: UnicodeDecodeError) -> str:
    """"path:line: ..." for the first byte of ``path`` that is not UTF-8, found in
    its bytes as text files decode ahead: no UTF-8 character holds an LF, and
    CR, LF and CRLF each end a line, as in text mode."""
    line = 1
    if os.path.isfile(path):  # a pipe cannot be read again
        with open(path, "rb") as fh:
            for raw in fh:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    line += raw.count(b"\r", 0, bad.start)
                    return f"{path}:{line}: byte {raw[bad.start]:#04x} is not UTF-8 ({bad.reason})"
                line += 1 + raw.count(b"\r") - raw.endswith(b"\r\n")
    return f"{path}: {exc}"


# Physical lines per block of the reader: one block's line strings and,
# when loadtxt takes it, its parsed records (about 2.3 MiB in all for
# simulate's lines) are all that exist at a time beside the typed columns.
_CANONICAL_LINES = 1 << 14
# Longest canonical line, its line end included. Below csv's default field
# limit (131072) and the 640-digit floor of int()'s digit limit, so a field
# the fast path reads is one the strict loop reads too. simulate writes lines
# under 90 chars.
_CANONICAL_CHARS = 128
# Every byte but these marks a block as not canonical: printable ASCII
# without space or '"', and the line ends.
_CANONICAL_BYTES = bytes(c for c in range(0x21, 0x7F) if c != 0x22) + b"\r\n"


def _canonical_block(lines, header, codes, columns) -> bool:
    """Parse a block of canonical lines into ``columns``; False, with
    ``codes`` and ``columns`` untouched, for any other block.

    A canonical line is printable ASCII without spaces or quotes, ends in LF
    or CRLF, is not blank and is at most ``_CANONICAL_CHARS`` long; csv
    splits such a line on its commas and nothing else. The block then goes
    through ``np.loadtxt``, which parses floats with ``PyOS_string_to_double``,
    as ``float()`` does, and int64s as ``int()`` does on signs and digits.
    Its unit field is as wide as the block's longest line, which is longer
    than any id in it, so no id is truncated. Anything the strict loop might
    read differently or reject declines the block: a field loadtxt rejects
    or warns about (some numpy releases read an integer field such as
    ``3.7`` through a float, truncating it, and only warn), or a flag other
    than 0 or 1.
    """
    import warnings

    import numpy as np

    data = "".join(lines).encode()
    # Text mode with newline="" ends a line at CR, LF or CRLF, so one LF per
    # line means each ends in LF, with at most one CR before it; a line's
    # length, its line end included, is then the distance between LFs.
    lengths = np.diff(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")), prepend=-1)
    if (data.translate(None, _CANONICAL_BYTES) or len(lengths) != len(lines)
            # no line is blank ("\r\n"), too short or too long
            or not 2 < lengths.min() <= lengths.max() <= min(_CANONICAL_CHARS,
                                                             csv.field_size_limit())):
        return False
    types = {"unit": f"S{lengths.max()}", "time": "i8", "treated": "S2", "outcome": "f8"}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(lines, dtype=[(name, types[name]) for name in header],
                               delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return False
    flags = block["treated"]
    is_one = flags == b"1"
    if not (is_one | (flags == b"0")).all():
        return False
    ids = block["unit"]
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    units, times, treated, outcomes = columns
    head_codes = [codes.setdefault(uid.decode(), len(codes)) for uid in ids[heads].tolist()]
    runs = np.diff(heads, append=len(block))
    units.frombytes(np.repeat(np.array(head_codes, dtype=np.int64), runs).tobytes())
    times.frombytes(block["time"].tobytes())
    treated += is_one.tobytes()
    outcomes.frombytes(block["outcome"].tobytes())
    return True


def _strict_rows(lines, stop, header, offset: int, codes, columns) -> int:
    """Append the rows of ``lines`` to ``columns``, read through csv, up to
    the first row that ends on or past line ``stop`` of ``lines``; return
    the physical line that row ends on.

    This loop defines what a panel file may hold and words every error.
    ``lines`` begin a row at physical line ``offset + 1``. Each row goes into
    the typed columns as it is checked, so memory grows by about 25 bytes
    per row, not by Python objects.
    """
    units, times, treated, outcomes = columns
    code, add_unit, add_time, add_flag, add_outcome = (
        codes.setdefault, units.append, times.append, treated.append, outcomes.append)
    reader = csv.reader(lines)
    pick = operator.itemgetter(*map(header.index, PANEL_COLUMNS))
    for row in filter(None, _csv_rows(reader, offset)):  # skips blank lines
        if len(row) != len(PANEL_COLUMNS):
            raise CsvFormatError(f"line {offset + reader.line_num}: wrong number of fields")
        unit, time, d, y = pick(row)
        try:
            add_time(int(time))
        except ValueError:
            raise NonIntegerTime(f"line {offset + reader.line_num}: time {time!r}") from None
        except OverflowError:
            raise UnbalancedPanel(
                f"line {offset + reader.line_num}: time {time!r} is outside int64") from None
        if d not in ("0", "1"):
            raise CsvFormatError(f"line {offset + reader.line_num}: treated must be 0 or 1")
        try:
            add_outcome(float(y))
        except ValueError:
            raise CsvFormatError(f"line {offset + reader.line_num}: bad outcome {y!r}") from None
        add_unit(code(unit, len(codes)))
        add_flag(d == "1")
        if reader.line_num >= stop:
            break
    return offset + reader.line_num


@dataclass(frozen=True)
class TableRow:
    """An estimate table row, as ``estimate`` writes it and ``plot`` reads it;
    one that breaks a rule of ``__post_init__`` raises ValueError."""

    estimator: str
    relative_time: int
    coefficient: float | None
    std_error: float | None
    ci_low: float | None
    ci_high: float | None
    omitted: bool

    def __post_init__(self):
        values = (self.coefficient, self.std_error, self.ci_low, self.ci_high)
        for name, v in zip(ESTIMATE_COLUMNS[2:], values):
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.omitted and any(v is not None for v in values):
            raise ValueError("a row with omitted=1 must leave its numbers empty")
        if not self.omitted and self.coefficient is None:
            raise ValueError("a row with omitted=0 needs a coefficient")
        if len({v is None for v in values[1:]}) > 1:
            raise ValueError("std_error, ci_low and ci_high must be all given or all empty")


def estimate_table_rows(estimates: list[EventStudyEstimate]) -> list[TableRow]:
    """Flatten estimates into table rows sorted by (estimator, relative_time);
    a row rule's ValueError names the estimator and relative time."""
    rows = []
    for est in estimates:
        for r in sorted(set(est.coefficients) | est.omitted):
            numbers = [None] * 4
            if r not in est.omitted:
                low, high = (est.ci or {}).get(r, (None, None))
                numbers = [est.coefficients[r], (est.se or {}).get(r), low, high]
            try:
                rows.append(TableRow(est.estimator, r, *numbers, r in est.omitted))
            except ValueError as exc:
                raise ValueError(f"{est.estimator} at relative time {r}: {exc}") from None
    rows.sort(key=lambda row: (row.estimator, row.relative_time))
    return rows


def write_estimate_table(estimates: list[EventStudyEstimate], path) -> None:
    """Every row is built, and so checked, before ``path`` is opened."""
    rows = estimate_table_rows(estimates)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ESTIMATE_COLUMNS)
        for row in rows:
            estimator, rel, *numbers, omitted = astuple(row)
            w.writerow([estimator, rel, *("" if v is None else repr(float(v)) for v in numbers),
                        int(omitted)])


def write_mc_table(estimates: list[EventStudyEstimate], dgp: DgpConfig, path) -> None:
    """A Monte Carlo table: per estimator and relative time, the mean over the
    draws, the population value under ``dgp``, their absolute deviation and
    the Monte Carlo standard error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(MC_COLUMNS)
        for est in estimates:
            population = population_curve(est.estimator, dgp.gamma, dgp.t_min, dgp.t_max)
            for r, mean in sorted(est.coefficients.items()):
                pop = population[r]
                w.writerow([est.estimator, r, repr(mean), repr(pop), repr(abs(mean - pop)),
                            repr(est.se[r])])


def read_estimate_table(path) -> list[TableRow]:
    """Rows of an estimate table; errors name the physical line.

    Beside ``TableRow``'s rules, the header must be ``ESTIMATE_COLUMNS``,
    each row has its seven fields, ``omitted`` is 0 or 1, relative_time an
    integer, and each (estimator, relative_time) appears once.
    """
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        header = next(_csv_rows(reader), None)
        if header != ESTIMATE_COLUMNS:
            raise CsvFormatError(f"expected columns {ESTIMATE_COLUMNS}, got {header}")
        out = []
        first_line: dict[tuple[str, int], int] = {}
        for row in filter(None, _csv_rows(reader)):
            try:
                if len(row) != len(ESTIMATE_COLUMNS):
                    raise ValueError(f"expected {len(ESTIMATE_COLUMNS)} fields, got {len(row)}")
                estimator, rel, *numbers, omitted = row
                if omitted not in ("0", "1"):
                    raise ValueError(f"omitted must be 0 or 1, got {omitted!r}")
                key = (estimator, int(rel))
                out.append(TableRow(*key, *(float(v) if v != "" else None for v in numbers),
                                    omitted == "1"))
                if key in first_line:
                    raise ValueError(f"repeated row for {estimator} at relative time {key[1]} "
                                     f"(first on line {first_line[key]})")
                first_line[key] = reader.line_num
            except ValueError as exc:
                raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    return out


def parse_config_file(path) -> dict[str, tuple[str, int]]:
    """Flat key=value config as key -> (raw value, line number).

    '#' starts a comment, blank lines are ignored, and a repeated key is an
    error naming both lines.
    """
    values: dict[str, tuple[str, int]] = {}
    with _utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.partition("#")[0].strip()
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
