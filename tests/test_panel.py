import contextlib
import csv
import io
import math
import os
import re
import threading
import tracemalloc
import uuid
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    DegenerateGroups,
    DgpConfig,
    InconsistentTreatment,
    NonIntegerTime,
    PanelDataset,
    TimeOutOfRange,
    UnbalancedPanel,
    simulate,
)
from evstudy import tableio
from evstudy.cli import main
from evstudy.panel import (
    InsufficientPeriods, NonFiniteOutcome, check_outcome_bound, new_columns, panel_from_columns,
)
from evstudy.spec import CsvFormatError
from evstudy.tableio import PANEL_COLUMNS, read_panel_csv, write_panel_csv

from conftest import FOUR_CELL_ROWS
from helpers import assert_same_panel, make_fuzz_panel, panel_from_rows, panel_rows


def grid_rows(units, times):
    return [(u, t, d, y) for (u, d, y) in units for t in times]


def test_minimal_complete_grid():
    rows = [("a", t, 1, float(t)) for t in (-1, 0, 1)] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ]
    panel = panel_from_rows(rows)
    assert panel.n_units == 2
    assert (panel.t_min, panel.t_max) == (-1, 1)


def test_missing_cell_rejected():
    rows = [("a", t, 1, 0.0) for t in (-1, 0, 1)] + [("b", -1, 0, 0.0), ("b", 1, 0, 0.0)]
    with pytest.raises(UnbalancedPanel):
        panel_from_rows(rows)


def test_duplicate_cell_rejected():
    rows = [("a", t, 1, 0.0) for t in (-1, 0, 1)] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ] + [("a", 0, 1, 5.0)]
    with pytest.raises(UnbalancedPanel):
        panel_from_rows(rows)


def test_all_treated_rejected():
    rows = [(u, t, 1, 0.0) for u in "ab" for t in (-1, 0, 1)]
    with pytest.raises(DegenerateGroups):
        panel_from_rows(rows)


@pytest.mark.parametrize("treated, control", [(True, False), (np.int64(1), np.int8(0)),
                                              (1.0, 0.0), (np.float64(1.0), -0.0)])
def test_treatment_flags_equal_to_0_or_1_accepted(treated, control):
    rows = [("a", t, treated, 0.0) for t in (-1, 0, 1)] + [("b", t, control, 0.0) for t in (-1, 0, 1)]
    assert panel_from_rows(rows).treated.tolist() == [True, False]


def test_switching_treatment_rejected():
    rows = [("a", -1, 1, 0.0), ("a", 0, 0, 0.0), ("a", 1, 1, 0.0)] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ]
    with pytest.raises(InconsistentTreatment):
        panel_from_rows(rows)


def test_non_integer_time_rejected(tmp_path):
    rows = [("a", -1, 1, 0.0), ("a", 0.5, 1, 0.0)]
    write_rows_csv(rows, tmp_path / "p.csv")
    with pytest.raises(NonIntegerTime):
        read_panel_csv(tmp_path / "p.csv")


def test_non_finite_outcome_rejected():
    rows = [("a", t, 1, 0.0) for t in (-1, 0)] + [("a", 1, 1, float("nan"))] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ]
    with pytest.raises(NonFiniteOutcome):
        panel_from_rows(rows)


def test_missing_post_period_rejected():
    rows = [(u, t, d, 0.0) for (u, d) in (("a", 1), ("b", 0)) for t in (-2, -1, 0)]
    with pytest.raises(InsufficientPeriods):
        panel_from_rows(rows)


def test_missing_pre_period_rejected():
    # t = 0 alone is before treatment; two pre periods need t_min <= -1.
    rows = [(u, t, d, 0.0) for (u, d) in (("a", 1), ("b", 0)) for t in (0, 1, 2)]
    with pytest.raises(InsufficientPeriods):
        panel_from_rows(rows)


@pytest.mark.parametrize("n_units, n_periods, factor", [(2, 2, 4), (3, 4, 8), (16, 3, 16)])
def test_outcome_bound_factor_is_units_twice_periods_or_4(n_units, n_periods, factor):
    # Powers of two, so factor * y lands exactly on the largest float.
    y = np.zeros((n_units, n_periods))
    y[-1, -1] = -np.finfo(float).max / factor
    check_outcome_bound(y, -1)
    y[-1, -1] *= 2
    with pytest.raises(NonFiniteOutcome, match=f"period {n_periods - 2}: {factor} \\* max"):
        check_outcome_bound(y, -1)


def test_empty_rejected():
    with pytest.raises(UnbalancedPanel):
        panel_from_rows([])


def test_outcomes_frozen(four_cell):
    with pytest.raises(ValueError):
        four_cell.outcomes[0, 0] = 99.0


def test_group_mean_two_points():
    rows = [("a", -1, 1, 0.0), ("a", 0, 1, 1.0), ("a", 1, 1, 0.0),
            ("c", -1, 1, 0.0), ("c", 0, 1, 3.0), ("c", 1, 1, 0.0),
            ("b", -1, 0, 0.0), ("b", 0, 0, 0.0), ("b", 1, 0, 0.0)]
    panel = panel_from_rows(rows)
    assert panel.outcomes[panel.treated, panel.period_index(0)].mean() == 2.0


def test_group_mean_single_unit(four_cell):
    control = four_cell.outcomes[~four_cell.treated]
    assert control.shape == (1, 4)
    assert control[0, four_cell.period_index(0)] == 0.0
    assert control[0, four_cell.period_index(1)] == 1.0


def test_group_mean_fixture_treated_at_1(four_cell):
    assert four_cell.outcomes[four_cell.treated, four_cell.period_index(1)].tolist() == [4.0]


def test_group_mean_out_of_range(four_cell):
    with pytest.raises(TimeOutOfRange):
        four_cell.period_index(7)


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_group_mean_row_order_invariant(pyrandom):
    rows = list(FOUR_CELL_ROWS)
    pyrandom.shuffle(rows)
    panel = panel_from_rows(rows)
    # Units keep their first-seen order; each cell lands in its unit's row.
    first_seen = tuple(dict.fromkeys(u for u, _, _, _ in rows))
    assert panel.unit_ids == first_seen
    by_cell = {(u, t): y for u, t, _, y in FOUR_CELL_ROWS}
    for i, u in enumerate(panel.unit_ids):
        assert panel.outcomes[i].tolist() == [by_cell[u, t] for t in range(-2, 2)]
    assert panel.outcomes[panel.treated, panel.period_index(1)].tolist() == [4.0]
    assert panel.outcomes[~panel.treated, panel.period_index(-2)].tolist() == [0.0]


@given(st.floats(-1e6, 1e6))
@settings(max_examples=25, deadline=None)
def test_group_mean_shift_equivariant(shift):
    base = panel_from_rows(FOUR_CELL_ROWS)
    shifted = panel_from_rows([(u, t, d, y + shift) for u, t, d, y in FOUR_CELL_ROWS])
    assert shifted.unit_ids == base.unit_ids
    np.testing.assert_array_equal(shifted.treated, base.treated)
    np.testing.assert_allclose(shifted.outcomes, base.outcomes + shift, rtol=0, atol=1e-9)


# --- panel_from_columns and the CSV reader on the same rows ---------------


def write_rows_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit,time,treated,outcome\n")
        fh.writelines(f"{u},{t},{d},{y!r}\n" for u, t, d, y in rows)


def fuzz_cases(test):
    """Hypothesis over make_fuzz_panel panels; the examples have one unit per
    group and t_min = -1."""
    test = example(seed=0, max_units=2, max_abs_t=2)(test)
    test = example(seed=1, max_units=2, max_abs_t=6)(test)
    test = example(seed=2, max_units=6, max_abs_t=2)(test)
    test = given(seed=st.integers(0, 2**32), max_units=st.integers(2, 6),
                 max_abs_t=st.integers(2, 6))(test)
    return settings(max_examples=40, deadline=None)(test)


@fuzz_cases
def test_csv_roundtrip(tmp_path_factory, seed, max_units, max_abs_t):
    panel = make_fuzz_panel(np.random.default_rng(seed), max_units, max_abs_t)
    path = tmp_path_factory.mktemp("roundtrip") / "p.csv"
    write_panel_csv(panel, path)
    assert_same_panel(read_panel_csv(path), panel)


@fuzz_cases
def test_shuffled_rows_keep_first_seen_unit_order(seed, max_units, max_abs_t):
    rng = np.random.default_rng(seed)
    panel = make_fuzz_panel(rng, max_units, max_abs_t)
    rows = panel_rows(panel)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    seen = []
    for unit_id, *_ in rows:
        if unit_id not in seen:
            seen.append(unit_id)
    again = panel_from_rows(rows)
    assert again.unit_ids == tuple(seen)
    idx = [panel.unit_ids.index(u) for u in seen]
    assert np.array_equal(again.treated, panel.treated[idx])
    assert np.array_equal(again.outcomes, panel.outcomes[idx])


def single_faults(rows, i):
    u, t, d, y = rows[i]
    return [
        (UnbalancedPanel, rows[:i] + rows[i + 1:]),
        (UnbalancedPanel, rows + [rows[i]]),
        (InconsistentTreatment, rows[:i] + [(u, t, 1 - d, y)] + rows[i + 1:]),
        (NonFiniteOutcome, rows[:i] + [(u, t, d, float("nan"))] + rows[i + 1:]),
        (NonIntegerTime, rows[:i] + [(u, 0.5, d, y)] + rows[i + 1:]),
        (UnbalancedPanel, []),
    ]


@fuzz_cases
def test_single_fault_raises_through_both_entry_points(tmp_path_factory, seed, max_units,
                                                      max_abs_t):
    rng = np.random.default_rng(seed)
    rows = panel_rows(make_fuzz_panel(rng, max_units, max_abs_t))
    path = tmp_path_factory.mktemp("faults") / "p.csv"
    for error, faulty in single_faults(rows, int(rng.integers(len(rows)))):
        if error is not NonIntegerTime:  # a time that is not an integer is the reader's to reject
            with pytest.raises(error):
                panel_from_rows(faulty)
        write_rows_csv(faulty, path)
        with pytest.raises(error):
            read_panel_csv(path)


@fuzz_cases
def test_first_missing_and_duplicate_cell_match_a_loop(seed, max_units, max_abs_t):
    rng = np.random.default_rng(seed)
    rows = panel_rows(make_fuzz_panel(rng, max_units, max_abs_t))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    drop = set(rng.choice(len(rows), size=int(rng.integers(1, 4)), replace=False).tolist())
    kept = [row for i, row in enumerate(rows) if i not in drop]
    cells = {(u, t) for u, t, _, _ in kept}
    times = range(min(t for _, t, _, _ in kept), max(t for _, t, _, _ in kept) + 1)
    seen_units = list(dict.fromkeys(u for u, _, _, _ in kept))
    missing = next(((u, t) for u in seen_units for t in times if (u, t) not in cells), None)
    if missing is not None:
        message = re.escape(f"missing cell ({missing[0]}, {missing[1]})")
        with pytest.raises(UnbalancedPanel, match=message):
            panel_from_rows(kept)

    for i in rng.integers(len(rows), size=3).tolist():
        rows.insert(int(rng.integers(len(rows) + 1)), rows[i])
    seen = set()
    repeat = next((u, t) for u, t, _, _ in rows if (u, t) in seen or seen.add((u, t)))
    with pytest.raises(UnbalancedPanel, match=re.escape(f"duplicate cell {repeat}")):
        panel_from_rows(rows)


@pytest.mark.parametrize("far", [10**9, 10**30, -10**30])
def test_far_time_fails_fast_in_bounded_memory(tmp_path, capsys, far):
    rows = [(u, t, d, 0.0) for u, d in (("a", 1), ("b", 0)) for t in (-1, 0, 1)]
    path = tmp_path / "far.csv"
    write_rows_csv(rows + [("a", far, 1, 0.0)], path)
    tracemalloc.start()
    try:
        code = main(["estimate", str(path), "--out", str(tmp_path / "o.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    # a time inside int64 leaves a hole to name; one outside fails at its line
    message = ("missing cell (a, 2)" if -(2**63) <= far < 2**63
               else f"line 8: time '{far}' is outside int64")
    assert message in capsys.readouterr().err
    assert peak < 64 * 2**20


def test_read_10k_units_bounded_memory(tmp_path):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    path = tmp_path / "p.csv"
    write_panel_csv(panel, path)
    tracemalloc.start()
    try:
        again = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_panel(again, panel)
    # 10.6 MiB measured: typed columns 6.5 MB, one block of parsed lines, the
    # outcome matrix.
    assert peak < 20 * 2**20


def test_strict_loop_reads_10k_units_in_bounded_memory(tmp_path):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    path = tmp_path / "p.csv"
    write_panel_csv(panel, path)
    header, body = path.read_bytes().split(b"\r\n", 1)
    body = re.sub(rb"(?m)^([^,]*),", rb'"\1",', body)  # every id quoted, so csv reads every block
    assert body.count(b'"') == 2 * panel.outcomes.size
    path.write_bytes(header + b"\r\n" + body)
    tracemalloc.start()
    try:
        again = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_panel(again, panel)
    # 10.8 MiB measured: each row goes into the typed columns as it is read,
    # so no Python object outlives its row.
    assert peak < 12 * 2**20


# --- the streamed writer and the block reader ------------------------------


def reference_write_panel_csv(panel, path):
    """The panel writer as it was before it streamed: csv.writer over the panel's rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PANEL_COLUMNS)
        w.writerows((uid, t, d, repr(y)) for uid, t, d, y in panel_rows(panel))


# Characters csv must quote or keep verbatim: delimiter, quote, line breaks,
# leading and trailing space, tab and non-ASCII.
UNIT_CHARS = st.sampled_from([",", '"', "\r", "\n", " ", "\t", "'", "a", "b", "\u00e9", "\u4e2d"])


@st.composite
def quoting_panels(draw):
    ids = draw(st.lists(st.text(UNIT_CHARS, max_size=4), min_size=2, max_size=9, unique=True))
    n1 = draw(st.integers(1, len(ids) - 1))
    t_min, t_max = draw(st.integers(-4, -1)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (len(ids), t_max - t_min + 1)
    outcomes = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, size=shape)
    outcomes[rng.random(shape) < 0.1] = -0.0
    return PanelDataset(unit_ids=tuple(ids), treated=np.arange(len(ids)) < n1,
                        t_min=t_min, t_max=t_max, outcomes=outcomes)


ONE_PLUS_ONE = PanelDataset(unit_ids=("a,\"b\"", " \u00e9\r\n"), treated=np.array([True, False]),
                            t_min=-1, t_max=1, outcomes=np.array([[0.1, -0.0, 1e300],
                                                                  [5e-324, 2.0, -1.5]]))


@given(panel=quoting_panels(), block=st.integers(1, 40))
@example(panel=ONE_PLUS_ONE, block=1)
@settings(max_examples=60, deadline=None)
def test_writer_bytes_match_csv_writer(tmp_path_factory, panel, block):
    out = tmp_path_factory.mktemp("writer")
    reference_write_panel_csv(panel, out / "ref.csv")
    with mock.patch.object(tableio, "_BLOCK_ROWS", block):  # many blocks per panel
        write_panel_csv(panel, out / "new.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@given(panel=quoting_panels(), seed=st.integers(0, 2**32))
@example(panel=ONE_PLUS_ONE, seed=0)
@settings(max_examples=60, deadline=None)
def test_reader_matches_panel_from_columns_on_shuffled_rows(tmp_path_factory, panel, seed):
    rows = panel_rows(panel)
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    path = tmp_path_factory.mktemp("reader") / "p.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([PANEL_COLUMNS, *((u, t, d, repr(y)) for u, t, d, y in rows)])
    assert_same_panel(read_panel_csv(path), panel_from_rows(rows))


@pytest.mark.parametrize("block", [tableio._BLOCK_ROWS, 5])
def test_reader_returns_the_200_fuzz_panels(tmp_path, block):
    rng = np.random.default_rng(20260824)
    with mock.patch.object(tableio, "_BLOCK_ROWS", block):
        for k in range(200):
            panel = make_fuzz_panel(rng)
            write_panel_csv(panel, tmp_path / f"{k}.csv")
            assert_same_panel(read_panel_csv(tmp_path / f"{k}.csv"), panel)


def test_reader_returns_the_golden_panel():
    golden = Path(__file__).parent / "golden" / "panel_small.csv"
    config = DgpConfig(n_treated=3, n_control=2, t_min=-3, t_max=2, seed=11)
    assert_same_panel(read_panel_csv(golden), simulate(config))


def test_write_10k_units_bounded_memory(tmp_path):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    tracemalloc.start()
    try:
        write_panel_csv(panel, tmp_path / "new.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8.1 MiB measured, one block of lines; a list of row tuples and csv.writer took 31.9 MiB.
    assert peak < 16 * 2**20
    reference_write_panel_csv(panel, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("column, value, error, message", [
    ("outcome", "abc", CsvFormatError, "bad outcome 'abc'"),
    ("time", "0.5", NonIntegerTime, "time '0.5'"),
    ("treated", "2", CsvFormatError, "treated must be 0 or 1"),
    (None, "extra", CsvFormatError, "wrong number of fields"),
])
def test_fault_in_second_block_names_its_physical_line(tmp_path, column, value, error, message):
    # A two-line unit id and a blank line among the first rows put each later
    # row 27 physical lines below its row number.
    ids = ["two\nlines"] + [f"u{i}" for i in range(2999)]
    rows = [[uid, str(t), str(int(i < 1500)), "0.25"]
            for i, uid in enumerate(ids) for t in range(-15, 11)]
    fault = (1 << 16) + 1000  # far into the file
    assert fault < len(rows)
    if column is None:
        rows[fault].append(value)
    else:
        rows[fault][PANEL_COLUMNS.index(column)] = value
    path = tmp_path / "p.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PANEL_COLUMNS)
        w.writerows(rows[:100])
        fh.write("\n")
        w.writerows(rows[100:])
    line = 1 + fault + 1 + 26 + 1  # header, rows before, the blank line, the two-line rows
    with pytest.raises(error, match=re.escape(f"line {line}: {message}")):
        read_panel_csv(path)


@pytest.mark.parametrize("far", [2**63 - 1, 2**63, -(2**63) - 1, 10**30])
def test_time_beyond_int64_in_a_later_block_names_the_missing_cell(tmp_path, far):
    rows = [(u, t, d, 0.0) for u, d in (("a", 1), ("b", 0)) for t in (-1, 0, 1)]
    rows = rows[:2] + [("a", far, 1, 0.0)] + rows[2:]  # more rows follow the far time
    write_rows_csv(rows, tmp_path / "far.csv")
    if far == 2**63 - 1:  # in int64, so the grid is built and its first hole named
        message = "missing cell (a, 2)"
        with pytest.raises(UnbalancedPanel, match=re.escape(message)):
            panel_from_rows(rows)
    else:  # beyond int64: the row itself is rejected
        message = f"line 4: time '{far}' is outside int64"
    with pytest.raises(UnbalancedPanel, match=re.escape(message)):
        read_panel_csv(tmp_path / "far.csv")


# --- the canonical path against the strict loop -----------------------------


def build_outcome(read):
    """What ``read()`` returns, as comparable values, or the error's class
    and message."""
    try:
        panel = read()
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    return PanelDataset, (panel.unit_ids, panel.t_min, panel.t_max, panel.treated.tobytes(),
                          panel.outcomes.tobytes())


def strict_read(path):
    """The panel the strict loop alone reads from ``path``, after csv reads its header."""
    codes, columns = {}, new_columns()
    with tableio._utf8_text(path) as fh:
        reader = csv.reader(fh)
        header = next(tableio._csv_rows(reader), None)
        if header is None or sorted(header) != sorted(PANEL_COLUMNS):
            raise CsvFormatError(f"expected columns {PANEL_COLUMNS}, got {header}")
        tableio._strict_rows(fh, math.inf, header, reader.line_num, codes, columns)
    return panel_from_columns(list(codes), *columns)


def traced_read(path):
    """``read_panel_csv(path)`` with its parsers watched: the outcome as
    ``build_outcome`` gives it, the lines read from the file before its
    first block (the header), each block given to ``_canonical_block``
    (its lines, whether it was taken, and for a declined block the lines
    csv read from its start), and how many times ``np.loadtxt`` ran."""
    trace = SimpleNamespace(header=None, blocks=[], loadtxt=0)
    read = []  # every line read from the file, in order
    real_text, real_block = tableio._utf8_text, tableio._canonical_block
    real_strict, real_loadtxt = tableio._strict_rows, np.loadtxt

    def tap(lines, into):
        for line in lines:
            into.append(line)
            yield line

    @contextlib.contextmanager
    def utf8_text(path):
        with real_text(path) as fh:
            yield tap(fh, read)

    def canonical_block(lines, *args):
        if trace.header is None:
            trace.header = read[:len(read) - len(lines)]
        taken = real_block(lines, *args)
        trace.blocks.append(SimpleNamespace(lines=lines, taken=taken, csv=None))
        return taken

    def strict_rows(lines, *args):
        trace.blocks[-1].csv = []
        return real_strict(tap(lines, trace.blocks[-1].csv), *args)

    def loadtxt(*args, **kwargs):
        trace.loadtxt += 1
        return real_loadtxt(*args, **kwargs)

    with mock.patch.multiple(tableio, _utf8_text=utf8_text, _canonical_block=canonical_block,
                             _strict_rows=strict_rows), \
            mock.patch.object(np, "loadtxt", loadtxt):
        trace.outcome = build_outcome(lambda: read_panel_csv(path))
    if trace.header is None:  # no block was cut
        trace.header = read
    return trace


def row_end(lines, stop):
    """How many of ``lines``, which begin a row, csv reads to finish the first
    row, blank lines not counted, that ends on or past line ``stop``: the
    lines of a declined block of ``stop`` lines and the tail of a row that
    crosses its end. All of them if no such row ends."""
    reader = csv.reader(lines)
    with contextlib.suppress(csv.Error):  # a row csv rejects ends the read
        for row in reader:
            if row and reader.line_num >= stop:
                return reader.line_num
    return len(lines)


def set_field(column, value):
    """Line i's field in ``column`` becomes ``value``, formatted with the old field."""
    def perturb(lines, i):
        fields = lines[i][:-2].split(",")
        fields[column] = value.format(fields[column])
        lines[i] = ",".join(fields) + "\r\n"
    return perturb


def rename_unit(name, every_unit=False):
    """Every line of line i's unit (or of every unit) gets the id ``name(old id)``."""
    def perturb(lines, i):
        old = lines[i].split(",", 1)[0]
        for j in range(1, len(lines)):
            uid, rest = lines[j].split(",", 1)
            if every_unit or uid == old:
                lines[j] = f"{name(uid)},{rest}"
    return perturb


def line_length(length):
    """Line i's id is padded with x until the line, its CRLF included, is ``length`` long."""
    def perturb(lines, i):
        uid, rest = lines[i].split(",", 1)
        lines[i] = f"{uid.ljust(length - 1 - len(rest), 'x')},{rest}"
    return perturb


def insert_line(text):
    def perturb(lines, i):
        lines.insert(i, text)
    return perturb


def line_ends(end, every_line=True, first=0):
    """Line i's CRLF (or that of every line from line ``first`` on) becomes ``end``."""
    def perturb(lines, i):
        for j in range(first, len(lines)) if every_line else [i]:
            lines[j] = lines[j][:-2] + end
    return perturb


def reorder_columns(lines, i):
    """Every line, the header too, with its fields in the order outcome, unit, treated, time."""
    for j, line in enumerate(lines):
        u, t, d, y = line[:-2].split(",")
        lines[j] = f"{y},{u},{d},{t}\r\n"


def edit_header(old, new):
    def perturb(lines, i):
        lines[0] = lines[0].replace(old, new)
    return perturb


def drop_final_terminator(lines, i):
    lines[-1] = lines[-1].rstrip("\r\n")


def invalid_utf8(lines, i):
    lines[i] = lines[i][:1] + "\udcff" + lines[i][1:]  # written as the byte 0xff


TIME, FLAG, OUTCOME = (PANEL_COLUMNS.index(c) for c in ("time", "treated", "outcome"))
# What the canonical path does with the blocks the perturbation reaches:
# declines none of them, declines them on their bytes and lines before
# loadtxt parses them, declines one after loadtxt, or (None) one of these
# depending on the line drawn. A perturbed header reaches csv alone, and
# bytes that are not UTF-8 no parser, so neither declines a block.
READ, UNPARSED, PARSED = "read", "declined unparsed", "declined parsed"
# (name, perturbation, what the canonical path does)
PERTURBATIONS = [
    ("none", lambda lines, i: None, READ),
    ("columns in another order", reorder_columns, READ),
    ("quoted column name", edit_header("time", '"time"'), READ),
    ("unknown column name", edit_header("time", "period"), READ),
    ("quoted id", rename_unit('"{}"'.format), UNPARSED),
    ("quoted id holding a line break", rename_unit('"{}\r\nx"'.format), UNPARSED),
    ("quoted id on one line", set_field(0, '"{}"'), UNPARSED),
    ("space before id", set_field(0, " {}"), UNPARSED),
    ("space after time", set_field(TIME, "{} "), UNPARSED),
    ("space before flag", set_field(FLAG, " {}"), UNPARSED),
    ("space after outcome", set_field(OUTCOME, "{} "), UNPARSED),
    ("time +t", set_field(TIME, "+{}"), None),
    ("time 0t", set_field(TIME, "0{}"), None),
    ("time t.0", set_field(TIME, "{}.0"), PARSED),
    ("time 1_0", set_field(TIME, "1_0"), PARSED),
    ("time arabic-indic 3", set_field(TIME, "٣"), UNPARSED),
    ("time beyond int64", set_field(TIME, str(2**63)), PARSED),
    ("time under int64", set_field(TIME, str(-(2**63) - 1)), PARSED),
    ("time past int()'s digit limit", set_field(TIME, "0" * 5000 + "{}"), UNPARSED),
    ("flag 01", set_field(FLAG, "0{}"), PARSED),
    ("flag empty quoted", set_field(FLAG, '""'), UNPARSED),
    ("flag 2", set_field(FLAG, "2"), PARSED),
    ("outcome 1e999", set_field(OUTCOME, "1e999"), READ),
    ("outcome nan", set_field(OUTCOME, "nan"), READ),
    ("outcome infinity", set_field(OUTCOME, "infinity"), READ),
    ("outcome 1_0.5", set_field(OUTCOME, "1_0.5"), PARSED),
    ("outcome empty", set_field(OUTCOME, ""), PARSED),
    ("outcome past csv's field limit", set_field(OUTCOME, "0." + "0" * 131072 + "1"), UNPARSED),
    ("extra field", set_field(OUTCOME, "{},1"), PARSED),
    ("missing field", set_field(OUTCOME, "{}\r\nx"), PARSED),
    ("id of 31 chars", rename_unit("{}".ljust(31, "x").format), READ),
    ("id of 32 chars", rename_unit("{}".ljust(32, "x").format), READ),
    ("id of 40 chars", rename_unit("{}".ljust(40, "x").format), READ),
    ("ids equal in their first 32 chars", rename_unit(("x" * 32 + "{}").format, every_unit=True),
     READ),
    ("id of 40 chars on one line", set_field(0, "x" * 40), READ),
    ("36-char UUID ids",
     rename_unit(lambda uid: str(uuid.uuid5(uuid.NAMESPACE_OID, uid)), every_unit=True), READ),
    ("line of 128 chars", line_length(tableio._CANONICAL_CHARS), READ),
    ("line of 129 chars", line_length(tableio._CANONICAL_CHARS + 1), UNPARSED),
    ("blank line", insert_line("\r\n"), UNPARSED),
    ("whitespace-only line", insert_line(" \r\n"), UNPARSED),
    ("LF line ends", line_ends("\n"), READ),
    ("CRLF header, LF body", line_ends("\n", first=1), READ),
    ("CR line ends", line_ends("\r"), UNPARSED),
    ("one LF line end", line_ends("\n", every_line=False), READ),
    ("lone CR inside a line", set_field(FLAG, "\r{}"), UNPARSED),
    ("no final terminator", drop_final_terminator, UNPARSED),
    ("LF line ends, no final terminator",
     lambda lines, i: (line_ends("\n")(lines, i), drop_final_terminator(lines, i)), UNPARSED),
    ("invalid UTF-8", invalid_utf8, READ),
]


def write_perturbed_panel(path, perturb, rng):
    """A fuzz panel as write_panel_csv writes it, with ``perturb`` applied to
    its lines at a random body line."""
    write_panel_csv(make_fuzz_panel(rng), path)
    lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    perturb(lines, int(rng.integers(1, len(lines))))
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(PERTURBATIONS),
       block=st.sampled_from([1, 2, 7, 40, tableio._CANONICAL_LINES]))
@example(seed=0, kind=PERTURBATIONS[0], block=tableio._CANONICAL_LINES)
@settings(max_examples=300, deadline=None)
def test_canonical_path_matches_the_strict_loop(tmp_path_factory, seed, kind, block):
    _, perturb, taken = kind
    path = tmp_path_factory.mktemp("canonical") / "p.csv"
    write_perturbed_panel(path, perturb, np.random.default_rng(seed))
    with mock.patch.object(tableio, "_CANONICAL_LINES", block):  # a fault in a later block
        trace = traced_read(path)
    assert trace.outcome == build_outcome(lambda: strict_read(path))
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    lines = io.StringIO(text, newline="").readlines()
    assert_each_line_read_once(trace, lines)
    if taken is not None:
        # only what the canonical path declines reaches a csv row ...
        assert all(b.taken for b in trace.blocks) == (taken == READ)
        # ... and a block declined on its bytes and lines never reaches loadtxt
        taken_blocks = sum(b.taken for b in trace.blocks)
        assert trace.loadtxt - taken_blocks == (taken == PARSED)


def assert_each_line_read_once(trace, lines):
    """csv reads the header; each block the canonical path declines, and at
    most the tail of a row that crosses its end, goes to csv; every other
    block to loadtxt; and so each physical line of ``lines`` reaches one
    parser, in order (all of them when a panel comes back)."""
    assert trace.header == lines[:1] or not (trace.header or trace.blocks)  # or no line decoded
    read = list(trace.header)
    for k, block in enumerate(trace.blocks):
        assert block.lines == lines[len(read):len(read) + len(block.lines)]
        if block.taken:
            assert block.csv is None
            read += block.lines
            continue
        rows = row_end(lines[len(read):], len(block.lines))
        assert block.csv == lines[len(read):len(read) + len(block.csv)]
        if trace.outcome[0] is PanelDataset or k + 1 < len(trace.blocks):
            assert len(block.csv) == rows
        else:  # a fault may stop csv early
            assert len(block.csv) <= rows
        read += block.csv
    assert read == lines[:len(read)]
    if trace.outcome[0] is PanelDataset:
        assert read == lines


def test_writer_output_takes_the_canonical_path(tmp_path):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    path = tmp_path / "p.csv"
    write_panel_csv(panel, path)
    rng = np.random.default_rng(20260824)
    for k in range(-1, 200):
        if k >= 0:
            panel = make_fuzz_panel(rng)
            path = tmp_path / f"{k}.csv"
            write_panel_csv(panel, path)
        trace = traced_read(path)
        assert trace.outcome == build_outcome(lambda: panel)
        assert all(b.taken for b in trace.blocks)  # no csv row


def test_one_quoted_id_reaches_the_strict_loop(tmp_path):
    path = tmp_path / "p.csv"
    write_panel_csv(panel_from_rows(FOUR_CELL_ROWS), path)
    for end in (b"\r\n", b"\n"):
        text = path.read_bytes().replace(b"\r\n", end)
        assert text.count(end + b"b,") == 4
        quoted = text.replace(end + b"b,", end + b'"b",', 1)
        (tmp_path / "quoted.csv").write_bytes(quoted)
        trace = traced_read(tmp_path / "quoted.csv")
        assert trace.outcome == build_outcome(lambda: panel_from_rows(FOUR_CELL_ROWS))
        # the one block is declined before loadtxt, and csv reads all of it
        assert ([b.taken for b in trace.blocks], trace.loadtxt) == ([False], 0)
        assert "".join(trace.blocks[0].csv).encode() == quoted.split(end, 1)[1]


def test_a_quoted_id_sends_only_its_block_to_csv(tmp_path):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    path = tmp_path / "p.csv"
    write_panel_csv(panel, path)
    uid = panel.unit_ids[0]
    path.write_bytes(path.read_bytes().replace(f"\r\n{uid},".encode(), f'\r\n"{uid}",'.encode(), 1))
    trace = traced_read(path)
    assert trace.outcome == build_outcome(lambda: panel)
    # csv reads the first block, the one holding line 2, and loadtxt the other 15
    assert [b.taken for b in trace.blocks] == [False] + [True] * 15
    assert trace.blocks[0].csv == trace.blocks[0].lines
    assert trace.loadtxt == 15


def truncating_loadtxt(lines, dtype, **kwargs):
    """np.loadtxt as numpy releases that still carry the deprecation run it:
    an integer field such as ``3.5`` is read through a float, truncated,
    and only warned about."""
    dtype = np.dtype(dtype)
    try:
        return REAL_LOADTXT(lines, dtype=dtype, **kwargs)
    except ValueError:
        as_float = np.dtype([(n, "f8" if n == "time" else dtype[n]) for n in dtype.names])
        block = REAL_LOADTXT(lines, dtype=as_float, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return block.astype(dtype)


REAL_LOADTXT = np.loadtxt


@pytest.mark.parametrize("time", ["3.5", "1e3", "3.0"])
def test_an_integer_read_through_a_float_reaches_the_strict_loop(tmp_path, monkeypatch, time):
    path = tmp_path / "p.csv"
    path.write_bytes(f"unit,time,treated,outcome\r\na,-1,1,1.0\r\na,{time},1,2.0\r\n"
                     "b,-1,0,1.0\r\nb,0,0,2.0\r\n".encode())
    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with warnings.catch_warnings():
        warnings.resetwarnings()  # the default filters: a DeprecationWarning does not raise
        trace = traced_read(path)
    # loadtxt parsed the one block and it was declined
    assert (trace.loadtxt, [b.taken for b in trace.blocks]) == (1, [False])
    assert trace.outcome == (NonIntegerTime, f"line 3: time '{time}'")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
def test_a_pipe_is_read_once(tmp_path):
    panel = panel_from_rows(FOUR_CELL_ROWS)
    write_panel_csv(panel, tmp_path / "p.csv")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    # a reader that opened the pipe a second time would wait for a writer forever
    reader = threading.Thread(target=lambda: read.append(traced_read(pipe)), daemon=True)
    reader.start()
    pipe.write_bytes((tmp_path / "p.csv").read_bytes())
    reader.join(timeout=30)
    assert [trace.outcome for trace in read] == [build_outcome(lambda: panel)]
    assert all(b.taken for b in read[0].blocks)  # a canonical pipe reaches no csv row

