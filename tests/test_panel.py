import csv
import re
import tracemalloc
from pathlib import Path
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
    validate_panel,
)
from evstudy import tableio
from evstudy.cli import main
from evstudy.panel import InsufficientPeriods, NonFiniteOutcome
from evstudy.spec import CsvFormatError
from evstudy.tableio import PANEL_COLUMNS, read_panel_csv, write_panel_csv

from conftest import FOUR_CELL_ROWS
from helpers import make_fuzz_panel


def grid_rows(units, times):
    return [(u, t, d, y) for (u, d, y) in units for t in times]


def test_minimal_complete_grid():
    rows = [("a", t, 1, float(t)) for t in (-1, 0, 1)] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ]
    panel = validate_panel(rows)
    assert panel.n_units == 2
    assert (panel.t_min, panel.t_max) == (-1, 1)


def test_missing_cell_rejected():
    rows = [("a", t, 1, 0.0) for t in (-1, 0, 1)] + [("b", -1, 0, 0.0), ("b", 1, 0, 0.0)]
    with pytest.raises(UnbalancedPanel):
        validate_panel(rows)


def test_duplicate_cell_rejected():
    rows = [("a", t, 1, 0.0) for t in (-1, 0, 1)] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ] + [("a", 0, 1, 5.0)]
    with pytest.raises(UnbalancedPanel):
        validate_panel(rows)


def test_all_treated_rejected():
    rows = [(u, t, 1, 0.0) for u in "ab" for t in (-1, 0, 1)]
    with pytest.raises(DegenerateGroups):
        validate_panel(rows)


@pytest.mark.parametrize("flag", [0.5, 1.7, float("nan"), "x", "1", 2])
def test_treatment_flag_not_0_or_1_rejected(flag):
    rows = [("a", t, flag, 0.0) for t in (-1, 0, 1)] + [("b", t, 0, 0.0) for t in (-1, 0, 1)]
    with pytest.raises(InconsistentTreatment, match=r"^unit a: treated="):
        validate_panel(rows)


@pytest.mark.parametrize("treated, control", [(True, False), (np.int64(1), np.int8(0)),
                                              (1.0, 0.0), (np.float64(1.0), -0.0)])
def test_treatment_flags_equal_to_0_or_1_accepted(treated, control):
    rows = [("a", t, treated, 0.0) for t in (-1, 0, 1)] + [("b", t, control, 0.0) for t in (-1, 0, 1)]
    assert validate_panel(rows).treated.tolist() == [True, False]


def test_switching_treatment_rejected():
    rows = [("a", -1, 1, 0.0), ("a", 0, 0, 0.0), ("a", 1, 1, 0.0)] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ]
    with pytest.raises(InconsistentTreatment):
        validate_panel(rows)


def test_non_integer_time_rejected():
    rows = [("a", -1, 1, 0.0), ("a", 0.5, 1, 0.0)]
    with pytest.raises(NonIntegerTime):
        validate_panel(rows)


def test_non_finite_outcome_rejected():
    rows = [("a", t, 1, 0.0) for t in (-1, 0)] + [("a", 1, 1, float("nan"))] + [
        ("b", t, 0, 0.0) for t in (-1, 0, 1)
    ]
    with pytest.raises(NonFiniteOutcome):
        validate_panel(rows)


def test_missing_post_period_rejected():
    rows = [(u, t, d, 0.0) for (u, d) in (("a", 1), ("b", 0)) for t in (-2, -1, 0)]
    with pytest.raises(InsufficientPeriods):
        validate_panel(rows)


def test_empty_rejected():
    with pytest.raises(UnbalancedPanel):
        validate_panel([])


def test_validate_idempotent(four_cell):
    again = validate_panel(four_cell.to_rows())
    assert again == four_cell


def test_outcomes_frozen(four_cell):
    with pytest.raises(ValueError):
        four_cell.outcomes[0, 0] = 99.0


def test_group_mean_two_points():
    rows = [("a", -1, 1, 0.0), ("a", 0, 1, 1.0), ("a", 1, 1, 0.0),
            ("c", -1, 1, 0.0), ("c", 0, 1, 3.0), ("c", 1, 1, 0.0),
            ("b", -1, 0, 0.0), ("b", 0, 0, 0.0), ("b", 1, 0, 0.0)]
    panel = validate_panel(rows)
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
    panel = validate_panel(rows)
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
    base = validate_panel(FOUR_CELL_ROWS)
    shifted = validate_panel([(u, t, d, y + shift) for u, t, d, y in FOUR_CELL_ROWS])
    assert shifted.unit_ids == base.unit_ids
    np.testing.assert_array_equal(shifted.treated, base.treated)
    np.testing.assert_allclose(shifted.outcomes, base.outcomes + shift, rtol=0, atol=1e-9)


# --- the typed-column pass, through validate_panel and the CSV reader -----


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
    assert read_panel_csv(path) == panel


@fuzz_cases
def test_to_rows_is_one_python_row_per_cell(seed, max_units, max_abs_t):
    panel = make_fuzz_panel(np.random.default_rng(seed), max_units, max_abs_t)
    expected = [(uid, t, int(panel.treated[i]), float(panel.outcomes[i, j]))
                for i, uid in enumerate(panel.unit_ids) for j, t in enumerate(panel.times.tolist())]
    rows = panel.to_rows()
    assert rows == expected
    assert all(type(t) is int and type(d) is int and type(y) is float for _, t, d, y in rows)


@fuzz_cases
def test_shuffled_rows_keep_first_seen_unit_order(seed, max_units, max_abs_t):
    rng = np.random.default_rng(seed)
    panel = make_fuzz_panel(rng, max_units, max_abs_t)
    rows = panel.to_rows()
    rows = [rows[i] for i in rng.permutation(len(rows))]
    seen = []
    for unit_id, *_ in rows:
        if unit_id not in seen:
            seen.append(unit_id)
    again = validate_panel(rows)
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
    rows = make_fuzz_panel(rng, max_units, max_abs_t).to_rows()
    path = tmp_path_factory.mktemp("faults") / "p.csv"
    for error, faulty in single_faults(rows, int(rng.integers(len(rows)))):
        with pytest.raises(error):
            validate_panel(faulty)
        write_rows_csv(faulty, path)
        with pytest.raises(error):
            read_panel_csv(path)


@fuzz_cases
def test_first_missing_and_duplicate_cell_match_a_loop(seed, max_units, max_abs_t):
    rng = np.random.default_rng(seed)
    rows = make_fuzz_panel(rng, max_units, max_abs_t).to_rows()
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
            validate_panel(kept)

    for i in rng.integers(len(rows), size=3).tolist():
        rows.insert(int(rng.integers(len(rows) + 1)), rows[i])
    seen = set()
    repeat = next((u, t) for u, t, _, _ in rows if (u, t) in seen or seen.add((u, t)))
    with pytest.raises(UnbalancedPanel, match=re.escape(f"duplicate cell {repeat}")):
        validate_panel(rows)


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
    missing = "(a, 2)" if far > 0 else f"(a, {far + 1})"
    assert f"missing cell {missing}" in capsys.readouterr().err
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
    assert again == panel
    # 15.0 MiB measured (typed columns 6.5 MB, one block of row objects, the
    # outcome matrix), plus a third for other Python builds.
    assert peak < 20 * 2**20


# --- the streamed writer and the block reader ------------------------------


def reference_write_panel_csv(panel, path):
    """The panel writer as it was before it streamed: csv.writer over to_rows()."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PANEL_COLUMNS)
        w.writerows((uid, t, d, repr(y)) for uid, t, d, y in panel.to_rows())


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


@given(panel=quoting_panels(), seed=st.integers(0, 2**32), block=st.integers(1, 40))
@example(panel=ONE_PLUS_ONE, seed=0, block=1)
@settings(max_examples=60, deadline=None)
def test_reader_matches_validate_panel_on_shuffled_rows(tmp_path_factory, panel, seed, block):
    rows = panel.to_rows()
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    path = tmp_path_factory.mktemp("reader") / "p.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([PANEL_COLUMNS, *((u, t, d, repr(y)) for u, t, d, y in rows)])
    with mock.patch.object(tableio, "_BLOCK_ROWS", block):
        again = read_panel_csv(path)
    assert again == validate_panel(rows)


@pytest.mark.parametrize("block", [tableio._BLOCK_ROWS, 5])
def test_reader_returns_the_200_fuzz_panels(tmp_path, block):
    rng = np.random.default_rng(20260824)
    with mock.patch.object(tableio, "_BLOCK_ROWS", block):
        for k in range(200):
            panel = make_fuzz_panel(rng)
            write_panel_csv(panel, tmp_path / f"{k}.csv")
            assert read_panel_csv(tmp_path / f"{k}.csv") == panel


def test_reader_returns_the_golden_panel():
    golden = Path(__file__).parent / "golden" / "panel_small.csv"
    config = DgpConfig(n_treated=3, n_control=2, t_min=-3, t_max=2, seed=11)
    assert read_panel_csv(golden) == simulate(config)


def test_write_10k_units_bounded_memory(tmp_path):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    tracemalloc.start()
    try:
        write_panel_csv(panel, tmp_path / "new.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8.1 MiB measured, one block of lines; to_rows() and csv.writer took 31.9 MiB.
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
    # A two-line unit id and a blank line in the first block put each later
    # row 27 physical lines below its row number.
    ids = ["two\nlines"] + [f"u{i}" for i in range(2999)]
    rows = [[uid, str(t), str(int(i < 1500)), "0.25"]
            for i, uid in enumerate(ids) for t in range(-15, 11)]
    fault = tableio._BLOCK_ROWS + 1000
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
    rows = rows[:2] + [("a", far, 1, 0.0)] + rows[2:]  # more blocks follow the far time
    missing = "(a, 2)" if far > 0 else f"(a, {far + 1})"
    with pytest.raises(UnbalancedPanel, match=re.escape(f"missing cell {missing}")):
        validate_panel(rows)
    write_rows_csv(rows, tmp_path / "far.csv")
    with mock.patch.object(tableio, "_BLOCK_ROWS", 2):
        with pytest.raises(UnbalancedPanel, match=re.escape(f"missing cell {missing}")):
            read_panel_csv(tmp_path / "far.csv")
