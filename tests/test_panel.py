import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    DegenerateGroups,
    DgpConfig,
    InconsistentTreatment,
    NonIntegerTime,
    TimeOutOfRange,
    UnbalancedPanel,
    group_mean,
    simulate,
    validate_panel,
)
from evstudy.cli import main
from evstudy.panel import InsufficientPeriods, NonFiniteOutcome
from evstudy.tableio import read_panel_csv, write_panel_csv

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
    assert group_mean(panel, 0, 1) == 2.0


def test_group_mean_single_unit(four_cell):
    assert group_mean(four_cell, 0, 0) == 0.0
    assert group_mean(four_cell, 1, 0) == 1.0


def test_group_mean_fixture_treated_at_1(four_cell):
    assert group_mean(four_cell, 1, 1) == 4.0


def test_group_mean_out_of_range(four_cell):
    with pytest.raises(TimeOutOfRange):
        group_mean(four_cell, 7, 1)


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_group_mean_row_order_invariant(pyrandom):
    rows = list(FOUR_CELL_ROWS)
    pyrandom.shuffle(rows)
    panel = validate_panel(rows)
    assert group_mean(panel, 1, 1) == 4.0
    assert group_mean(panel, -2, 0) == 0.0


@given(st.floats(-1e6, 1e6))
@settings(max_examples=25, deadline=None)
def test_group_mean_shift_equivariant(shift):
    base = validate_panel(FOUR_CELL_ROWS)
    shifted = validate_panel([(u, t, d, y + shift) for u, t, d, y in FOUR_CELL_ROWS])
    for t in range(-2, 2):
        for d in (0, 1):
            assert group_mean(shifted, t, d) == pytest.approx(
                group_mean(base, t, d) + shift, abs=1e-9
            )


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
    assert peak < 56 * 2**20
