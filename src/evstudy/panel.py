"""Balanced panel data model shared by all estimators.

Conventions: treatment starts at period t = 1 for treated units; periods run
over the inclusive integer range [t_min, t_max] with t_min <= -1 and
t_max >= 1. Relative time is r = t - 1, so r < 0 is pre-treatment and
r >= 0 is post-treatment.

``panel_from_columns`` is the one place rows become a ``PanelDataset``:
``validate_panel`` (rows as tuples) and ``tableio.read_panel_csv`` (rows
as typed columns) both code their units to first-seen integers and call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The error family lives in spec, which the CLI imports without numpy.
from .spec import (
    DegenerateGroups,
    InconsistentTreatment,
    InsufficientPeriods,
    NonFiniteOutcome,
    NonIntegerTime,
    PanelError,
    TimeOutOfRange,
    UnbalancedPanel,
)

# The common treatment date: treated units are treated from t = 1 on.
TREATMENT_DATE = 1
# Rows scattered into the outcome matrix per step, so the cell indices stay small.
_SCATTER_ROWS = 1 << 16


@dataclass(frozen=True)
class PanelDataset:
    """Validated balanced panel with a common treatment date.

    ``outcomes[i, j]`` is the outcome of unit ``unit_ids[i]`` at period
    ``t_min + j``. Arrays are frozen (non-writeable) after construction, so
    instances are safe to share across threads.
    """

    unit_ids: tuple[str, ...]
    treated: np.ndarray  # bool, shape (n_units,)
    t_min: int
    t_max: int
    outcomes: np.ndarray  # float64, shape (n_units, n_periods)

    def __post_init__(self):
        self.treated.setflags(write=False)
        self.outcomes.setflags(write=False)

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_periods(self) -> int:
        return self.t_max - self.t_min + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.t_min, self.t_max + 1)

    def period_index(self, t: int) -> int:
        if not (self.t_min <= t <= self.t_max):
            raise TimeOutOfRange(f"period {t} outside [{self.t_min}, {self.t_max}]")
        return t - self.t_min

    def to_rows(self) -> list[tuple[str, int, int, float]]:
        """Emit (unit_id, time, treated, outcome) rows in unit-major order."""
        times = range(self.t_min, self.t_max + 1)
        return [
            (uid, t, d, y)
            for uid, d, ys in zip(self.unit_ids, self.treated.astype(int).tolist(), self.outcomes.tolist())
            for t, y in zip(times, ys)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (
            self.unit_ids == other.unit_ids
            and self.t_min == other.t_min
            and self.t_max == other.t_max
            and np.array_equal(self.treated, other.treated)
            and np.array_equal(self.outcomes, other.outcomes)
        )


def _as_int_time(value) -> int:
    if isinstance(value, bool):
        raise NonIntegerTime(f"time {value!r} is not an integer")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise NonIntegerTime(f"time {value!r} is not an integer")


def validate_panel(rows) -> PanelDataset:
    """Validate (unit_id, time, treated, outcome) rows into a PanelDataset.

    The time grid is the full integer range between the observed min and max
    time; any gap or duplicate is an error. Idempotent: validating the rows
    of an emitted dataset reproduces it exactly.
    """
    units, times, treated, outcomes = [], [], [], []
    for unit_id, time, d, y in rows:
        units.append(str(unit_id))
        times.append(_as_int_time(time))
        # ``in`` compares by value, so True, numpy ints and 1.0 pass; 0.5, nan and '1' do not.
        if d not in (0, 1):
            raise InconsistentTreatment(f"unit {units[-1]}: treated={d!r} not 0/1")
        treated.append(int(d))
        outcomes.append(float(y))
    codes: dict[str, int] = {}
    unit_codes = _code_units(codes, units)
    return panel_from_columns(list(codes), unit_codes, times, treated, outcomes)


def _code_units(codes: dict[str, int], units) -> list[int]:
    """The code of each of ``units``; ids not yet in ``codes`` get the next
    codes in first-seen order, so ``list(codes)`` names the codes in order."""
    for unit in dict.fromkeys(units):
        codes.setdefault(unit, len(codes))
    return list(map(codes.__getitem__, units))


def check_outcome_bound(outcomes: np.ndarray, t_min: int) -> None:
    """Raise NonFiniteOutcome unless max(n, 2 * T, 4) * max|y_t| is finite in every period.

    With M = max|y|: a group sum or a count-weighted bootstrap sum is at most
    n * M, a gap difference across periods 4 * M, a BJS base sum 2 * T * M.
    """
    n, n_periods = outcomes.shape
    factor = max(n, 2 * n_periods, 4)
    with np.errstate(over="ignore"):
        # max|y| per period without an (n, T) temporary
        bound = factor * np.maximum(outcomes.max(axis=0), -outcomes.min(axis=0))
    bad = np.flatnonzero(~np.isfinite(bound))
    if bad.size:
        raise NonFiniteOutcome(
            f"period {t_min + int(bad[0])}: {factor} * max|outcome| overflows"
            f" (the factor is max(units, 2 * periods, 4))"
        )


def panel_from_columns(names, units, times, treated, outcomes) -> PanelDataset:
    """Check row-aligned columns and gather them into a PanelDataset.

    Row r is unit ``names[units[r]]`` at time ``times[r]``, with treatment
    flag ``treated[r]`` (0/1) and outcome ``outcomes[r]``; unit codes number
    the units in first-seen order. The columns may be lists or the typed
    ``array('q')``, ``bytearray`` and ``array('d')`` the CSV reader fills,
    which are read without a copy. Rows as many as the cells are scattered
    into the outcome matrix by their cell index, so nothing sized by the
    time range is allocated unless the rows fill it; only a panel with a
    missing or repeated cell is sorted, to name the first one.
    """
    if not len(units):
        raise UnbalancedPanel("no rows")
    y = np.asarray(outcomes, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        r = bad[0]
        raise NonFiniteOutcome(f"unit {names[units[r]]}, t={times[r]}: outcome {outcomes[r]!r}")
    u = np.asarray(units, dtype=np.int64)
    n = len(names)
    # Codes are first-seen, so unit i's first row is where the running maximum reaches i.
    first = np.searchsorted(np.maximum.accumulate(u), np.arange(n))
    d = np.asarray(treated, dtype=bool)
    bad = np.flatnonzero(d != d[first][u])
    if bad.size:
        raise InconsistentTreatment(f"unit {names[u[bad[0]]]} switches treatment group")
    try:
        t = np.asarray(times, dtype=np.int64)
    except OverflowError:  # a time beyond int64: the grid cannot be complete
        t = np.array(times, dtype=object)
    t_min, t_max = int(t.min()), int(t.max())
    n_periods = t_max - t_min + 1
    # Rows as many as cells fill the grid unless a cell repeats and leaves a hole.
    if len(u) != n * n_periods:
        raise _grid_fault(names, u, t, times, t_min, n_periods)
    grid = np.full((n, n_periods), np.nan)
    cells = grid.ravel()
    for lo in range(0, len(u), _SCATTER_ROWS):
        rows = slice(lo, lo + _SCATTER_ROWS)
        cells[t[rows] - t_min + u[rows] * n_periods] = y[rows]
    if np.isnan(grid).any():
        raise _grid_fault(names, u, t, times, t_min, n_periods)

    is_treated = d[first]
    if is_treated.all() or not is_treated.any():
        raise DegenerateGroups("need at least one treated and one untreated unit")
    if t_min > -1 or t_max < 1:
        raise InsufficientPeriods(
            f"time range [{t_min}, {t_max}] must cover t <= -1 and t >= 1"
        )
    check_outcome_bound(grid, t_min)
    return PanelDataset(
        unit_ids=tuple(names),
        treated=is_treated,
        t_min=t_min,
        t_max=t_max,
        outcomes=grid,
    )


def _grid_fault(names, u, t, times, t_min, n_periods) -> UnbalancedPanel:
    """The first repeated cell in row order, else the first missing cell in unit order."""
    # Rows by (unit, time), ties in row order: a repeat follows its first copy.
    order = np.lexsort((t, u))
    u_s, t_s = u[order], t[order]
    bad = order[1:][(u_s[1:] == u_s[:-1]) & (t_s[1:] == t_s[:-1])]
    if bad.size:
        r = bad.min()
        return UnbalancedPanel(f"duplicate cell {(names[u[r]], times[r])}")
    # A unit's k-th row is in place if its time is t_min + k; those rows are a prefix.
    k = np.arange(len(order)) - np.searchsorted(u_s, u_s)
    filled = np.bincount(u_s[t_s - t_min == k], minlength=len(names))
    i = int(np.flatnonzero(filled < n_periods)[0])
    return UnbalancedPanel(f"missing cell ({names[i]}, {t_min + int(filled[i])})")
