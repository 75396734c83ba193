"""Balanced panel data model shared by all estimators.

Conventions: treatment starts at period t = 1 for treated units; periods run
over the inclusive integer range [t_min, t_max] with t_min <= -1 and
t_max >= 1. Relative time is r = t - 1, so r < 0 is pre-treatment and
r >= 0 is post-treatment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PanelError(Exception):
    """Base class for panel validation failures."""


class UnbalancedPanel(PanelError):
    """A (unit, time) cell is missing or duplicated."""


class InconsistentTreatment(PanelError):
    """Treatment indicator varies within a unit, or is not 0/1."""


class DegenerateGroups(PanelError):
    """All units treated, or all units untreated."""


class NonIntegerTime(PanelError):
    """A time value is not an integer."""


class NonFiniteOutcome(PanelError):
    """An outcome is NaN or infinite, or a sum over one period's outcomes overflows."""


class InsufficientPeriods(PanelError):
    """Fewer than two pre-treatment periods or no post-treatment period."""


class TimeOutOfRange(PanelError):
    """Requested period lies outside the panel's time range."""


TREATMENT_DATE = 1


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
    treatment_date: int = TREATMENT_DATE

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
        rows = []
        for i, uid in enumerate(self.unit_ids):
            d = int(self.treated[i])
            for j, t in enumerate(range(self.t_min, self.t_max + 1)):
                rows.append((uid, t, d, float(self.outcomes[i, j])))
        return rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (
            self.unit_ids == other.unit_ids
            and self.t_min == other.t_min
            and self.t_max == other.t_max
            and self.treatment_date == other.treatment_date
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
        if int(d) not in (0, 1):
            raise InconsistentTreatment(f"unit {units[-1]}: treated={d!r} not 0/1")
        treated.append(int(d))
        outcomes.append(float(y))
    return panel_from_columns(units, times, treated, outcomes)


def panel_from_columns(units, times, treated, outcomes) -> PanelDataset:
    """Check row-aligned columns (str ids, int times, 0/1 flags, floats) by index
    arithmetic and gather them into a PanelDataset, units in first-seen order;
    nothing sized by the time range is allocated before the grid is complete."""
    if not units:
        raise UnbalancedPanel("no rows")
    y = np.asarray(outcomes, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        r = bad[0]
        raise NonFiniteOutcome(f"unit {units[r]}, t={times[r]}: outcome {outcomes[r]!r}")
    # u[r] is row r's unit in first-seen order; first[i] is unit i's first row.
    _, first, code = np.unique(np.array(units, dtype=object), return_index=True, return_inverse=True)
    u = np.argsort(np.argsort(first))[code]
    first = np.sort(first)
    n = len(first)
    d = np.asarray(treated, dtype=bool)
    bad = np.flatnonzero(d != d[first][u])
    if bad.size:
        raise InconsistentTreatment(f"unit {units[bad[0]]} switches treatment group")
    t_min, t_max = min(times), max(times)
    n_periods = t_max - t_min + 1
    t = np.array(times, dtype=np.int64 if -(2**63) <= t_min and t_max < 2**63 else object)
    # Rows by (unit, time), ties in row order: a repeat follows its first copy.
    order = np.lexsort((t, u))
    u_s, t_s = u[order], t[order]
    bad = order[1:][(u_s[1:] == u_s[:-1]) & (t_s[1:] == t_s[:-1])]
    if bad.size:
        r = bad.min()
        raise UnbalancedPanel(f"duplicate cell {(units[r], times[r])}")
    # A unit's k-th row is in place if its time is t_min + k; those rows are a prefix.
    k = np.arange(len(order)) - np.searchsorted(u_s, u_s)
    filled = np.bincount(u_s[t_s - t_min == k], minlength=n)
    bad = np.flatnonzero(filled < n_periods)
    if bad.size:
        i = bad[0]
        raise UnbalancedPanel(f"missing cell ({units[first[i]]}, {t_min + int(filled[i])})")

    is_treated = d[first]
    if is_treated.all() or not is_treated.any():
        raise DegenerateGroups("need at least one treated and one untreated unit")
    if t_min > -1 or t_max < 1:
        raise InsufficientPeriods(
            f"time range [{t_min}, {t_max}] must cover t <= -1 and t >= 1"
        )
    outcomes = y[order].reshape(n, n_periods)
    # n * max|y_t| bounds every group sum and every count-weighted bootstrap sum.
    with np.errstate(over="ignore"):
        bound = n * np.abs(outcomes).max(axis=0)
    bad = np.flatnonzero(np.isinf(bound))
    if bad.size:
        raise NonFiniteOutcome(f"period {t_min + int(bad[0])}: a sum over {n} units overflows")

    return PanelDataset(
        unit_ids=tuple(units[r] for r in first.tolist()),
        treated=is_treated,
        t_min=t_min,
        t_max=t_max,
        outcomes=outcomes,
    )


def group_mean(panel: PanelDataset, t: int, d: int) -> float:
    """Sample mean of outcomes over units in group d at period t."""
    j = panel.period_index(t)
    mask = panel.treated if d else ~panel.treated
    return float(panel.outcomes[mask, j].mean())
