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
    """An outcome is NaN or infinite, or a period's group-mean gap overflows."""


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

    @property
    def rel_times(self) -> np.ndarray:
        """All relative times r = t - 1 represented in the panel."""
        return np.arange(self.t_min - 1, self.t_max)

    def period_index(self, t: int) -> int:
        if not (self.t_min <= t <= self.t_max):
            raise TimeOutOfRange(f"period {t} outside [{self.t_min}, {self.t_max}]")
        return t - self.t_min

    def unit_index(self, unit_id: str) -> int:
        return self.unit_ids.index(unit_id)

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
    rows = list(rows)
    if not rows:
        raise UnbalancedPanel("no rows")

    cells: dict[tuple[str, int], float] = {}
    group: dict[str, int] = {}
    order: list[str] = []
    for unit_id, time, treated, outcome in rows:
        uid = str(unit_id)
        t = _as_int_time(time)
        d = int(treated)
        if d not in (0, 1):
            raise InconsistentTreatment(f"unit {uid}: treated={treated!r} not 0/1")
        y = float(outcome)
        if not np.isfinite(y):
            raise NonFiniteOutcome(f"unit {uid}, t={t}: outcome {outcome!r}")
        if uid in group:
            if group[uid] != d:
                raise InconsistentTreatment(f"unit {uid} switches treatment group")
        else:
            group[uid] = d
            order.append(uid)
        key = (uid, t)
        if key in cells:
            raise UnbalancedPanel(f"duplicate cell {key}")
        cells[key] = y

    t_min = min(t for _, t in cells)
    t_max = max(t for _, t in cells)
    times = range(t_min, t_max + 1)
    for uid in order:
        for t in times:
            if (uid, t) not in cells:
                raise UnbalancedPanel(f"missing cell ({uid}, {t})")
    n_periods = t_max - t_min + 1
    if len(cells) != len(order) * n_periods:
        raise UnbalancedPanel("extra cells outside the unit grid")

    treated = np.array([bool(group[uid]) for uid in order])
    if treated.all() or not treated.any():
        raise DegenerateGroups("need at least one treated and one untreated unit")
    if t_min > -1 or t_max < 1:
        raise InsufficientPeriods(
            f"time range [{t_min}, {t_max}] must cover t <= -1 and t >= 1"
        )

    outcomes = np.empty((len(order), n_periods))
    for i, uid in enumerate(order):
        for j, t in enumerate(times):
            outcomes[i, j] = cells[(uid, t)]
    with np.errstate(over="ignore", invalid="ignore"):
        gap = outcomes[treated].mean(axis=0) - outcomes[~treated].mean(axis=0)
    overflow = np.flatnonzero(~np.isfinite(gap))
    if overflow.size:
        t = t_min + int(overflow[0])
        raise NonFiniteOutcome(f"period {t}: the treated-minus-control mean gap is not finite")

    return PanelDataset(
        unit_ids=tuple(order),
        treated=treated,
        t_min=t_min,
        t_max=t_max,
        outcomes=outcomes,
    )


def group_mean(panel: PanelDataset, t: int, d: int) -> float:
    """Sample mean of outcomes over units in group d at period t."""
    j = panel.period_index(t)
    mask = panel.treated if d else ~panel.treated
    return float(panel.outcomes[mask, j].mean())
