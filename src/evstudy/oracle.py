"""Analytic population coefficient curves and a brute-force sample oracle.

``population_curve`` gives each estimator's probability limit under the
linear-trend-violation DGP (treated trend gamma per period, no effects) as
one ``{r: value}`` dict, which leaves out the categories the estimator
omits, as its coefficients do.
``brute_force_did`` recomputes any single coefficient from plain sums over
the panel's outcomes, with no code shared with the estimators module and no
numpy, so the two can falsify each other in tests. It makes one pass over a
panel's units, reading each unit's outcomes as one list and adding it into
its group's per-period totals and pre-period mean, and answers each
coefficient by lookup; the pass of the last panel asked about is cached,
keyed on that object's identity through a weak reference. Every sum adds in
the order of a literal row-by-row scan, so every value is bit-identical to
one, in O(T) memory beside the panel.
"""

from __future__ import annotations

import weakref
from operator import add
from typing import TYPE_CHECKING

from .spec import TimeOutOfRange

if TYPE_CHECKING:
    from .panel import PanelDataset


def population_curve(tag: str, gamma: float, t_min: int, t_max: int, n_pool: int = 1) -> dict[int, float]:
    """Population value beta_r of estimator ``tag`` at each relative time r it does not omit.

    r runs over t_min - 1 .. t_max - 1. ``n_pool`` is the number of earliest
    periods pooled into the BJS pre baseline (``estimate --bjs-pre``), each
    omitted; the other estimators ignore it.
    """
    rs = range(t_min - 1, t_max)
    if tag in ("twfe", "cs_dcdh_universal"):  # gamma*(r+1): a straight line through (-1, 0)
        return {r: gamma * (r + 1) for r in rs if r != -1}
    if tag == "cs_dcdh_default":  # gamma pre, gamma*(r+1) post: a kink at 0
        return {r: gamma if r < 0 else gamma * (r + 1) for r in rs if r != t_min - 1}
    if tag == "bjs":  # gamma*(r+1-t_min-(n_pool-1)/2) pre, gamma*(r+1-t_min/2) post: a jump at 0
        return {r: gamma * (r + 1 - t_min - (n_pool - 1) / 2) if r < 0 else gamma * (r + 1 - t_min / 2)
                for r in rs if r >= t_min - 1 + n_pool}
    raise ValueError(f"unknown estimator tag {tag!r}")


# (weak reference to the last panel scanned, its ``_scan`` result)
_last_scan = None


def _scan(panel: PanelDataset):
    """``_tally(panel)``, cached for the last panel asked about.

    The cache is keyed on the panel's identity through a weak reference:
    panels are immutable, and a dead reference never matches.
    """
    global _last_scan
    last = _last_scan
    if last is not None and last[0]() is panel:
        return last[1]
    scan = _tally(panel)
    _last_scan = (weakref.ref(panel), scan)
    return scan


def _tally(panel: PanelDataset):
    """(times, totals, units, pre) of ``panel`` from one pass over its units.

    ``totals[d]`` lists group d's outcome total at each period and
    ``units[d]`` counts its units, which is each period's count in a
    balanced panel; ``pre[d]`` is the total of group d's unit means over
    t <= 0. Each unit's outcomes are read as one list, and sums are divided
    at lookup, so an empty group raises as a per-call scan would. Every sum
    starts from 0.0 and adds one value at a time in unit-major, then time,
    order, the order of a literal per-cell scan over the rows, so every value
    is bit-identical to it.
    """
    times = range(panel.t_min, panel.t_max + 1)
    n_pre = 1 - panel.t_min  # periods t_min .. 0
    totals = [[0.0] * len(times), [0.0] * len(times)]
    units = [0, 0]
    pre = [0.0, 0.0]
    for d, row in zip(panel.treated.tolist(), panel.outcomes):
        ys = row.tolist()
        totals[d] = list(map(add, totals[d], ys))
        units[d] += 1
        unit_sum = 0.0
        for y in ys[:n_pre]:
            unit_sum += y
        pre[d] += unit_sum / n_pre
    return times, totals, units, pre


def brute_force_did(panel: PanelDataset, r_target: int, base_spec) -> float:
    """DiD for relative time ``r_target`` from plain sums over the panel's outcomes.

    ``base_spec`` is one of ``("period", t0)``, ``("pre_mean",)`` or
    ``("prior_period",)``. Deliberately shares no code with the estimators:
    one pass over the units accumulates every (period, group) total and
    every unit's pre-period mean in plain lists, and each call is a lookup.
    Only the last panel's pass is kept (see ``_scan``), so asking for every
    coefficient of one panel passes over its units once.
    """
    times, totals, units, pre = _scan(panel)
    t_hi = r_target + 1
    if t_hi not in times:
        raise TimeOutOfRange(f"period {t_hi} not in panel")

    def mean_at(t, d):
        return totals[d][t - times.start] / units[d]

    kind = base_spec[0]
    if kind in ("period", "prior_period"):
        t0 = base_spec[1] if kind == "period" else r_target
        if t0 not in times:
            raise TimeOutOfRange(f"base period {t0} not in panel")
        base = mean_at(t0, 1) - mean_at(t0, 0)
    elif kind == "pre_mean":
        base = pre[1] / units[1] - pre[0] / units[0]
    else:
        raise ValueError(f"unknown base spec {base_spec!r}")

    return (mean_at(t_hi, 1) - mean_at(t_hi, 0)) - base


def matching_base_spec(tag: str, r: int, t_min: int):
    """Base specification that reproduces estimator ``tag`` at relative time r."""
    if tag in ("twfe", "cs_dcdh_universal"):
        return ("period", 0)
    if tag == "cs_dcdh_default":
        return ("prior_period",) if r < 0 else ("period", 0)
    if tag == "bjs":
        return ("period", t_min) if r < 0 else ("pre_mean",)
    raise ValueError(f"unknown estimator tag {tag!r}")
