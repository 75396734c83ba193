"""Analytic population coefficient curves and a brute-force sample oracle.

The population functions give each estimator's probability limit under the
linear-trend-violation DGP (treated trend gamma per period, no effects).
``brute_force_did`` recomputes any single coefficient from plain sums over
the panel's rows, with no code shared with the estimators module, so the two
can falsify each other in tests. It makes one pass over a panel's rows,
collecting every (period, group) sum and each group's mean of unit
pre-period averages, and answers each coefficient by lookup; the pass of
the last panel asked about is cached, keyed on that object's identity
through a weak reference.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from .spec import TimeOutOfRange

if TYPE_CHECKING:
    from .panel import PanelDataset


class OmittedCategory(ValueError):
    """Requested relative time is a normalized category with no coefficient."""


def population_twfe(gamma: float, r: int) -> float:
    """TWFE limit gamma * (r + 1): a straight line through (-1, 0)."""
    if r == -1:
        raise OmittedCategory("r = -1 is the TWFE omitted category")
    return gamma * (r + 1)


def population_cs_dcdh(gamma: float, r: int, t_min: int | None = None) -> float:
    """CS/dCDH default limit: flat gamma pre, gamma * (r + 1) post (a kink)."""
    if t_min is not None and r == t_min - 1:
        raise OmittedCategory(f"r = {r} is the earliest category, omitted by CS/dCDH")
    return gamma if r < 0 else gamma * (r + 1)


def population_bjs(gamma: float, r: int, t_min: int, n_pool: int = 1) -> float:
    """BJS limit: gamma*(r+1+T) pre, gamma*(r+1+T/2) post, T = -t_min (a jump).

    With the ``n_pool`` earliest periods pooled into the pre baseline
    (``estimate --bjs-pre``), the pre limit is gamma*(r+1-t_min-(n_pool-1)/2)
    and those periods are omitted.
    """
    t_low = -t_min
    if t_min - 1 <= r < t_min - 1 + n_pool:
        raise OmittedCategory(f"r = {r} is among the {n_pool} earliest categories, omitted by BJS")
    if r < 0:
        return gamma * (r + 1 - t_min - (n_pool - 1) / 2)
    return gamma * (r + 1 + t_low / 2)


def population_curve(tag: str, gamma: float, t_min: int, t_max: int, n_pool: int = 1) -> dict[int, float]:
    """Population value beta_r at each non-omitted relative time r of the estimator.

    ``n_pool`` is passed to ``population_bjs``; the other estimators ignore it.
    """
    values: dict[int, float] = {}
    for r in range(t_min - 1, t_max):
        if tag == "twfe" or tag == "cs_dcdh_universal":
            if r != -1:
                values[r] = population_twfe(gamma, r)
        elif tag == "cs_dcdh_default":
            if r != t_min - 1:
                values[r] = population_cs_dcdh(gamma, r, t_min)
        elif tag == "bjs":
            if r >= t_min - 1 + n_pool:
                values[r] = population_bjs(gamma, r, t_min, n_pool)
        else:
            raise ValueError(f"unknown estimator tag {tag!r}")
    return values


# (weak reference to the last panel scanned, its ``_scan`` result)
_last_scan = None


def _scan(panel: PanelDataset):
    """(periods, cells, pre) of ``panel`` from one pass over its rows.

    ``cells`` maps (period, group) to the (total, count) of its outcomes and
    ``pre`` maps each group to the (sum, count) of its units' means over
    t <= 0. Sums are divided at lookup, so an empty group raises as a
    per-call scan would. Rows are added in unit-major order from 0.0, the
    order of a literal per-cell scan, so every value is bit-identical to it.
    The last panel's result is cached, keyed on the panel's identity through
    a weak reference: panels are immutable, and a dead reference never
    matches.
    """
    global _last_scan
    last = _last_scan
    if last is not None and last[0]() is panel:
        return last[1]
    cells: dict[tuple[int, int], list] = {}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    groups: dict[str, int] = {}
    for uid, time, treat, y in panel.to_rows():
        cell = cells.setdefault((time, treat), [0.0, 0])
        cell[0] += y
        cell[1] += 1
        groups[uid] = treat
        if time <= 0:
            # Group means of unit-level averages over t <= 0.
            sums[uid] = sums.get(uid, 0.0) + y
            counts[uid] = counts.get(uid, 0) + 1
    pre = {}
    for d in (0, 1):
        vals = [sums[u] / counts[u] for u in sums if groups[u] == d]
        pre[d] = (sum(vals), len(vals))
    scan = (sorted({t for t, _ in cells}), cells, pre)
    _last_scan = (weakref.ref(panel), scan)
    return scan


def brute_force_did(panel: PanelDataset, r_target: int, base_spec) -> float:
    """DiD for relative time ``r_target`` from plain sums over the panel's rows.

    ``base_spec`` is one of ``("period", t0)``, ``("pre_mean",)`` or
    ``("prior_period",)``. Deliberately shares no code with the estimators:
    one pass over the row list accumulates every (period, group) sum and
    every unit's pre-period sum in plain dicts, and each call is a lookup.
    Only the last panel's pass is kept (see ``_scan``), so asking for every
    coefficient of one panel scans its rows once.
    """
    times, cells, pre = _scan(panel)
    t_hi = r_target + 1
    if t_hi not in times:
        raise TimeOutOfRange(f"period {t_hi} not in panel")

    def mean_at(t, d):
        total, count = cells.get((t, d), (0.0, 0))
        return total / count

    kind = base_spec[0]
    if kind == "period":
        t0 = base_spec[1]
        if t0 not in times:
            raise TimeOutOfRange(f"base period {t0} not in panel")
        base = mean_at(t0, 1) - mean_at(t0, 0)
    elif kind == "prior_period":
        t0 = r_target
        if t0 not in times:
            raise TimeOutOfRange(f"base period {t0} not in panel")
        base = mean_at(t0, 1) - mean_at(t0, 0)
    elif kind == "pre_mean":
        (s1, n1), (s0, n0) = pre[1], pre[0]
        base = s1 / n1 - s0 / n0
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
