"""The baseline transform and per-panel coefficients.

``baseline_coefs`` is the one place the four baseline rules are written: it
maps group gaps of any leading shape to the coefficients of the estimators
named by ``tags``, one row per tag in the order given. ``coef_matrix``
applies it to the gaps of one panel's (n, T) outcomes or of a Monte Carlo
block's (k, n, T); the bootstrap applies it to its (B, T) replicate gaps.

Coefficient layout: for a panel over periods [t_min, t_max] with
T = t_max - t_min + 1 periods, kernels return length-T vectors indexed by
j = r - (t_min - 1), i.e. column j holds the coefficient at relative time
r = t_min - 1 + j (period t = r + 1 = t_min + j). Omitted categories are NaN;
``row_estimate`` is the one place such a row becomes an ``EventStudyEstimate``.
"""

from __future__ import annotations

import numpy as np

from .dgp import _allocate
from .spec import TAGS, EventStudyEstimate, UnknownEstimator


def check_tags(tags) -> None:
    """UnknownEstimator, naming the choices, for the first tag not in ``spec.TAGS``."""
    for tag in tags:
        if tag not in TAGS:
            raise UnknownEstimator(f"unknown estimator {tag!r}; choose from {TAGS}")


def baseline_coefs(g: np.ndarray, j0: int, tags, n_pre: int | None = None) -> np.ndarray:
    """The coefficients of the estimators named by ``tags`` from group gaps ``g`` of shape (..., T).

    Returns shape (len(tags), ..., T), row i for ``tags[i]``, repeats
    included; raises as ``check_tags`` does. ``n_pre`` (default ``j0``) is
    the number of BJS pre coefficients; the earlier periods pool into the
    BJS pre baseline. It needs ``bjs`` among ``tags`` and 1 <= n_pre <= j0,
    else ValueError. Each row is written in place, with no (..., T) temporary.
    """
    check_tags(tags)
    if n_pre is not None and "bjs" not in tags:
        raise ValueError("n_pre applies to the bjs estimator only")
    if n_pre is not None and not 1 <= n_pre <= j0:
        raise ValueError(f"n_pre must be in [1, {j0}], got {n_pre}")
    n_pool = 1 if n_pre is None else j0 - n_pre + 1
    out = _allocate((len(tags),) + g.shape, "coefficient")
    for row, tag in zip(out, tags):
        if tag == "bjs":  # the pooled earliest periods before, the pre mean after
            # sum / n is mean's own reduction and division, with less call overhead.
            pre_base = g[..., :n_pool].sum(axis=-1, keepdims=True) / n_pool
            post_base = g[..., : j0 + 1].sum(axis=-1, keepdims=True) / (j0 + 1)
            row[..., :n_pool] = np.nan
            np.subtract(g[..., n_pool : j0 + 1], pre_base, out=row[..., n_pool : j0 + 1])
            np.subtract(g[..., j0 + 1 :], post_base, out=row[..., j0 + 1 :])
        else:  # period 0 throughout for twfe and cs_dcdh_universal, ...
            np.subtract(g, g[..., j0, None], out=row)
            row[..., j0] = np.nan
            if tag == "cs_dcdh_default":  # ... and after it, short differences before
                row[..., 0] = np.nan
                np.subtract(g[..., 1 : j0 + 1], g[..., :j0], out=row[..., 1 : j0 + 1])
    return out


def coef_matrix(y: np.ndarray, treated: np.ndarray, t_min: int, tags, n_pre: int | None = None) -> np.ndarray:
    """The coefficients of the estimators named by ``tags`` from outcomes ``y`` of shape (..., n, T).

    ``treated`` is the (n,) mask of treated units. Returns shape
    (len(tags), ..., T) as ``baseline_coefs`` does, with its ``n_pre``.
    """
    g = y[..., treated, :].mean(axis=-2) - y[..., ~treated, :].mean(axis=-2)
    return baseline_coefs(g, -t_min, tags, n_pre)


def row_estimate(tag: str, row: np.ndarray, t_min: int, se: np.ndarray | None = None,
                 ci: tuple[np.ndarray, np.ndarray] | None = None) -> EventStudyEstimate:
    """``tag``'s estimate from its (T,) coefficient ``row``, in the layout above.

    The row's non-NaN columns are the coefficients and its NaN columns the
    omitted set; ``se``, a (T,) row too, gives their standard errors and
    ``ci``, a (low, high) pair of (T,) rows, their intervals.
    """
    r0 = t_min - 1
    kept = np.flatnonzero(~np.isnan(row))
    rs = (kept + r0).tolist()
    return EventStudyEstimate(tag, dict(zip(rs, row[kept].tolist())),
                              frozenset(range(r0, r0 + len(row))).difference(rs),
                              None if se is None else dict(zip(rs, se[kept].tolist())),
                              None if ci is None else dict(zip(rs, zip(*(b[kept].tolist() for b in ci)))))
