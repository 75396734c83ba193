"""The baseline transform and per-panel coefficients.

``baseline_coefs`` is the one place the four baseline rules are written: it
maps group gaps of any leading shape to every estimator's coefficients.
``coef_matrix`` applies it to one panel's gap; the bootstrap applies it to
its (B, T) replicate gaps and the Monte Carlo to each block of draws' gaps.

Coefficient layout: for a panel over periods [t_min, t_max] with
T = t_max - t_min + 1 periods, kernels return length-T vectors indexed by
j = r - (t_min - 1), i.e. column j holds the coefficient at relative time
r = t_min - 1 + j (period t = r + 1 = t_min + j). Omitted categories are NaN.
"""

from __future__ import annotations

import numpy as np

# Estimator codes shared with the estimators module.
TWFE = 0
CS_DEFAULT = 1
CS_UNIVERSAL = 2
BJS = 3


def baseline_coefs(g: np.ndarray, j0: int, n_pre: int | None = None) -> np.ndarray:
    """All four estimators' coefficients from group gaps ``g`` of shape (..., T).

    Returns shape (4, ..., T), rows ordered (TWFE, CS_DEFAULT, CS_UNIVERSAL,
    BJS). ``n_pre`` (default ``j0``) is the number of BJS pre coefficients;
    the earlier periods pool into the BJS pre baseline.
    """
    n_pool = 1 if n_pre is None else j0 - n_pre + 1
    out = np.empty((4,) + g.shape)
    out[TWFE] = g - g[..., j0, None]
    out[TWFE, ..., j0] = np.nan
    out[CS_UNIVERSAL] = out[TWFE]
    out[CS_DEFAULT, ..., 0] = np.nan
    out[CS_DEFAULT, ..., 1 : j0 + 1] = g[..., 1 : j0 + 1] - g[..., :j0]
    out[CS_DEFAULT, ..., j0 + 1 :] = out[TWFE, ..., j0 + 1 :]
    # sum / n is mean's own reduction and division, with less call overhead.
    pre_base = g[..., :n_pool].sum(axis=-1, keepdims=True) / n_pool
    post_base = g[..., : j0 + 1].sum(axis=-1, keepdims=True) / (j0 + 1)
    out[BJS, ..., :n_pool] = np.nan
    out[BJS, ..., n_pool : j0 + 1] = g[..., n_pool : j0 + 1] - pre_base
    out[BJS, ..., j0 + 1 :] = g[..., j0 + 1 :] - post_base
    return out


def coef_matrix(y: np.ndarray, treated: np.ndarray, t_min: int, n_pre: int | None = None) -> np.ndarray:
    """All four estimators' coefficient vectors for one panel, shape (4, T).

    Rows are ordered (TWFE, CS_DEFAULT, CS_UNIVERSAL, BJS); ``n_pre`` is as
    in ``baseline_coefs``.
    """
    g = y[treated].mean(axis=0) - y[~treated].mean(axis=0)
    return baseline_coefs(g, -t_min, n_pre)

