"""The baseline transform and per-panel coefficients.

``baseline_coefs`` is the one place the four baseline rules are written: it
maps group gaps of any leading shape to every estimator's coefficients, one
row per tag in ``spec.TAGS`` order (``tag_rows``). ``coef_matrix`` applies
it to the gaps of one panel's (n, T) outcomes or of a Monte Carlo block's
(k, n, T); the bootstrap applies it to its (B, T) replicate gaps.

Coefficient layout: for a panel over periods [t_min, t_max] with
T = t_max - t_min + 1 periods, kernels return length-T vectors indexed by
j = r - (t_min - 1), i.e. column j holds the coefficient at relative time
r = t_min - 1 + j (period t = r + 1 = t_min + j). Omitted categories are NaN.
"""

from __future__ import annotations

import numpy as np

from .dgp import _allocate
from .spec import TAGS, UnknownEstimator

# Rows of baseline_coefs' output, in spec.TAGS order.
TWFE, CS_DEFAULT, CS_UNIVERSAL, BJS = range(4)


def tag_rows(tags) -> list[int]:
    """Each tag's row in ``baseline_coefs``' output; UnknownEstimator names the choices."""
    for tag in tags:
        if tag not in TAGS:
            raise UnknownEstimator(f"unknown estimator {tag!r}; choose from {TAGS}")
    return [TAGS.index(tag) for tag in tags]


def baseline_coefs(g: np.ndarray, j0: int, n_pre: int | None = None) -> np.ndarray:
    """All four estimators' coefficients from group gaps ``g`` of shape (..., T).

    Returns shape (4, ..., T), one row per tag of ``spec.TAGS``. ``n_pre``
    (default ``j0``) is the number of BJS pre coefficients; the earlier
    periods pool into the BJS pre baseline.
    """
    n_pool = 1 if n_pre is None else j0 - n_pre + 1
    out = _allocate((4,) + g.shape, "coefficient")
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
    """All four estimators' coefficients from outcomes ``y`` of shape (..., n, T).

    ``treated`` is the (n,) mask of treated units. Returns shape (4, ..., T),
    rows in ``spec.TAGS`` order; ``n_pre`` is as in ``baseline_coefs``.
    """
    g = y[..., treated, :].mean(axis=-2) - y[..., ~treated, :].mean(axis=-2)
    return baseline_coefs(g, -t_min, n_pre)
