"""Hot numeric kernels: the baseline transform, per-panel coefficients, bootstrap.

``baseline_coefs`` is the numpy form of the four baseline rules, applied at
once to group gaps of any leading shape. ``coef_matrix`` has two interchangeable
backends computing identical quantities:

  * ``numba`` -- ``@njit``-compiled loops, used by default when numba imports;
  * ``numpy`` -- ``baseline_coefs``, always available.

Selection is via the ``EVSTUDY_BACKEND`` environment variable (``auto``,
``numba`` or ``numpy``; default ``auto``). ``bootstrap_coefs`` is numpy on
every backend: one count-weighted matrix product per group, then
``baseline_coefs``.

Coefficient layout: for a panel over periods [t_min, t_max] with
T = t_max - t_min + 1 periods, kernels return length-T vectors indexed by
j = r - (t_min - 1), i.e. column j holds the coefficient at relative time
r = t_min - 1 + j (period t = r + 1 = t_min + j). Omitted categories are NaN.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba present in the test env
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


# Estimator codes shared with the estimators module.
TWFE = 0
CS_DEFAULT = 1
CS_UNIVERSAL = 2
BJS = 3

_ENV = "EVSTUDY_BACKEND"


def active_backend() -> str:
    """Resolve the backend in effect: 'numba' or 'numpy'."""
    choice = os.environ.get(_ENV, "auto").lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"{_ENV} must be auto, numba or numpy, got {choice!r}")
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("EVSTUDY_BACKEND=numba but numba is not importable")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numpy backend


def _group_gap_np(y: np.ndarray, treated: np.ndarray) -> np.ndarray:
    return y[treated].mean(axis=0) - y[~treated].mean(axis=0)


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


# ---------------------------------------------------------------------------
# numba backend


@njit(cache=True)
def _group_gap_nb(y, treated):
    n, T = y.shape
    s1 = np.zeros(T)
    s0 = np.zeros(T)
    n1 = 0
    for i in range(n):
        if treated[i]:
            n1 += 1
            for j in range(T):
                s1[j] += y[i, j]
        else:
            for j in range(T):
                s0[j] += y[i, j]
    n0 = n - n1
    return s1 / n1 - s0 / n0


@njit(cache=True)
def _coefs_from_gap_nb(g, j0, code, out):
    T = g.shape[0]
    if code == 0 or code == 2:  # TWFE / CS universal
        for j in range(T):
            out[j] = g[j] - g[j0]
        out[j0] = np.nan
    elif code == 1:  # CS default
        out[0] = np.nan
        for j in range(1, j0 + 1):
            out[j] = g[j] - g[j - 1]
        for j in range(j0 + 1, T):
            out[j] = g[j] - g[j0]
    else:  # BJS
        out[0] = np.nan
        for j in range(1, j0 + 1):
            out[j] = g[j] - g[0]
        pre = 0.0
        for j in range(j0 + 1):
            pre += g[j]
        pre /= j0 + 1
        for j in range(j0 + 1, T):
            out[j] = g[j] - pre


@njit(cache=True)
def _coef_matrix_nb(y, treated, j0):
    T = y.shape[1]
    g = _group_gap_nb(y, treated)
    out = np.empty((4, T))
    for code in range(4):
        _coefs_from_gap_nb(g, j0, code, out[code])
    return out


# ---------------------------------------------------------------------------
# dispatchers


def _prep(y, treated):
    y = np.ascontiguousarray(y, dtype=np.float64)
    treated = np.ascontiguousarray(treated, dtype=np.bool_)
    return y, treated


def coef_matrix(y: np.ndarray, treated: np.ndarray, t_min: int) -> np.ndarray:
    """All four estimators' coefficient vectors for one panel, shape (4, T).

    Rows are ordered (TWFE, CS_DEFAULT, CS_UNIVERSAL, BJS).
    """
    y, treated = _prep(y, treated)
    j0 = -t_min
    if active_backend() == "numba":
        return _coef_matrix_nb(y, treated, j0)
    return baseline_coefs(_group_gap_np(y, treated), j0)


def estimator_coefs(y: np.ndarray, treated: np.ndarray, t_min: int, code: int) -> np.ndarray:
    """One estimator's coefficient vector for one panel, shape (T,)."""
    return coef_matrix(y, treated, t_min)[code]


def bootstrap_coefs(y1, y0, c1, c0, t_min: int, n_pre: int | None = None) -> np.ndarray:
    """All four estimators' coefficients for B stratified resamples, shape (4, B, T).

    ``c1``/``c0`` of shape (B, n1)/(B, n0) count how often each treated and
    control unit is drawn in each replicate, so a replicate's group mean is a
    count-weighted sum. ``n_pre`` is as in ``baseline_coefs``.
    """
    y1 = np.asarray(y1, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    g = c1 @ y1 / y1.shape[0] - c0 @ y0 / y0.shape[0]
    return baseline_coefs(g, -t_min, n_pre)
