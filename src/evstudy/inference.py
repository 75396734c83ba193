"""Unit-level stratified bootstrap standard errors and confidence intervals.

Units are resampled with replacement within their treatment group, so every
replicate keeps the original group sizes and no replicate can lose a group.
Replicate k's treated and control resample indices derive deterministically
from the bootstrap seed via derive_seed(seed, 2k) and derive_seed(seed,
2k + 1); results are therefore reproducible and independent of any
execution schedule. Each replicate is reduced at once to its (T,)
treated-minus-control gap, so the replicates take O(n + B * T) memory; the
(B, T) gaps then go through ``kernels.baseline_coefs`` as a point estimate's
gap does, and one set of replicates serves every estimator of a call.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import NormalDist

import numpy as np

from . import kernels
from .dgp import derive_seed
from .estimators import TAG_CODES, EventStudyEstimate, estimate_many
from .panel import PanelDataset
from .spec import BootstrapConfig


def _resampled_mean(y: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """(T,) mean of the rows of ``y`` drawn with replacement by one index stream."""
    n = y.shape[0]
    idx = np.random.default_rng(derive_seed(seed, stream)).integers(0, n, size=n)
    return np.bincount(idx, minlength=n) @ y / n


def _replicate_gaps(panel: PanelDataset, B: int, seed: int) -> np.ndarray:
    """(B, T) treated-minus-control gaps of B stratified resamples.

    Replicate k draws its treated rows from stream 2k and its control rows
    from stream 2k + 1; only one replicate's indices exist at a time.
    """
    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    gaps = np.empty((B, panel.n_periods))
    for k in range(B):
        gaps[k] = _resampled_mean(y1, seed, 2 * k) - _resampled_mean(y0, seed, 2 * k + 1)
    return gaps


def bootstrap(
    panel: PanelDataset,
    estimator: str,
    config: BootstrapConfig,
    *,
    n_pre: int | None = None,
) -> EventStudyEstimate:
    """Point estimate plus bootstrap se/ci for the named estimator.

    The returned coefficients are exactly the non-bootstrap estimator output;
    the bootstrap only fills the se and ci fields. ``n_pre`` applies to the
    bjs estimator only and pools earlier pre periods into the baseline.
    """
    return bootstrap_many(panel, [estimator], config, n_pre=n_pre)[0]


def bootstrap_many(
    panel: PanelDataset,
    tags: list[str],
    config: BootstrapConfig,
    *,
    n_pre: int | None = None,
) -> list[EventStudyEstimate]:
    """``bootstrap`` for each named estimator, from one shared set of resamples.

    Replicate k is the same resample for every estimator, so each result is
    identical to a separate ``bootstrap`` call; the resamples are drawn once.
    """
    points = estimate_many(panel, tags, n_pre)

    gaps = _replicate_gaps(panel, config.replications, config.seed)
    reps = kernels.baseline_coefs(gaps, -panel.t_min, n_pre)
    return [_with_intervals(point, reps[TAG_CODES[point.estimator]], panel, config)
            for point in points]


def _with_intervals(point, reps, panel, config) -> EventStudyEstimate:
    """``point`` with se/ci filled from its (B, T) replicate coefficients."""
    rs = sorted(point.coefficients)
    block = reps[:, [r - panel.t_min + 1 for r in rs]]
    # Scaling each column by a power of two is exact, so se and the quantiles
    # keep every digit, and the squares cannot overflow near the float range.
    e = np.frexp(np.abs(block).max(axis=0))[1]
    draws = np.ldexp(block, -e)
    se = dict(zip(rs, np.ldexp(draws.std(axis=0, ddof=1), e).tolist()))
    if config.method == "normal":
        z = NormalDist().inv_cdf(0.5 + config.level / 2)
        ci = {r: (point.coefficients[r] - z * s, point.coefficients[r] + z * s)
              for r, s in se.items()}
    else:
        q = [(1 - config.level) / 2, (1 + config.level) / 2]
        lo, hi = np.ldexp(np.quantile(draws, q, axis=0), e).tolist()
        ci = dict(zip(rs, zip(lo, hi)))
    return replace(point, se=se, ci=ci, level=config.level)
