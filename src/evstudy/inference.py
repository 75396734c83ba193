"""Unit-level stratified bootstrap standard errors and confidence intervals.

Units are resampled with replacement within their treatment group, so every
replicate keeps the original group sizes and no replicate can lose a group.
Replicate k's treated and control resample indices derive deterministically
from the bootstrap seed via derive_seed(seed, 2k) and derive_seed(seed,
2k + 1); results are therefore reproducible and independent of any
execution schedule. A replicate enters the reduction as per-unit draw counts
(the multinomial-weights form of the same resample), and one set of
replicates serves every estimator of a call.
"""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from . import kernels
from .dgp import derive_seed
from .estimators import TAG_CODES, EventStudyEstimate, estimate_many
from .panel import PanelDataset
from .spec import BootstrapConfig


def _resample_counts(n: int, B: int, seed: int, stream: int) -> np.ndarray:
    """(B, n) matrix of how often each row is drawn, one row per replicate.

    Row k counts the with-replacement indices of replicate k's own stream;
    the indices themselves are never held for all replicates at once.
    """
    out = np.empty((B, n))
    for k in range(B):
        rng = np.random.default_rng(derive_seed(seed, 2 * k + stream))
        out[k] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    return out


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

    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    B = config.replications
    c1 = _resample_counts(y1.shape[0], B, config.seed, stream=0)
    c0 = _resample_counts(y0.shape[0], B, config.seed, stream=1)
    reps = kernels.bootstrap_coefs(y1, y0, c1, c0, panel.t_min, n_pre)
    return [_with_intervals(point, reps[TAG_CODES[point.estimator]], panel, config)
            for point in points]


def _with_intervals(point, reps, panel, config) -> EventStudyEstimate:
    """``point`` with se/ci filled from its (B, T) replicate coefficients."""
    rel_times = list(range(panel.t_min - 1, panel.t_max))
    se: dict[int, float] = {}
    ci: dict[int, tuple[float, float]] = {}
    z = NormalDist().inv_cdf(0.5 + config.level / 2)
    lo_q, hi_q = (1 - config.level) / 2, (1 + config.level) / 2
    for j, r in enumerate(rel_times):
        if r not in point.coefficients:
            continue
        # Scaling by a power of two is exact, so se and the quantiles keep
        # every digit, and the squares cannot overflow near the float range.
        e = int(np.frexp(np.abs(reps[:, j]).max())[1])
        draws = np.ldexp(reps[:, j], -e)
        s = math.ldexp(float(draws.std(ddof=1)), e)
        se[r] = s
        if config.method == "normal":
            c = point.coefficients[r]
            ci[r] = (c - z * s, c + z * s)
        else:
            ci[r] = (math.ldexp(float(np.quantile(draws, lo_q)), e),
                     math.ldexp(float(np.quantile(draws, hi_q)), e))
    return replace(point, se=se, ci=ci, level=config.level)
