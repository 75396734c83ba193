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


def _size_text(nbytes: int) -> str:
    size, unit = nbytes / 1024, "KiB"
    for bigger in ("MiB", "GiB", "TiB", "PiB", "EiB"):
        if size < 1024:
            break
        size, unit = size / 1024, bigger
    return f"{size:.1f} {unit}"


def _replicate_gaps(panel: PanelDataset, B: int, seed: int) -> np.ndarray:
    """(B, T) treated-minus-control gaps of B stratified resamples.

    Replicate k draws its treated rows from stream 2k and its control rows
    from stream 2k + 1; only one replicate's indices exist at a time.
    """
    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    try:
        gaps = np.empty((B, panel.n_periods))
    except MemoryError:
        raise ValueError(f"replications={B}: the ({B}, {panel.n_periods}) bootstrap gap array"
                         f" needs {_size_text(8 * B * panel.n_periods)}, more than can be"
                         " allocated") from None
    for k in range(B):
        gaps[k] = _resampled_mean(y1, seed, 2 * k) - _resampled_mean(y0, seed, 2 * k + 1)
    return gaps


def bootstrap_many(
    panel: PanelDataset,
    tags: list[str],
    config: BootstrapConfig,
    *,
    n_pre: int | None = None,
) -> list[EventStudyEstimate]:
    """Point estimates plus bootstrap se/ci for each named estimator.

    The returned coefficients are exactly ``estimate_many``'s; the bootstrap
    only fills the se and ci fields. ``n_pre`` applies to the bjs estimator
    only and pools earlier pre periods into its baseline. The resamples are
    drawn once and replicate k is the same resample for every estimator, so
    each result is identical to a call with that estimator alone.
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
    return replace(point, se=se, ci=ci)
