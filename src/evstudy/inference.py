"""Unit-level stratified bootstrap standard errors and confidence intervals.

Units are resampled with replacement within their treatment group, so every
replicate keeps the original group sizes and no replicate can lose a group.
Replicate k draws its treated resample indices with
np.random.default_rng(s_2k) and its control indices with
default_rng(s_2k+1), s_i being stream i's seed ``SeedSequence([seed,
i]).generate_state(1, np.uint64)[0]`` (``dgp.stream_seeds``), so results are
reproducible and independent of any execution schedule. The seeds, and the
PCG64 words ``default_rng`` would hash from each (``dgp.pcg64_words``), are
derived a block of replicates at a time, without two SeedSequence
constructions per stream. Each replicate is reduced at once to its (T,)
treated-minus-control gap, so the replicates take O(n + B * T) memory; the
(B, T) gaps then go through ``kernels.baseline_coefs`` as a point estimate's
gap does, one (B, T) row per tag of the call, from one set of resamples.
``_intervals`` makes each tag's se and (low, high) rows, which
``kernels.row_estimate`` reads beside its point row, as for every record.
Each group mean sums count * row in unit order from 0.0 through ``einsum``,
which calls no BLAS, and each se sums its column pairwise from a
column-major copy, so no se or ci byte depends on the BLAS kernel or on
the replicates' memory order.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import kernels
from .dgp import SEED_BLOCK, _allocate, _check_cells, pcg64_words, stream_seeds
from .panel import PanelDataset
from .spec import BootstrapConfig, EventStudyEstimate


class _Pcg64Words(ISeedSequence):
    """Hands PCG64 the state words ``pcg64_words`` derived for one stream."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds PCG64's 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _resampled_mean(y: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(T,) mean of the rows of ``y`` drawn with replacement by one index stream."""
    n = y.shape[0]
    idx = np.random.Generator(np.random.PCG64(_Pcg64Words(words))).integers(0, n, size=n)
    return np.einsum("ij,i->j", y, np.bincount(idx, minlength=n).astype(float)) / n


def _replicate_gaps(panel: PanelDataset, B: int, seed: int) -> np.ndarray:
    """(B, T) treated-minus-control gaps of B stratified resamples.

    Replicate k draws its treated rows from stream 2k and its control rows
    from stream 2k + 1; only one replicate's indices and one block of
    SEED_BLOCK replicates' stream words exist at a time. Within a block,
    every treated mean is taken before any control mean is subtracted, so
    each group's rows stay in cache across its streams.
    """
    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    gaps = _allocate((B, panel.n_periods), "bootstrap gap", f"replications={B}: ")
    for lo in range(0, B, SEED_BLOCK):
        hi = min(B, lo + SEED_BLOCK)
        words = pcg64_words(stream_seeds(seed, 2 * lo, 2 * hi))
        for gap, treated_words in zip(gaps[lo:hi], words[0::2]):
            gap[:] = _resampled_mean(y1, treated_words)
        for gap, control_words in zip(gaps[lo:hi], words[1::2]):
            gap -= _resampled_mean(y0, control_words)
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
    each result is identical to a call with that estimator alone. Raises
    ValueError, before anything is allocated, when replications x units x
    periods exceeds ``dgp.MAX_CELLS``.
    """
    _check_cells(config.replications, panel.n_units, panel.n_periods, "replications")
    points = kernels.coef_matrix(panel.outcomes, panel.treated, panel.t_min, tags, n_pre)
    # The gaps are released once their coefficients exist, before any interval.
    reps = kernels.baseline_coefs(_replicate_gaps(panel, config.replications, config.seed),
                                  -panel.t_min, tags, n_pre)
    return [kernels.row_estimate(tag, point, panel.t_min, *_intervals(point, rep, config))
            for tag, point, rep in zip(tags, points, reps)]


def _intervals(point: np.ndarray, reps: np.ndarray, config: BootstrapConfig):
    """(T,) rows (se, (low, high)) for the (T,) ``point`` row from its (B, T) replicates."""
    # A column-major copy, scaled in place: each column's std sums it pairwise
    # over contiguous memory, so its se is that column's own std(ddof=1).
    draws = np.array(reps, order="F")
    # Scaling each column by a power of two is exact, so se and the quantiles
    # keep every digit, and the squares cannot overflow near the float range.
    e = np.frexp(np.maximum(draws.max(axis=0), -draws.min(axis=0)))[1]
    np.ldexp(draws, -e, out=draws)
    se = np.ldexp(draws.std(axis=0, ddof=1), e)
    if config.method == "percentile":
        q = [(1 - config.level) / 2, (1 + config.level) / 2]
        return se, tuple(np.ldexp(np.quantile(draws, q, axis=0), e))
    z = NormalDist().inv_cdf(0.5 + config.level / 2)
    with np.errstate(over="ignore"):  # an infinite bound is TableRow's to report
        return se, (point - z * se, point + z * se)
