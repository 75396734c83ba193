"""Unit-level stratified bootstrap standard errors and confidence intervals.

Units are resampled with replacement within their treatment group, so every
replicate keeps the original group sizes and no replicate can lose a group.
Replicate k draws its treated resample indices with
np.random.default_rng(derive_seed(seed, 2k)) and its control indices with
default_rng(derive_seed(seed, 2k + 1)); results are therefore reproducible
and independent of any execution schedule. The stream seeds, and the PCG64
words ``default_rng`` would hash from each, are derived a block at a time
(``dgp.seed_blocks``, ``dgp.pcg64_words``): bit for bit the same streams,
without two SeedSequence constructions per stream. Each replicate is
reduced at once to its (T,) treated-minus-control gap, so the replicates
take O(n + B * T) memory; the (B, T) gaps then go through
``kernels.baseline_coefs`` as a point estimate's gap does, and one set of
replicates serves every estimator of a call.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import NormalDist

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import kernels
from .dgp import pcg64_words, seed_blocks
from .estimators import TAG_CODES, EventStudyEstimate, estimate_many
from .panel import PanelDataset
from .spec import BootstrapConfig


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
    from stream 2k + 1; only one replicate's indices and one block of
    stream words exist at a time. Within a block, every treated mean is
    taken before any control mean is subtracted, so each group's rows stay
    in cache across its streams.
    """
    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    try:
        gaps = np.empty((B, panel.n_periods))
    except MemoryError:
        raise ValueError(f"replications={B}: the ({B}, {panel.n_periods}) bootstrap gap array"
                         f" needs {_size_text(8 * B * panel.n_periods)}, more than can be"
                         " allocated") from None
    start = 0
    for seeds in seed_blocks(seed, 2 * B):
        words = pcg64_words(seeds)
        stop = start + len(words)
        # Stream s belongs to replicate s // 2, as its treated draw when s is
        # even. A block may start or end between a replicate's two streams;
        # the treated stream always comes first.
        for s in range(start + start % 2, stop, 2):
            gaps[s // 2] = _resampled_mean(y1, words[s - start])
        for s in range(start + 1 - start % 2, stop, 2):
            gaps[s // 2] -= _resampled_mean(y0, words[s - start])
        start = stop
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
