"""Repeated-simulation driver: each estimator's mean coefficients over many draws.

Each block of draws goes through ``kernels.coef_matrix``, as a point estimate
does: (k, n, T) outcomes in, (len(estimators), k, T) coefficients out; the
means come back through ``kernels.row_estimate``, as a point estimate does.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .dgp import SEED_BLOCK, DgpConfig, _allocate, _check_cells, draw_outcomes, stream_seeds
from .oracle import population_curve
from .spec import EventStudyEstimate

# Outcome cells drawn per block: the draws of a block share one pass of the
# scaling and of ``kernels.coef_matrix``, in bounded memory.
BLOCK_CELLS = 2**16


def run_mc(dgp: DgpConfig, estimators: list[str], draws: int, master_seed: int) -> list[EventStudyEstimate]:
    """Average each estimator over ``draws`` independent simulated panels.

    Returns one estimate per tag, in the order given, with the standard
    error of each mean across draws as ``se``.

    Draw k has the outcomes ``simulate`` gives with stream k's seed
    ``SeedSequence([master_seed, k]).generate_state(1, np.uint64)[0]``
    (``dgp.stream_seeds``), derived SEED_BLOCK draws at a time; the draws
    are drawn and reduced in blocks of at most BLOCK_CELLS outcome cells,
    so memory does not grow with ``draws``. Each draw's coefficients are
    added to the sums in draw order, so the means are bit-identical to a
    draw-by-draw loop. Raises UnknownEstimator as ``kernels.check_tags``
    does, ValueError when the sums overflow, and, before anything is
    allocated, ValueError when draws x units x periods exceeds ``dgp.MAX_CELLS``.
    """
    if draws < 2:
        raise ValueError("need at least 2 Monte Carlo draws")
    if master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed}")
    kernels.check_tags(estimators)

    n, T = dgp.n_treated + dgp.n_control, dgp.t_max - dgp.t_min + 1
    _check_cells(draws, n, T)
    per_block = max(1, BLOCK_CELLS // (n * T))
    treated = np.arange(n) < dgp.n_treated  # draw_outcomes puts the treated rows first
    r0 = dgp.t_min - 1  # column j holds relative time r0 + j
    # The spread is summed about the population values (NaN in omitted columns,
    # as the coefficients are), not about 0, so it keeps its digits however
    # large the coefficients are.
    pop, total, dev_sq = [_allocate((len(estimators), T), f"Monte Carlo {name}")
                          for name in ("population", "sum", "squared-deviation")]
    pop.fill(np.nan)
    total.fill(0.0)
    dev_sq.fill(0.0)
    for e, tag in enumerate(estimators):
        curve = population_curve(tag, dgp.gamma, dgp.t_min, dgp.t_max)
        pop[e, [r - r0 for r in curve]] = list(curve.values())
    # A design too large for float64 sums to inf or nan; that is rejected below, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, draws, SEED_BLOCK):
            seeds = stream_seeds(master_seed, start, min(draws, start + SEED_BLOCK)).tolist()
            for lo in range(0, len(seeds), per_block):
                part = seeds[lo : lo + per_block]
                sel = kernels.coef_matrix(draw_outcomes(dgp, part), treated, dgp.t_min, estimators)
                dev = sel - pop[:, None]
                dev *= dev
                for d in range(len(part)):
                    total += sel[:, d]
                    dev_sq += dev[:, d]

    for tag, sums, squares, kept in zip(estimators, total, dev_sq, ~np.isnan(pop)):
        if not (np.isfinite(sums[kept]).all() and np.isfinite(squares[kept]).all()):
            raise ValueError(f"{tag}: Monte Carlo sums are not finite; gamma or error_sd is too large")

    mean = total / draws
    mean_dev = mean - pop
    var = (dev_sq - draws * mean_dev * mean_dev) / (draws - 1)
    mc_se = np.sqrt(np.maximum(var, 0.0) / draws)
    return [kernels.row_estimate(tag, m, dgp.t_min, se) for tag, m, se in zip(estimators, mean, mc_se)]
