"""Repeated-simulation driver comparing mean estimates to population curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dgp import DgpConfig, derive_seed, draw_outcomes
from .estimators import TAG_CODES, UnknownEstimator
from .oracle import population_curve


@dataclass(frozen=True)
class McReport:
    """Per-estimator Monte Carlo means against the analytic population values.

    ``mc_se`` is the standard error of each mean coefficient across draws;
    ``max_abs_dev`` the largest |mean - population| over relative times.
    """

    draws: int
    means: dict[str, dict[int, float]]
    population: dict[str, dict[int, float]]
    max_abs_dev: dict[str, float]
    mc_se: dict[str, dict[int, float]]


def run_mc(dgp: DgpConfig, estimators: list[str], draws: int, master_seed: int) -> McReport:
    """Average each estimator over ``draws`` independent simulated panels.

    Draw k has the outcomes ``simulate`` gives with seed
    SeedSequence([master_seed, k]) (``derive_seed``); the per-draw
    coefficient vectors are summed, so the report does not depend on the
    order in which draws are evaluated. Raises ValueError when the sums
    overflow.
    """
    if draws < 2:
        raise ValueError("need at least 2 Monte Carlo draws")
    if master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed}")
    for tag in estimators:
        if tag not in TAG_CODES:
            raise UnknownEstimator(f"unknown estimator {tag!r}")

    codes = [TAG_CODES[tag] for tag in estimators]
    treated = np.arange(dgp.n_treated + dgp.n_control) < dgp.n_treated
    total = np.zeros((len(codes), dgp.t_max - dgp.t_min + 1))
    total_sq = np.zeros_like(total)
    # A design too large for float64 sums to inf or nan; that is rejected below, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(draws):
            y = draw_outcomes(dgp, derive_seed(master_seed, k))
            sel = kernels.coef_matrix(y, treated, dgp.t_min)[codes]
            total += sel
            total_sq += sel * sel

    r0 = dgp.t_min - 1  # column j holds relative time r0 + j
    population = {tag: population_curve(tag, dgp.gamma, dgp.t_min, dgp.t_max).values
                  for tag in estimators}
    for e, tag in enumerate(estimators):
        # A finite sum of squares also bounds the plain sum.
        if not np.isfinite(total_sq[e, [r - r0 for r in population[tag]]]).all():
            raise ValueError(f"{tag}: Monte Carlo sums are not finite; gamma or error_sd is too large")

    mean = total / draws
    var = (total_sq - draws * mean * mean) / (draws - 1)
    mc_se_mat = np.sqrt(np.maximum(var, 0.0) / draws)
    means = {tag: {r: float(mean[e, r - r0]) for r in population[tag]}
             for e, tag in enumerate(estimators)}
    mc_se = {tag: {r: float(mc_se_mat[e, r - r0]) for r in population[tag]}
             for e, tag in enumerate(estimators)}
    max_abs_dev = {tag: max(abs(means[tag][r] - pop) for r, pop in population[tag].items())
                   for tag in estimators}
    return McReport(draws=draws, means=means, population=population,
                    max_abs_dev=max_abs_dev, mc_se=mc_se)
