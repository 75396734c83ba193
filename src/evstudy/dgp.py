"""Simulates the linear-trend-violation data generating process.

Treated units follow Y_it = gamma * t + eps_it, control units Y_it = eps_it,
with eps_it iid normal(0, error_sd^2) and no treatment effects. The group
difference in trends is gamma per period in every period, so any kink or
jump an estimator shows at the treatment date is an artifact of its
baseline construction, not of the data.
"""

from __future__ import annotations

import numpy as np

from .panel import PanelDataset, check_outcome_bound
from .spec import DgpConfig, InvalidConfig

# Identity of the deterministic noise transform, echoed in CLI output so a
# simulated panel can be reproduced exactly from (generator, config, seed).
GENERATOR_ID = (
    "numpy Philox(4x64, key=seed) standard_normal; "
    "draw order: treated units then control units, times ascending"
)


def draw_outcomes(config: DgpConfig, seed: int) -> np.ndarray:
    """The (n_treated + n_control, T) outcome matrix of one draw keyed by ``seed``.

    Philox is counter-based, so the seed alone fixes every draw; the noise
    matrix is filled row-major with treated units first, which pins the
    draw order independent of any execution schedule. ``config.seed`` is
    not read. Outcomes that overflow come back as inf or nan, unwarned, for
    the caller to reject.
    """
    n = config.n_treated + config.n_control
    times = np.arange(config.t_min, config.t_max + 1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = rng.standard_normal((n, times.size)) * config.error_sd
        outcomes[: config.n_treated] += config.gamma * times
    return outcomes


def simulate(config: DgpConfig) -> PanelDataset:
    """Draw one balanced panel from the DGP; bit-identical for equal configs.

    Raises ``NonFiniteOutcome`` when the outcomes break the estimators'
    overflow bound, as ``read_panel_csv`` would on the written file.
    """
    outcomes = draw_outcomes(config, config.seed)
    check_outcome_bound(outcomes, config.t_min)
    width = len(str(max(config.n_treated, config.n_control) - 1))
    unit_ids = tuple(
        [f"t{i:0{width}d}" for i in range(config.n_treated)]
        + [f"c{i:0{width}d}" for i in range(config.n_control)]
    )
    return PanelDataset(
        unit_ids=unit_ids,
        treated=np.arange(len(unit_ids)) < config.n_treated,
        t_min=config.t_min,
        t_max=config.t_max,
        outcomes=outcomes,
    )


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for an independent stream k of a master seed.

    SeedSequence([master_seed, k]) is the documented derivation rule for
    Monte Carlo draws and bootstrap replicates; distinct (master, k) pairs
    yield statistically independent streams regardless of schedule.
    """
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
