import numpy as np
import pytest

from evstudy import DgpConfig, InvalidConfig, simulate
from evstudy.dgp import derive_seed


def test_reproducible_bit_exact():
    cfg = DgpConfig(seed=123)
    a, b = simulate(cfg), simulate(cfg)
    assert a == b


def test_seed_sensitivity():
    a = simulate(DgpConfig(seed=1))
    b = simulate(DgpConfig(seed=2))
    assert not np.array_equal(a.outcomes, b.outcomes)


def test_paper_design_shape():
    panel = simulate(DgpConfig(gamma=0.5, t_min=-15, t_max=10, n_treated=50, n_control=50))
    assert panel.n_units == 100
    assert panel.n_periods == 26
    assert int(panel.treated.sum()) == 50


def test_near_zero_noise_zero_gamma():
    panel = simulate(DgpConfig(gamma=0.0, error_sd=1e-12, seed=5))
    assert np.abs(panel.outcomes).max() < 1e-9


def test_deterministic_trend_term():
    panel = simulate(DgpConfig(gamma=1.0, t_min=-2, t_max=4, n_treated=2,
                               n_control=2, error_sd=1e-12, seed=5))
    j = panel.period_index(3)
    assert panel.outcomes[0, j] == pytest.approx(3.0, abs=1e-9)
    assert panel.outcomes[2, j] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("bad", [
    dict(t_min=0), dict(t_max=0), dict(n_treated=0), dict(n_control=0),
    dict(error_sd=0.0), dict(error_sd=-1.0), dict(seed=-1),
])
def test_invalid_config(bad):
    with pytest.raises(InvalidConfig):
        DgpConfig(**bad)


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(7, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_seed(7, 3) == derive_seed(7, 3)


def test_monte_carlo_mean_converges():
    # The treated group's mean outcome at t, averaged over independent draws,
    # approaches its population value gamma * t within 4 * error_sd / sqrt(draws * n_d).
    cfg = DgpConfig(gamma=0.7, t_min=-2, t_max=1, n_treated=3, n_control=3, error_sd=1.0)
    draws = 2000
    t = 1
    total = 0.0
    for k in range(draws):
        panel = simulate(DgpConfig(gamma=0.7, t_min=-2, t_max=1, n_treated=3,
                                   n_control=3, seed=derive_seed(11, k)))
        total += float(panel.outcomes[panel.treated, panel.period_index(t)].mean())
    bound = 4.0 / np.sqrt(draws * cfg.n_treated)
    assert abs(total / draws - cfg.gamma * t) < bound
