from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import DgpConfig, PanelDataset, UnknownEstimator, run_mc, simulate
from evstudy import dgp as dgp_module
from evstudy.dgp import derive_seed
from evstudy.estimators import TAG_CODES
from evstudy.kernels import coef_matrix

SMALL = DgpConfig(gamma=0.5, t_min=-4, t_max=3, n_treated=10, n_control=10)
ALL_TAGS = ["twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"]


def test_deterministic():
    a = run_mc(SMALL, ["twfe"], draws=50, master_seed=3)
    b = run_mc(SMALL, ["twfe"], draws=50, master_seed=3)
    assert a == b


def test_unknown_tag():
    with pytest.raises(UnknownEstimator):
        run_mc(SMALL, ["nope"], draws=10, master_seed=0)


def test_too_few_draws():
    with pytest.raises(ValueError):
        run_mc(SMALL, ["twfe"], draws=1, master_seed=0)


def test_zero_gamma_means_near_zero():
    cfg = DgpConfig(gamma=0.0, t_min=-4, t_max=3, n_treated=10, n_control=10)
    report = run_mc(cfg, ALL_TAGS, draws=500, master_seed=5)
    # CLT bound: per-draw coefficient SD is at most sqrt(4/n1 + 4/n0).
    bound = 4 * np.sqrt(8 / 20) / np.sqrt(500)
    for tag in ALL_TAGS:
        assert report.max_abs_dev[tag] < bound
        assert all(v == 0.0 for v in report.population[tag].values())


def test_means_track_population():
    report = run_mc(SMALL, ALL_TAGS, draws=500, master_seed=8)
    for tag in ALL_TAGS:
        for r, mean in report.means[tag].items():
            pop = report.population[tag][r]
            assert abs(mean - pop) < 6 * max(report.mc_se[tag][r], 1e-12)


def test_report_domains():
    report = run_mc(SMALL, ALL_TAGS, draws=10, master_seed=1)
    assert -1 not in report.means["twfe"]
    assert SMALL.t_min - 1 not in report.means["bjs"]
    assert set(report.means["twfe"]) == set(report.mc_se["twfe"])


def test_monotone_concentration():
    small = run_mc(SMALL, ALL_TAGS, draws=20, master_seed=12)
    big = run_mc(SMALL, ALL_TAGS, draws=800, master_seed=12)
    closer = total = 0
    for tag in ALL_TAGS:
        for r, pop in big.population[tag].items():
            total += 1
            if abs(big.means[tag][r] - pop) < abs(small.means[tag][r] - pop):
                closer += 1
    assert closer / total >= 0.9


@settings(max_examples=40, deadline=None)
@given(n_treated=st.integers(1, 5), n_control=st.integers(1, 5), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 4), gamma=st.floats(-3, 3), error_sd=st.floats(0.01, 5),
       draws=st.integers(2, 6), master_seed=st.integers(0, 2**32))
@example(n_treated=1, n_control=1, t_min=-1, t_max=1, gamma=0.5, error_sd=1.0, draws=2,
         master_seed=0)
@example(n_treated=1, n_control=1, t_min=-1, t_max=3, gamma=-1.5, error_sd=0.3, draws=2,
         master_seed=9)
def test_draws_are_the_simulated_panels(n_treated, n_control, t_min, t_max, gamma, error_sd,
                                        draws, master_seed):
    dgp = DgpConfig(gamma=gamma, t_min=t_min, t_max=t_max, n_treated=n_treated,
                    n_control=n_control, error_sd=error_sd)
    report = run_mc(dgp, ALL_TAGS, draws, master_seed)
    codes = [TAG_CODES[tag] for tag in ALL_TAGS]
    # The spread is summed about the population values, 0 in omitted columns.
    pop = np.zeros((len(ALL_TAGS), t_max - t_min + 1))
    for e, tag in enumerate(ALL_TAGS):
        for r, value in report.population[tag].items():
            pop[e, r - t_min + 1] = value
    total = dev_sq = 0.0
    for k in range(draws):
        panel = simulate(replace(dgp, seed=derive_seed(master_seed, k)))
        sel = coef_matrix(panel.outcomes, panel.treated, panel.t_min)[codes]
        total = total + sel
        dev_sq = dev_sq + (sel - pop) * (sel - pop)
    mean = total / draws
    var = (dev_sq - draws * (mean - pop) * (mean - pop)) / (draws - 1)
    se = np.sqrt(np.maximum(var, 0.0) / draws)
    for e, tag in enumerate(ALL_TAGS):
        assert report.means[tag] == {r: float(mean[e, r - t_min + 1]) for r in report.means[tag]}
        assert report.mc_se[tag] == {r: float(se[e, r - t_min + 1]) for r in report.mc_se[tag]}


def test_mc_se_does_not_depend_on_gamma():
    # The noise, and so every coefficient's spread across draws, is the same
    # at any gamma; only the digits lost to cancellation could tell them apart.
    flat = run_mc(DgpConfig(gamma=0.0), ALL_TAGS, draws=200, master_seed=6)
    steep = run_mc(DgpConfig(gamma=1e8), ALL_TAGS, draws=200, master_seed=6)
    for tag in ALL_TAGS:
        assert set(steep.mc_se[tag]) == set(flat.mc_se[tag])
        for r, se in flat.mc_se[tag].items():
            assert se > 0
            assert steep.mc_se[tag][r] == pytest.approx(se, rel=1e-6, abs=0)


def test_run_mc_builds_no_panel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_mc built a panel")

    monkeypatch.setattr(dgp_module, "simulate", refuse)
    monkeypatch.setattr(PanelDataset, "__post_init__", refuse)
    report = run_mc(SMALL, ALL_TAGS, draws=3, master_seed=2)
    assert report.draws == 3
