import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    DgpConfig,
    PanelDataset,
    UnknownEstimator,
    estimate_many,
    population_curve,
    run_mc,
    simulate,
)
from evstudy import dgp as dgp_module
from evstudy import montecarlo
from evstudy.kernels import coef_matrix
from helpers import reference_seed

SMALL = DgpConfig(gamma=0.5, t_min=-4, t_max=3, n_treated=10, n_control=10)
ALL_TAGS = ["twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"]


def _population(dgp, tag):
    return population_curve(tag, dgp.gamma, dgp.t_min, dgp.t_max)


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


def test_too_many_drawn_cells(monkeypatch):
    with pytest.raises(ValueError, match=r"= 18446744073709551616 x 20 x 8 is more than the limit of 2\*\*40"):
        run_mc(SMALL, ["twfe"], draws=2**64, master_seed=0)
    # SMALL has 20 units and 8 periods: 3 draws are 480 cells, 4 are 640.
    monkeypatch.setattr(dgp_module, "MAX_CELLS", 2**9)
    assert run_mc(SMALL, ["twfe"], draws=3, master_seed=0)[0].estimator == "twfe"
    with pytest.raises(ValueError, match=r"= 4 x 20 x 8 is more than the limit of 2\*\*9 "):
        run_mc(SMALL, ["twfe"], draws=4, master_seed=0)


def test_cell_limit_is_2_to_the_40():
    # The limit itself, unpatched: exactly 2**40 cells pass, one draw more does not.
    dgp_module._check_cells(2**36, 4, 4)
    with pytest.raises(ValueError, match=r"= 68719476737 x 4 x 4 is more than the limit of 2\*\*40 "):
        dgp_module._check_cells(2**36 + 1, 4, 4)


def test_zero_gamma_means_near_zero():
    cfg = DgpConfig(gamma=0.0, t_min=-4, t_max=3, n_treated=10, n_control=10)
    # CLT bound: per-draw coefficient SD is at most sqrt(4/n1 + 4/n0).
    bound = 4 * np.sqrt(8 / 20) / np.sqrt(500)
    for est in run_mc(cfg, ALL_TAGS, draws=500, master_seed=5):
        assert all(abs(mean) < bound for mean in est.coefficients.values())
        assert all(v == 0.0 for v in _population(cfg, est.estimator).values())


def test_means_track_population():
    for est in run_mc(SMALL, ALL_TAGS, draws=500, master_seed=8):
        population = _population(SMALL, est.estimator)
        for r, mean in est.coefficients.items():
            assert abs(mean - population[r]) < 6 * max(est.se[r], 1e-12)


def test_report_domains():
    results = run_mc(SMALL, ALL_TAGS, draws=10, master_seed=1)
    twfe, bjs = results[0], results[3]
    assert -1 not in twfe.coefficients and -1 in twfe.omitted
    assert SMALL.t_min - 1 not in bjs.coefficients
    # Each record has a point estimate's relative times, the population's
    # keys, and an se at each coefficient; the bootstrap's ci stays None.
    points = estimate_many(simulate(SMALL), ALL_TAGS)
    for est, point in zip(results, points):
        assert (est.estimator, est.omitted) == (point.estimator, point.omitted)
        assert set(est.coefficients) == set(point.coefficients) == set(_population(SMALL, est.estimator))
        assert set(est.se) == set(est.coefficients) and est.ci is None


def test_one_tag_alone_is_its_entry_of_an_all_tag_run():
    every = run_mc(SMALL, ALL_TAGS, draws=30, master_seed=9)
    assert [est.estimator for est in every] == ALL_TAGS
    assert run_mc(SMALL, ["bjs"], draws=30, master_seed=9) == [every[3]]
    # The records come back in the order the tags are asked for.
    assert run_mc(SMALL, ["bjs", "twfe"], draws=30, master_seed=9) == [every[3], every[0]]


def test_monotone_concentration():
    small = run_mc(SMALL, ALL_TAGS, draws=20, master_seed=12)
    big = run_mc(SMALL, ALL_TAGS, draws=800, master_seed=12)
    closer = total = 0
    for few, many in zip(small, big):
        for r, pop in _population(SMALL, many.estimator).items():
            total += 1
            if abs(many.coefficients[r] - pop) < abs(few.coefficients[r] - pop):
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
    _assert_is_the_draw_by_draw_report(run_mc(dgp, ALL_TAGS, draws, master_seed), dgp, draws,
                                       master_seed)


def _assert_is_the_draw_by_draw_report(results, dgp, draws, master_seed):
    """``results`` equal, bit for bit, the sums of a loop over simulated panels."""
    # The spread is summed about the population values, 0 in omitted columns.
    pop = np.zeros((len(ALL_TAGS), dgp.t_max - dgp.t_min + 1))
    for e, tag in enumerate(ALL_TAGS):
        for r, value in _population(dgp, tag).items():
            pop[e, r - dgp.t_min + 1] = value
    total = dev_sq = 0.0
    for k in range(draws):
        panel = simulate(replace(dgp, seed=reference_seed(master_seed, k)))
        sel = coef_matrix(panel.outcomes, panel.treated, panel.t_min, ALL_TAGS)
        total = total + sel
        dev_sq = dev_sq + (sel - pop) * (sel - pop)
    mean = total / draws
    var = (dev_sq - draws * (mean - pop) * (mean - pop)) / (draws - 1)
    se = np.sqrt(np.maximum(var, 0.0) / draws)
    assert [est.estimator for est in results] == ALL_TAGS
    for e, est in enumerate(results):
        assert est.coefficients == {r: float(mean[e, r - dgp.t_min + 1]) for r in est.coefficients}
        assert est.se == {r: float(se[e, r - dgp.t_min + 1]) for r in est.se}


@pytest.mark.parametrize("draws_per_block, seed_block", [(1, 1024), (2, 5), (3, 4), (40, 7)])
def test_blocks_do_not_change_the_report(monkeypatch, draws_per_block, seed_block):
    # 13 draws in fill blocks of 1, 2, 3 or 40 draws within seed blocks of 1024,
    # 5, 4 or 7 draws: each size leaves a short last block.
    dgp = DgpConfig(gamma=0.4, t_min=-3, t_max=2, n_treated=3, n_control=2, error_sd=0.9)
    monkeypatch.setattr(montecarlo, "BLOCK_CELLS", draws_per_block * 5 * 6 + 4)
    monkeypatch.setattr(montecarlo, "SEED_BLOCK", seed_block)
    _assert_is_the_draw_by_draw_report(run_mc(dgp, ALL_TAGS, 13, 2**64 + 1), dgp, 13, 2**64 + 1)


def test_memory_does_not_grow_with_draws():
    run_mc(SMALL, ALL_TAGS, 2, master_seed=4)  # first-call allocations stay out of the peaks
    peaks = []
    for draws in (2000, 20000):
        tracemalloc.start()
        try:
            run_mc(SMALL, ALL_TAGS, draws, master_seed=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096


def test_mc_se_does_not_depend_on_gamma():
    # The noise, and so every coefficient's spread across draws, is the same
    # at any gamma; only the digits lost to cancellation could tell them apart.
    flat = run_mc(DgpConfig(gamma=0.0), ALL_TAGS, draws=200, master_seed=6)
    steep = run_mc(DgpConfig(gamma=1e8), ALL_TAGS, draws=200, master_seed=6)
    for a, b in zip(flat, steep):
        assert set(b.se) == set(a.se)
        for r, se in a.se.items():
            assert se > 0
            assert b.se[r] == pytest.approx(se, rel=1e-6, abs=0)


@pytest.mark.parametrize("gamma", [0.5, 1e8])
def test_mc_se_is_the_spread_of_the_mean(gamma):
    # With 40 draws, |mean - population| / mc_se is |t| with 39 degrees of
    # freedom, under 1.96 with probability 0.943. Over 300 master seeds of
    # 21 coefficients the share stays in [0.92, 0.96]; an mc_se off by a
    # factor of 2 moves it to 0.67 or 0.999.
    config = DgpConfig(gamma=gamma, t_min=-4, t_max=3, n_treated=20, n_control=20)
    inside = []
    for master_seed in range(300):
        for est in run_mc(config, ["twfe", "cs_dcdh_default", "bjs"], draws=40, master_seed=master_seed):
            population = _population(config, est.estimator)
            inside += [abs(mean - population[r]) < 1.96 * est.se[r]
                       for r, mean in est.coefficients.items()]
    assert len(inside) == 6300
    assert 0.92 <= np.mean(inside) <= 0.96


def test_run_mc_builds_no_panel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_mc built a panel")

    monkeypatch.setattr(dgp_module, "simulate", refuse)
    monkeypatch.setattr(PanelDataset, "__post_init__", refuse)
    assert len(run_mc(SMALL, ALL_TAGS, draws=3, master_seed=2)) == len(ALL_TAGS)
