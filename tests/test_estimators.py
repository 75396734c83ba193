import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    DgpConfig,
    PanelDataset,
    SingularDesign,
    UnknownEstimator,
    bjs_closed_form,
    bjs_imputation,
    cs_dcdh_default,
    cs_dcdh_universal,
    estimate,
    estimate_many,
    fit_twfe_on_untreated,
    impute_treatment_effects,
    simulate,
    twfe_closed_form,
    twfe_regression,
    validate_panel,
)

from helpers import make_fuzz_panel, max_coef_diff


def shift_panel(panel, c):
    return PanelDataset(panel.unit_ids, panel.treated.copy(), panel.t_min,
                        panel.t_max, panel.outcomes + c)


def scale_panel(panel, c):
    return PanelDataset(panel.unit_ids, panel.treated.copy(), panel.t_min,
                        panel.t_max, panel.outcomes * c)


# --- hand fixture values -------------------------------------------------


def test_twfe_fixture(four_cell):
    est = twfe_closed_form(four_cell)
    assert est.coefficients == {-3: -2.0, -2: -1.0, 0: 1.0}
    assert set(est.omitted) == {-1}


def test_cs_default_fixture(four_cell):
    est = cs_dcdh_default(four_cell)
    assert est.coefficients == {-2: 1.0, -1: 1.0, 0: 1.0}
    assert set(est.omitted) == {-3}


def test_cs_universal_fixture(four_cell):
    est = cs_dcdh_universal(four_cell)
    assert est.coefficients == twfe_closed_form(four_cell).coefficients
    assert set(est.omitted) == {-1}


def test_bjs_fixture(four_cell):
    est = bjs_closed_form(four_cell)
    assert est.coefficients == {-2: 1.0, -1: 2.0, 0: 2.0}
    assert set(est.omitted) == {-3}


def test_symmetric_groups_all_zero():
    rows = [(u, t, d, float(t * t)) for (u, d) in (("a", 1), ("b", 0)) for t in range(-3, 3)]
    panel = validate_panel(rows)
    for fn in (twfe_closed_form, cs_dcdh_default, cs_dcdh_universal, bjs_closed_form):
        assert all(v == 0.0 for v in fn(panel).coefficients.values())


# --- regression and imputation routes ------------------------------------


def test_twfe_regression_matches_closed_form_fixture(four_cell):
    assert max_coef_diff(twfe_regression(four_cell), twfe_closed_form(four_cell)) < 1e-8


def test_twfe_regression_matches_closed_form_simulated(default_panel):
    assert max_coef_diff(twfe_regression(default_panel), twfe_closed_form(default_panel)) < 1e-8


def test_twfe_constant_outcome_zero():
    rows = [(u, t, d, 3.5) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 2)]
    panel = validate_panel(rows)
    est = twfe_regression(panel)
    assert all(abs(v) < 1e-10 for v in est.coefficients.values())


def test_fit_on_untreated_exact_additive():
    # Y_it = a_i + b_t exactly: predictions reproduce Y on every cell.
    a = {"a": 0.0, "b": 1.0}
    rows = [(u, t, d, a[u] + t) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 3)]
    panel = validate_panel(rows)
    fit = fit_twfe_on_untreated(panel)
    for u, t, _, y in rows:
        assert fit.predict(u, t) == pytest.approx(y, abs=1e-8)


def test_fit_on_untreated_fixture_prediction(four_cell):
    fit = fit_twfe_on_untreated(four_cell)
    assert fit.predict("a", 1) == pytest.approx(2.0, abs=1e-8)


def test_fit_on_untreated_constant_panel():
    rows = [(u, t, d, 7.0) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 2)]
    panel = validate_panel(rows)
    fit = fit_twfe_on_untreated(panel)
    for u, t, _, _ in rows:
        assert fit.predict(u, t) == pytest.approx(7.0, abs=1e-10)


def test_fit_residuals_sum_to_zero(default_panel):
    fit = fit_twfe_on_untreated(default_panel)
    panel = default_panel
    resid = {}
    for i, uid in enumerate(panel.unit_ids):
        for t in panel.times:
            if panel.treated[i] and t >= 1:
                continue
            resid[(uid, t)] = panel.outcomes[i, panel.period_index(t)] - fit.predict(uid, t)
    for uid in panel.unit_ids:
        assert sum(v for (u, _), v in resid.items() if u == uid) == pytest.approx(0.0, abs=1e-7)
    for t in panel.times:
        assert sum(v for (_, tt), v in resid.items() if tt == t) == pytest.approx(0.0, abs=1e-7)


def test_imputation_cells(four_cell):
    imp = impute_treatment_effects(four_cell)
    assert set(imp.tau) == {("a", 1)}
    assert imp.tau[("a", 1)] == pytest.approx(2.0, abs=1e-8)


def test_bjs_imputation_matches_closed_form(four_cell, default_panel):
    for panel in (four_cell, default_panel):
        assert max_coef_diff(bjs_imputation(panel), bjs_closed_form(panel)) < 1e-8
        assert bjs_imputation(panel).omitted == bjs_closed_form(panel).omitted


def test_bjs_pooled_pre_categories(default_panel):
    est = bjs_closed_form(default_panel, n_pre=5)
    assert sorted(r for r in est.coefficients if r < 0) == list(range(-5, 0))
    assert set(est.omitted) == set(range(-16, -5))
    # Pooled baseline is the mean gap over the pooled periods.
    full = bjs_closed_form(default_panel)
    g0 = {r: full.coefficients[r] for r in full.coefficients if r < 0}
    # reconstruct: pooled base periods are t in [-15, -5] -> r in [-16, -6]
    pool = [g0.get(r, 0.0) for r in range(-16, -5)]  # r=-16 omitted => gap 0 vs itself
    base = np.mean(pool)
    for r in range(-5, 0):
        assert est.coefficients[r] == pytest.approx(g0[r] - base, abs=1e-10)


def test_bjs_pooled_bounds(four_cell):
    with pytest.raises(ValueError):
        bjs_closed_form(four_cell, n_pre=0)
    with pytest.raises(ValueError):
        bjs_closed_form(four_cell, n_pre=3)


def test_estimate_many_matches_single_calls(default_panel):
    tags = ["twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"]
    for est in estimate_many(default_panel, tags, n_pre=5):
        if est.estimator == "bjs":
            assert est == bjs_closed_form(default_panel, n_pre=5)
        else:
            assert est == estimate(default_panel, est.estimator)
    with pytest.raises(ValueError):
        estimate_many(default_panel, ["twfe"], n_pre=5)


def test_unknown_estimator(four_cell):
    with pytest.raises(UnknownEstimator):
        estimate(four_cell, "sdid")


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), n0=st.integers(1, 6), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 5), data_seed=st.integers(0, 2**32))
@example(n1=1, n0=1, t_min=-3, t_max=2, data_seed=0)
@example(n1=4, n0=3, t_min=-1, t_max=3, data_seed=1)
@example(n1=1, n0=1, t_min=-1, t_max=1, data_seed=2)
def test_twins_match_closed_forms(n1, n0, t_min, t_max, data_seed):
    rng = np.random.default_rng(data_seed)
    treated = np.arange(n1 + n0) < n1
    panel = PanelDataset(tuple(f"u{i}" for i in range(n1 + n0)), treated, t_min, t_max,
                         3 * rng.standard_normal((n1 + n0, t_max - t_min + 1)))
    assert max_coef_diff(twfe_regression(panel), twfe_closed_form(panel)) < 1e-8
    imputed, closed = bjs_imputation(panel), bjs_closed_form(panel)
    assert max_coef_diff(imputed, closed) < 1e-8
    assert imputed.omitted == closed.omitted


def test_untreated_fit_singular_when_every_unit_treated():
    # No untreated cell in a post period, so its effect is not identified.
    panel = PanelDataset(("a", "b"), np.array([True, True]), -2, 1, np.zeros((2, 4)))
    with pytest.raises(SingularDesign):
        fit_twfe_on_untreated(panel)
    with pytest.raises(SingularDesign):
        bjs_imputation(panel)


@pytest.mark.parametrize("twin, closed_form", [(twfe_regression, twfe_closed_form),
                                               (bjs_imputation, bjs_closed_form)])
def test_twins_10k_units_bounded_memory(twin, closed_form):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    tracemalloc.start()
    try:
        est = twin(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_coef_diff(est, closed_form(panel)) < 1e-8
    assert peak < 512 * 2**20


# --- cross-estimator properties ------------------------------------------


def test_equivalences_on_fuzz_panels():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        panel = make_fuzz_panel(rng)
        assert max_coef_diff(twfe_regression(panel), twfe_closed_form(panel)) < 1e-8
        assert max_coef_diff(cs_dcdh_universal(panel), twfe_closed_form(panel)) < 1e-12
        assert max_coef_diff(bjs_imputation(panel), bjs_closed_form(panel)) < 1e-8


def test_post_side_agreement(default_panel):
    d = cs_dcdh_default(default_panel).coefficients
    u = cs_dcdh_universal(default_panel).coefficients
    for r in range(0, default_panel.t_max):
        assert d[r] == pytest.approx(u[r], abs=1e-12)


def telescoping_holds(panel, tol=1e-9):
    """Short pre differences sum to the (negated) long difference.

    For every pre relative time r < -1, sum of the CS/dCDH short differences
    at s = r+1 .. -1 equals -beta_r^TWFE.
    """
    cs = cs_dcdh_default(panel).coefficients
    tw = twfe_closed_form(panel).coefficients
    ok = True
    for r in range(panel.t_min - 1, -1):
        total = sum(cs[s] for s in range(r + 1, 0))
        ok &= abs(total - (-tw[r])) < tol
    return ok


def test_telescoping(four_cell, default_panel):
    assert telescoping_holds(four_cell)
    assert telescoping_holds(default_panel)
    rng = np.random.default_rng(7)
    for _ in range(25):
        assert telescoping_holds(make_fuzz_panel(rng))


def test_location_shift_invariance(default_panel):
    shifted = shift_panel(default_panel, 17.25)
    for fn in (twfe_closed_form, cs_dcdh_default, cs_dcdh_universal, bjs_closed_form):
        a, b = fn(default_panel).coefficients, fn(shifted).coefficients
        assert all(abs(a[r] - b[r]) < 1e-9 for r in a)


def test_scale_equivariance(default_panel):
    scaled = scale_panel(default_panel, -2.5)
    for fn in (twfe_closed_form, cs_dcdh_default, cs_dcdh_universal, bjs_closed_form):
        a, b = fn(default_panel).coefficients, fn(scaled).coefficients
        assert all(abs(-2.5 * a[r] - b[r]) < 1e-9 for r in a)


def test_zero_gamma_near_zero_noise_all_zero():
    panel = simulate(DgpConfig(gamma=0.0, error_sd=1e-12, seed=3,
                               t_min=-4, t_max=3, n_treated=3, n_control=3))
    for tag in ("twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"):
        assert all(abs(v) < 1e-9 for v in estimate(panel, tag).coefficients.values())
