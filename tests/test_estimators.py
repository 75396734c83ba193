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
    bjs_imputation,
    estimate,
    estimate_many,
    simulate,
    twfe_regression,
)
from evstudy.estimators import _FixedEffects, _projection, _untreated_mask
from evstudy.spec import TAGS

from helpers import make_fuzz_panel, max_coef_diff, panel_from_rows


def shift_panel(panel, c):
    return PanelDataset(panel.unit_ids, panel.treated.copy(), panel.t_min,
                        panel.t_max, panel.outcomes + c)


def scale_panel(panel, c):
    return PanelDataset(panel.unit_ids, panel.treated.copy(), panel.t_min,
                        panel.t_max, panel.outcomes * c)


def fe_fit(fe, z):
    """``alpha`` (n,) and ``lam`` (T,) of the (n, T) layer ``z`` fitted alone over ``fe``'s cells."""
    zw = z * fe.w
    alpha, lam = fe.effects(zw.sum(axis=1)[:, None], zw.sum(axis=0)[:, None])
    return alpha[:, 0], lam[:, 0]


def untreated_fit(panel):
    """(alpha, lam) of the fixed-effects fit on the untreated cells, as bjs_imputation fits it."""
    return fe_fit(_FixedEffects(_untreated_mask(panel)), panel.outcomes)


# --- hand fixture values -------------------------------------------------


def test_twfe_fixture(four_cell):
    est = estimate(four_cell, "twfe")
    assert est.coefficients == {-3: -2.0, -2: -1.0, 0: 1.0}
    assert set(est.omitted) == {-1}


def test_cs_default_fixture(four_cell):
    est = estimate(four_cell, "cs_dcdh_default")
    assert est.coefficients == {-2: 1.0, -1: 1.0, 0: 1.0}
    assert set(est.omitted) == {-3}


def test_cs_universal_fixture(four_cell):
    est = estimate(four_cell, "cs_dcdh_universal")
    assert est.coefficients == estimate(four_cell, "twfe").coefficients
    assert set(est.omitted) == {-1}


def test_bjs_fixture(four_cell):
    est = estimate(four_cell, "bjs")
    assert est.coefficients == {-2: 1.0, -1: 2.0, 0: 2.0}
    assert set(est.omitted) == {-3}


def test_symmetric_groups_all_zero():
    rows = [(u, t, d, float(t * t)) for (u, d) in (("a", 1), ("b", 0)) for t in range(-3, 3)]
    panel = panel_from_rows(rows)
    for est in estimate_many(panel, TAGS):
        assert all(v == 0.0 for v in est.coefficients.values())


# --- regression and imputation routes ------------------------------------


def test_twfe_regression_matches_closed_form_fixture(four_cell):
    assert max_coef_diff(twfe_regression(four_cell), estimate(four_cell, "twfe")) < 1e-8
    assert twfe_regression(four_cell).omitted == estimate(four_cell, "twfe").omitted


def test_twfe_regression_matches_closed_form_simulated(default_panel):
    assert max_coef_diff(twfe_regression(default_panel), estimate(default_panel, "twfe")) < 1e-8


def test_twfe_constant_outcome_zero():
    rows = [(u, t, d, 3.5) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 2)]
    panel = panel_from_rows(rows)
    est = twfe_regression(panel)
    assert all(abs(v) < 1e-10 for v in est.coefficients.values())


def test_fit_on_untreated_exact_additive():
    # Y_it = a_i + b_t exactly: predictions reproduce Y on every cell.
    a = {"a": 0.0, "b": 1.0}
    rows = [(u, t, d, a[u] + t) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 3)]
    panel = panel_from_rows(rows)
    alpha, lam = untreated_fit(panel)
    np.testing.assert_allclose(alpha[:, None] + lam, panel.outcomes, rtol=0, atol=1e-8)


def test_fit_on_untreated_fixture_prediction(four_cell):
    alpha, lam = untreated_fit(four_cell)
    assert alpha[0] + lam[four_cell.period_index(1)] == pytest.approx(2.0, abs=1e-8)


def test_fit_on_untreated_constant_panel():
    rows = [(u, t, d, 7.0) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 2)]
    panel = panel_from_rows(rows)
    alpha, lam = untreated_fit(panel)
    np.testing.assert_allclose(alpha[:, None] + lam, 7.0, rtol=0, atol=1e-10)


def test_fit_residuals_sum_to_zero(default_panel):
    alpha, lam = untreated_fit(default_panel)
    mask = _untreated_mask(default_panel)
    # Untreated cells: every control cell and the treated cells with t <= 0.
    assert mask.sum() == default_panel.outcomes.size - 50 * 10
    resid = np.where(mask, default_panel.outcomes - alpha[:, None] - lam, 0.0)
    np.testing.assert_allclose(resid.sum(axis=1), 0.0, rtol=0, atol=1e-7)
    np.testing.assert_allclose(resid.sum(axis=0), 0.0, rtol=0, atol=1e-7)


def test_imputation_cells(four_cell):
    # One treated unit and one post period: the r = 0 coefficient is the one
    # imputed effect, Y_a1 - (alpha_a + lambda_1) = 4 - 2.
    est = bjs_imputation(four_cell)
    assert [r for r in est.coefficients if r >= 0] == [0]
    assert est.coefficients[0] == pytest.approx(2.0, abs=1e-8)


def test_bjs_imputation_matches_closed_form(four_cell, default_panel):
    for panel in (four_cell, default_panel):
        assert max_coef_diff(bjs_imputation(panel), estimate(panel, "bjs")) < 1e-8
        assert bjs_imputation(panel).omitted == estimate(panel, "bjs").omitted


def test_bjs_pooled_pre_categories(default_panel):
    est = estimate_many(default_panel, ["bjs"], n_pre=5)[0]
    assert sorted(r for r in est.coefficients if r < 0) == list(range(-5, 0))
    assert set(est.omitted) == set(range(-16, -5))
    # Pooled baseline is the mean gap over the pooled periods.
    full = estimate(default_panel, "bjs")
    g0 = {r: full.coefficients[r] for r in full.coefficients if r < 0}
    # reconstruct: pooled base periods are t in [-15, -5] -> r in [-16, -6]
    pool = [g0.get(r, 0.0) for r in range(-16, -5)]  # r=-16 omitted => gap 0 vs itself
    base = np.mean(pool)
    for r in range(-5, 0):
        assert est.coefficients[r] == pytest.approx(g0[r] - base, abs=1e-10)


def test_bjs_pooled_bounds(four_cell):
    with pytest.raises(ValueError):
        estimate_many(four_cell, ["bjs"], n_pre=0)
    with pytest.raises(ValueError):
        estimate_many(four_cell, ["bjs"], n_pre=3)


def test_estimate_many_matches_single_calls(default_panel):
    for est in estimate_many(default_panel, list(TAGS), n_pre=5):
        if est.estimator == "bjs":
            assert est == estimate_many(default_panel, ["bjs"], n_pre=5)[0]
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
    assert max_coef_diff(twfe_regression(panel), estimate(panel, "twfe")) < 1e-8
    imputed, closed = bjs_imputation(panel), estimate(panel, "bjs")
    assert max_coef_diff(imputed, closed) < 1e-8
    assert imputed.omitted == closed.omitted


def test_untreated_fit_singular_when_every_unit_treated():
    # No untreated cell in a post period, so its effect is not identified.
    panel = PanelDataset(("a", "b"), np.array([True, True]), -2, 1, np.zeros((2, 4)))
    with pytest.raises(SingularDesign):
        untreated_fit(panel)
    with pytest.raises(SingularDesign):
        bjs_imputation(panel)


@pytest.mark.parametrize("twin", [twfe_regression, bjs_imputation])
@pytest.mark.parametrize("n1, n0, t_min, t_max", [(1, 0, -1, 1), (2, 0, -1, 1), (40, 0, -15, 10),
                                                  (3000, 0, -3, 2), (0, 1, -1, 1), (0, 2, -1, 1),
                                                  (0, 40, -15, 10)])
def test_twins_singular_without_both_groups(twin, n1, n0, t_min, t_max):
    # With every unit treated the period effects absorb each indicator, so
    # X'MX is round-off; with none it is 0. Warnings are errors here, so
    # neither twin may warn on its way to the exception.
    outcomes = 5 * np.random.default_rng(n1 + n0).standard_normal((n1 + n0, t_max - t_min + 1))
    panel = PanelDataset(tuple(f"u{i}" for i in range(n1 + n0)), np.arange(n1 + n0) < n1,
                         t_min, t_max, outcomes)
    with pytest.raises(SingularDesign):
        twin(panel)


@pytest.mark.parametrize("twin, tag", [(twfe_regression, "twfe"), (bjs_imputation, "bjs")])
def test_twins_10k_units_bounded_memory(twin, tag):
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    tracemalloc.start()
    try:
        est = twin(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_coef_diff(est, estimate(panel, tag)) < 1e-8
    # 8.2 MiB measured for twfe_regression and 7.4 MiB for bjs_imputation,
    # each with its one fixed-effects solve: the scaled outcomes, the cell
    # mask and weights, y times the weights, and (n, 1 + K) blocks of unit
    # sums and unit effects. Partialling out one (n, T) indicator layer at
    # a time took 10.2 MiB, and a (1 + K, n, T) stack of every indicator
    # 163 MiB.
    assert peak < 12 * 2**20


@pytest.mark.parametrize("twin", [twfe_regression, bjs_imputation])
def test_each_twin_makes_one_fixed_effects_solve(monkeypatch, default_panel, twin):
    # bjs_imputation's post side reads y's effects off its pre side's fit.
    calls = []
    effects = _FixedEffects.effects

    def counted(self, unit_sums, period_sums):
        calls.append(1)
        return effects(self, unit_sums, period_sums)

    monkeypatch.setattr(_FixedEffects, "effects", counted)
    twin(default_panel)
    assert len(calls) == 1


# --- the batched indicator projection ------------------------------------


def fe_residual(fe, z):
    """The (n, T) layer ``z`` with its fixed effects partialled out; 0 off the mask."""
    alpha, lam = fe_fit(fe, z)
    return (z - alpha[:, None] - lam) * fe.w


def per_layer_projection(fe, treated, cols, y):
    """(X'MX, X'My) from the residual of y and of each indicator layer in turn."""
    d = treated.astype(float)
    xtmy = (d @ fe_residual(fe, y))[cols]
    xtmx = np.empty((len(cols), len(cols)))
    for j, col in enumerate(cols):
        layer = np.zeros(y.shape)
        layer[:, col] = d
        xtmx[:, j] = (d @ fe_residual(fe, layer))[cols]
    return xtmx, xtmy


def twin_design(panel, kind):
    """The cell mask and indicator periods of ``twfe_regression`` or ``bjs_imputation``'s pre side."""
    if kind == "twfe":
        periods = [t for t in range(panel.t_min, panel.t_max + 1) if t != 0]
        return np.ones(panel.outcomes.shape, dtype=bool), periods
    return _untreated_mask(panel), range(panel.t_min + 1, 1)


@settings(max_examples=80, deadline=None)
@given(n1=st.integers(1, 5), n0=st.integers(1, 5), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 4), kind=st.sampled_from(["twfe", "bjs"]),
       scale=st.sampled_from([1.0, 1e-6, 1e6]), data_seed=st.integers(0, 2**32))
@example(n1=1, n0=1, t_min=-1, t_max=1, kind="twfe", scale=1.0, data_seed=0)
@example(n1=1, n0=1, t_min=-1, t_max=1, kind="bjs", scale=1.0, data_seed=0)
@example(n1=1, n0=1, t_min=-1, t_max=3, kind="bjs", scale=1e6, data_seed=1)
def test_batched_projection_matches_one_layer_at_a_time(n1, n0, t_min, t_max, kind, scale, data_seed):
    rng = np.random.default_rng(data_seed)
    n = n1 + n0
    panel = PanelDataset(tuple(f"u{i}" for i in range(n)), np.arange(n) < n1, t_min, t_max,
                         scale * rng.standard_normal((n, t_max - t_min + 1)))
    mask, periods = twin_design(panel, kind)
    fe = _FixedEffects(mask)
    cols = [panel.period_index(t) for t in periods]
    xtmx, xtmy, counts, alpha, lam = _projection(fe, panel.treated, cols, panel.outcomes)
    ref_xtmx, ref_xtmy = per_layer_projection(fe, panel.treated, cols, panel.outcomes)
    ref_alpha, ref_lam = fe_fit(fe, panel.outcomes)
    tol = 1e-12 * max(1.0, np.abs(panel.outcomes).max())
    assert np.abs(xtmx - ref_xtmx).max() <= tol
    assert np.abs(xtmy - ref_xtmy).max() <= tol
    assert np.abs(alpha - ref_alpha).max() <= tol
    assert np.abs(lam - ref_lam).max() <= tol
    assert counts.tolist() == mask[panel.treated][:, cols].sum(axis=0).tolist()


@pytest.mark.parametrize("kind", ["twfe", "bjs"])
def test_batched_projection_without_treated_units_is_zero(kind):
    panel = PanelDataset(("a", "b", "c"), np.zeros(3, dtype=bool), -2, 2,
                         np.random.default_rng(0).standard_normal((3, 5)))
    mask, periods = twin_design(panel, kind)
    cols = [panel.period_index(t) for t in periods]
    xtmx, xtmy, counts, _, _ = _projection(_FixedEffects(mask), panel.treated, cols, panel.outcomes)
    assert not xtmx.any() and not xtmy.any() and not counts.any()


# --- cross-estimator properties ------------------------------------------


def test_equivalences_on_fuzz_panels():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        panel = make_fuzz_panel(rng)
        twfe, _, universal, bjs = estimate_many(panel, TAGS)
        assert max_coef_diff(twfe_regression(panel), twfe) < 1e-8
        assert max_coef_diff(universal, twfe) < 1e-12
        assert max_coef_diff(bjs_imputation(panel), bjs) < 1e-8


def test_post_side_agreement(default_panel):
    d = estimate(default_panel, "cs_dcdh_default").coefficients
    u = estimate(default_panel, "cs_dcdh_universal").coefficients
    for r in range(0, default_panel.t_max):
        assert d[r] == pytest.approx(u[r], abs=1e-12)


def telescoping_holds(panel, tol=1e-9):
    """Short pre differences sum to the (negated) long difference.

    For every pre relative time r < -1, sum of the CS/dCDH short differences
    at s = r+1 .. -1 equals -beta_r^TWFE.
    """
    cs = estimate(panel, "cs_dcdh_default").coefficients
    tw = estimate(panel, "twfe").coefficients
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
    for est_a, est_b in zip(estimate_many(default_panel, TAGS), estimate_many(shifted, TAGS)):
        a, b = est_a.coefficients, est_b.coefficients
        assert all(abs(a[r] - b[r]) < 1e-9 for r in a)


def test_scale_equivariance(default_panel):
    scaled = scale_panel(default_panel, -2.5)
    for est_a, est_b in zip(estimate_many(default_panel, TAGS), estimate_many(scaled, TAGS)):
        a, b = est_a.coefficients, est_b.coefficients
        assert all(abs(-2.5 * a[r] - b[r]) < 1e-9 for r in a)


def test_zero_gamma_near_zero_noise_all_zero():
    panel = simulate(DgpConfig(gamma=0.0, error_sd=1e-12, seed=3,
                               t_min=-4, t_max=3, n_treated=3, n_control=3))
    for est in estimate_many(panel, TAGS):
        assert all(abs(v) < 1e-9 for v in est.coefficients.values())
