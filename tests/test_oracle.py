import numpy as np
import pytest

from evstudy import (
    OmittedCategory,
    brute_force_did,
    estimate,
    population_bjs,
    population_cs_dcdh,
    population_curve,
    population_twfe,
)
from evstudy.oracle import matching_base_spec
from evstudy.panel import TimeOutOfRange

from helpers import make_fuzz_panel


def test_population_twfe_values():
    assert population_twfe(0.5, 5) == 3.0
    assert population_twfe(0.5, -3) == -1.0
    assert population_twfe(0.0, 9) == 0.0
    with pytest.raises(OmittedCategory):
        population_twfe(0.5, -1)


def test_population_cs_dcdh_values():
    assert population_cs_dcdh(0.5, -7) == 0.5
    assert population_cs_dcdh(0.5, 5) == 3.0
    assert population_cs_dcdh(0.0, -2) == 0.0
    with pytest.raises(OmittedCategory):
        population_cs_dcdh(0.5, -16, t_min=-15)


def test_population_bjs_values():
    assert population_bjs(0.5, -1, -15) == pytest.approx(7.5)
    assert population_bjs(0.5, 0, -15) == pytest.approx(4.25)
    assert population_bjs(0.5, -15, -15) == pytest.approx(0.5)
    with pytest.raises(OmittedCategory):
        population_bjs(0.5, -16, -15)


def test_twfe_line_is_straight():
    vals = [population_twfe(0.5, r) for r in range(-10, 8) if r != -1]
    vals.insert(9, 0.0)  # restore the r = -1 point, which lies on the line
    second = np.diff(vals, n=2)
    assert np.abs(second).max() == 0.0


def test_cs_kink_iff_gamma_nonzero():
    for gamma, kinked in ((0.5, True), (0.0, False)):
        pre = [population_cs_dcdh(gamma, r) for r in (-3, -2, -1)]
        post = [population_cs_dcdh(gamma, r) for r in (0, 1, 2)]
        assert np.ptp(pre) == 0.0  # flat pre segment
        slope = np.diff(post)
        assert np.allclose(slope, gamma)
        # second difference across r = 0 (points -1, 0, 1) detects the kink
        kink = (post[1] - post[0]) - (post[0] - pre[-1])
        assert (abs(kink) > 0) == kinked


def test_bjs_jump_size():
    gamma, t_min = 0.5, -15
    t_low = -t_min
    jump = population_bjs(gamma, 0, t_min) - population_bjs(gamma, -1, t_min)
    # pre limit at r=-1 is gamma*T, post value at r=0 is gamma*(1 + T/2)
    assert jump == pytest.approx(gamma * (1 - t_low / 2))
    assert jump < 0
    assert population_bjs(0.0, 0, t_min) - population_bjs(0.0, -1, t_min) == 0.0


def test_population_curve_domains():
    curve = population_curve("cs_dcdh_default", 0.5, -4, 3)
    assert sorted(curve.values) == [r for r in range(-5, 3) if r != -5]
    curve = population_curve("twfe", 0.5, -4, 3)
    assert -1 not in curve.values and -5 in curve.values


@pytest.mark.parametrize("t_min", [-1, -2, -6])
def test_pooled_bjs_curve_matches_a_noiseless_panel(t_min):
    from evstudy import estimate_many, validate_panel

    gamma, t_max = 0.7, 3
    panel = validate_panel([(u, t, d, gamma * t * d) for u, d in (("a", 1), ("b", 1), ("c", 0))
                            for t in range(t_min, t_max + 1)])
    for n_pre in range(1, -t_min + 1):
        (est,) = estimate_many(panel, ["bjs"], n_pre)
        n_pool = -t_min - n_pre + 1
        curve = population_curve("bjs", gamma, t_min, t_max, n_pool).values
        assert set(curve) == set(est.coefficients)
        assert all(abs(curve[r] - est.coefficients[r]) <= 1e-12 for r in curve)
        for r in est.omitted:
            with pytest.raises(OmittedCategory):
                population_bjs(gamma, r, t_min, n_pool)


# --- brute-force finite-sample oracle ------------------------------------


def test_brute_force_fixture(four_cell):
    assert brute_force_did(four_cell, 0, ("period", 0)) == 1.0
    assert brute_force_did(four_cell, 0, ("pre_mean",)) == 2.0
    assert brute_force_did(four_cell, -2, ("prior_period",)) == 1.0


def test_brute_force_identical_groups():
    from evstudy import validate_panel

    rows = [(u, t, d, float(t)) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 2)]
    panel = validate_panel(rows)
    for spec in (("period", 0), ("pre_mean",), ("prior_period",)):
        assert brute_force_did(panel, 0, spec) == 0.0


def test_brute_force_out_of_range(four_cell):
    with pytest.raises(TimeOutOfRange):
        brute_force_did(four_cell, 5, ("period", 0))
    with pytest.raises(TimeOutOfRange):
        brute_force_did(four_cell, 0, ("period", -9))


def agrees_with_brute_force(panel, tol=1e-10):
    for tag in ("twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"):
        est = estimate(panel, tag)
        for r, value in est.coefficients.items():
            spec = matching_base_spec(tag, r, panel.t_min)
            if abs(value - brute_force_did(panel, r, spec)) >= tol:
                return False
    return True


def test_estimators_agree_with_brute_force(four_cell):
    assert agrees_with_brute_force(four_cell)
    rng = np.random.default_rng(99)
    for _ in range(10):
        assert agrees_with_brute_force(make_fuzz_panel(rng))
