import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    OmittedCategory,
    PanelDataset,
    brute_force_did,
    estimate,
    population_bjs,
    population_cs_dcdh,
    population_curve,
    population_twfe,
)
from evstudy.oracle import matching_base_spec
from evstudy.panel import TimeOutOfRange
from evstudy.spec import TAGS

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
    assert sorted(curve) == [r for r in range(-5, 3) if r != -5]
    assert curve[-2] == 0.5 and curve[2] == 1.5
    curve = population_curve("twfe", 0.5, -4, 3)
    assert -1 not in curve and curve[-5] == -2.0


@pytest.mark.parametrize("t_min", [-1, -2, -6])
def test_pooled_bjs_curve_matches_a_noiseless_panel(t_min):
    from evstudy import estimate_many, validate_panel

    gamma, t_max = 0.7, 3
    panel = validate_panel([(u, t, d, gamma * t * d) for u, d in (("a", 1), ("b", 1), ("c", 0))
                            for t in range(t_min, t_max + 1)])
    for n_pre in range(1, -t_min + 1):
        (est,) = estimate_many(panel, ["bjs"], n_pre)
        n_pool = -t_min - n_pre + 1
        curve = population_curve("bjs", gamma, t_min, t_max, n_pool)
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


# --- one row pass per panel ---------------------------------------------

_to_rows = PanelDataset.to_rows  # unpatched, for the reference scan


def per_call_scan(panel, r_target, base_spec):
    """Reference DiD: rescan every row for each group mean, as a literal oracle would."""
    rows = _to_rows(panel)
    t_hi = r_target + 1
    times = sorted({t for _, t, _, _ in rows})
    if t_hi not in times:
        raise TimeOutOfRange(f"period {t_hi} not in panel")

    def mean_at(t, d):
        total, count = 0.0, 0
        for _, time, treat, y in rows:
            if time == t and treat == d:
                total += y
                count += 1
        return total / count

    kind = base_spec[0]
    if kind in ("period", "prior_period"):
        t0 = base_spec[1] if kind == "period" else r_target
        if t0 not in times:
            raise TimeOutOfRange(f"base period {t0} not in panel")
        base = mean_at(t0, 1) - mean_at(t0, 0)
    elif kind == "pre_mean":
        sums, counts, groups = {}, {}, {}
        for uid, time, treat, y in rows:
            groups[uid] = treat
            if time <= 0:
                sums[uid] = sums.get(uid, 0.0) + y
                counts[uid] = counts.get(uid, 0) + 1

        def group_pre_mean(d):
            vals = [sums[u] / counts[u] for u in sums if groups[u] == d]
            return sum(vals) / len(vals)
        base = group_pre_mean(1) - group_pre_mean(0)
    else:
        raise ValueError(f"unknown base spec {base_spec!r}")
    return (mean_at(t_hi, 1) - mean_at(t_hi, 0)) - base


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TimeOutOfRange, ValueError) as exc:
        return type(exc), str(exc)


def _queries(panel):
    """(r, spec) for every relative time, under each tag's spec and the three kinds."""
    for r in range(panel.t_min - 1, panel.t_max):
        specs = {matching_base_spec(tag, r, panel.t_min) for tag in TAGS}
        for spec in sorted(specs | {("period", 0), ("pre_mean",), ("prior_period",)}):
            yield r, spec


def _random_panel(n1, n0, t_min, t_max, data_seed, scale=1.0):
    rng = np.random.default_rng(data_seed)
    n = n1 + n0
    return PanelDataset(tuple(f"u{i}" for i in range(n)), np.arange(n) < n1, t_min, t_max,
                        scale * rng.standard_normal((n, t_max - t_min + 1)))


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 4), n0=st.integers(1, 4), t_min=st.integers(-4, -1),
       t_max=st.integers(1, 3), data_seed=st.integers(0, 2**32),
       scale=st.sampled_from([1.0, 1e-300, 1e300]))
@example(n1=1, n0=1, t_min=-1, t_max=1, data_seed=0, scale=1.0)
@example(n1=1, n0=3, t_min=-1, t_max=2, data_seed=1, scale=1e300)
def test_brute_force_matches_a_per_call_row_scan(n1, n0, t_min, t_max, data_seed, scale):
    panel = _random_panel(n1, n0, t_min, t_max, data_seed, scale)
    for r, spec in _queries(panel):
        assert _outcome(brute_force_did, panel, r, spec) == _outcome(per_call_scan, panel, r, spec)


def _count_to_rows(monkeypatch):
    """A list that grows by one on each ``PanelDataset.to_rows`` call."""
    calls = []

    def counted(self):
        calls.append(None)
        return _to_rows(self)
    monkeypatch.setattr(PanelDataset, "to_rows", counted)
    return calls


def _every_coefficient(panel):
    return [brute_force_did(panel, r, matching_base_spec(tag, r, panel.t_min))
            for tag in TAGS for r in estimate(panel, tag).coefficients]


def test_every_coefficient_of_a_panel_scans_its_rows_once(monkeypatch):
    panel = _random_panel(3, 2, -4, 3, data_seed=8)
    calls = _count_to_rows(monkeypatch)
    values = _every_coefficient(panel)
    assert len(values) == 4 * 7
    assert len(calls) == 1


def test_switching_panels_never_answers_from_a_stale_pass(monkeypatch):
    a = _random_panel(2, 2, -3, 2, data_seed=1)
    b = _random_panel(2, 2, -3, 2, data_seed=2)
    calls = _count_to_rows(monkeypatch)
    for panel in (a, b, a):
        for r, spec in _queries(panel):
            assert _outcome(brute_force_did, panel, r, spec) == _outcome(per_call_scan, panel, r, spec)
    assert len(calls) == 3  # one pass per switch of panel

    # The cache holds no reference: a deleted panel is freed, and a new one of
    # the same shape (perhaps at the same address) gets a pass of its own.
    ref = weakref.ref(a)
    del a, panel
    gc.collect()
    assert ref() is None
    c = _random_panel(2, 2, -3, 2, data_seed=3)
    for r, spec in _queries(c):
        assert _outcome(brute_force_did, c, r, spec) == _outcome(per_call_scan, c, r, spec)
    assert len(calls) == 4
