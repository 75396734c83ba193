import gc
import tracemalloc
import weakref
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    DgpConfig,
    PanelDataset,
    brute_force_did,
    estimate,
    estimate_many,
    population_curve,
    simulate,
)
from evstudy import oracle
from evstudy.oracle import matching_base_spec
from evstudy.panel import TimeOutOfRange
from evstudy.spec import TAGS

from helpers import make_fuzz_panel, panel_from_rows, panel_rows


def test_population_twfe_values():
    curve = population_curve("twfe", 0.5, -15, 10)
    assert curve[5] == 3.0
    assert curve[-3] == -1.0
    assert population_curve("twfe", 0.0, -15, 10)[9] == 0.0
    assert -1 not in curve


def test_population_cs_dcdh_values():
    curve = population_curve("cs_dcdh_default", 0.5, -15, 10)
    assert curve[-7] == 0.5
    assert curve[5] == 3.0
    assert population_curve("cs_dcdh_default", 0.0, -15, 10)[-2] == 0.0
    assert -16 not in curve


def test_population_bjs_values():
    curve = population_curve("bjs", 0.5, -15, 10)  # n_pool left at its default of 1
    assert curve[-1] == pytest.approx(7.5)
    assert curve[0] == pytest.approx(4.25)
    assert curve[-15] == pytest.approx(0.5)
    assert -16 not in curve


def test_twfe_line_is_straight():
    vals = list(population_curve("twfe", 0.5, -9, 8).values())  # r = -10 .. 7 but -1
    vals.insert(9, 0.0)  # restore the r = -1 point, which lies on the line
    second = np.diff(vals, n=2)
    assert np.abs(second).max() == 0.0


def test_cs_kink_iff_gamma_nonzero():
    for gamma, kinked in ((0.5, True), (0.0, False)):
        curve = population_curve("cs_dcdh_default", gamma, -3, 3)
        pre = [curve[r] for r in (-3, -2, -1)]
        post = [curve[r] for r in (0, 1, 2)]
        assert np.ptp(pre) == 0.0  # flat pre segment
        slope = np.diff(post)
        assert np.allclose(slope, gamma)
        # second difference across r = 0 (points -1, 0, 1) detects the kink
        kink = (post[1] - post[0]) - (post[0] - pre[-1])
        assert (abs(kink) > 0) == kinked


def test_bjs_jump_size():
    gamma, t_min = 0.5, -15
    t_low = -t_min
    curve = population_curve("bjs", gamma, t_min, 10)
    jump = curve[0] - curve[-1]
    # pre limit at r=-1 is gamma*T, post value at r=0 is gamma*(1 + T/2)
    assert jump == pytest.approx(gamma * (1 - t_low / 2))
    assert jump < 0
    flat = population_curve("bjs", 0.0, t_min, 10)
    assert flat[0] - flat[-1] == 0.0


def test_population_curve_domains():
    curve = population_curve("cs_dcdh_default", 0.5, -4, 3)
    assert sorted(curve) == [r for r in range(-5, 3) if r != -5]
    assert curve[-2] == 0.5 and curve[2] == 1.5
    curve = population_curve("twfe", 0.5, -4, 3)
    assert -1 not in curve and curve[-5] == -2.0


@pytest.mark.parametrize("t_min", [-1, -2, -6])
def test_pooled_bjs_curve_matches_a_noiseless_panel(t_min):
    gamma, t_max = 0.7, 3
    panel = panel_from_rows([(u, t, d, gamma * t * d) for u, d in (("a", 1), ("b", 1), ("c", 0))
                             for t in range(t_min, t_max + 1)])
    for n_pre in range(1, -t_min + 1):
        n_pool = -t_min - n_pre + 1
        for est in estimate_many(panel, list(TAGS), n_pre):
            curve = population_curve(est.estimator, gamma, t_min, t_max, n_pool)
            assert list(curve) == list(est.coefficients), est.estimator
            assert all(abs(curve[r] - est.coefficients[r]) <= 1e-12 for r in curve), est.estimator


# --- the per-tag population functions of 0.3.0, as a reference ------------


class _Omitted(ValueError):
    """Requested relative time is a normalized category with no coefficient."""


def _population_twfe(gamma, r):
    if r == -1:
        raise _Omitted
    return gamma * (r + 1)


def _population_cs_dcdh(gamma, r, t_min=None):
    if t_min is not None and r == t_min - 1:
        raise _Omitted
    return gamma if r < 0 else gamma * (r + 1)


def _population_bjs(gamma, r, t_min, n_pool=1):
    t_low = -t_min
    if t_min - 1 <= r < t_min - 1 + n_pool:
        raise _Omitted
    if r < 0:
        return gamma * (r + 1 - t_min - (n_pool - 1) / 2)
    return gamma * (r + 1 + t_low / 2)


def reference_curve(tag, gamma, t_min, t_max, n_pool):
    """(r, value) pairs of the curve from the per-tag function that raises on an omitted r."""
    value = {
        "twfe": lambda r: _population_twfe(gamma, r),
        "cs_dcdh_universal": lambda r: _population_twfe(gamma, r),
        "cs_dcdh_default": lambda r: _population_cs_dcdh(gamma, r, t_min),
        "bjs": lambda r: _population_bjs(gamma, r, t_min, n_pool),
    }[tag]
    pairs = []
    for r in range(t_min - 1, t_max):
        with suppress(_Omitted):
            pairs.append((r, value(r)))
    return pairs


def _bits(pairs):
    """The pairs with each value as its exact hex form, which tells -0.0 from 0.0."""
    return [(r, v.hex()) for r, v in pairs]


@settings(max_examples=400, deadline=None)
@given(tag=st.sampled_from(TAGS),
       gamma=st.sampled_from([0.0, -0.0, 1e300, -1e8, 0.5]) | st.floats(allow_nan=False),
       t_min=st.integers(-40, 3), t_max=st.integers(-3, 40), n_pool=st.integers(-3, 45))
@example(tag="bjs", gamma=-0.0, t_min=-15, t_max=10, n_pool=-3)
@example(tag="bjs", gamma=1e300, t_min=-40, t_max=40, n_pool=45)
@example(tag="cs_dcdh_default", gamma=-1e8, t_min=3, t_max=-3, n_pool=1)
def test_population_curve_matches_the_per_tag_reference(tag, gamma, t_min, t_max, n_pool):
    got = list(population_curve(tag, gamma, t_min, t_max, n_pool).items())
    assert _bits(got) == _bits(reference_curve(tag, gamma, t_min, t_max, n_pool))


# --- brute-force finite-sample oracle ------------------------------------


def test_brute_force_fixture(four_cell):
    assert brute_force_did(four_cell, 0, ("period", 0)) == 1.0
    assert brute_force_did(four_cell, 0, ("pre_mean",)) == 2.0
    assert brute_force_did(four_cell, -2, ("prior_period",)) == 1.0


def test_brute_force_identical_groups():
    rows = [(u, t, d, float(t)) for (u, d) in (("a", 1), ("b", 0)) for t in range(-2, 2)]
    panel = panel_from_rows(rows)
    for spec in (("period", 0), ("pre_mean",), ("prior_period",)):
        assert brute_force_did(panel, 0, spec) == 0.0


def test_brute_force_out_of_range(four_cell):
    with pytest.raises(TimeOutOfRange):
        brute_force_did(four_cell, 5, ("period", 0))
    with pytest.raises(TimeOutOfRange):
        brute_force_did(four_cell, 0, ("period", -9))
    with pytest.raises(TimeOutOfRange):  # period t_max + 1
        brute_force_did(four_cell, 1, ("period", 0))


def test_unknown_tags_and_base_specs_raise(four_cell):
    with pytest.raises(ValueError, match="^unknown estimator tag 'sdid'$"):
        population_curve("sdid", 0.5, -2, 2)
    with pytest.raises(ValueError, match="^unknown estimator tag 'sdid'$"):
        matching_base_spec("sdid", 0, -2)
    with pytest.raises(ValueError, match=r"^unknown base spec \('mean',\)$"):
        brute_force_did(four_cell, 0, ("mean",))


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


# --- one pass per panel -------------------------------------------------


def per_call_scan(panel, r_target, base_spec):
    """Reference DiD: rescan every row for each group mean, as a literal oracle would."""
    rows = panel_rows(panel)
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
            # An explicit loop: the builtin sum compensates float round-off
            # from Python 3.12 on, which a literal scan does not.
            total, count = 0.0, 0
            for u in sums:
                if groups[u] == d:
                    total += sums[u] / counts[u]
                    count += 1
            return total / count
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


def _count_passes(monkeypatch):
    """A list that grows by one on each pass the oracle makes over a panel."""
    calls = []
    tally = oracle._tally

    def counted(panel):
        calls.append(None)
        return tally(panel)
    monkeypatch.setattr(oracle, "_tally", counted)
    return calls


def _every_coefficient(panel):
    return [brute_force_did(panel, r, matching_base_spec(tag, r, panel.t_min))
            for tag in TAGS for r in estimate(panel, tag).coefficients]


def test_every_coefficient_of_a_panel_scans_its_rows_once(monkeypatch):
    panel = _random_panel(3, 2, -4, 3, data_seed=8)
    calls = _count_passes(monkeypatch)
    values = _every_coefficient(panel)
    assert len(values) == 4 * 7
    assert len(calls) == 1


def test_switching_panels_never_answers_from_a_stale_pass(monkeypatch):
    a = _random_panel(2, 2, -3, 2, data_seed=1)
    b = _random_panel(2, 2, -3, 2, data_seed=2)
    calls = _count_passes(monkeypatch)
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


def test_oracle_pass_at_10k_units_bounded_memory():
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000, seed=4))
    tracemalloc.start()
    try:
        value = brute_force_did(panel, 0, ("pre_mean",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - estimate(panel, "bjs").coefficients[0]) < 1e-8
    # 0.08 MiB measured: one unit's outcome list and the group totals. A
    # list of every row's tuple takes 31.7 MiB.
    assert peak < 2 * 2**20
