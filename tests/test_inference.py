import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import (
    BootstrapConfig,
    DgpConfig,
    PanelDataset,
    UnknownEstimator,
    bjs_imputation,
    bootstrap_many,
    brute_force_did,
    estimate_many,
    simulate,
    twfe_regression,
)
from evstudy import inference, kernels
from evstudy.cli import main
from evstudy.dgp import SEED_BLOCK, stream_seeds
from evstudy.estimators import TAGS
from evstudy.oracle import matching_base_spec
from evstudy.panel import NonFiniteOutcome, panel_from_columns
from helpers import reference_seed


def small_panel(seed=4, sd=1.0):
    return simulate(DgpConfig(gamma=0.5, t_min=-4, t_max=3, n_treated=12,
                              n_control=12, error_sd=sd, seed=seed))


def test_replications_past_the_cell_limit_fail_before_any_allocation():
    # 4300000 replicates of 5000+5000 units over 26 periods are 1.1e12 cells,
    # just past 2**40: about 0.9 GB of gaps and minutes of resampling.
    panel = simulate(DgpConfig(n_treated=5000, n_control=5000))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^replications x units x periods = 4300000 x 10000"
                                             r" x 26 is more than the limit of 2\*\*40 "):
            bootstrap_many(panel, ["twfe", "bjs"], BootstrapConfig(replications=4_300_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # nothing sized by the panel or the replications


def test_config_invariants():
    with pytest.raises(ValueError):
        BootstrapConfig(replications=1)
    with pytest.raises(ValueError):
        BootstrapConfig(level=1.0)
    with pytest.raises(ValueError):
        BootstrapConfig(level=0.0)
    with pytest.raises(ValueError):
        BootstrapConfig(method="wild")


def test_unknown_estimator(four_cell):
    with pytest.raises(UnknownEstimator):
        bootstrap_many(four_cell, ["nope"], BootstrapConfig(seed=1))


def test_point_estimates_unchanged():
    panel = small_panel()
    boots = bootstrap_many(panel, list(TAGS), BootstrapConfig(replications=49, seed=2))
    for boot, point in zip(boots, estimate_many(panel, TAGS), strict=True):
        assert boot.coefficients == point.coefficients
        assert boot.omitted == point.omitted


def test_reproducible():
    panel = small_panel()
    cfg = BootstrapConfig(replications=99, seed=11)
    [a] = bootstrap_many(panel, ["twfe"], cfg)
    [b] = bootstrap_many(panel, ["twfe"], cfg)
    assert a.se == b.se
    assert a.ci == b.ci


def test_zero_noise_ses_vanish():
    panel = simulate(DgpConfig(gamma=0.5, t_min=-3, t_max=2, n_treated=5,
                               n_control=5, error_sd=1e-12, seed=6))
    [boot] = bootstrap_many(panel, ["twfe"], BootstrapConfig(replications=199, seed=0))
    assert max(boot.se.values()) < 1e-6


def test_normal_ci_contains_point():
    panel = small_panel()
    [boot] = bootstrap_many(panel, ["bjs"], BootstrapConfig(replications=99, seed=5))
    for r, (lo, hi) in boot.ci.items():
        assert lo <= boot.coefficients[r] <= hi


def test_percentile_ci_ordered():
    panel = small_panel()
    [boot] = bootstrap_many(panel, ["twfe"],
                            BootstrapConfig(replications=99, seed=5, method="percentile"))
    for lo, hi in boot.ci.values():
        assert lo <= hi


def test_se_scale_with_error_sd():
    cfg = BootstrapConfig(replications=499, seed=9)
    [a] = bootstrap_many(small_panel(seed=13, sd=1.0), ["twfe"], cfg)
    [b] = bootstrap_many(small_panel(seed=13, sd=2.0), ["twfe"], cfg)
    # Doubling the noise scale doubles every SE up to Monte Carlo tolerance.
    ratios = np.array([b.se[r] / a.se[r] for r in a.se])
    assert np.all(np.abs(ratios - 2.0) < 0.2)


def test_bjs_pooled_bootstrap():
    panel = small_panel()
    [boot] = bootstrap_many(panel, ["bjs"], BootstrapConfig(replications=99, seed=3), n_pre=2)
    assert sorted(r for r in boot.coefficients if r < 0) == [-2, -1]
    assert set(boot.se) == set(boot.coefficients)
    with pytest.raises(ValueError):
        bootstrap_many(panel, ["twfe"], BootstrapConfig(seed=1), n_pre=2)


# --- replicate gaps against an explicit gather --------------------------------


def _gather_reps(panel, B, seed, n_pre=None):
    """Per-tag (B, T) replicate coefficients by the definition: gather the
    resampled rows of each group, average, then apply each baseline rule."""
    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    gaps = []
    for k in range(B):
        means = []
        for stream, y in ((0, y1), (1, y0)):
            rng = np.random.default_rng(reference_seed(seed, 2 * k + stream))
            idx = rng.integers(0, y.shape[0], size=y.shape[0])
            means.append(y[idx].mean(axis=0))
        gaps.append(means[0] - means[1])
    j0 = -panel.t_min
    pool_hi = 0 if n_pre is None else j0 - n_pre
    reps = {tag: np.full((B, len(gaps[0])), np.nan) for tag in TAGS}
    for k, g in enumerate(gaps):
        for j in range(len(g)):
            if j != j0:
                reps["twfe"][k, j] = reps["cs_dcdh_universal"][k, j] = g[j] - g[j0]
            if 1 <= j <= j0:
                reps["cs_dcdh_default"][k, j] = g[j] - g[j - 1]
            elif j > j0:
                reps["cs_dcdh_default"][k, j] = g[j] - g[j0]
            if pool_hi < j <= j0:
                reps["bjs"][k, j] = g[j] - np.mean(g[: pool_hi + 1])
            elif j > j0:
                reps["bjs"][k, j] = g[j] - np.mean(g[: j0 + 1])
    return reps


def _check_against_gather(panel, B, seed, n_pre=None):
    reps = _gather_reps(panel, B, seed, n_pre)
    # The replicate loop's gaps through the one baseline transform give the
    # same replicates.
    got = kernels.baseline_coefs(inference._replicate_gaps(panel, B, seed), -panel.t_min, TAGS, n_pre)
    for tag, row in zip(TAGS, got):
        assert np.array_equal(np.isnan(row), np.isnan(reps[tag]))
        assert np.nanmax(np.abs(row - reps[tag]), initial=0.0) <= 1e-12
    # And the public path's se / percentile ci are those of the gathered replicates.
    config = BootstrapConfig(replications=B, seed=seed, method="percentile")
    for boot in bootstrap_many(panel, list(TAGS), config, n_pre=n_pre):
        offset = panel.t_min - 1
        for r, se in boot.se.items():
            draws = reps[boot.estimator][:, r - offset]
            assert abs(se - draws.std(ddof=1)) <= 1e-12
            lo, hi = boot.ci[r]
            assert abs(lo - np.quantile(draws, 0.025)) <= 1e-12
            assert abs(hi - np.quantile(draws, 0.975)) <= 1e-12


def _panel(n1, n0, t_min, t_max, data_seed):
    rng = np.random.default_rng(data_seed)
    n, T = n1 + n0, t_max - t_min + 1
    treated = np.zeros(n, dtype=bool)
    treated[:n1] = True
    return PanelDataset(unit_ids=tuple(f"u{i}" for i in range(n)), treated=treated,
                        t_min=t_min, t_max=t_max, outcomes=3 * rng.standard_normal((n, T)))


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), n0=st.integers(1, 6), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 4), B=st.integers(2, 12), seed=st.integers(0, 2**32),
       data_seed=st.integers(0, 2**32), n_pre=st.integers(1, 4))
@example(n1=1, n0=1, t_min=-1, t_max=1, B=2, seed=0, data_seed=0, n_pre=1)
@example(n1=1, n0=1, t_min=-3, t_max=2, B=2, seed=7, data_seed=1, n_pre=1)
def test_count_weights_match_explicit_gather(n1, n0, t_min, t_max, B, seed, data_seed, n_pre):
    panel = _panel(n1, n0, t_min, t_max, data_seed)
    _check_against_gather(panel, B, seed)
    if t_min <= -2:
        # Pooled BJS: fewer pre coefficients than the panel allows.
        _check_against_gather(panel, B, seed, n_pre=min(n_pre, -t_min - 1))


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(n1=st.integers(1, 6), n0=st.integers(1, 6), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 4), data_seed=st.integers(0, 2**32),
       shape=st.sampled_from(["normal", "alternating", "constant"]),
       closeness=st.one_of(st.floats(0.5, 1.0), st.floats(1.0, 4.0)),
       method=st.sampled_from(["normal", "percentile"]))
@example(n1=1, n0=1, t_min=-1, t_max=1, data_seed=0, shape="alternating", closeness=0.999,
         method="normal")
@example(n1=1, n0=1, t_min=-1, t_max=1, data_seed=0, shape="alternating", closeness=2.0,
         method="percentile")
@example(n1=5, n0=3, t_min=-1, t_max=1, data_seed=0, shape="alternating", closeness=1.0,
         method="normal")
def test_panels_near_the_overflow_bound_give_finite_results(n1, n0, t_min, t_max, data_seed,
                                                            shape, closeness, method):
    n, T = n1 + n0, t_max - t_min + 1
    # Every outcome at +-max|y|: the group gap flips sign each period (the
    # largest gap differences) or keeps it (the largest BJS base sums).
    sign = np.where(np.arange(n) < n1, 1.0, -1.0)[:, None]
    y = {"normal": np.random.default_rng(data_seed).standard_normal((n, T)),
         "alternating": sign * (-1.0) ** np.arange(T),
         "constant": sign * np.ones(T)}[shape]
    # closeness times the validation bound, max(n, 2T, 4) * max|y| finite;
    # past 1 a panel must be rejected or still give finite results. Scaling
    # max|y| to 1 first keeps the factor finite when max|y| < 1.
    y /= np.abs(y).max()
    y *= np.finfo(float).max / max(n, 2 * T, 4) * closeness
    try:
        panel = panel_from_columns([f"u{i}" for i in range(n)],
                                   [i for i in range(n) for _ in range(T)],
                                   list(range(t_min, t_max + 1)) * n,
                                   [i < n1 for i in range(n) for _ in range(T)],
                                   y.ravel().tolist())
    except NonFiniteOutcome:
        return
    for est in estimate_many(panel, list(TAGS)):
        assert np.isfinite(list(est.coefficients.values())).all()
        brute = [brute_force_did(panel, r, matching_base_spec(est.estimator, r, t_min))
                 for r in est.coefficients]
        assert np.isfinite(brute).all()
    for twin in (twfe_regression, bjs_imputation):
        assert np.isfinite(list(twin(panel).coefficients.values())).all()
    config = BootstrapConfig(replications=8, seed=data_seed, method=method)
    for est in bootstrap_many(panel, list(TAGS), config):
        assert np.isfinite(list(est.se.values())).all()


def test_count_weights_match_explicit_gather_10k_units():
    panel = _panel(5000, 5000, -3, 2, data_seed=3)
    _check_against_gather(panel, B=4, seed=12)
    _check_against_gather(panel, B=4, seed=12, n_pre=1)


def test_bootstrap_memory_grows_with_units_plus_replicates_not_their_product():
    # The default 26 periods at 5000+5000 units and B = 999: a (B, n) array
    # of any kind would take 38 MiB per group.
    panel = _panel(5000, 5000, -15, 10, data_seed=5)
    config = BootstrapConfig(replications=999, seed=1)
    tracemalloc.start()
    try:
        bootstrap_many(panel, list(TAGS), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n_pre", [None, 2])
def test_bootstrap_many_equals_bootstrap_per_tag(n_pre):
    panel = small_panel()
    cfg = BootstrapConfig(replications=49, seed=8)
    many = bootstrap_many(panel, list(TAGS), cfg, n_pre=n_pre)
    for tag, got in zip(TAGS, many):
        [one] = bootstrap_many(panel, [tag], cfg, n_pre=n_pre if tag == "bjs" else None)
        assert got == one


def test_estimate_all_draws_resamples_once(tmp_path, monkeypatch):
    derived = []

    def recording(master_seed, start, stop):
        derived.extend(range(start, stop))
        return stream_seeds(master_seed, start, stop)

    monkeypatch.setattr(inference, "stream_seeds", recording)
    panel_csv = tmp_path / "panel.csv"
    assert main(["simulate", "--n-treated", "4", "--n-control", "3", "--t-min", "-3",
                 "--t-max", "2", "--out", str(panel_csv)]) == 0
    B = 7
    assert main(["estimate", str(panel_csv), "--estimator", "all", "--bootstrap",
                 "--replications", str(B), "--out", str(tmp_path / "est.csv")]) == 0
    assert sorted(derived) == list(range(2 * B))


# --- block-derived streams against one default_rng per stream -----------------


def _reference_gaps(panel, B, seed):
    """(B, T) replicate gaps by the documented rule, one stream at a time:
    default_rng(SeedSequence([seed, i]) state) for stream i, treated rows
    from stream 2k and control rows from stream 2k + 1."""
    y1 = panel.outcomes[panel.treated]
    y0 = panel.outcomes[~panel.treated]
    gaps = np.empty((B, panel.n_periods))
    for k in range(B):
        means = []
        for stream, y in ((2 * k, y1), (2 * k + 1, y0)):
            n = y.shape[0]
            idx = np.random.default_rng(reference_seed(seed, stream)).integers(0, n, size=n)
            means.append(np.bincount(idx, minlength=n) @ y / n)
        gaps[k] = means[0] - means[1]
    return gaps


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), n0=st.integers(1, 6), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 4), B=st.integers(2, 12),
       seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**200)),
       data_seed=st.integers(0, 2**32))
@example(n1=1, n0=1, t_min=-1, t_max=1, B=2, seed=0, data_seed=0)
@example(n1=1, n0=1, t_min=-1, t_max=2, B=2, seed=2**64, data_seed=1)
@example(n1=2, n0=3, t_min=-2, t_max=1, B=2, seed=18446744073709551619, data_seed=2)
def test_replicate_gaps_equal_one_default_rng_per_stream(n1, n0, t_min, t_max, B, seed, data_seed):
    panel = _panel(n1, n0, t_min, t_max, data_seed)
    assert np.array_equal(inference._replicate_gaps(panel, B, seed), _reference_gaps(panel, B, seed))


@pytest.mark.parametrize("block", [1, 3, 4])
def test_replicate_gaps_do_not_depend_on_the_seed_block(monkeypatch, block):
    # 5 replicates in blocks of 1, 3 or 4: each size but 1 leaves a short last block.
    panel = _panel(3, 4, -2, 2, data_seed=6)
    monkeypatch.setattr(inference, "SEED_BLOCK", block)
    assert np.array_equal(inference._replicate_gaps(panel, 5, 2**70), _reference_gaps(panel, 5, 2**70))


def test_replicate_gaps_across_real_seed_blocks():
    # Two full blocks of SEED_BLOCK replicates and a last block of one.
    panel = _panel(2, 3, -2, 1, data_seed=7)
    B = 2 * SEED_BLOCK + 1
    assert np.array_equal(inference._replicate_gaps(panel, B, 2**70), _reference_gaps(panel, B, 2**70))


def test_replicate_gaps_equal_one_default_rng_per_stream_10k_units():
    panel = _panel(5000, 5000, -3, 2, data_seed=3)
    assert np.array_equal(inference._replicate_gaps(panel, 3, 12), _reference_gaps(panel, 3, 12))
