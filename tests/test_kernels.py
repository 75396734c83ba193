import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import BootstrapConfig, DgpConfig, UnknownEstimator, bootstrap_many, estimate, estimate_many, run_mc
from evstudy import kernels
from evstudy.spec import TAGS


def test_coef_matrix_matches_estimators(default_panel):
    mat = kernels.coef_matrix(default_panel.outcomes, default_panel.treated, default_panel.t_min, TAGS)
    offset = default_panel.t_min - 1
    for tag, row in zip(TAGS, mat):
        est = estimate(default_panel, tag)
        for r, value in est.coefficients.items():
            assert row[r - offset] == pytest.approx(value, abs=1e-12)
        for r in est.omitted:
            assert np.isnan(row[r - offset])


def test_rows_follow_the_tags_asked_for(default_panel):
    args = default_panel.outcomes, default_panel.treated, default_panel.t_min
    for n_pre in (None, 1, 3):
        # n_pre needs bjs beside it, so each tag's row is taken from [tag, "bjs"].
        alone = {tag: kernels.coef_matrix(*args, [tag, "bjs"], n_pre) for tag in TAGS}
        for tag in TAGS:
            assert alone[tag].shape == (2, default_panel.n_periods)
        for tags in (["bjs", "twfe", "bjs"], TAGS[::-1]):
            got = kernels.coef_matrix(*args, tags, n_pre)
            assert got.shape == (len(tags), default_panel.n_periods)
            for row, tag in zip(got, tags):
                assert np.array_equal(row, alone[tag][0], equal_nan=True)
        assert np.array_equal(alone["twfe"][0], alone["cs_dcdh_universal"][0], equal_nan=True)
    assert kernels.coef_matrix(*args, []).shape == (0, default_panel.n_periods)


def test_unknown_tag_raises_one_message_everywhere(four_cell):
    calls = [
        lambda: kernels.check_tags(["twfe", "sdid"]),
        lambda: kernels.coef_matrix(four_cell.outcomes, four_cell.treated, four_cell.t_min, ["sdid"]),
        lambda: estimate_many(four_cell, ["twfe", "sdid"]),
        lambda: bootstrap_many(four_cell, ["sdid"], BootstrapConfig(replications=2)),
        lambda: run_mc(DgpConfig(), ["twfe", "sdid"], draws=2, master_seed=0),
    ]
    for call in calls:
        with pytest.raises(UnknownEstimator) as info:
            call()
        assert str(info.value) == f"unknown estimator 'sdid'; choose from {TAGS}"


def test_n_pre_out_of_range_raises_one_message_everywhere(four_cell):
    cases = [(["bjs"], 0, "n_pre must be in [1, 2], got 0"),
             (["twfe", "bjs"], -four_cell.t_min + 1, "n_pre must be in [1, 2], got 3"),
             (["twfe", "cs_dcdh_default"], 1, "n_pre applies to the bjs estimator only")]
    for tags, n_pre, message in cases:
        calls = [
            lambda: kernels.coef_matrix(four_cell.outcomes, four_cell.treated, four_cell.t_min, tags, n_pre),
            lambda: estimate_many(four_cell, tags, n_pre),
            lambda: bootstrap_many(four_cell, tags, BootstrapConfig(replications=2), n_pre=n_pre),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 4), n1=st.integers(1, 5), n0=st.integers(1, 5), t_min=st.integers(-5, -1),
       t_max=st.integers(1, 4), pool=st.integers(0, 5), data_seed=st.integers(0, 2**32))
@example(k=3, n1=1, n0=1, t_min=-1, t_max=1, pool=0, data_seed=0)
@example(k=2, n1=1, n0=3, t_min=-1, t_max=3, pool=1, data_seed=1)
@example(k=1, n1=4, n0=1, t_min=-4, t_max=2, pool=2, data_seed=2)
def test_coef_matrix_on_a_block_is_each_panel_in_turn(k, n1, n0, t_min, t_max, pool, data_seed):
    # Treated rows anywhere among the units, not only first as draw_outcomes puts them.
    rng = np.random.default_rng(data_seed)
    treated = rng.permutation(np.arange(n1 + n0) < n1)
    T = t_max - t_min + 1
    y = 3 * rng.standard_normal((k, n1 + n0, T))
    n_pre = None if pool == 0 else min(pool, -t_min)
    block = kernels.coef_matrix(y, treated, t_min, TAGS, n_pre)
    assert block.shape == (len(TAGS), k, T)
    for d in range(k):
        assert np.array_equal(block[:, d], kernels.coef_matrix(y[d], treated, t_min, TAGS, n_pre),
                              equal_nan=True)
