from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy import DgpConfig, InvalidConfig, simulate
from evstudy import dgp
from evstudy.dgp import draw_outcomes, pcg64_words, stream_seeds
from helpers import assert_same_panel, reference_seed


def test_reproducible_bit_exact():
    cfg = DgpConfig(seed=123)
    assert_same_panel(simulate(cfg), simulate(cfg))


def test_seed_sensitivity():
    a = simulate(DgpConfig(seed=1))
    b = simulate(DgpConfig(seed=2))
    assert not np.array_equal(a.outcomes, b.outcomes)


def test_paper_design_shape():
    panel = simulate(DgpConfig(gamma=0.5, t_min=-15, t_max=10, n_treated=50, n_control=50))
    assert panel.n_units == 100
    assert panel.n_periods == 26
    assert int(panel.treated.sum()) == 50


def test_unit_ids_are_as_wide_as_the_largest_index():
    panel = simulate(DgpConfig(n_treated=10, n_control=3))
    assert panel.unit_ids == tuple(f"t{i}" for i in range(10)) + ("c0", "c1", "c2")
    panel = simulate(DgpConfig(n_treated=2, n_control=11))
    assert panel.unit_ids[:3] == ("t00", "t01", "c00") and panel.unit_ids[-1] == "c10"


@pytest.mark.parametrize("shape, size", [((64,), "0.5 KiB"), ((2**16,), "512.0 KiB"),
                                         ((2**17,), "1.0 MiB"), ((3, 2**40), "24.0 TiB"),
                                         ((2**68,), "2048.0 EiB")])
def test_unallocatable_array_message_names_its_size(monkeypatch, shape, size):
    def refuse(shape):
        raise MemoryError

    monkeypatch.setattr(dgp.np, "empty", refuse)
    with pytest.raises(ValueError) as info:
        dgp._allocate(shape, "test")
    assert str(info.value) == f"the {shape} test array needs {size}, more than can be allocated"


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
    dict(error_sd=0.0), dict(error_sd=-1.0), dict(seed=-1), dict(seed=2**64),
])
def test_invalid_config(bad):
    with pytest.raises(InvalidConfig):
        DgpConfig(**bad)


def test_stream_seeds_distinct_and_stable():
    seeds = stream_seeds(7, 0, 100).tolist()
    assert len(set(seeds)) == 100
    assert stream_seeds(7, 3, 4).tolist() == [seeds[3]]


def test_monte_carlo_mean_converges():
    # The treated group's mean outcome at t, averaged over independent draws,
    # approaches its population value gamma * t within 4 * error_sd / sqrt(draws * n_d).
    cfg = DgpConfig(gamma=0.7, t_min=-2, t_max=1, n_treated=3, n_control=3, error_sd=1.0)
    draws = 2000
    t = 1
    total = 0.0
    for seed in stream_seeds(11, 0, draws).tolist():
        panel = simulate(DgpConfig(gamma=0.7, t_min=-2, t_max=1, n_treated=3,
                                   n_control=3, seed=seed))
        total += float(panel.outcomes[panel.treated, panel.period_index(t)].mean())
    bound = 4.0 / np.sqrt(draws * cfg.n_treated)
    assert abs(total / draws - cfg.gamma * t) < bound


# --- block seed derivation against numpy's SeedSequence -----------------------


# A master seed of w uint32 words, w = 1..7; 0 is one word.
MASTER_SEEDS = st.integers(1, 7).flatmap(
    lambda w: st.integers(0 if w == 1 else 2 ** (32 * (w - 1)), 2 ** (32 * w) - 1))
# Index blocks near 0 and across the word-count boundaries at 2**32 and 2**64.
STARTS = st.one_of(st.integers(0, 5000), st.integers(2**32 - 60, 2**32 + 10),
                   st.integers(2**64 - 60, 2**64 + 10))


@settings(max_examples=60, deadline=None)
@given(master_seed=MASTER_SEEDS, start=STARTS, count=st.integers(0, 64))
@example(master_seed=0, start=0, count=3)
@example(master_seed=2**32 - 1, start=2**32 - 3, count=6)
@example(master_seed=2**32, start=2**32 - 3, count=6)
@example(master_seed=2**64, start=2**32 - 3, count=6)
@example(master_seed=2**200, start=2**32 - 3, count=6)
@example(master_seed=2**200, start=2**64 - 3, count=6)
def test_stream_seeds_are_the_seed_sequence_rule(master_seed, start, count):
    got = stream_seeds(master_seed, start, start + count)
    assert got.dtype == np.uint64
    assert got.tolist() == [reference_seed(master_seed, k) for k in range(start, start + count)]


@pytest.mark.parametrize("master_seed, index", [(0, 0), (7, 3), (2**32, 2**32 - 1),
                                                (2**200, 2**32), (5, 2**64 + 7)])
def test_one_stream_seed_is_the_seed_sequence_rule(master_seed, index):
    assert stream_seeds(master_seed, index, index + 1).tolist() == [reference_seed(master_seed, index)]


def test_negative_seeds_and_indices_rejected():
    with pytest.raises(ValueError):
        stream_seeds(-1, 0, 2)
    with pytest.raises(ValueError):
        stream_seeds(0, -1, 2)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=20))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1])
def test_pcg64_words_are_the_seed_sequence_state(seeds):
    got = pcg64_words(np.array(seeds, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.shape == (len(seeds), 4)
    for words, s in zip(got, seeds):
        assert words.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("n_treated, n_control, t_min, t_max", [(1, 1, -1, 1), (2, 3, -2, 2)])
def test_each_draw_of_a_block_is_its_seed_alone(n_treated, n_control, t_min, t_max):
    # Odd cell counts leave a Philox buffer part used after each draw; the
    # next draw must still start from its own key at counter 0.
    config = DgpConfig(gamma=0.7, t_min=t_min, t_max=t_max, n_treated=n_treated,
                       n_control=n_control, error_sd=1.3)
    seeds = [5, 0, 2**64 - 1, 5, 123456789]
    block = draw_outcomes(config, seeds)
    times = np.arange(t_min, t_max + 1)
    for y, seed in zip(block, seeds, strict=True):
        noise = np.random.Generator(np.random.Philox(key=seed)).standard_normal(y.shape)
        want = noise * config.error_sd
        want[:n_treated] += config.gamma * times
        assert np.array_equal(y, want)
        assert np.array_equal(y, simulate(replace(config, seed=seed)).outcomes)
