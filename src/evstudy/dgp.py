"""Simulates the linear-trend-violation data generating process.

Treated units follow Y_it = gamma * t + eps_it, control units Y_it = eps_it,
with eps_it iid normal(0, error_sd^2) and no treatment effects. The group
difference in trends is gamma per period in every period, so any kink or
jump an estimator shows at the treatment date is an artifact of its
baseline construction, not of the data.
"""

from __future__ import annotations

import math

import numpy as np

from .panel import PanelDataset, check_outcome_bound
from .spec import DgpConfig, InvalidConfig

# Identity of the deterministic noise transform, echoed in CLI output so a
# simulated panel can be reproduced exactly from (generator, config, seed).
GENERATOR_ID = (
    "numpy Philox(4x64, key=seed) standard_normal; "
    "draw order: treated units then control units, times ascending"
)


def _allocate(shape: tuple[int, ...], name: str, prefix: str = "") -> np.ndarray:
    """``np.empty(shape)``, or a ValueError that the ``name`` array needs more than can be allocated."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        nbytes = 8 * math.prod(shape)
        k = min(max(1, (nbytes.bit_length() - 1) // 10), 6)  # KiB .. EiB
        raise ValueError(f"{prefix}the {shape} {name} array needs {nbytes / 1024**k:.1f}"
                         f" {'KMGTPE'[k - 1]}iB, more than can be allocated") from None


# The most outcome cells (draws or replications x units x periods) a
# montecarlo run or a bootstrap may draw, a power of two for its message: some
# 6 hours at about 20 ns a cell. Memory grows by T at most per draw or
# replicate, so without it a huge count would run on.
MAX_CELLS = 2**40


def _check_cells(count: int, n: int, T: int, name: str = "draws") -> None:
    """A ValueError when ``count`` ``name`` x ``n`` units x ``T`` periods is more than MAX_CELLS."""
    if count * n * T > MAX_CELLS:
        raise ValueError(f"{name} x units x periods = {count} x {n} x {T} is more than the"
                         f" limit of 2**{MAX_CELLS.bit_length() - 1} drawn outcome cells")


def draw_outcomes(config: DgpConfig, seeds: list[int]) -> np.ndarray:
    """The (len(seeds), n_treated + n_control, T) outcome matrices of the draws keyed by ``seeds``.

    Philox is counter-based, so a seed alone fixes its draw: draw d is the
    stream of key ``seeds[d]`` from counter 0, whatever draws share its
    block; seeds are below 2**64, as ``DgpConfig`` and ``stream_seeds``
    ensure. Each noise matrix is filled row-major with treated units first,
    which pins the draw order independent of any execution schedule.
    ``config.seed`` is not read. Outcomes that overflow come back as inf or
    nan, unwarned, for the caller to reject.
    """
    n, T = config.n_treated + config.n_control, config.t_max - config.t_min + 1
    out = _allocate((len(seeds), n, T), "outcome")
    times = np.arange(config.t_min, config.t_max + 1)
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    for row, seed in zip(out, seeds):
        # Re-keying the one generator leaves it as Philox(key=seed) would
        # start, without the entropy SeedSequence its constructor builds.
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
                        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=row)
    with np.errstate(over="ignore", invalid="ignore"):
        out *= config.error_sd
        out[:, : config.n_treated] += config.gamma * times
    return out


def simulate(config: DgpConfig) -> PanelDataset:
    """Draw one balanced panel from the DGP; bit-identical for equal configs.

    Raises ``NonFiniteOutcome`` when the outcomes break the estimators'
    overflow bound, as ``read_panel_csv`` would on the written file.
    """
    outcomes = draw_outcomes(config, [config.seed])[0]
    check_outcome_bound(outcomes, config.t_min)
    width = len(str(max(config.n_treated, config.n_control) - 1))
    unit_ids = tuple(
        [f"t{i:0{width}d}" for i in range(config.n_treated)]
        + [f"c{i:0{width}d}" for i in range(config.n_control)]
    )
    return PanelDataset(
        unit_ids=unit_ids,
        treated=np.arange(len(unit_ids)) < config.n_treated,
        t_min=config.t_min,
        t_max=config.t_max,
        outcomes=outcomes,
    )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) over a pool of
# four uint32 words; stream_seeds and pcg64_words repeat it lane by lane.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_POOL = 4
# Draws or replicates per stream_seeds call: large enough to amortise the
# numpy calls, small enough that memory does not grow with their number.
SEED_BLOCK = 1024


def _int_words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from the int ``n``, low word first."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_sequence_state(entropy: list, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` for every lane, shape (N, n_words).

    ``entropy`` lists the entropy words in order; each is an int shared by
    every lane or a (N,) uint32 array. The hash constants evolve the same
    way in every lane, so they stay Python ints.
    """
    lanes = max(np.size(w) for w in entropy)
    ent = [np.broadcast_to(np.asarray(w, dtype=np.uint32), (lanes,)) for w in entropy]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(lanes, dtype=np.uint32)
    pool = [hashmix(ent[i] if i < len(ent) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in ent[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((lanes, 2 * n_words), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * n_words):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    # SeedSequence joins word pairs little-endian, low word first.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def stream_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Seeds of streams start..stop-1: ``SeedSequence([master_seed, k]).generate_state(1, np.uint64)[0]``.

    Every Monte Carlo draw and bootstrap stream is seeded by this rule.
    SeedSequence reads k as one uint32 word per 32 bits, so the lanes are
    hashed in runs that share every word but the lowest: one run per
    multiple of 2**32 the range crosses.
    """
    master = _int_words(int(master_seed))
    start, stop = int(start), int(stop)
    if start < 0:
        raise ValueError(f"stream indices must be non-negative, got {start}")
    runs = [np.empty((0, 1), dtype=np.uint64)]
    while start < stop:
        high = start >> 32
        end = min(stop, (high + 1) << 32)
        low = np.arange(start - (high << 32), end - (high << 32)).astype(np.uint32)
        runs.append(_seed_sequence_state(master + [low] + (_int_words(high) if high else []), 1))
        start = end
    return np.concatenate(runs)[:, 0]


def pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """(N, 4) ``SeedSequence(s).generate_state(4, np.uint64)`` of uint64 ``seeds``.

    These are the words ``np.random.default_rng(s)`` seeds PCG64 with. A
    seed below 2**32 is one entropy word and a larger one two; within the
    four-word pool a missing word hashes as 0, so every seed is read as two.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _seed_sequence_state([(seeds & np.uint64(_MASK32)).astype(np.uint32),
                                 (seeds >> np.uint64(32)).astype(np.uint32)], 4)

