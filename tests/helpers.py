import numpy as np

from evstudy import PanelDataset


def make_fuzz_panel(rng: np.random.Generator, max_units: int = 5, max_abs_t: int = 6) -> PanelDataset:
    """Random small balanced panel with normal outcomes."""
    n1 = int(rng.integers(1, max_units))
    n0 = int(rng.integers(1, max_units))
    t_min = -int(rng.integers(1, max_abs_t))
    t_max = int(rng.integers(1, max_abs_t))
    n = n1 + n0
    T = t_max - t_min + 1
    treated = np.zeros(n, dtype=bool)
    treated[:n1] = True
    return PanelDataset(
        unit_ids=tuple(f"u{i}" for i in range(n)),
        treated=treated,
        t_min=t_min,
        t_max=t_max,
        outcomes=rng.standard_normal((n, T)),
    )


def max_coef_diff(a, b) -> float:
    """Largest absolute difference between two coefficient maps on shared keys."""
    assert set(a.coefficients) == set(b.coefficients)
    return max(abs(a.coefficients[r] - b.coefficients[r]) for r in a.coefficients)


def reference_seed(master_seed: int, index: int) -> int:
    """Stream ``index``'s seed of ``master_seed`` by numpy's own SeedSequence."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])
