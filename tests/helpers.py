import re

import numpy as np

from evstudy import PanelDataset
from evstudy.panel import panel_from_columns
from evstudy.svgplot import HEIGHT, WIDTH


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


def panel_from_rows(rows) -> PanelDataset:
    """The panel of (unit_id, time, treated, outcome) rows, through ``panel_from_columns``
    with the units coded in first-seen order."""
    codes: dict[str, int] = {}
    units = [codes.setdefault(unit, len(codes)) for unit, _, _, _ in rows]
    return panel_from_columns(list(codes), units, *([row[k] for row in rows] for k in (1, 2, 3)))


def panel_rows(panel: PanelDataset) -> list[tuple]:
    """The (unit_id, time, treated, outcome) rows of ``panel`` in unit-major order."""
    times = range(panel.t_min, panel.t_max + 1)
    return [(uid, t, d, y)
            for uid, d, ys in zip(panel.unit_ids, panel.treated.astype(int).tolist(),
                                  panel.outcomes.tolist())
            for t, y in zip(times, ys)]


def assert_same_panel(a: PanelDataset, b: PanelDataset) -> None:
    """``a`` and ``b`` have equal ids, period ranges, flags and outcomes, field by field."""
    assert (a.unit_ids, a.t_min, a.t_max) == (b.unit_ids, b.t_min, b.t_max)
    assert np.array_equal(a.treated, b.treated)
    assert np.array_equal(a.outcomes, b.outcomes)


def drawn_tick_labels(svg: str) -> tuple[list[str], list[str]]:
    """The x and the y axis tick labels of a figure, in drawing order, once
    every coordinate it holds is checked to be a number on its canvas."""
    xs = re.findall(r' c?x[12]?="([^"]*)"', svg)
    ys = re.findall(r' c?y[12]?="([^"]*)"', svg)
    for points in re.findall(r' points="([^"]*)"', svg):
        for x, y in (pair.split(",") for pair in points.split()):
            xs.append(x)
            ys.append(y)
    assert xs and all(0 <= float(x) <= WIDTH for x in xs), xs
    assert ys and all(0 <= float(y) <= HEIGHT for y in ys), ys
    return tuple(re.findall(rf'text-anchor="{anchor}" font-family="sans-serif" font-size="11">([^<]*)<', svg)
                 for anchor in ("middle", "end"))
