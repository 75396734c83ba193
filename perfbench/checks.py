"""Independent checks of the CLI's outputs; they share no code with evstudy.

The panel CSV is read with numpy, every coefficient is recomputed from the
treated-minus-control gap by the baseline rules of the README table, and
each SVG is parsed with xml.etree. Tolerances are fixed here and never
derived from the output under check.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from statistics import NormalDist

import numpy as np

TAGS = ("twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs")
COEF_TOL = 1e-8  # estimate table vs recomputation, absolute
POP_TOL = 1e-9  # Monte Carlo population column vs the analytic value
Z_MAX = 5.0  # largest allowed |MC mean - population| / mc_se
Z_95 = NormalDist().inv_cdf(0.975)  # the CLI's default normal 95% interval
PANEL_HEADER = "unit,time,treated,outcome"
ESTIMATE_HEADER = ["estimator", "relative_time", "coefficient", "std_error",
                   "ci_low", "ci_high", "omitted"]
MC_HEADER = ["estimator", "relative_time", "mean_coefficient", "population_value",
             "abs_deviation", "mc_se"]
SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"


def expected_coefs(g, t_min: int, tag: str) -> dict[int, float]:
    """Coefficient by relative time r from the gap g[j] at period t_min + j.

    twfe / cs_dcdh_universal: period 0 is the baseline, r = -1 omitted.
    cs_dcdh_default: prior period before treatment, period 0 after.
    bjs: earliest period before treatment, the pre-period mean after.
    The last two omit the earliest relative time.
    """
    j0 = -t_min  # index of period 0
    out = {}
    for j in range(len(g)):
        r = t_min - 1 + j
        if tag in ("twfe", "cs_dcdh_universal"):
            if r != -1:
                out[r] = float(g[j] - g[j0])
        elif j > 0:
            if tag == "cs_dcdh_default":
                out[r] = float(g[j] - (g[j - 1] if r < 0 else g[j0]))
            else:
                out[r] = float(g[j] - (g[0] if r < 0 else np.mean(g[: j0 + 1])))
    return out


def _read_gap(path: Path, s) -> tuple[np.ndarray | None, list[str]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != PANEL_HEADER:
        return None, [f"panel header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3), ndmin=2)
    if data.shape[0] != s.units * s.periods:
        return None, [f"panel has {data.shape[0]} rows, want {s.units * s.periods}"]
    j = data[:, 0].astype(np.int64) - s.t_min
    d, y = data[:, 1], data[:, 2]
    if j.min() < 0 or j.max() >= s.periods or not np.isin(d, (0.0, 1.0)).all():
        return None, ["panel time or treated column out of range"]
    treated = d == 1.0
    n1 = np.bincount(j[treated], minlength=s.periods)
    n0 = np.bincount(j[~treated], minlength=s.periods)
    if (n1 != s.n_treated).any() or (n0 != s.n_control).any():
        return None, ["panel is not balanced over the design's units"]
    g = (np.bincount(j[treated], weights=y[treated], minlength=s.periods) / n1
         - np.bincount(j[~treated], weights=y[~treated], minlength=s.periods) / n0)
    return g, []


def _check_table(path: Path, g: np.ndarray, s) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ESTIMATE_HEADER:
            return [f"estimate header {reader.fieldnames}"]
        by_tag: dict[str, dict[int, dict]] = {}
        for row in reader:
            by_tag.setdefault(row["estimator"], {})[int(row["relative_time"])] = row
    problems = []
    if set(by_tag) != set(TAGS):
        problems.append(f"estimators {sorted(by_tag)}")
    for tag in TAGS:
        want = expected_coefs(g, s.t_min, tag)
        got = by_tag.get(tag, {})
        if set(got) != set(range(s.t_min - 1, s.t_max)):
            problems.append(f"{tag}: relative times {sorted(got)}")
            continue
        for r, row in got.items():
            where = f"{tag} r={r}"
            if r not in want:
                if row["omitted"] != "1" or row["coefficient"] != "":
                    problems.append(f"{where}: should be the omitted category")
                continue
            if row["omitted"] != "0":
                problems.append(f"{where}: marked omitted")
                continue
            c, se = float(row["coefficient"]), float(row["std_error"])
            lo, hi = float(row["ci_low"]), float(row["ci_high"])
            if not abs(c - want[r]) <= COEF_TOL:
                problems.append(f"{where}: coefficient {c!r}, recomputed {want[r]!r}")
            if not (math.isfinite(se) and se > 0):
                problems.append(f"{where}: std_error {se!r}")
            elif not (abs(lo - (c - Z_95 * se)) <= COEF_TOL and abs(hi - (c + Z_95 * se)) <= COEF_TOL):
                problems.append(f"{where}: interval ({lo!r}, {hi!r}) is not c -/+ z*se")
    return problems


def _check_svgs(fig: Path, g: np.ndarray, s) -> list[str]:
    want: dict[str, int] = {}
    for tag in TAGS:
        rel = expected_coefs(g, s.t_min, tag)
        if tag == "bjs":
            want["bjs_pre"] = sum(r < 0 for r in rel)
            want["bjs_post"] = sum(r >= 0 for r in rel)
        else:
            want[tag] = len(rel)
    problems = []
    for name, n in want.items():
        path = fig.with_name(f"{fig.stem}_{name}.svg")
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        circles = sum(1 for _ in root.iter(SVG_CIRCLE))
        if circles != n:
            problems.append(f"{path.name}: {circles} points, want {n}")
    return problems


def check_pipeline(out: Path, s) -> list[str]:
    """Problems with panel.csv, est.csv and the fig_*.svg files in ``out``."""
    g, problems = _read_gap(out / "panel.csv", s)
    if g is None:
        return problems
    return _check_table(out / "est.csv", g, s) + _check_svgs(out / "fig.svg", g, s)


def check_montecarlo(out: Path, s) -> list[str]:
    """Problems with mc.csv in ``out``: population values and MC z-scores."""
    with open(out / "mc.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MC_HEADER:
            return [f"montecarlo header {reader.fieldnames}"]
        rows = list(reader)
    population_gap = s.gamma * np.arange(s.t_min, s.t_max + 1)
    problems = []
    for tag in TAGS:
        pop = expected_coefs(population_gap, s.t_min, tag)
        got = {int(row["relative_time"]): row for row in rows if row["estimator"] == tag}
        if set(got) != set(pop):
            problems.append(f"{tag}: relative times {sorted(got)}")
            continue
        for r, row in got.items():
            mean, se = float(row["mean_coefficient"]), float(row["mc_se"])
            if not abs(float(row["population_value"]) - pop[r]) <= POP_TOL:
                problems.append(f"{tag} r={r}: population {row['population_value']}, want {pop[r]!r}")
            if not abs(float(row["abs_deviation"]) - abs(mean - pop[r])) <= POP_TOL:
                problems.append(f"{tag} r={r}: abs_deviation {row['abs_deviation']}")
            if not (math.isfinite(se) and se > 0):
                problems.append(f"{tag} r={r}: mc_se {se!r}")
            elif not abs(mean - pop[r]) / se <= Z_MAX:
                problems.append(f"{tag} r={r}: mean {mean!r} is {abs(mean - pop[r]) / se:.2f} mc_se "
                                f"from the population value {pop[r]!r}")
    return problems


def check(kind: str, out: Path, s) -> list[str]:
    """Problems with one iteration's outputs; an output that cannot be read is one."""
    try:
        return {"pipeline": check_pipeline, "montecarlo": check_montecarlo}[kind](out, s)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
