"""Workload definitions shared by the orchestrator (run.py) and the worker.

Every workload is one closed-loop client: the next iteration starts only
after the previous one finished and its outputs were checked.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter


@dataclass(frozen=True)
class Sizes:
    """Design of one workload; defaults are the paper's figure design."""

    n_treated: int
    n_control: int
    t_min: int = -15
    t_max: int = 10
    gamma: float = 0.5
    replications: int = 999
    draws: int = 2000

    @property
    def units(self) -> int:
        return self.n_treated + self.n_control

    @property
    def periods(self) -> int:
        return self.t_max - self.t_min + 1


# name -> (kind, full sizes, tiny sizes for the self-test). The kind says
# what one iteration runs: "pipeline" is simulate -> estimate -> plot in
# three fresh CLI processes, "montecarlo" one fresh CLI process, and
# "crosscheck" the closed forms against the genuine twins and the oracle,
# in-process.
WORKLOADS = {
    "pipeline_default": ("pipeline", Sizes(50, 50), Sizes(3, 3, replications=19)),
    "pipeline_10k": ("pipeline", Sizes(5000, 5000), Sizes(6, 6, replications=19)),
    "montecarlo": ("montecarlo", Sizes(50, 50), Sizes(50, 50, draws=200)),
    "crosscheck_400": ("crosscheck", Sizes(200, 200), Sizes(10, 10)),
}


def size_record(kind: str, s: Sizes) -> dict:
    """The problem sizes a result is quoted at."""
    rec = {"units": s.units, "periods": s.periods, "gamma": s.gamma}
    if kind == "pipeline":
        rec.update(rows=s.units * s.periods, B=s.replications)
    elif kind == "montecarlo":
        rec.update(draws=s.draws)
    else:
        rec.update(rows=s.units * s.periods)
    return rec


def _design_flags(s: Sizes) -> list[str]:
    return [
        "--gamma", repr(s.gamma), "--t-min", str(s.t_min), "--t-max", str(s.t_max),
        "--n-treated", str(s.n_treated), "--n-control", str(s.n_control),
    ]


def cli_commands(kind: str, s: Sizes, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """(command name, argv for evstudy.cli) for one iteration, writing into ``out``."""
    if kind == "pipeline":
        panel, table, fig = (str(out / name) for name in ("panel.csv", "est.csv", "fig.svg"))
        return [
            ("simulate", ["simulate", *_design_flags(s), "--seed", str(seed), "--out", panel]),
            ("estimate", ["estimate", panel, "--estimator", "all", "--bootstrap",
                          "--replications", str(s.replications), "--boot-seed", str(seed),
                          "--out", table]),
            ("plot", ["plot", table, "--overlay-population", repr(s.gamma), "--split-bjs",
                      "--out", fig]),
        ]
    if kind == "montecarlo":
        return [("montecarlo", ["montecarlo", *_design_flags(s), "--draws", str(s.draws),
                                "--master-seed", str(seed), "--out", str(out / "mc.csv")])]
    return []


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` so that no output of an earlier iteration can pass a check."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def closed_loop(seconds: float, iteration) -> list:
    """Results of ``iteration()`` run back to back for about ``seconds``.

    It runs at least once, and again only while another run is expected to
    end inside the window, so a long iteration does not overshoot it.
    """
    results, durations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(iteration())
        durations.append(perf_counter() - t0)
        if perf_counter() - start + median(durations) > seconds:
            return results
