"""tools/runs.py: every run and equality of the list holds, and a broken one is named."""

import dataclasses
import os
import sys
from pathlib import Path

from evstudy.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import runs  # noqa: E402


def test_every_run_and_equality_holds():
    assert runs.check(main) == []


def test_a_false_equality_is_named():
    # The one-tag bjs run against the twfe rows of the all-tag run.
    false = (runs.Lines("mc.csv", prefix="twfe,"), runs.Lines("mc_bjs.csv", skip=1))
    same = [false if left.prefix == "bjs," else (left, right) for left, right in runs.SAME]
    assert same != runs.SAME
    assert runs.check(main, same=same) == [
        "mc.csv, lines starting twfe, != mc_bjs.csv after line 1"]


def test_a_wrong_exit_code_is_named():
    big = next(step for step in runs.STEPS
               if isinstance(step, runs.Run) and step.line.startswith("estimate big.csv"))
    steps = [dataclasses.replace(big, code=0) if step is big else step for step in runs.STEPS]
    assert runs.check(main, steps=steps) == [
        f"evstudy {big.line}: exited 2, not 0: {big.stderr}"]


def test_a_child_reads_the_pipe(monkeypatch):
    # The runs that lead to lf.csv, each in a child whose stdin is a pipe.
    steps = runs.STEPS[:4]
    assert runs.STDIN in steps[-1].line
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(paths))
    assert runs.check([sys.executable, "-m", "evstudy.cli"], steps, runs.SAME[:1]) == []


def test_without_mkfifo_only_the_pipe_run_is_skipped(monkeypatch):
    monkeypatch.delattr(os, "mkfifo")
    # lf.csv is never written, so an equality on it would fail unless skipped.
    assert runs.check(main) == []
    same = [(runs.Lines("lf.csv"), runs.Lines("panel.csv")),
            (runs.Lines("estimates.csv"), runs.Lines("panel.csv"))]
    assert runs.check(main, same=same) == ["estimates.csv != panel.csv"]
