"""The benchmark's own output check, run on the tiny pipeline and montecarlo iterations.

perfbench rates an iteration whose outputs fail ``checks.check`` as failed;
running the same check here makes such a change fail the test suite first.
"""

import importlib.util
import sys
from pathlib import Path

from evstudy.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tiny_pipeline_passes_the_benchmark_check(tmp_path, capsys):
    checks, workloads = load("checks"), load("workloads")
    sizes = workloads.Sizes(3, 3, replications=19)
    for name, argv in workloads.cli_commands("pipeline", sizes, 5, tmp_path):
        assert main(argv) == 0, (name, capsys.readouterr().err)
    assert checks.check("pipeline", tmp_path, sizes) == []


def test_tiny_montecarlo_passes_the_benchmark_check(tmp_path, capsys):
    checks, workloads = load("checks"), load("workloads")
    _, _, sizes = workloads.WORKLOADS["montecarlo"]
    for name, argv in workloads.cli_commands("montecarlo", sizes, 5, tmp_path):
        assert main(argv) == 0, (name, capsys.readouterr().err)
    assert checks.check("montecarlo", tmp_path, sizes) == []
