"""The CLI contract under fuzzing.

argv is drawn from ``build_parser()``'s own commands and flags, with values
from a pool of edge tokens, over malformed panel files and estimate tables.
Whatever is drawn, ``main`` returns 0, 2, 3 or 4, raises nothing, writes at
most one line to stderr and no warning, and a failed command leaves no
output file. The same holds for mid-size designs in a child process whose
address space is limited, where the allocations themselves fail.
"""

import argparse
import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy.spec import TAGS
from evstudy.cli import build_parser, main

from test_panel import PERTURBATIONS, write_perturbed_panel

# Flag values. Each design they make is small (the defaults below), invalid,
# or, through 2**64, beyond any address space, so no example allocates much.
EDGE_TOKENS = ["0", "-1", "-1e-3", str(2**64), "1e308", "nan", "-inf", "", "abc"]
# A small design the drawn flags override (argparse keeps a flag's last value).
SMALL_DESIGN = ["--n-treated", "3", "--n-control", "2", "--t-min", "-3", "--t-max", "2"]
DEFAULTS = {"simulate": SMALL_DESIGN, "montecarlo": [*SMALL_DESIGN, "--draws", "5"]}
CONFIGS = {
    "small.cfg": "n_treated = 3\nn_control = 2\n",
    "no_equals.cfg": "gamma 0.5\n",
    "unknown_key.cfg": "delta = 1\n",
    "bad_value.cfg": "gamma = abc\n",
}
TABLE_HEADER = "estimator,relative_time,coefficient,std_error,ci_low,ci_high,omitted\n"
# Estimate tables, and a panel whose error message quotes a unit id holding a line break.
FILES = {
    "table.csv": TABLE_HEADER + "twfe,-2,0.25,0.5,-0.75,1.25,0\ntwfe,-1,,,,,1\n"
                                "twfe,0,1.5,0.5,0.5,2.5,0\nbjs,0,1.0,,,,0\nbjs,1,2.0,,,,0\n",
    "gap_table.csv": TABLE_HEADER + "twfe,-1,,,,,1\ntwfe,0,0.5,,,,0\ntwfe,7,1.5,,,,0\n",
    "line_break_id.csv": "unit,time,treated,outcome\n" + "".join(
        f'"a\nb",{t},{t % 2},0\nc,{t},0,0\n' for t in (-1, 0, 1)),
}
PANELS = [f"panel_{k}.csv" for k in range(len(PERTURBATIONS))]

PARSER = build_parser()
COMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices


def value_pool(action) -> list[str]:
    """The values drawn for a flag: edge tokens, plus its choices or files."""
    if action.dest == "config":
        return [*EDGE_TOKENS, *(f"@{name}" for name in CONFIGS)]
    if action.dest == "estimator":
        return [*EDGE_TOKENS, *TAGS, "all", "twfe,,bjs"]
    return [*EDGE_TOKENS, *(action.choices or ())]


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[name]._actions if a.dest not in ("help", "out")]
    argv = [name, *DEFAULTS.get(name, [])]
    if any(not a.option_strings for a in actions):  # the input file
        inputs = [*PANELS, *FILES]
        argv.append(draw(st.sampled_from([*(f"@{f}" for f in inputs), *EDGE_TOKENS])))
    flags = [a for a in actions if a.option_strings]
    for action in draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(st.sampled_from(value_pool(action))))
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths by "@name": the perturbed panel files of test_panel, the tables
    and the configs."""
    folder = tmp_path_factory.mktemp("inputs")
    for k, (_, perturb, _) in enumerate(PERTURBATIONS):
        write_perturbed_panel(folder / PANELS[k], perturb, np.random.default_rng(k))
    for name, text in {**CONFIGS, **FILES}.items():
        (folder / name).write_text(text)
    return {f"@{name}": str(folder / name) for name in [*PANELS, *FILES, *CONFIGS]}


@given(argv=argvs())
@example(argv=["estimate", "@line_break_id.csv"])
@example(argv=["plot", "@gap_table.csv", "--overlay-population", "0.5"])
@example(argv=["montecarlo", *DEFAULTS["montecarlo"], "--draws", str(2**64)])
@settings(max_examples=250, deadline=None)
def test_any_argv_keeps_the_exit_code_contract(tmp_path_factory, inputs, argv):
    out = tmp_path_factory.mktemp("out") / "out.csv"
    argv = [inputs.get(arg, arg) for arg in argv]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4)
    assert err.count("\n") <= 1 and err.endswith("\n") == (err != "")
    assert not caught
    if code != 0:
        assert not any(out.parent.iterdir())


SRC = Path(__file__).resolve().parents[1] / "src"
# A 3+3-unit panel over 2000 periods: its (20000, 2000) bootstrap gaps and
# one tag's (1, 20000, 2000) coefficients take 305 MiB each.
LONG_PANEL = ["--n-treated", "3", "--n-control", "3", "--t-min", "-1", "--t-max", "1998"]
BOOTSTRAP = ["--estimator", "twfe", "--bootstrap", "--replications", "20000"]


@pytest.fixture(scope="module")
def limited_env():
    """The child environment, and its VmSize in bytes once the package is imported."""
    if resource is None or not Path("/proc/self/status").exists():
        pytest.skip("needs resource.RLIMIT_AS and /proc/self/status")
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    probe = ("import re, evstudy.cli, evstudy.inference, evstudy.montecarlo\n"
             "print(re.search(r'VmSize:\\s+(\\d+) kB', open('/proc/self/status').read())[1])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return env, int(proc.stdout) * 1024


def _run_limited(tmp_path, limited_env, argv, margin_mib):
    """The CLI run of ``argv`` in a child whose address space is margin_mib above the import's."""
    # The limit is set in the child only, so it does not depend on the host.
    env, vm_size = limited_env
    panel = tmp_path / "panel.csv"
    if "@panel" in argv:
        with redirect_stdout(io.StringIO()):
            assert main(["simulate", *LONG_PANEL, "--out", str(panel)]) == 0
    limit = vm_size + (margin_mib << 20)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    return subprocess.run(
        [sys.executable, "-m", "evstudy.cli", *[str(panel) if a == "@panel" else a for a in argv],
         "--out", str(tmp_path / "out.csv")],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, margin_mib, fragment", [
    # Short of the gaps, under the cell limit: _allocate names them.
    (["estimate", "@panel", *BOOTSTRAP],
     150, "replications=20000: the (20000, 2000) bootstrap gap array needs 305.2 MiB"),
    # Room for the gaps but not also OpenBLAS's work buffer: the first product
    # takes that buffer before the gaps are allocated, so _allocate names them.
    (["estimate", "@panel", *BOOTSTRAP],
     320, "replications=20000: the (20000, 2000) bootstrap gap array needs 305.2 MiB"),
    # Past the gaps, short of the coefficients: _allocate names them.
    (["estimate", "@panel", *BOOTSTRAP],
     450, "the (1, 20000, 2000) coefficient array needs 305.2 MiB, more than can be allocated"),
    # Past the coefficients, short of numpy's temporaries after them.
    (["estimate", "@panel", *BOOTSTRAP, "--method", "percentile"], 768, "Unable to allocate "),
    # Under the cell limit, but its (4, T) population values and sums come
    # before anything else sized by T.
    (["montecarlo", "--t-min", str(-(10**11)), "--t-max", str(10**11), "--n-treated", "1",
      "--n-control", "1", "--draws", "2"], 768,
     "the (4, 200000000001) Monte Carlo population array needs 5.8 TiB, more than can be allocated"),
], ids=["gaps", "gaps-blas-buffer", "coefficients", "temporaries", "montecarlo-population"])
def test_memory_limited_run_exits_2(tmp_path, limited_env, argv, margin_mib, fragment):
    proc = _run_limited(tmp_path, limited_env, argv, margin_mib)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and fragment in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("method", ["normal", "percentile"])
def test_one_tag_bootstrap_fits_where_four_rows_did_not(tmp_path, limited_env, method):
    # 2000 MiB holds the gaps, one tag's coefficients and the interval
    # temporaries, but not the four tags' 1.2 GiB of coefficients besides.
    proc = _run_limited(tmp_path, limited_env, ["estimate", "@panel", *BOOTSTRAP, "--method", method],
                        2000)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").exists()


def test_one_tag_bootstrap_keeps_three_replicate_arrays(tmp_path, limited_env):
    # 1250 MiB holds one tag's coefficients, the interval step's copy of them
    # and std's deviations, 305 MiB each, but not also the gaps, |x| and an
    # unscaled copy: that took 1600 MiB.
    proc = _run_limited(tmp_path, limited_env, ["estimate", "@panel", *BOOTSTRAP], 1250)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").exists()
