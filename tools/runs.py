#!/usr/bin/env python3
"""The CLI runs that tier-1, tools/reach.py and CI's console-script step share.

    python3 tools/runs.py evstudy
    PYTHONPATH=$PWD/src python3 tools/runs.py python3 -m evstudy.cli

The arguments are the command that stands for ``evstudy``; every failed
check is printed, and the exit status is 1 when one failed. A relative
PYTHONPATH would not hold, since the runs happen in another directory.

STEPS is one ordered list. An ``Input`` writes a file: fixed bytes, or an
edit of the bytes an earlier run wrote. A ``Run`` is one command line with
the exit code it must give, its one stderr line where that matters, the
outputs it must leave absent and, for the run that reads a pipe, the file
whose bytes are piped to it. SAME holds the byte equalities between
outputs, checked after the last step: the LF, quoted-id and long-id forms
of one panel give its estimate table, a one-tag Monte Carlo run gives its
rows of the all-tag run, and a small Monte Carlo run gives
``tests/golden/mc_small.csv``.

``check`` runs the list in a new temporary directory, made the cwd until it
returns, and gives one line for each failed check, naming the run or the
equality. It runs a command line through ``main``, such as
``evstudy.cli.main``, in this process, or as the arguments of a child of
``command``. In process, a FIFO that a thread fills stands in for the
pipe; where ``os.mkfifo`` is missing, that run and the equalities on its
output are skipped. Only the standard library is used.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
STDIN = "/dev/stdin"


@dataclass(frozen=True)
class Input:
    """File ``name`` holding ``data``, or ``edit`` of the bytes of file ``source``."""

    name: str
    data: bytes = b""
    source: str | None = None
    edit: Callable[[bytes], bytes] | None = None


@dataclass(frozen=True)
class Run:
    """``evstudy LINE``, LINE split on spaces: its exit code, its one stderr
    line if given, the files it leaves absent and the file piped to ``STDIN``."""

    line: str
    code: int = 0
    stderr: str | None = None
    absent: tuple[str, ...] = ()
    stdin: str | None = None

    def __str__(self):
        return f"evstudy {self.line}"


@dataclass(frozen=True)
class Lines:
    """The lines of file ``name`` after the first ``skip`` that start with ``prefix``."""

    name: str
    prefix: str = ""
    skip: int = 0

    def read(self) -> bytes:
        lines = Path(self.name).read_bytes().splitlines(keepends=True)[self.skip:]
        return b"".join(line for line in lines if line.startswith(self.prefix.encode()))

    def __str__(self):
        return (self.name + (f" after line {self.skip}" if self.skip else "")
                + (f", lines starting {self.prefix}" if self.prefix else ""))


BOOT = "--bootstrap --replications 19"
PANEL = b"unit,time,treated,outcome\r\n"
STEPS = [
    # One 3+3 panel with LF line ends, a quoted id and ids past 32
    # characters gives the same table.
    Run("simulate --n-treated 3 --n-control 3 --out panel.csv"),
    Run(f"estimate panel.csv {BOOT} --out estimates.csv"),
    Input("lf_panel.csv", source="panel.csv", edit=lambda b: b.replace(b"\r", b"")),
    Run(f"estimate {STDIN} {BOOT} --out lf.csv", stdin="lf_panel.csv"),
    Input("quoted.csv", source="panel.csv",
          edit=lambda b: re.sub(rb"\n([^,\n]*)", rb'\n"\1"', b, count=1)),
    Run(f"estimate quoted.csv {BOOT} --out quoted_est.csv"),
    Input("long_ids.csv", source="panel.csv",
          edit=lambda b: re.sub(rb"\n([^,\n]+)", rb"\n\1-padded-past-thirty-two-characters", b)),
    Run(f"estimate long_ids.csv {BOOT} --out long_est.csv"),
    Run("plot estimates.csv --overlay-population 0.5 --out fig.svg"),
    Run("plot estimates.csv --overlay-population 0.5 --split-bjs --out split.svg"),
    Run("montecarlo --draws 50 --out mc.csv"),
    Run("montecarlo --draws 50 --estimator bjs --out mc_bjs.csv"),
    Run("montecarlo --n-treated 3 --n-control 2 --t-min -3 --t-max 2 --draws 50"
        " --master-seed 4 --estimator all --out mc_small.csv"),
    # A normal interval that overflows exits 2 and writes no table.
    Input("big.csv", "".join(f"{row}\n" for row in (
        "unit,time,treated,outcome",
        "a,-1,1,2.9e307", "a,0,1,-2.9e307", "a,1,1,2.9e307",
        "b,-1,1,-2.9e307", "b,0,1,2.9e307", "b,1,1,-2.9e307",
        "c,-1,0,2.9e307", "c,0,0,-2.9e307", "c,1,0,2.9e307",
        "d,-1,0,-2.9e307", "d,0,0,2.9e307", "d,1,0,-2.9e307")).encode()),
    Run("estimate big.csv --estimator twfe --bootstrap --level 0.999 --out big_est.csv", code=2,
        stderr="error: twfe at relative time -2: ci_low must be finite, got -inf",
        absent=("big_est.csv",)),
    # Its percentile bounds are replicate values, so finite, and plot draws
    # that table, whose y axis is taller than the largest float.
    Run("estimate big.csv --estimator twfe --bootstrap --level 0.999 --method percentile"
        " --out big_pct.csv"),
    Run("plot big_pct.csv --out big.svg"),
    # Every command, both --method values, --bjs-pre, --config, every id
    # quoted, and the unbalanced, non-UTF-8, bad-flag and missing-file errors.
    Input("sim.cfg", b"n_treated = 3\nn_control = 2\n"),
    Input("mc.cfg", b"draws = 50\nmaster_seed = 7\n"),
    Input("quoted_ids.csv", PANEL + "".join(f'"{u}",{t},{d},{t * d}.5\r\n'
                                            for u, d in (("a", 1), ("b", 0))
                                            for t in (-1, 0, 1)).encode()),
    Input("unbalanced.csv",
          PANEL + b"a,-1,1,0.5\r\na,1,1,1.5\r\nb,-1,0,0.5\r\nb,0,0,0.5\r\nb,1,0,0.5\r\n"),
    Input("latin1.csv", PANEL + b"\xe9,-1,1,0.5\r\n"),
    Run("simulate --out default.csv"),
    Run("simulate --config sim.cfg --seed 2 --out small.csv"),
    Run("estimate default.csv --bootstrap --replications 99 --out default_est.csv"),
    Run("estimate small.csv --estimator bjs --bjs-pre 2 --bootstrap --method percentile"
        " --replications 99 --out bjs.csv"),
    Run("estimate quoted_ids.csv --estimator twfe,bjs --out quoted_ids_est.csv"),
    Run("plot default_est.csv --overlay-population 0.5 --split-bjs --out default.svg"),
    Run("plot bjs.csv --overlay-population 0.5 --out bjs.svg"),
    Run("montecarlo --config mc.cfg --out mc_cfg.csv"),
    Run("estimate unbalanced.csv --out x.csv", code=2, absent=("x.csv",)),
    Run("estimate latin1.csv --out x.csv", code=2, absent=("x.csv",)),
    Run("estimate panel.csv --no-such-flag --out x.csv", code=3, absent=("x.csv",)),
    Run("estimate missing.csv --out x.csv", code=4, absent=("x.csv",)),
]
SAME = [
    (Lines("lf.csv"), Lines("estimates.csv")),
    (Lines("quoted_est.csv"), Lines("estimates.csv")),
    (Lines("long_est.csv"), Lines("estimates.csv")),
    # One tag run alone gives its rows of the all-tag run, byte for byte.
    (Lines("mc.csv", prefix="bjs,"), Lines("mc_bjs.csv", skip=1)),
    (Lines("mc_small.csv"), Lines(str(GOLDEN / "mc_small.csv"))),
]


def check(via, steps=STEPS, same=SAME) -> list[str]:
    """A line for each failed check of ``steps`` and ``same``; ``via`` is
    ``main`` (a callable taking the argv) or ``command`` (a list of words)."""
    failures: list[str] = []
    skipped: set[str] = set()
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="runs-") as tmp:
        os.chdir(tmp)
        try:
            for step in steps:
                if isinstance(step, Input):
                    try:
                        data = step.data if step.source is None else step.edit(
                            Path(step.source).read_bytes())
                    except OSError as exc:
                        failures.append(f"input {step.name}: {exc}")
                    else:
                        Path(step.name).write_bytes(data)
                    continue
                argv = step.line.split()
                if step.stdin is not None and callable(via) and not hasattr(os, "mkfifo"):
                    skipped.add(argv[argv.index("--out") + 1])
                    continue
                try:
                    code, err = (_in_process if callable(via) else _child)(via, step)
                except (OSError, subprocess.TimeoutExpired) as exc:  # such as no such command
                    failures.append(f"{step}: {exc}")
                    continue
                if code != step.code:
                    failures.append(f"{step}: exited {code}, not {step.code}: {err.strip()}")
                if step.stderr is not None and err.splitlines() != [step.stderr]:
                    failures.append(f"{step}: stderr {err!r}, not {step.stderr!r}")
                failures.extend(f"{step}: wrote {name}" for name in step.absent
                                if Path(name).exists())
            for left, right in same:
                if {left.name, right.name} & skipped:
                    continue
                try:
                    if left.read() != right.read():
                        failures.append(f"{left} != {right}")
                except OSError as exc:
                    failures.append(f"{left} == {right}: {exc}")
        finally:
            os.chdir(home)
    return failures


def _in_process(cli_main: Callable[[list[str]], int], run: Run) -> tuple[int, str]:
    argv = run.line.split()
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        if run.stdin is not None:
            data, fifo = Path(run.stdin).read_bytes(), "stdin.fifo"
            os.mkfifo(fifo)
            argv = [fifo if arg == STDIN else arg for arg in argv]
            feed = threading.Thread(target=_feed, args=(fifo, data))
            feed.start()
            stack.callback(_drain, fifo, feed)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    return code, err.getvalue()


def _feed(fifo: str, data: bytes) -> None:
    with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
        fh.write(data)


def _drain(fifo: str, feed: threading.Thread) -> None:
    """Let ``feed`` end, also when the run never opened the FIFO, and remove it."""
    if feed.is_alive():
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    feed.join(timeout=60)
    os.unlink(fifo)
    if feed.is_alive():
        raise TimeoutError(f"the writer of {fifo} did not finish")


def _child(command: list[str], run: Run) -> tuple[int, str]:
    # input= makes the child's stdin a pipe, which cannot seek, as a shell's | does.
    proc = subprocess.run([*command, *run.line.split()], capture_output=True, timeout=600,
                          input=Path(run.stdin).read_bytes() if run.stdin else b"")
    return proc.returncode, proc.stderr.decode("utf-8", "replace")


def main(command: list[str]) -> int:
    if not command:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    failures = check(command)
    for line in failures:
        print(line)
    runs = sum(isinstance(step, Run) for step in STEPS)
    print(f"{runs} runs and {len(SAME)} equalities through {' '.join(command)}:"
          f" {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
