#!/usr/bin/env python3
"""Reachability check: which functions in src/evstudy does no command call?

    python3 tools/reach.py

Run from the project root. RUNS, the argv list below, goes through
``evstudy.cli.main`` in one process, in a temporary directory that first
holds FILES, under ``sys.setprofile``. The list covers every command, both
``--method`` values, ``--bjs-pre``, ``--config``, a panel with a quoted id,
and an unbalanced panel, a file that is not UTF-8, a bad flag and a missing
file. A run whose exit code is not the one listed for it stops the check
with status 2.

Every ``def`` in src/evstudy that no run called is then printed as
``FILE:LINE: NAME``, NAME being its module and the names of the classes and
functions it sits in, such as ``panel.PanelDataset.times``. Calls are
matched to defs by file and function name, since Python 3.10 code objects
carry no qualified name. README's "Code no command reaches" section must
name each printed function, or a class or function it sits in, in
backticks and say why it stays; the exit status is 1 when it names not all
of them. Only the standard library is used, and the working tree is never
written.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

SECTION = "Code no command reaches"

PANEL = b"unit,time,treated,outcome\r\n"
FILES = {
    "sim.cfg": b"n_treated = 3\nn_control = 2\n",
    "mc.cfg": b"draws = 50\nmaster_seed = 7\n",
    "quoted.csv": PANEL + "".join(f'"{u}",{t},{d},{t * d}.5\r\n' for u, d in (("a", 1), ("b", 0))
                                  for t in (-1, 0, 1)).encode(),
    "unbalanced.csv": PANEL + b"a,-1,1,0.5\r\na,1,1,1.5\r\nb,-1,0,0.5\r\nb,0,0,0.5\r\nb,1,0,0.5\r\n",
    "latin1.csv": PANEL + b"\xe9,-1,1,0.5\r\n",
}
# (expected exit code, argv); a run may read what an earlier one wrote.
RUNS = [
    (0, ["simulate", "--out", "panel.csv"]),
    (0, ["simulate", "--config", "sim.cfg", "--seed", "2", "--out", "small.csv"]),
    (0, ["estimate", "panel.csv", "--bootstrap", "--replications", "99", "--out", "est.csv"]),
    (0, ["estimate", "small.csv", "--estimator", "bjs", "--bjs-pre", "2", "--bootstrap",
         "--method", "percentile", "--replications", "99", "--out", "bjs.csv"]),
    (0, ["estimate", "quoted.csv", "--estimator", "twfe,bjs", "--out", "quoted_est.csv"]),
    (0, ["plot", "est.csv", "--overlay-population", "0.5", "--split-bjs", "--out", "fig.svg"]),
    (0, ["plot", "bjs.csv", "--overlay-population", "0.5", "--out", "bjs.svg"]),
    (0, ["montecarlo", "--config", "mc.cfg", "--out", "mc.csv"]),
    (2, ["estimate", "unbalanced.csv", "--out", "x.csv"]),
    (2, ["estimate", "latin1.csv", "--out", "x.csv"]),
    (3, ["estimate", "panel.csv", "--no-such-flag", "--out", "x.csv"]),
    (4, ["estimate", "missing.csv", "--out", "x.csv"]),
]


def defs(package: Path):
    """(file, line, function name, qualified name) of every def under ``package``."""
    for path in sorted(package.glob("*.py")):
        stack = [path.stem]

        def visit(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append(child.name)
                    if not isinstance(child, ast.ClassDef):
                        yield path, child.lineno, child.name, ".".join(stack)
                    yield from visit(child)
                    stack.pop()
                else:
                    yield from visit(child)

        yield from visit(ast.parse(path.read_text(encoding="utf-8")))


def called_functions(src: Path) -> set[tuple[str, str]]:
    """(resolved file, function name) of every call RUNS makes; exits 2 on a wrong exit code."""
    sys.path.insert(0, str(src))
    from evstudy.cli import main

    seen: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name))

    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        try:
            for name, data in FILES.items():
                Path(name).write_bytes(data)
            for expected, argv in RUNS:
                out = io.StringIO()
                sys.setprofile(profile)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        code = main(argv)
                finally:
                    sys.setprofile(None)
                if code != expected:
                    print(f"evstudy {' '.join(argv)} exited {code}, not {expected}:",
                          out.getvalue(), file=sys.stderr)
                    raise SystemExit(2)
        finally:
            os.chdir(home)
    return {(str(Path(file).resolve()), name) for file, name in seen}


def readme_names(readme: Path) -> set[str]:
    """The names in backticks in README's SECTION, up to the next heading of its level."""
    match = re.search(rf"^## {SECTION}\n(.*?)(?=^## |\Z)", readme.read_text(encoding="utf-8"),
                      re.M | re.S)
    return set(re.findall(r"`([\w.]+)`", match.group(1))) if match else set()


def main() -> int:
    root = Path.cwd()
    called = called_functions(root / "src")
    named = readme_names(root / "README.md")
    unreached = missing = 0
    for path, line, name, qualname in defs(root / "src" / "evstudy"):
        if (str(path.resolve()), name) in called:
            continue
        unreached += 1
        parts = qualname.split(".")
        known = any(".".join(parts[:k]) in named for k in range(2, len(parts) + 1))
        missing += not known
        note = "" if known else f"  (not named in README's \"{SECTION}\")"
        print(f"{path.relative_to(root)}:{line}: {qualname}{note}")
    print(f"{unreached} functions no command reaches, {missing} of them not named in README")
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
