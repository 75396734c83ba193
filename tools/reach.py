#!/usr/bin/env python3
"""Reachability check: which functions in src/evstudy does no command call?

    python3 tools/reach.py

Run from the project root. The runs of ``tools/runs.py``, the one list of
CLI runs that tier-1 and CI also check, go through ``evstudy.cli.main`` in
one process under ``sys.setprofile``. They cover every command, both
``--method`` values, ``--bjs-pre``, ``--config``, a panel read from a pipe
with LF line ends, panels with quoted and with long ids, one-tag and
all-tag Monte Carlo runs, an overflowing normal interval and the figure
of that panel's percentile table, an unbalanced panel, a file that is not
UTF-8, a bad flag and a missing file. A failed
check of that list is printed and stops the check with status 2.

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
import re
import sys
from pathlib import Path

SECTION = "Code no command reaches"


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
    """(resolved file, function name) of every call the runs make; exits 2 on a failed check."""
    sys.path.insert(0, str(src))
    from evstudy.cli import main
    # runs.py sits beside this file, whose directory Python puts on sys.path.
    from runs import check

    seen: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        failures = check(main)
    finally:
        sys.setprofile(None)
    if failures:
        print(*failures, sep="\n", file=sys.stderr)
        raise SystemExit(2)
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
