#!/usr/bin/env python3
"""Mutation check: which one-token changes to a module do its tests miss?

    python3 tools/mutants.py src/evstudy/cli.py tests/test_cli.py tests/test_package.py

Run from the project root. The tree under the current directory is copied to
a temporary directory once; each mutant changes one token of MODULE there:

- ``+``/``-``, ``*``/``/``, ``|``/``&``, ``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``and``/``or`` and ``in``/``not in`` swap;
- an integer literal from 0 to 64 goes up by one.

A mutant that does not compile, such as ``for x not in xs``, is skipped, and
no token inside an annotation (of an argument, a return or an annotated
assignment) is mutated: under ``from __future__ import annotations`` such
an annotation is never evaluated, so no test could kill its mutant.
For each of the others, pytest runs TESTS with ``-x`` in the copy, with a
timeout of 10 s plus three times the unmutated run's wall time; a failing or
timed-out run kills the mutant.
Every survivor is printed as ``MODULE:LINE: mutation: source line``, and
the exit status is 1 when any survived, 2 when the unmutated tests fail
and 3 when MODULE yields no mutant.
SIGTERM stops the run as an exception does: the pytest run in progress is
killed and the temporary copy removed.
Only the standard library is used, and the working tree is never written.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "|": "&", "&": "|", "<": "<=", "<=": "<",
         ">": ">=", ">=": ">", "==": "!=", "!=": "==", "and": "or", "or": "and",
         "in": "not in", "not in": "in"}


def annotation_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """((line, col), (end line, end col)) of each annotation, cols in characters as tokenize counts."""
    lines = source.splitlines()

    def chars(row: int, byte_col: int) -> int:  # ast counts a column in UTF-8 bytes
        return len(lines[row - 1].encode()[:byte_col].decode())

    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arg):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        elif isinstance(node, ast.AnnAssign):
            note = node.annotation
        else:
            continue
        if note is not None:
            spans.append(((note.lineno, chars(note.lineno, note.col_offset)),
                          (note.end_lineno, chars(note.end_lineno, note.end_col_offset))))
    return spans


def mutants(source: str):
    """(line, col, old, new, mutated source) of each one-token change that still compiles."""
    lines = source.splitlines(keepends=True)
    spans = annotation_spans(source)
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        old, (row, col), end_col = tok.string, tok.start, tok.end[1]
        if old == "in" and prev and prev.string == "not" and prev.start[0] == row:
            old, col = "not in", prev.start[1]  # one unit, as a `not` alone is never swapped
        prev = tok
        if any(start <= (row, col) < end for start, end in spans):
            continue
        if tok.type in (tokenize.OP, tokenize.NAME) and old in SWAPS:  # and, or, in are NAMEs
            new = SWAPS[old]
        elif tok.type == tokenize.NUMBER and old.isdigit() and int(old) <= 64:
            new = str(int(old) + 1)
        else:
            continue
        line = lines[row - 1]  # an operator, keyword or number spans one line
        mutated = lines[: row - 1] + [line[:col] + new + line[end_col:]] + lines[row:]
        try:
            compile("".join(mutated), "<mutant>", "exec")
        except SyntaxError:
            continue
        yield row, col, old, new, "".join(mutated)


def run_tests(tree: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether the tests pass in ``tree``; a run past ``timeout`` fails."""
    # No bytecode cache: a mutant of the same size and mtime second would load the last one's.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    # As SystemExit, SIGTERM makes subprocess.run kill the pytest child and
    # TemporaryDirectory remove the copy.
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description="Print the one-token mutants of MODULE that TESTS miss.")
    parser.add_argument("module", type=Path, metavar="MODULE", help="path of the module to mutate")
    parser.add_argument("tests", nargs="+", metavar="TESTS", help="pytest arguments that select its tests")
    args = parser.parse_args(argv)
    module, tests = args.module, args.tests
    root = Path.cwd()
    source = (root / module).read_text(encoding="utf-8")
    found = list(mutants(source))
    if not found:
        print(f"{module}: no mutants", file=sys.stderr)
        return 3
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(".*", "__pycache__"))
        target = tree / module
        start = time.perf_counter()
        if not run_tests(tree, tests, None):
            print("the tests fail before any mutation", file=sys.stderr)
            return 2
        timeout = 10 + 3 * (time.perf_counter() - start)
        lines = source.splitlines()
        survived = 0
        for row, col, old, new, mutated in found:
            target.write_text(mutated, encoding="utf-8")
            if run_tests(tree, tests, timeout):
                survived += 1
                print(f"{module}:{row}: col {col} {old!r} -> {new!r}: {lines[row - 1].strip()}",
                      flush=True)
    print(f"{len(found)} mutants, {len(found) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
