"""tools/mutants.py on small modules: it reports exactly the mutants their tests miss."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_mutants_prints_each_survivor(tmp_path):
    (tmp_path / "small.py").write_text(
        "def add(a, b):\n"
        "    return a + b\n"
        "\n"
        "def is_small(x):\n"
        "    return x < 10\n")
    (tmp_path / "test_small.py").write_text(
        "from small import add, is_small\n"
        "\n"
        "def test_small():\n"
        "    assert add(2, 3) == 5\n"
        "    assert is_small(3) and not is_small(12)\n")
    proc = subprocess.run([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    # a - b fails the test; x <= 10 and x < 11 agree with x < 10 on 3 and 12.
    assert proc.stdout.splitlines() == [
        "small.py:5: col 13 '<' -> '<=': return x < 10",
        "small.py:5: col 15 '10' -> '11': return x < 10",
        "3 mutants, 1 killed, 2 survived",
    ], proc.stderr
    assert proc.returncode == 1
    assert "return x < 10" in (tmp_path / "small.py").read_text()  # the tree is not written


def test_mutants_swaps_equality_and_boolean_operators(tmp_path):
    (tmp_path / "small.py").write_text(
        "def both(a, b):\n"
        "    return a == 1 and b != 2\n")
    (tmp_path / "test_small.py").write_text(
        "from small import both\n"
        "\n"
        "def test_small():\n"
        "    assert both(1, 3) and not both(0, 2)\n")
    proc = subprocess.run([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    # Every mutant but `or` fails both(1, 3); both(0, 2) is False either way.
    assert proc.stdout.splitlines() == [
        "small.py:2: col 18 'and' -> 'or': return a == 1 and b != 2",
        "5 mutants, 4 killed, 1 survived",
    ], proc.stderr
    assert proc.returncode == 1


def test_mutants_swaps_membership_and_bitwise_operators(tmp_path):
    (tmp_path / "small.py").write_text(
        "def keep(xs, ys):\n"
        "    return [x for x in xs if x not in ys]\n"
        "\n"
        "def union(a, b):\n"
        "    return a | b\n")
    (tmp_path / "test_small.py").write_text(
        "from small import keep, union\n"
        "\n"
        "def test_small():\n"
        "    assert keep([1, 2], [2]) == [1]\n"
        "    assert union(1, 1) == 1\n")
    proc = subprocess.run([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    # `for x not in xs` does not compile; `not in` -> `in` is one mutant, which
    # keep([1, 2], [2]) kills; 1 & 1 == 1 | 1.
    assert proc.stdout.splitlines() == [
        "small.py:5: col 13 '|' -> '&': return a | b",
        "2 mutants, 1 killed, 1 survived",
    ], proc.stderr
    assert proc.returncode == 1


def test_mutants_leaves_annotations_alone(tmp_path):
    (tmp_path / "small.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "def pick(x: int | None = None) -> int | None:\n"
        "    y: int | None = x\n"
        "    return y\n"
        "\n"
        "def union(a, b):\n"
        "    return a | b\n")
    (tmp_path / "test_small.py").write_text(
        "from small import pick, union\n"
        "\n"
        "def test_small():\n"
        "    assert pick(3) == 3 and union(1, 1) == 1\n")
    proc = subprocess.run([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    # The three `|` of the annotations are never evaluated, so none is mutated.
    assert proc.stdout.splitlines() == [
        "small.py:8: col 13 '|' -> '&': return a | b",
        "1 mutants, 0 killed, 1 survived",
    ], proc.stderr
    assert proc.returncode == 1


def test_mutants_cleans_up_when_terminated(tmp_path):
    project, tmp, started = tmp_path / "project", tmp_path / "tmp", tmp_path / "started"
    project.mkdir()
    tmp.mkdir()
    (project / "small.py").write_text("def add(a, b):\n    return a + b\n")
    (project / "test_small.py").write_text(
        "import os, pathlib, time\n"
        "\n"
        "def test_small():\n"
        f"    pathlib.Path({str(started)!r}).write_text(str(os.getpid()))\n"
        "    time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=project,
                            env={**os.environ, "TMPDIR": str(tmp)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (started.exists() and started.read_text()):  # the unmutated run has begun
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(started.read_text())
        assert [p.name.startswith("mutants-") for p in tmp.iterdir()] == [True]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp.iterdir()) == []
    with pytest.raises(ProcessLookupError):  # the pytest child was killed and reaped
        os.kill(child, 0)


def test_mutants_exits_3_on_a_module_without_mutants(tmp_path):
    (tmp_path / "small.py").write_text("def name():\n    return 'x'\n")
    (tmp_path / "test_small.py").write_text("def test_small():\n    pass\n")
    proc = subprocess.run([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "small.py: no mutants\n")
