"""tools/mutants.py on small modules: it reports exactly the mutants their tests miss."""

import subprocess
import sys
from pathlib import Path

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


def test_mutants_exits_3_on_a_module_without_mutants(tmp_path):
    (tmp_path / "small.py").write_text("def name():\n    return 'x'\n")
    (tmp_path / "test_small.py").write_text("def test_small():\n    pass\n")
    proc = subprocess.run([sys.executable, str(TOOL), "small.py", "test_small.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "small.py: no mutants\n")
