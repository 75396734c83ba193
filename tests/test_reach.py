"""tools/reach.py: README names every function no command reaches, and a new one fails."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach.py"
HEADING = "## Code no command reaches\n"


def run_reach(cwd):
    return subprocess.run([sys.executable, str(TOOL)], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_every_function_no_command_reaches_is_named_in_readme():
    proc = run_reach(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith(" functions no command reaches, 0 of them not named in README")
    # the twins and the oracle are listed; what the commands call is not
    assert any(line.endswith(": estimators.twfe_regression") for line in lines)
    assert not any(".read_panel_csv" in line or ".estimate_many" in line for line in lines)


def test_an_unreached_function_not_named_in_readme_fails(tmp_path):
    shutil.copytree(ROOT / "src" / "evstudy", tmp_path / "src" / "evstudy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme.count(HEADING) == 1
    (tmp_path / "README.md").write_text(readme, encoding="utf-8")
    panel = tmp_path / "src" / "evstudy" / "panel.py"
    source = panel.read_text(encoding="utf-8")
    panel.write_text(source + "\n\ndef _unused():\n    return 0\n", encoding="utf-8")
    line = source.count("\n") + 3

    proc = run_reach(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert (f"src/evstudy/panel.py:{line}: panel._unused"
            "  (not named in README's \"Code no command reaches\")") in lines
    assert lines[-1].endswith(" functions no command reaches, 1 of them not named in README")

    # Named in the section, it passes.
    (tmp_path / "README.md").write_text(
        readme.replace(HEADING, HEADING + "\n`panel._unused` is kept for a test.\n"),
        encoding="utf-8")
    proc = run_reach(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"src/evstudy/panel.py:{line}: panel._unused" in proc.stdout.splitlines()
