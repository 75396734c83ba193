"""The package surface: lazy exports, which commands load numpy, and what the oracle imports."""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evstudy
from evstudy import cli, spec
from evstudy.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = Path(__file__).parent / "golden"

# Every exported name, by the module that provided it when the package
# imported all its modules eagerly; each must still be that module's object.
EXPORTED_FROM = {
    "dgp": ["DgpConfig", "InvalidConfig", "simulate"],
    "estimators": [
        "EventStudyEstimate", "SingularDesign", "UnknownEstimator", "bjs_imputation",
        "estimate", "estimate_many", "twfe_regression",
    ],
    "inference": ["BootstrapConfig", "bootstrap_many"],
    "montecarlo": ["McReport", "run_mc"],
    "oracle": [
        "OmittedCategory", "brute_force_did", "population_bjs", "population_cs_dcdh",
        "population_curve", "population_twfe",
    ],
    "panel": [
        "DegenerateGroups", "InconsistentTreatment", "NonIntegerTime", "PanelDataset",
        "PanelError", "TimeOutOfRange", "UnbalancedPanel", "validate_panel",
    ],
}


def test_every_export_resolves_to_its_module_object():
    names = [name for group in EXPORTED_FROM.values() for name in group]
    assert sorted(evstudy.__all__) == sorted(names)
    for module, group in EXPORTED_FROM.items():
        mod = importlib.import_module(f"evstudy.{module}")
        for name in group:
            obj = getattr(evstudy, name)
            assert obj is getattr(mod, name), name
            # ... and is the object its defining module holds.
            assert obj is getattr(importlib.import_module(obj.__module__), name), name


def test_version_matches_pyproject():
    # A regex rather than tomllib, which Python 3.10 lacks.
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", (ROOT / "pyproject.toml").read_text(),
                        re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == evstudy.__version__


def test_dir_lists_every_export():
    assert set(evstudy.__all__) <= set(dir(evstudy))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        evstudy.no_such_name


def test_cli_dgp_keys_are_the_config_fields():
    assert cli._DGP_KEYS == tuple(f.name for f in dataclasses.fields(spec.DgpConfig))


def test_estimate_help_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    defaults = spec.BootstrapConfig()
    for value in (defaults.replications, defaults.seed, defaults.level, defaults.method):
        assert f"(default {value})" in text
    assert text == (GOLDEN / "estimate_help.txt").read_text()


def _fresh_modules(code: str) -> set[str]:
    """Names in ``sys.modules`` after running ``code`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_numpy():
    assert "numpy" not in _fresh_modules("import evstudy\nimport evstudy.cli")


def test_plot_loads_no_numpy(tmp_path):
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    assert main(["simulate", "--t-min", "-3", "--t-max", "2", "--n-treated", "4",
                 "--n-control", "4", "--out", str(panel_csv)]) == 0
    assert main(["estimate", str(panel_csv), "--bootstrap", "--replications", "9",
                 "--out", str(est_csv)]) == 0
    argv = ["plot", str(est_csv), "--overlay-population", "0.5", "--split-bjs",
            "--out", str(tmp_path / "fig.svg")]
    modules = _fresh_modules(f"from evstudy.cli import main\nassert main({argv!r}) == 0")
    assert "numpy" not in modules
    assert len(list(tmp_path.glob("fig_*.svg"))) == 5


def test_simulate_loads_neither_inference_nor_montecarlo(tmp_path):
    argv = ["simulate", "--n-treated", "2", "--n-control", "2", "--out", str(tmp_path / "p.csv")]
    modules = _fresh_modules(f"from evstudy.cli import main\nassert main({argv!r}) == 0")
    assert "evstudy.dgp" in modules
    assert not {"evstudy.inference", "evstudy.montecarlo"} & modules


def _imports(path: Path) -> list[tuple[str, bool]]:
    """(module, under ``if TYPE_CHECKING``) for every import in the file at ``path``."""
    tree = ast.parse(path.read_text())
    guarded = {id(node) for block in ast.walk(tree)
               if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
               for node in ast.walk(block)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names = ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + node.module]
        else:
            continue
        found += [(name, id(node) in guarded) for name in names]
    return found


def test_oracle_shares_no_code_with_the_estimators():
    # The brute-force oracle falsifies the closed forms only while it is
    # independent of them: no numpy, no kernels, no estimators.
    imports = _imports(SRC / "evstudy" / "oracle.py")
    assert (".panel", True) in imports
    for name, type_checking in imports:
        if name.startswith("."):
            assert name == ".spec" or (name, type_checking) == (".panel", True), name
        else:
            assert name.partition(".")[0] in sys.stdlib_module_names, name
