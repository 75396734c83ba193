"""The package surface: lazy exports, which commands load numpy, and what the oracle imports."""

import argparse
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
    "montecarlo": ["run_mc"],
    "oracle": ["brute_force_did", "population_curve"],
    "panel": [
        "DegenerateGroups", "InconsistentTreatment", "NonIntegerTime", "PanelDataset",
        "PanelError", "TimeOutOfRange", "UnbalancedPanel",
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


def test_console_script_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"evstudy": "evstudy.cli:main"}
    module, _, attr = scripts["evstudy"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_dir_lists_every_export():
    assert set(evstudy.__all__) <= set(dir(evstudy))


def test_a_fresh_import_lists_every_export_and_caches_each_one_used():
    # In a new interpreter no export has been looked up, so none is a global yet.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import json, evstudy\n"
            "names = dir(evstudy)\n"
            "evstudy.simulate\n"
            "print(json.dumps([names, evstudy.__all__, sorted(vars(evstudy))]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    names, exported, module_globals = json.loads(proc.stdout)
    assert exported == sorted(exported) and len(exported) == 22
    assert set(exported) <= set(names)
    assert {"__version__", "__getattr__", "_EXPORTS"} <= set(names)
    assert "simulate" in module_globals and "run_mc" not in module_globals


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        evstudy.no_such_name


class _Captured(Exception):
    """Raised in place of the command's work, carrying what the CLI passed on."""


def _capture(*args, **kwargs):
    raise _Captured(args)


def _other(value):
    """A valid value of ``value``'s type that differs from it."""
    if isinstance(value, str):
        return next(m for m in spec.METHODS if m != value)
    return value + 1 if isinstance(value, int) else value / 2


_FIELDS = [(f.name, f.default) for f in dataclasses.fields(spec.DgpConfig)]
_BOOT_FIELDS = [(f.name, f.default) for f in dataclasses.fields(spec.BootstrapConfig)]
# command -> (its arguments before any setting's flag, the function it hands its
# settings to, and each setting's (name, default, flag, and where that function
# receives it: argument index, then attribute or None)).
_SETTINGS = {
    "simulate": ([], "evstudy.dgp.simulate", [(n, d, "--" + n, 0, n) for n, d in _FIELDS]),
    "montecarlo": ([], "evstudy.montecarlo.run_mc",
                   [(n, d, "--" + n, 0, n) for n, d in _FIELDS if n != "seed"]
                   + [("draws", 2000, "--draws", 2, None), ("master_seed", 0, "--master_seed", 3, None)]),
    "estimate": ([str(GOLDEN / "panel_small.csv"), "--bootstrap"], "evstudy.inference.bootstrap_many",
                 [(n, d, "--boot_seed" if n == "seed" else "--" + n, 2, n) for n, d in _BOOT_FIELDS]),
}
# The options that are no setting.
_NOT_SETTINGS = {"help", "out", "config", "estimator", "bootstrap", "bjs_pre"}


def _passed_on(monkeypatch, tmp_path, command, argv, index, attr):
    """The setting the command hands on at ``index``/``attr`` when run with ``argv``."""
    head, target, _ = _SETTINGS[command]
    monkeypatch.setattr(target, _capture)
    with pytest.raises(_Captured) as captured:
        main([command, *head, *argv, "--out", str(tmp_path / "out")])
    arg = captured.value.args[0][index]
    return arg if attr is None else getattr(arg, attr)


@pytest.mark.parametrize("command", sorted(_SETTINGS))
def test_every_setting_has_a_flag_and_config_key_typed_and_defaulted_as_declared(
        tmp_path, monkeypatch, command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[command]._actions}
    _, _, settings = _SETTINGS[command]
    flagged = {a.dest for a in actions.values() if a.option_strings} - _NOT_SETTINGS
    assert flagged == {name for name, *_ in settings}  # no setting more or fewer
    for name, default, flag, *where in settings:
        flag = flag.replace("_", "-")
        assert actions[name].option_strings == [flag]
        assert actions[name].type is type(default) and actions[name].default is None
        value = _other(default)
        cases = [([], default), ([flag, str(value)], value)]
        if "config" in actions:
            (tmp_path / f"{name}.cfg").write_text(f"{name} = {value}\n")
            cases.append((["--config", str(tmp_path / f"{name}.cfg")], value))
        for argv, expected in cases:
            got = _passed_on(monkeypatch, tmp_path, command, argv, *where)
            assert got == expected and type(got) is type(default), (name, argv)


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


def test_montecarlo_loads_neither_estimators_nor_inference(tmp_path):
    # run_mc's records come from spec and kernels, as a point estimate's do.
    argv = ["montecarlo", "--n-treated", "2", "--n-control", "2", "--draws", "3",
            "--out", str(tmp_path / "mc.csv")]
    modules = _fresh_modules(f"from evstudy.cli import main\nassert main({argv!r}) == 0")
    assert {"evstudy.montecarlo", "evstudy.kernels"} <= modules
    assert not {"evstudy.estimators", "evstudy.inference"} & modules


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


def test_spec_imports_only_the_standard_library():
    # The CLI parses flags and catches errors through spec before loading numpy.
    for name, _ in _imports(SRC / "evstudy" / "spec.py"):
        assert name.partition(".")[0] in sys.stdlib_module_names, name


def test_only_dgp_calls_np_empty():
    # dgp._allocate turns an array too large to allocate into exit 2 naming
    # it; an np.empty anywhere else could size an array by a user value and
    # bypass it.
    callers = set()
    for path in (SRC / "evstudy").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.empty", "numpy.empty"):
                callers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                assert "empty" not in [alias.name for alias in node.names], path.name
    assert callers == {"dgp.py"}
