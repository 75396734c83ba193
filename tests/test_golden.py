"""Pinned CLI outputs on the default design, as sha256 sums of the written files.

No output depends on the BLAS kernel, bootstrap se/ci included, so CI runs
this file under several OpenBLAS kernels and every sum must hold there too."""

import hashlib

import pytest

from evstudy.cli import main


@pytest.fixture(scope="module")
def default_panel_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "panel.csv"
    assert main(["simulate", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("argv, digest", [
    (["estimate", "@panel", "--estimator", "all"],
     "4fa433ea50fccac41316aba2eb2e981dadd7966345f617947d281ff824171778"),
    (["estimate", "@panel", "--estimator", "all", "--bootstrap"],
     "9a1dd3502296442af4acc988ab595afe776421893a988c36a4920387cf901bbe"),
    # 2000 draws cross the first SEED_BLOCK boundary, at draw 1024.
    (["montecarlo", "--draws", "2000"],
     "7f1c4f3637064c10c6899739181395c37a9aaac92e3052b6e6471ae1eb1f3449"),
], ids=["estimate-all", "estimate-all-bootstrap", "montecarlo-2000"])
def test_cli_output_matches_its_sha256(default_panel_csv, tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    argv = [str(default_panel_csv) if a == "@panel" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
