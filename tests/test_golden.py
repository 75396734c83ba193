"""Pinned CLI outputs on the default design: sha256 sums for those no BLAS kernel
changes, and a checked-in bootstrap table whose se/ci columns may move in their
last digits with the kernel."""

import csv
import hashlib
import math
from pathlib import Path

import pytest

from evstudy.cli import main

GOLDEN = Path(__file__).parent / "golden"
# Bootstrap replicate means are BLAS vector-matrix products, which sum in an
# order the kernel picks. On one x86-64 host, OpenBLAS's SkylakeX (its
# default there), Haswell, Nehalem and Prescott kernels gave four different
# tables, with equal coefficients and se/ci at most 1.6e-13 apart, relative.
KERNEL_COLUMNS = ("std_error", "ci_low", "ci_high")
KERNEL_RTOL = 1e-12


@pytest.fixture(scope="module")
def default_panel_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "panel.csv"
    assert main(["simulate", "--out", str(path)]) == 0
    return path


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_estimate_all_without_bootstrap_matches_its_sha256(default_panel_csv, tmp_path):
    out = tmp_path / "est.csv"
    assert main(["estimate", str(default_panel_csv), "--estimator", "all", "--out", str(out)]) == 0
    assert sha256(out) == "4fa433ea50fccac41316aba2eb2e981dadd7966345f617947d281ff824171778"


def test_montecarlo_2000_draws_matches_its_sha256(tmp_path):
    # 2000 draws cross the first SEED_BLOCK boundary, at draw 1024.
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--draws", "2000", "--out", str(out)]) == 0
    assert sha256(out) == "7f1c4f3637064c10c6899739181395c37a9aaac92e3052b6e6471ae1eb1f3449"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_bootstrap_table_matches_golden(default_panel_csv, tmp_path):
    out = tmp_path / "est.csv"
    assert main(["estimate", str(default_panel_csv), "--estimator", "all", "--bootstrap",
                 "--out", str(out)]) == 0
    header, *got = read_rows(out)
    golden_header, *want = read_rows(GOLDEN / "estimate_all_bootstrap.csv")
    assert header == golden_header and len(got) == len(want)
    inexact = [header.index(column) for column in KERNEL_COLUMNS]
    for row, golden in zip(got, want):
        for k, (value, expected) in enumerate(zip(row, golden)):
            if k in inexact and expected != "":
                assert math.isclose(float(value), float(expected), rel_tol=KERNEL_RTOL,
                                    abs_tol=0), (row, header[k])
            else:
                assert value == expected, (row, header[k])
