"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Tolerances are fixed constants; randomness is pinned by seeds, so
every check is deterministic.
"""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from evstudy import (
    BootstrapConfig,
    DgpConfig,
    bjs_imputation,
    bootstrap_many,
    brute_force_did,
    estimate,
    estimate_many,
    population_bjs,
    population_cs_dcdh,
    population_twfe,
    run_mc,
    simulate,
    twfe_regression,
    validate_panel,
)
from evstudy.cli import main
from evstudy.oracle import matching_base_spec

from conftest import FOUR_CELL_ROWS
from helpers import make_fuzz_panel, max_coef_diff

GOLDEN_DIR = Path(__file__).parent / "golden"

PAPER_DESIGN = DgpConfig(gamma=0.5, t_min=-15, t_max=10, n_treated=50, n_control=50)
ALL_TAGS = ["twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"]

MC_DRAWS = 2000
MC_MASTER_SEED = 2024
FIGURE_SEED = 5  # single draw used for criteria 7 and 8
BOOT_SEED = 105


def check(criterion: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description}")
    assert ok, f"criterion {criterion}: {description}"


@pytest.fixture(scope="module")
def mc_report():
    return run_mc(PAPER_DESIGN, ALL_TAGS, MC_DRAWS, MC_MASTER_SEED)


@pytest.fixture(scope="module")
def figure_panel():
    return simulate(DgpConfig(seed=FIGURE_SEED))


@pytest.fixture(scope="module")
def fuzz_panels():
    rng = np.random.default_rng(20260824)
    return [make_fuzz_panel(rng) for _ in range(200)]


def test_criterion_1_twfe_straight_line(mc_report):
    dev = max(
        abs(mean - population_twfe(0.5, r))
        for r, mean in mc_report.means["twfe"].items()
    )
    check(1, f"TWFE Monte Carlo means on gamma*(r+1) (max dev {dev:.4f} < 0.03)", dev < 0.03)


def test_criterion_2_cs_dcdh_kink(mc_report):
    dev = max(
        abs(mean - population_cs_dcdh(0.5, r))
        for r, mean in mc_report.means["cs_dcdh_default"].items()
    )
    check(2, f"CS/dCDH means flat-gamma pre, gamma*(r+1) post (max dev {dev:.4f} < 0.03)", dev < 0.03)


def test_criterion_3_bjs_jump(mc_report):
    means = mc_report.means["bjs"]
    dev = max(abs(mean - population_bjs(0.5, r, -15)) for r, mean in means.items())
    jump_ok = (
        abs(means[-1] - 7.5) < 0.05
        and abs(means[0] - 4.25) < 0.05
        and means[0] < means[-1]
    )
    check(3, f"BJS means on jump curve (max dev {dev:.4f} < 0.05; 7.5 -> 4.25 drop)",
          dev < 0.05 and jump_ok)


def test_criterion_4_exact_equivalences(figure_panel, fuzz_panels):
    panels = [validate_panel(FOUR_CELL_ROWS), figure_panel] + fuzz_panels
    dev_a = dev_b = dev_c = 0.0
    for p in panels:
        twfe, _, universal, bjs = estimate_many(p, ALL_TAGS)
        dev_a = max(dev_a, max_coef_diff(twfe_regression(p), twfe))
        dev_b = max(dev_b, max_coef_diff(universal, twfe))
        dev_c = max(dev_c, max_coef_diff(bjs_imputation(p), bjs))
    check(4, f"equivalences on {len(panels)} panels: regression~closed {dev_a:.2e}<1e-8, "
             f"universal~twfe {dev_b:.2e}<1e-12, imputation~closed {dev_c:.2e}<1e-8",
          dev_a < 1e-8 and dev_b < 1e-12 and dev_c < 1e-8)


def test_criterion_5_brute_force_oracle(figure_panel, fuzz_panels):
    panels = [validate_panel(FOUR_CELL_ROWS), figure_panel] + fuzz_panels[:30]
    worst = 0.0
    for panel in panels:
        for tag in ALL_TAGS:
            est = estimate(panel, tag)
            for r, value in est.coefficients.items():
                oracle = brute_force_did(panel, r, matching_base_spec(tag, r, panel.t_min))
                worst = max(worst, abs(value - oracle))
    check(5, f"all coefficients match brute-force DiD (max dev {worst:.2e} < 1e-10)",
          worst < 1e-10)


def test_criterion_6_hand_fixture():
    twfe, cs, universal, bjs = estimate_many(validate_panel(FOUR_CELL_ROWS), ALL_TAGS)
    ok = (
        twfe.coefficients == {-3: -2.0, -2: -1.0, 0: 1.0}
        and cs.coefficients == {-2: 1.0, -1: 1.0, 0: 1.0}
        and universal.coefficients == {-3: -2.0, -2: -1.0, 0: 1.0}
        and bjs.coefficients == {-2: 1.0, -1: 2.0, 0: 2.0}
    )
    check(6, "4-cell fixture reproduces all hand-derived coefficients exactly", ok)


def test_criterion_7_bootstrap_calibration(figure_panel):
    [boot] = bootstrap_many(figure_panel, ["twfe"],
                            BootstrapConfig(replications=999, seed=BOOT_SEED))
    target = np.sqrt(8 / 100)
    ratios = np.array(list(boot.se.values())) / target
    check(7, f"TWFE bootstrap SEs within 15% of sqrt(8/N)={target:.3f} "
             f"(ratios in [{ratios.min():.3f}, {ratios.max():.3f}])",
          bool(np.all(np.abs(ratios - 1) < 0.15)))


def _ols(x, y):
    """Slope/intercept fit returning (coefs, standard errors)."""
    X = np.column_stack([np.ones_like(x), x])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    s2 = resid @ resid / (len(y) - X.shape[1])
    se = np.sqrt(np.diag(s2 * np.linalg.inv(X.T @ X)))
    return beta, se


def test_criterion_8_figure_shapes_and_goldens(figure_panel, tmp_path):
    # Golden-file reproduction through the CLI pipeline.
    panel_csv, est_csv = tmp_path / "panel.csv", tmp_path / "est.csv"
    assert main(["simulate", "--seed", str(FIGURE_SEED), "--out", str(panel_csv)]) == 0
    assert main(["estimate", str(panel_csv), "--estimator", "all", "--bootstrap",
                 "--replications", "999", "--boot-seed", str(BOOT_SEED),
                 "--out", str(est_csv)]) == 0
    assert main(["plot", str(est_csv), "--overlay-population", "0.5",
                 "--out", str(tmp_path / "fig.svg")]) == 0
    svg_names = [f"fig_{tag}.svg" for tag in ALL_TAGS]
    golden_ok = all(
        filecmp.cmp(tmp_path / name, GOLDEN_DIR / name, shallow=False)
        for name in svg_names
    )

    # (a) TWFE: a line fit leaves no detectable level break at r = 0.
    tw = estimate(figure_panel, "twfe").coefficients
    rs = np.array(sorted(tw), dtype=float)
    ys = np.array([tw[r] for r in sorted(tw)])
    X = np.column_stack([np.ones_like(rs), rs, (rs >= 0).astype(float)])
    beta, *_ = np.linalg.lstsq(X, ys, rcond=None)
    resid = ys - X @ beta
    s2 = resid @ resid / (len(ys) - 3)
    se_break = np.sqrt((s2 * np.linalg.inv(X.T @ X))[2, 2])
    a_ok = abs(beta[2]) < 3 * se_break

    # (b) CS/dCDH: pre slope ~ 0, post slope ~ gamma.
    cs = estimate(figure_panel, "cs_dcdh_default").coefficients
    pre = sorted(r for r in cs if r < 0)
    post = sorted(r for r in cs if r >= 0)
    beta_pre, se_p = _ols(np.array(pre, float), np.array([cs[r] for r in pre]))
    beta_post, se_q = _ols(np.array(post, float), np.array([cs[r] for r in post]))
    b_ok = abs(beta_pre[1]) < 3 * se_p[1] and abs(beta_post[1] - 0.5) < 3 * se_q[1]

    # (c) BJS: the drop from r=-1 to r=0 dwarfs its bootstrap SE.
    [boot] = bootstrap_many(figure_panel, ["bjs"],
                            BootstrapConfig(replications=999, seed=BOOT_SEED + 1))
    drop = boot.coefficients[-1] - boot.coefficients[0]
    c_ok = drop > 3 * max(boot.se[-1], boot.se[0])

    check(8, f"figure SVGs match goldens ({golden_ok}); TWFE no break ({a_ok}); "
             f"CS slopes 0/gamma ({b_ok}); BJS drop > 3 SE ({c_ok})",
          golden_ok and a_ok and b_ok and c_ok)


def test_criterion_9_telescoping(figure_panel, fuzz_panels):
    worst = 0.0
    for panel in [validate_panel(FOUR_CELL_ROWS), figure_panel] + fuzz_panels:
        tw, cs = (est.coefficients for est in estimate_many(panel, ["twfe", "cs_dcdh_default"]))
        for r in range(panel.t_min - 1, -1):
            total = sum(cs[s] for s in range(r + 1, 0))
            worst = max(worst, abs(total + tw[r]))
    check(9, f"short differences telescope into long differences (max dev {worst:.2e} < 1e-9)",
          worst < 1e-9)
