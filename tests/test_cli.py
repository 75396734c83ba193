import filecmp
import re
import warnings
from pathlib import Path

import pytest

from evstudy import BootstrapConfig, DgpConfig, bootstrap_many, estimate_many, simulate
from evstudy.cli import main
from evstudy.tableio import (
    estimate_table_rows,
    read_estimate_table,
    read_panel_csv,
    write_panel_csv,
)

from conftest import FOUR_CELL_ROWS

GOLDEN = Path(__file__).parent / "golden"
SMALL_DESIGN = ["--n-treated", "3", "--n-control", "2", "--t-min", "-3", "--t-max", "2"]
SIM_FLAGS = ["--t-min", "-4", "--t-max", "3", "--n-treated", "6", "--n-control", "6",
             "--gamma", "0.5", "--seed", "21"]


def write_four_cell(path):
    with open(path, "w") as fh:
        fh.write("unit,time,treated,outcome\n")
        for u, t, d, y in FOUR_CELL_ROWS:
            fh.write(f"{u},{t},{d},{y}\n")


def test_simulate_row_count_defaults(tmp_path, capsys):
    out = tmp_path / "panel.csv"
    assert main(["simulate", "--seed", "1", "--out", str(out)]) == 0
    assert "2600 data rows" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 2601


def test_simulate_minimal_grid(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["simulate", "--n-treated", "1", "--n-control", "1",
                 "--t-min", "-2", "--t-max", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", *SIM_FLAGS, "--out", str(a)])
    main(["simulate", *SIM_FLAGS, "--out", str(b)])
    assert filecmp.cmp(a, b, shallow=False)


def test_simulate_matches_golden(tmp_path):
    out = tmp_path / "panel.csv"
    assert main(["simulate", *SMALL_DESIGN, "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "panel_small.csv").read_bytes()


def test_montecarlo_matches_golden(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", *SMALL_DESIGN, "--draws", "50", "--master-seed", "4",
                 "--estimator", "all", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "mc_small.csv").read_bytes()


@pytest.mark.parametrize("command, flags, message", [
    ("simulate", ["--gamma", "nan"], "gamma must be finite"),
    ("simulate", ["--gamma", "inf"], "gamma must be finite"),
    ("simulate", ["--error-sd", "inf"], "error_sd must be positive and finite"),
    ("simulate", ["--gamma", "1e308"], "period -15: 100 * max|outcome| overflows"),
    ("montecarlo", ["--gamma", "nan", "--draws", "5"], "gamma must be finite"),
    ("montecarlo", ["--error-sd", "1e300", "--draws", "5"], "Monte Carlo sums are not finite"),
    ("simulate", ["--gamma", "-inf"], "gamma must be finite"),
])
def test_dgp_without_a_finite_panel_exit_2(tmp_path, capsys, command, flags, message):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, *flags, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not caught
    assert not out.exists()


def test_simulate_negative_gamma_with_an_exponent(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["simulate", *SMALL_DESIGN, "--gamma", "-1e-3", "--out", str(out)]) == 0
    assert "gamma=-0.001 " in capsys.readouterr().out


def test_simulate_config_file_and_override(tmp_path):
    cfg = tmp_path / "dgp.cfg"
    cfg.write_text("gamma = 0.25   # trend slope\nt_min=-3\nt_max=2\n"
                   "n_treated=4\nn_control=4\nseed=9\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    # flag overrides the file value
    assert main(["simulate", "--config", str(cfg), "--seed", "10", "--out", str(b)]) == 0
    assert not filecmp.cmp(a, b, shallow=False)
    panel = read_panel_csv(a)
    assert panel.n_units == 8 and panel.t_min == -3


def test_montecarlo_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("t_min=-3\nt_max=2\nn_treated=4\nn_control=4\ndraws=3\nmaster_seed=1\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(a)]) == 0
    assert "(3 draws" in capsys.readouterr().out
    assert main(["montecarlo", "--config", str(cfg), "--draws", "5", "--master-seed", "2",
                 "--out", str(a)]) == 0
    assert "(5 draws" in capsys.readouterr().out
    assert main(["montecarlo", "--t-min", "-3", "--t-max", "2", "--n-treated", "4",
                 "--n-control", "4", "--draws", "5", "--master-seed", "2", "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


@pytest.mark.parametrize("command, body, line, key", [
    ("simulate", "gamma=0.25\ngama=0.9\n", 2, "gama"),
    ("simulate", "draws=3\n", 1, "draws"),
    ("montecarlo", "# design\ngamma=0.5\n\nmaster_sed=4\n", 4, "master_sed"),
    # Draw k is seeded by derive_seed(master_seed, k); a seed key would be ignored.
    ("montecarlo", "draws=3\nseed=7\n", 2, "seed"),
])
def test_config_unknown_key_exit_2(tmp_path, capsys, command, body, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:{line}: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_seed_flag_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--draws", "5", "--seed", "1", "--out", str(out)]) == 3
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, body, message", [
    ("simulate", "gamma=0.5\nn_treated=abc\n", "2: n_treated: 'abc' is not an integer"),
    ("simulate", "gamma=steep\n", "1: gamma: 'steep' is not a number"),
    ("montecarlo", "draws=2.5\n", "1: draws: '2.5' is not an integer"),
    ("simulate", "seed=3\nseed=4\n", "2: duplicate key 'seed' (first on line 1)"),
])
def test_config_bad_value_names_file_line_key(tmp_path, capsys, command, body, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{cfg}:{message}" in capsys.readouterr().err


def test_roundtrip_estimates_bit_identical(tmp_path):
    panel_csv = tmp_path / "panel.csv"
    est_csv = tmp_path / "est.csv"
    main(["simulate", *SIM_FLAGS, "--out", str(panel_csv)])
    assert main(["estimate", str(panel_csv), "--estimator", "all", "--out", str(est_csv)]) == 0
    panel = simulate(DgpConfig(gamma=0.5, t_min=-4, t_max=3, n_treated=6, n_control=6, seed=21))
    direct = estimate_many(panel, ["twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs"])
    expected = estimate_table_rows(direct)
    got = read_estimate_table(est_csv)
    assert len(got) == len(expected)
    for row, exp in zip(got, expected):
        assert row.estimator == exp["estimator"]
        assert str(row.relative_time) == exp["relative_time"]
        if exp["coefficient"]:
            assert repr(row.coefficient) == exp["coefficient"]
        else:
            assert row.omitted


def test_estimate_fixture_bjs(tmp_path):
    panel_csv = tmp_path / "four.csv"
    out = tmp_path / "est.csv"
    write_four_cell(panel_csv)
    assert main(["estimate", str(panel_csv), "--estimator", "bjs", "--out", str(out)]) == 0
    rows = {r.relative_time: r for r in read_estimate_table(out)}
    assert rows[-3].omitted
    assert rows[-2].coefficient == 1.0
    assert rows[-1].coefficient == 2.0
    assert rows[0].coefficient == 2.0


def test_estimate_universal_equals_twfe_block(tmp_path):
    panel_csv = tmp_path / "four.csv"
    out = tmp_path / "est.csv"
    write_four_cell(panel_csv)
    main(["estimate", str(panel_csv), "--estimator", "all", "--out", str(out)])
    rows = read_estimate_table(out)
    twfe = {r.relative_time: r.coefficient for r in rows if r.estimator == "twfe"}
    uni = {r.relative_time: r.coefficient for r in rows if r.estimator == "cs_dcdh_universal"}
    assert twfe == uni


def test_estimate_bootstrap_columns(tmp_path):
    panel_csv = tmp_path / "panel.csv"
    out = tmp_path / "est.csv"
    main(["simulate", *SIM_FLAGS, "--out", str(panel_csv)])
    assert main(["estimate", str(panel_csv), "--estimator", "twfe", "--bootstrap",
                 "--replications", "99", "--boot-seed", "3", "--out", str(out)]) == 0
    rows = [r for r in read_estimate_table(out) if not r.omitted]
    assert all(r.std_error is not None and r.ci_low is not None for r in rows)
    panel = read_panel_csv(panel_csv)
    [direct] = bootstrap_many(panel, ["twfe"], BootstrapConfig(replications=99, seed=3))
    for r in rows:
        assert r.std_error == pytest.approx(direct.se[r.relative_time], abs=0)


def test_estimate_malformed_csv_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,outcome\na,0,1.0\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_estimate_invalid_panel_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,treated,outcome\na,0,1,1.0\na,1,1,1.0\nb,0,1,1.0\nb,1,1,1.0\n")
    assert main(["estimate", str(bad), "--out", str(tmp_path / "o.csv")]) == 2


def test_estimate_overflowing_group_mean_exit_2(tmp_path, capsys):
    # Every outcome is finite, but the treated mean at t = -1 overflows.
    rows = [(u, t, d, 1e308 if d and t == -1 else 0.0)
            for u, d in (("a", 1), ("b", 1), ("c", 0)) for t in range(-2, 2)]
    bad = tmp_path / "big.csv"
    bad.write_text("unit,time,treated,outcome\n"
                   + "".join(f"{u},{t},{d},{y!r}\n" for u, t, d, y in rows))
    out = tmp_path / "est.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(bad), "--estimator", "twfe", "--out", str(out)])
    assert code == 2
    assert "period -1" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


def test_estimate_bootstrap_overflow_exit_2(tmp_path, capsys):
    # The mean gap at t = -1 is finite, but a replicate that draws one of the
    # two treated units twice sums to 2e308.
    rows = [(u, t, d, y if t == -1 else 0.0)
            for u, d, y in (("a", 1, 1e308), ("b", 1, -1e308), ("c", 0, 0.0))
            for t in range(-2, 2)]
    bad = tmp_path / "big.csv"
    bad.write_text("unit,time,treated,outcome\n"
                   + "".join(f"{u},{t},{d},{y!r}\n" for u, t, d, y in rows))
    out = tmp_path / "est.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(bad), "--estimator", "twfe", "--bootstrap",
                     "--replications", "20", "--out", str(out)])
    assert code == 2
    assert "period -1" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


def test_estimate_cross_period_overflow_exit_2(tmp_path, capsys):
    # Each period's gap (+-1.6e308) is finite, but the TWFE difference of the
    # gaps at t = 1 and t = 0 is not.
    rows = [("a", -1, 1, 0.0), ("a", 0, 1, -8e307), ("a", 1, 1, 8e307),
            ("b", -1, 0, 0.0), ("b", 0, 0, 8e307), ("b", 1, 0, -8e307)]
    bad = tmp_path / "big.csv"
    bad.write_text("unit,time,treated,outcome\n"
                   + "".join(f"{u},{t},{d},{y!r}\n" for u, t, d, y in rows))
    out = tmp_path / "est.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(bad), "--estimator", "twfe", "--out", str(out)])
    assert code == 2
    assert "period 0" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("body", [
    # a blank line 3 before the bad outcome on line 5
    "unit,time,treated,outcome\na,-1,1,0.0\n\na,0,1,0.0\na,1,1,abc\n",
    # a unit id holding a newline spans lines 2-3
    'unit,time,treated,outcome\n"a\nb",-1,1,0.0\na,0,1,0.0\na,1,1,abc\n',
], ids=["blank-line", "quoted-newline"])
def test_panel_csv_error_names_physical_line(tmp_path, capsys, body):
    bad = tmp_path / "bad.csv"
    bad.write_text(body)
    assert main(["estimate", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    assert "line 5: bad outcome 'abc'" in capsys.readouterr().err


def test_unknown_estimator_exit_3(tmp_path):
    panel_csv = tmp_path / "four.csv"
    write_four_cell(panel_csv)
    assert main(["estimate", str(panel_csv), "--estimator", "sdid",
                 "--out", str(tmp_path / "o.csv")]) == 3


def test_bjs_pre_without_bjs_exit_3(tmp_path, capsys):
    panel_csv, out = tmp_path / "four.csv", tmp_path / "o.csv"
    write_four_cell(panel_csv)
    assert main(["estimate", str(panel_csv), "--estimator", "twfe", "--bjs-pre", "2",
                 "--out", str(out)]) == 3
    assert "--bjs-pre" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--replications", "5"), ("--boot-seed", "1"), ("--level", "0.9"), ("--method", "percentile"),
])
def test_bootstrap_flag_without_bootstrap_exit_3(tmp_path, capsys, flag, value):
    panel_csv, out = tmp_path / "four.csv", tmp_path / "o.csv"
    write_four_cell(panel_csv)
    assert main(["estimate", str(panel_csv), "--estimator", "twfe", flag, value,
                 "--out", str(out)]) == 3
    assert f"{flag} given without --bootstrap" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_unallocatable_replications_exit_2(tmp_path, capsys):
    # 10**14 replicates of a 26-period gap are 18.5 PiB, beyond any address
    # space, so the request fails at once and allocates nothing.
    panel_csv, out = tmp_path / "panel.csv", tmp_path / "est.csv"
    assert main(["simulate", "--out", str(panel_csv)]) == 0
    capsys.readouterr()
    assert main(["estimate", str(panel_csv), "--bootstrap", "--replications", str(10**14),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"replications={10**14}: the ({10**14}, 26) bootstrap gap array needs 18.5 PiB" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["estimate", "{panel}", "--bootstrap", "--boot-seed", "-1"], None,
     "bootstrap seed must be a non-negative integer, got -1"),
    (["montecarlo", *SMALL_DESIGN, "--draws", "3", "--master-seed", "-1"], None,
     "master_seed must be a non-negative integer, got -1"),
    (["montecarlo", *SMALL_DESIGN], "draws=3\nmaster_seed=-1\n",
     "master_seed must be a non-negative integer, got -1"),
], ids=["boot-seed-flag", "master-seed-flag", "master-seed-config"])
def test_negative_seed_exit_2_names_the_key(tmp_path, capsys, argv, config, message):
    panel_csv, out = tmp_path / "four.csv", tmp_path / "o.csv"
    write_four_cell(panel_csv)
    argv = [arg.format(panel=panel_csv) for arg in argv]
    if config is not None:
        (tmp_path / "c.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "c.cfg")]
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**64, 2**70])
def test_seeds_beyond_64_bits_are_accepted(tmp_path, seed):
    panel_csv = tmp_path / "four.csv"
    write_four_cell(panel_csv)
    assert main(["estimate", str(panel_csv), "--bootstrap", "--replications", "3",
                 "--boot-seed", str(seed), "--out", str(tmp_path / "e.csv")]) == 0
    assert main(["montecarlo", *SMALL_DESIGN, "--draws", "3", "--master-seed", str(seed),
                 "--out", str(tmp_path / "mc.csv")]) == 0


def test_usage_error_exit_3(tmp_path):
    assert main(["estimate"]) == 3


def test_missing_input_exit_4(tmp_path):
    assert main(["estimate", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.csv")]) == 4


def test_plot_files_and_split(tmp_path):
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    main(["simulate", *SIM_FLAGS, "--out", str(panel_csv)])
    main(["estimate", str(panel_csv), "--estimator", "all", "--out", str(est_csv)])
    out = tmp_path / "fig.svg"
    assert main(["plot", str(est_csv), "--overlay-population", "0.5",
                 "--split-bjs", "--out", str(out)]) == 0
    names = sorted(p.name for p in tmp_path.glob("fig_*.svg"))
    assert names == ["fig_bjs_post.svg", "fig_bjs_pre.svg",
                     "fig_cs_dcdh_default.svg", "fig_cs_dcdh_universal.svg",
                     "fig_twfe.svg"]
    assert "<polyline" in (tmp_path / "fig_twfe.svg").read_text()


def _svg_points(svg: str):
    circles = [(float(x), float(y)) for x, y in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)]
    polyline = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    vertices = [tuple(map(float, xy.split(","))) for xy in polyline.split()]
    return circles, vertices


def test_plot_overlay_passes_through_pooled_bjs_points(tmp_path):
    # Noiseless gamma * t panel: every BJS coefficient equals its population value.
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    panel_csv.write_text("unit,time,treated,outcome\n" + "".join(
        f"{u},{t},{d},{0.5 * t * d!r}\n" for u, d in (("a", 1), ("b", 1), ("c", 0))
        for t in range(-8, 4)))
    assert main(["estimate", str(panel_csv), "--estimator", "bjs", "--bjs-pre", "3",
                 "--out", str(est_csv)]) == 0
    whole, split = tmp_path / "whole.svg", tmp_path / "split.svg"
    assert main(["plot", str(est_csv), "--overlay-population", "0.5", "--out", str(whole)]) == 0
    assert main(["plot", str(est_csv), "--overlay-population", "0.5", "--split-bjs",
                 "--out", str(split)]) == 0
    for path, n_points in ((whole, 3 + 3), (tmp_path / "split_pre.svg", 3),
                           (tmp_path / "split_post.svg", 3)):
        circles, vertices = _svg_points(path.read_text())
        assert len(circles) == len(vertices) == n_points
        for (cx, cy), (vx, vy) in zip(circles, vertices):
            assert abs(cx - vx) <= 0.011 and abs(cy - vy) <= 0.011


def test_plot_split_bjs_without_bjs_rows_exit_3(tmp_path, capsys):
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    write_four_cell(panel_csv)
    main(["estimate", str(panel_csv), "--estimator", "twfe", "--out", str(est_csv)])
    out = tmp_path / "fig.svg"
    assert main(["plot", str(est_csv), "--split-bjs", "--out", str(out)]) == 3
    assert f"--split-bjs needs bjs rows in {est_csv}" in capsys.readouterr().err
    assert not list(tmp_path.glob("fig*.svg"))


def test_plot_single_estimator_single_file(tmp_path):
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    write_four_cell(panel_csv)
    main(["estimate", str(panel_csv), "--estimator", "twfe", "--out", str(est_csv)])
    out = tmp_path / "fig.svg"
    assert main(["plot", str(est_csv), "--out", str(out)]) == 0
    assert out.exists()
    assert out.read_text().count("<circle") == 3


def test_plot_empty_table_exit_2(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("estimator,relative_time,coefficient,std_error,ci_low,ci_high,omitted\n")
    assert main(["plot", str(empty), "--out", str(tmp_path / "f.svg")]) == 2


@pytest.mark.parametrize("row, message", [
    ("twfe,0,1.5\n", "line 3: expected 7 fields, got 3"),
    ("twfe,0,abc,,,,0\n", "line 3: could not convert string to float: 'abc'"),
    ("twfe,x,1.5,,,,0\n", "line 3: invalid literal for int() with base 10: 'x'"),
    ("twfe,0,1.5,,,,yes\n", "line 3: omitted must be 0 or 1, got 'yes'"),
    ("twfe,0,inf,,,,0\n", "line 3: coefficient must be finite, got inf"),
    ("twfe,0,nan,,,,0\n", "line 3: coefficient must be finite, got nan"),
    ("twfe,0,1.5,0.1,1.3,-inf,0\n", "line 3: ci_high must be finite, got -inf"),
    ("twfe,-1,,,,,1\n", "line 3: repeated row for twfe at relative time -1 (first on line 2)"),
    ("twfe,0,,,,,0\n", "line 3: a row with omitted=0 needs a coefficient"),
    ("twfe,0,1.5,,,,1\n", "line 3: a row with omitted=1 must leave its numbers empty"),
], ids=["short-row", "bad-coefficient", "bad-relative-time", "bad-omitted", "inf-coefficient",
        "nan-coefficient", "inf-ci", "repeated-row", "missing-coefficient",
        "omitted-with-numbers"])
def test_plot_malformed_table_names_line(tmp_path, capsys, row, message):
    table = tmp_path / "e.csv"
    table.write_text("estimator,relative_time,coefficient,std_error,ci_low,ci_high,omitted\n"
                     "twfe,-1,,,,,1\n" + row)
    assert main(["plot", str(table), "--out", str(tmp_path / "f.svg")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_plot_non_finite_overlay_exit_2(tmp_path, capsys, gamma):
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    write_four_cell(panel_csv)
    main(["estimate", str(panel_csv), "--estimator", "twfe", "--out", str(est_csv)])
    out = tmp_path / "fig.svg"
    assert main(["plot", str(est_csv), f"--overlay-population={gamma}", "--out", str(out)]) == 2
    assert f"--overlay-population must be finite, got {float(gamma)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma, code", [("-1E-2", 0), ("-inf", 2)])
def test_plot_overlay_reads_a_negative_number_as_its_value(tmp_path, capsys, gamma, code):
    # argparse alone reads only -12 and -1.5 as values; -1E-2 and -inf were
    # taken for options ("expected one argument", exit 3).
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    write_four_cell(panel_csv)
    main(["estimate", str(panel_csv), "--estimator", "twfe", "--out", str(est_csv)])
    out = tmp_path / "fig.svg"
    assert main(["plot", str(est_csv), "--overlay-population", gamma, "--out", str(out)]) == code
    assert out.exists() == (code == 0)


def test_plot_overflowing_overlay_exit_2(tmp_path, capsys):
    # A finite GAMMA whose population curve overflows: gamma * (r + 1) at r = 1.
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    main(["simulate", *SIM_FLAGS, "--out", str(panel_csv)])
    main(["estimate", str(panel_csv), "--estimator", "all", "--out", str(est_csv)])
    out = tmp_path / "fig.svg"
    assert main(["plot", str(est_csv), "--overlay-population", "1e308", "--out", str(out)]) == 2
    assert "plotted values must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg"))


def test_plot_overflowing_span_exit_2(tmp_path, capsys):
    table = tmp_path / "e.csv"
    table.write_text("estimator,relative_time,coefficient,std_error,ci_low,ci_high,omitted\n"
                     "twfe,-2,1e308,,,,0\ntwfe,-1,,,,,1\ntwfe,0,-1e308,,,,0\n")
    out = tmp_path / "fig.svg"
    assert main(["plot", str(table), "--out", str(out)]) == 2
    assert "twfe: the padded y-axis span overflows" in capsys.readouterr().err
    assert not out.exists()


def test_plot_deterministic(tmp_path):
    panel_csv, est_csv = tmp_path / "p.csv", tmp_path / "e.csv"
    write_four_cell(panel_csv)
    main(["estimate", str(panel_csv), "--estimator", "twfe", "--out", str(est_csv)])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["plot", str(est_csv), "--out", str(a)])
    main(["plot", str(est_csv), "--out", str(b)])
    assert filecmp.cmp(a, b, shallow=False)


def test_montecarlo_table(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--t-min", "-3", "--t-max", "2", "--n-treated", "8",
                 "--n-control", "8", "--gamma", "0.5", "--draws", "200",
                 "--master-seed", "4", "--estimator", "twfe", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,relative_time,mean_coefficient,population_value,abs_deviation,mc_se"
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        r = int(row[1])
        assert float(row[3]) == 0.5 * (r + 1)
    # CLT sanity: nearly all deviations within 4 Monte Carlo SEs
    ok = sum(float(row[4]) < 4 * float(row[5]) for row in rows)
    assert ok / len(rows) >= 0.95
