"""Command-line surface: simulate | estimate | plot | montecarlo.

Exit codes: 0 success, 2 validation failure, 3 usage error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path

# Only numpy-free modules at the top: each command imports the numeric
# modules it needs, so start-up is cheap and ``plot`` never loads numpy.
from .oracle import population_curve
from .spec import (
    TAGS,
    BootstrapConfig,
    CsvFormatError,
    DgpConfig,
    InvalidConfig,
    PanelError,
    UnknownEstimator,
)
from .svgplot import event_study_svg
from .tableio import (
    TableRow,
    parse_config_file,
    read_estimate_table,
    read_panel_csv,
    write_estimate_table,
    write_panel_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


class EmptyTable(ValueError):
    """Estimate table contains no plottable rows."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads only -12 and -1.5 as negative numbers; take any token
        # that float() parses (-1e-3, -inf) as a value. No option looks like one.
        if arg_string.startswith("-"):
            try:
                float(arg_string)
            except ValueError:
                pass
            else:
                return None
        return super()._parse_optional(arg_string)


_DGP_KEYS = tuple(f.name for f in fields(DgpConfig))
# Monte Carlo draw k is seeded by derive_seed(master_seed, k), so no seed key.
_MC_KEYS = tuple(k for k in _DGP_KEYS if k != "seed") + ("draws", "master_seed")
_INT_KEYS = {"t_min", "t_max", "n_treated", "n_control", "seed", "draws", "master_seed"}
# BootstrapConfig field -> the estimate flag that sets it.
_BOOT_FLAGS = {"replications": "--replications", "seed": "--boot-seed",
               "level": "--level", "method": "--method"}


def _config_values(args, keys) -> dict:
    """Merge config-file values and flags for the known ``keys``; flags win."""
    values: dict = {}
    if args.config:
        for key, (raw, lineno) in parse_config_file(args.config).items():
            where = f"{args.config}:{lineno}"
            if key not in keys:
                raise InvalidConfig(f"{where}: unknown key {key!r}")
            parse, kind = (int, "an integer") if key in _INT_KEYS else (float, "a number")
            try:
                values[key] = parse(raw)
            except ValueError:
                raise InvalidConfig(f"{where}: {key}: {raw!r} is not {kind}") from None
    for name in keys:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return values


def _add_dgp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file; flags override")
    p.add_argument("--gamma", type=float)
    p.add_argument("--t-min", dest="t_min", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--n-treated", dest="n_treated", type=int)
    p.add_argument("--n-control", dest="n_control", type=int)
    p.add_argument("--error-sd", dest="error_sd", type=float)


def _parse_tags(raw: list[str]) -> list[str]:
    tags: list[str] = []
    for chunk in raw:
        for tag in chunk.split(","):
            tag = tag.strip()
            if not tag:
                continue
            if tag == "all":
                tags.extend(t for t in TAGS if t not in tags)
            elif tag in TAGS:
                if tag not in tags:
                    tags.append(tag)
            else:
                raise UnknownEstimator(f"unknown estimator {tag!r}; choose from {TAGS} or 'all'")
    return tags or list(TAGS)


def build_parser() -> _Parser:
    parser = _Parser(prog="evstudy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw one panel from the trend-violation DGP")
    _add_dgp_flags(p_sim)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", type=Path, required=True, help="panel CSV output path")

    p_est = sub.add_parser("estimate", help="run event-study estimators on a panel CSV")
    p_est.add_argument("input", type=Path, help="panel CSV (unit,time,treated,outcome)")
    p_est.add_argument("--estimator", action="append", default=[],
                       help="tag, comma list, or 'all' (default all); repeatable")
    p_est.add_argument("--bootstrap", action="store_true",
                       help="add stratified unit-bootstrap se/ci columns")
    p_est.add_argument("--replications", type=int,
                       help=f"with --bootstrap (default {BootstrapConfig.replications})")
    p_est.add_argument("--boot-seed", dest="seed", type=int, metavar="BOOT_SEED",
                       help=f"with --bootstrap (default {BootstrapConfig.seed})")
    p_est.add_argument("--level", type=float,
                       help=f"with --bootstrap (default {BootstrapConfig.level})")
    p_est.add_argument("--method", choices=["normal", "percentile"],
                       help=f"with --bootstrap (default {BootstrapConfig.method})")
    p_est.add_argument("--bjs-pre", type=int, default=None,
                       help="number of BJS pre coefficients; earlier periods pool into the baseline")
    p_est.add_argument("--out", type=Path, required=True, help="estimate table output path")

    p_plot = sub.add_parser("plot", help="render event-study SVG plots from an estimate table")
    p_plot.add_argument("input", type=Path, help="estimate table CSV")
    p_plot.add_argument("--overlay-population", type=float, default=None, metavar="GAMMA",
                        help="overlay the analytic population curve for this trend slope")
    p_plot.add_argument("--split-bjs", action="store_true",
                        help="write BJS pre and post coefficients to separate files")
    p_plot.add_argument("--out", type=Path, required=True,
                        help="SVG path; with several estimators the tag is appended to the stem")

    p_mc = sub.add_parser("montecarlo", help="average estimators over repeated draws vs the population oracle")
    _add_dgp_flags(p_mc)
    p_mc.add_argument("--estimator", action="append", default=[])
    p_mc.add_argument("--draws", type=int, help="number of draws (default 2000)")
    p_mc.add_argument("--master-seed", dest="master_seed", type=int, help="default 0")
    p_mc.add_argument("--out", type=Path, required=True, help="report table output path")
    return parser


def _cmd_simulate(args) -> int:
    from .dgp import GENERATOR_ID, simulate

    config = DgpConfig(**_config_values(args, _DGP_KEYS))
    panel = simulate(config)
    write_panel_csv(panel, args.out)
    print(f"generator: {GENERATOR_ID}")
    print(
        f"gamma={config.gamma} t_min={config.t_min} t_max={config.t_max} "
        f"n_treated={config.n_treated} n_control={config.n_control} "
        f"error_sd={config.error_sd} seed={config.seed}"
    )
    print(f"wrote {panel.n_units * panel.n_periods} data rows to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    tags = _parse_tags(args.estimator)
    if args.bjs_pre is not None and "bjs" not in tags:
        raise UsageError("--bjs-pre needs the bjs estimator")
    boot = {key: getattr(args, key) for key in _BOOT_FLAGS if getattr(args, key) is not None}
    if boot and not args.bootstrap:
        raise UsageError(f"{', '.join(_BOOT_FLAGS[key] for key in boot)} given without --bootstrap")
    panel = read_panel_csv(args.input)
    if args.bjs_pre is not None and not (1 <= args.bjs_pre <= -panel.t_min):
        raise UsageError(f"--bjs-pre must be in [1, {-panel.t_min}] for this panel")
    if args.bootstrap:
        from .inference import bootstrap_many

        results = bootstrap_many(panel, tags, BootstrapConfig(**boot), n_pre=args.bjs_pre)
    else:
        from .estimators import estimate_many

        results = estimate_many(panel, tags, args.bjs_pre)
    write_estimate_table(results, args.out)
    print(f"wrote estimates for {', '.join(tags)} to {args.out}")
    return EXIT_OK


def _plot_path(out: Path, tag: str, multi: bool, part: str | None = None) -> Path:
    stem = out.with_suffix("")
    name = str(stem)
    if multi:
        name += f"_{tag}"
    if part:
        name += f"_{part}"
    return Path(name + (out.suffix or ".svg"))


def _overlay_for(tag: str, gamma: float | None, rows: list[TableRow]):
    if gamma is None:
        return None
    rel = [row.relative_time for row in rows]
    t_min, t_max = min(rel) + 1, max(rel) + 1
    # Under estimate --bjs-pre the omitted BJS pre periods pool into its baseline.
    n_pool = sum(row.omitted for row in rows if row.relative_time < 0) or 1
    return sorted(population_curve(tag, gamma, t_min, t_max, n_pool).items())


def _cmd_plot(args) -> int:
    gamma = args.overlay_population
    if gamma is not None and not math.isfinite(gamma):
        raise InvalidConfig(f"--overlay-population must be finite, got {gamma}")
    rows = read_estimate_table(args.input)
    by_tag: dict[str, list[TableRow]] = {}
    for row in rows:
        by_tag.setdefault(row.estimator, []).append(row)
    if not by_tag:
        raise EmptyTable(f"no rows in {args.input}")
    if args.split_bjs and "bjs" not in by_tag:
        raise UsageError(f"--split-bjs needs bjs rows in {args.input}")
    multi = len(by_tag) > 1
    # Every figure is rendered before any is written, so an error writes none.
    figures: dict[Path, str] = {}
    for tag, tag_rows in by_tag.items():
        points = [
            (row.relative_time, row.coefficient, row.ci_low, row.ci_high)
            for row in tag_rows
            if not row.omitted
        ]
        if not points:
            raise EmptyTable(f"no non-omitted coefficients for {tag}")
        overlay = _overlay_for(tag, gamma, tag_rows)
        if tag == "bjs" and args.split_bjs:
            halves = [
                ("pre", [p for p in points if p[0] < 0]),
                ("post", [p for p in points if p[0] >= 0]),
            ]
            for part, part_points in halves:
                if not part_points:
                    continue
                part_overlay = None
                if overlay is not None:
                    keep = (lambda r: r < 0) if part == "pre" else (lambda r: r >= 0)
                    part_overlay = [(r, v) for r, v in overlay if keep(r)]
                figures[_plot_path(args.out, tag, multi, part)] = event_study_svg(
                    f"bjs ({part}-treatment)", part_points, part_overlay)
        else:
            figures[_plot_path(args.out, tag, multi)] = event_study_svg(tag, points, overlay)
    for path, svg in figures.items():
        path.write_text(svg, encoding="utf-8")
    print("wrote " + ", ".join(str(p) for p in figures))
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    from .montecarlo import run_mc

    tags = _parse_tags(args.estimator)
    values = _config_values(args, _MC_KEYS)
    draws, master_seed = values.pop("draws", 2000), values.pop("master_seed", 0)
    config = DgpConfig(**values)
    report = run_mc(config, tags, draws, master_seed)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["estimator", "relative_time", "mean_coefficient",
                    "population_value", "abs_deviation", "mc_se"])
        for tag in tags:
            for r in sorted(report.means[tag]):
                mean = report.means[tag][r]
                pop = report.population[tag][r]
                w.writerow([tag, r, repr(mean), repr(pop), repr(abs(mean - pop)),
                            repr(report.mc_se[tag][r])])
    print(f"wrote Monte Carlo report ({report.draws} draws) to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "plot": _cmd_plot,
    "montecarlo": _cmd_montecarlo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownEstimator as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PanelError, InvalidConfig, CsvFormatError, EmptyTable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
