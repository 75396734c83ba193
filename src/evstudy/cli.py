"""Command-line surface: simulate | estimate | plot | montecarlo.

Exit codes: 0 success, 2 validation failure, 3 usage error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

# Only numpy-free modules at the top: each command imports the numeric
# modules it needs, so start-up is cheap and ``plot`` never loads numpy.
from .oracle import population_curve
from .spec import (
    METHODS,
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
    write_mc_table,
    write_panel_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


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


# Each setting's name -> its default, which also gives its type.
_DGP_SETTINGS = {f.name: f.default for f in fields(DgpConfig)}
# Monte Carlo draw k is seeded by SeedSequence([master_seed, k]).generate_state(1,
# np.uint64)[0] (dgp.stream_seeds), so no seed key.
_MC_SETTINGS = {**{k: v for k, v in _DGP_SETTINGS.items() if k != "seed"},
                "draws": 2000, "master_seed": 0}
_BOOT_SETTINGS = {f.name: f.default for f in fields(BootstrapConfig)}
# BootstrapConfig.seed is set by --boot-seed, apart from simulate's --seed.
_BOOT_RENAMED = {"seed": "--boot-seed"}


def _flag(name: str, renamed: dict) -> str:
    return renamed.get(name, "--" + name.replace("_", "-"))


def _add_setting_flags(p, settings: dict, prefix: str, renamed: dict, choices: dict) -> None:
    """A flag per setting, typed as its default, None unless given, helped by prefix and default."""
    for name, default in settings.items():
        flag = _flag(name, renamed)
        # A renamed flag's metavar is its own name, not its dest's.
        metavar = flag[2:].upper().replace("-", "_") if name in renamed else None
        p.add_argument(flag, dest=name, type=type(default), choices=choices.get(name),
                       metavar=metavar, help=f"{prefix}(default {default})")


def _add_config_flags(p, settings: dict) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file; flags override")
    _add_setting_flags(p, settings, "", {}, {})


def _config_values(args, settings: dict) -> dict:
    """Each setting's value: its default, overridden by the config file, then by its flag."""
    values = dict(settings)
    if getattr(args, "config", None):
        for key, (raw, lineno) in parse_config_file(args.config).items():
            where = f"{args.config}:{lineno}"
            if key not in settings:
                raise InvalidConfig(f"{where}: unknown key {key!r}")
            parse = type(settings[key])
            try:
                values[key] = parse(raw)
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise InvalidConfig(f"{where}: {key}: {raw!r} is not {kind}") from None
    for name in settings:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return values


def _parse_tags(raw: list[str]) -> list[str]:
    """The tags the --estimator values name, each once; all of them when none is given."""
    tags: list[str] = []
    for chunk in raw:
        named = [tag for tag in map(str.strip, chunk.split(",")) if tag]
        if not named:
            raise UsageError(f"--estimator {chunk!r} names no estimator")
        for tag in named:
            if tag == "all":
                tags.extend(t for t in TAGS if t not in tags)
            elif tag in TAGS:
                if tag not in tags:
                    tags.append(tag)
            else:
                raise UnknownEstimator(f"unknown estimator {tag!r}; choose from {TAGS} or 'all'")
    return tags or list(TAGS)


def _add_estimator_flag(p) -> None:
    p.add_argument("--estimator", action="append", default=[],
                   help="tag, comma list, or 'all' (default all); repeatable")


def build_parser() -> _Parser:
    parser = _Parser(prog="evstudy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw one panel from the trend-violation DGP")
    _add_config_flags(p_sim, _DGP_SETTINGS)
    p_sim.add_argument("--out", type=Path, required=True, help="panel CSV output path")

    p_est = sub.add_parser("estimate", help="run event-study estimators on a panel CSV")
    p_est.add_argument("input", type=Path, help="panel CSV (unit,time,treated,outcome)")
    _add_estimator_flag(p_est)
    p_est.add_argument("--bootstrap", action="store_true",
                       help="add stratified unit-bootstrap se/ci columns")
    _add_setting_flags(p_est, _BOOT_SETTINGS, "with --bootstrap ", _BOOT_RENAMED,
                       {"method": METHODS})
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
    _add_config_flags(p_mc, _MC_SETTINGS)
    _add_estimator_flag(p_mc)
    p_mc.add_argument("--out", type=Path, required=True, help="report table output path")
    return parser


def _cmd_simulate(args) -> int:
    from .dgp import GENERATOR_ID, simulate

    values = _config_values(args, _DGP_SETTINGS)
    panel = simulate(DgpConfig(**values))
    write_panel_csv(panel, args.out)
    print(f"generator: {GENERATOR_ID}")
    print(" ".join(f"{name}={value}" for name, value in values.items()))
    print(f"wrote {panel.n_units * panel.n_periods} data rows to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    tags = _parse_tags(args.estimator)
    if args.bjs_pre is not None and "bjs" not in tags:
        raise UsageError("--bjs-pre needs the bjs estimator")
    given = [_flag(name, _BOOT_RENAMED) for name in _BOOT_SETTINGS if getattr(args, name) is not None]
    if given and not args.bootstrap:
        raise UsageError(f"{', '.join(given)} given without --bootstrap")
    panel = read_panel_csv(args.input)
    if args.bjs_pre is not None and not (1 <= args.bjs_pre <= -panel.t_min):
        raise UsageError(f"--bjs-pre must be in [1, {-panel.t_min}] for this panel")
    if args.bootstrap:
        from .inference import bootstrap_many

        config = BootstrapConfig(**_config_values(args, _BOOT_SETTINGS))
        results = bootstrap_many(panel, tags, config, n_pre=args.bjs_pre)
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
        raise ValueError(f"no rows in {args.input}")
    if args.split_bjs and "bjs" not in by_tag:
        raise UsageError(f"--split-bjs needs bjs rows in {args.input}")
    # An overlay has a point per relative time in its tag's span, so a jump,
    # which estimate never writes, would make it as long as the jump.
    if gamma is not None:
        for tag, tag_rows in by_tag.items():
            rel = sorted(row.relative_time for row in tag_rows)
            gap = next(((a, b) for a, b in zip(rel, rel[1:]) if b > a + 1), None)
            if gap:
                raise CsvFormatError(f"{args.input}: {tag} relative times jump from {gap[0]}"
                                     f" to {gap[1]}; --overlay-population needs them consecutive")
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
            raise ValueError(f"no non-omitted coefficients for {tag}")
        overlay = _overlay_for(tag, gamma, tag_rows)
        if tag == "bjs" and args.split_bjs:
            for part, keep in (("pre", lambda r: r < 0), ("post", lambda r: r >= 0)):
                part_points = [p for p in points if keep(p[0])]
                if part_points:
                    part_overlay = None if overlay is None else [(r, v) for r, v in overlay if keep(r)]
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
    values = _config_values(args, _MC_SETTINGS)
    draws, master_seed = values.pop("draws"), values.pop("master_seed")
    dgp = DgpConfig(**values)
    write_mc_table(run_mc(dgp, tags, draws, master_seed), dgp, args.out)
    print(f"wrote Monte Carlo report ({draws} draws) to {args.out}")
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
        code, message = EXIT_USAGE, f"usage error: {exc}"
    except UnknownEstimator as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except (PanelError, ValueError) as exc:  # InvalidConfig, CsvFormatError, TableRow's rules too
        code, message = EXIT_VALIDATION, f"error: {exc}"
    except MemoryError as exc:  # numpy's text names the array's size and shape
        code, message = EXIT_VALIDATION, f"error: {str(exc) or 'out of memory'}"
    except OSError as exc:
        code, message = EXIT_IO, f"i/o error: {exc}"
    # One stderr line, also when the message quotes a unit id holding a line break.
    print(message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
