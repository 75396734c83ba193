#!/usr/bin/env python3
"""Benchmark of the evstudy CLI: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every evstudy process gets
PYTHONPATH=<checkout>/src, so the package need not be installed. The last
line of stdout is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The whole run record goes to
perfbench/results/BENCH_<workload>.json (BENCH_<workload>.trace.json when
traced). perfbench/README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

RUN_LIMIT_S = 170.0  # children still running this long after start are killed
SETUP_REPEATS = {"full": 9, "tiny": 3}
SETUP_PROBE = ("import time; t = time.perf_counter(); import evstudy.cli; "
               "print(time.perf_counter() - t)")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# <module>.<function>.<stat> come from the traced run; the rest are named
# where layer_metrics computes them.
PER_LAYER = {
    "dgp.derive_seed.calls": "count",
    "dgp.derive_seed.self_s": "s",
    "inference.bootstrap.self_s": "s",
    "inference.bootstrap.rss_rise_mb": "MB",
    "kernels.bootstrap_coefs.calls": "count",
    "kernels.bootstrap_coefs.self_s": "s",
    "tableio.read_panel_csv.self_s": "s",
    "tableio.read_panel_csv.rows": "count",
    "panel.validate_panel.self_s": "s",
    "tableio.write_panel_csv.self_s": "s",
    "tableio.write_estimate_table.self_s": "s",
    "tableio.read_estimate_table.self_s": "s",
    "dgp.simulate.calls": "count",
    "dgp.simulate.self_s": "s",
    "kernels.coef_matrix.calls": "count",
    "kernels.coef_matrix.self_s": "s",
    "montecarlo.run_mc.self_s": "s",
    "estimators.twfe_regression.self_s": "s",
    "estimators.bjs_imputation.self_s": "s",
    "estimators.bjs_imputation.rss_rise_mb": "MB",
    "oracle.brute_force_did.calls": "count",
    "oracle.brute_force_did.self_s": "s",
    "estimators.estimate.self_s": "s",
    "estimators.bjs_closed_form.self_s": "s",
    "svgplot.event_study_svg.calls": "count",
    "svgplot.event_study_svg.self_s": "s",
    "oracle.population_curve.self_s": "s",
    "cli.import_s": "s",
    "cli.simulate.wall_s": "s",
    "cli.estimate.wall_s": "s",
    "cli.plot.wall_s": "s",
    "cli.montecarlo.wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}


def calibrate() -> float:
    """Median seconds of a fixed pure-Python plus numpy work unit; diagnostic only."""
    a = np.random.default_rng(0).standard_normal((200, 200))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        for _ in range(10):
            a = np.tanh(a @ a.T / 200.0)
        np.sort(a, axis=None)
        times.append(perf_counter() - t0)
    return median(times)


class Runner:
    """Starts evstudy processes for one benchmark run and reaps each with wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def spawn(self, argv: list[str], stdout: Path | None = None) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child process.

        The child's own rusage comes from wait4: RUSAGE_CHILDREN would be the
        high-water mark over every child this run has reaped.
        """
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err = open(self.work / "stderr.txt", "wb")
        try:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            err.close()
            if stdout:
                out.close()
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def stderr_tail(self) -> str:
        lines = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace").splitlines()
        return " | ".join(lines[-3:])

    def setup(self, repeats: int) -> tuple[list[float], list[float]]:
        """Wall seconds of fresh interpreters importing evstudy.cli, and the
        import time each measured in-process. Run it after ``info``, whose
        import fills the bytecode caches as on an installed system."""
        walls, imports = [], []
        probe = self.work / "probe.txt"
        for _ in range(repeats):
            code, wall, _ = self.spawn(["-c", SETUP_PROBE], stdout=probe)
            if code != 0:
                raise RuntimeError(f"importing evstudy.cli failed: {self.stderr_tail()}")
            walls.append(wall)
            imports.append(float(probe.read_text()))
        return walls, imports

    def cli_loop(self, kind: str, s: workloads.Sizes, seed: int, seconds: float) -> list[dict]:
        """Closed loop of iterations, each command in a fresh process."""
        def iteration():
            out = workloads.fresh_dir(self.work / "out")
            commands, peak, problems = {}, 0.0, []
            t0 = perf_counter()
            for name, argv in workloads.cli_commands(kind, s, seed, out):
                code, wall, rss = self.spawn(["-m", "evstudy.cli", *argv])
                commands[name] = wall
                peak = max(peak, rss)
                if code != 0:
                    problems.append(f"{name} exited {code}: {self.stderr_tail()}")
                    break
            wall = perf_counter() - t0
            if not problems:
                problems = checks.check(kind, out, s)
            return {"wall_s": wall, "peak_rss_mb": peak, "commands": commands, "problems": problems}

        return workloads.closed_loop(seconds, iteration)

    def worker(self, workload: str, scale: str, seed: int, seconds: float,
               trace: bool) -> tuple[list[dict], dict]:
        """Iterations and the rest of an in-process worker.py loop; RSS is the worker's peak."""
        result = self.work / "loop.json"
        code, _, rss = self.spawn([str(BENCH / "worker.py"), "loop", str(result),
                                   "--workload", workload, "--scale", scale, "--seed", str(seed),
                                   "--seconds", str(seconds), "--out", str(self.work / "out"),
                                   *(["--trace"] if trace else [])])
        if code != 0:
            return [{"wall_s": 0.0, "peak_rss_mb": rss,
                     "problems": [f"worker exited {code}: {self.stderr_tail()}"]}], {}
        data = json.loads(result.read_text(encoding="utf-8"))
        iterations = data.pop("iterations")
        for it in iterations:
            it["peak_rss_mb"] = rss
        return iterations, data

    def info(self) -> dict:
        result = self.work / "info.json"
        code, _, _ = self.spawn([str(BENCH / "worker.py"), "info", str(result)])
        if code != 0:
            raise RuntimeError(f"the info worker exited {code}: {self.stderr_tail()}")
        return json.loads(result.read_text(encoding="utf-8"))


def git_revision() -> dict:
    """Revision and dirty flag, or nulls when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}


def layer_stats(traced: list[dict]) -> dict[str, dict[str, float]]:
    """Per wrapped function: median per-iteration calls, self_s and rows, and
    the largest rss_rise_mb (the peak RSS is a high-water mark, so only the
    first iteration that reaches it shows a rise)."""
    names = sorted(set().union(*(it.get("stats", {}) for it in traced)))
    out = {}
    for name in names:
        per = [it.get("stats", {}).get(name, {}) for it in traced]
        st = {key: median(p.get(key, 0) for p in per) for key in ("calls", "self_s")}
        st["rss_rise_mb"] = max(p.get("rss_rise_mb", 0.0) for p in per)
        if any("rows" in p for p in per):
            st["rows"] = median(p.get("rows", 0) for p in per)
        out[name] = st
    return out


def layer_metrics(ok, traced, wrapped, setup_s, import_s, calib_s, n_commands):
    """Values of every PER_LAYER metric, and the functions absent at this commit.

    ``ok`` are the untraced iterations that passed their checks."""
    layers = layer_stats(traced)
    trace_wall = median(it["wall_s"] for it in traced)
    # The traced iterations run in-process, so take the fresh-process start-up
    # out of the untraced wall before comparing.
    untraced_net = median(it["wall_s"] for it in ok) - n_commands * setup_s
    values, absent = {}, []
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if name == "cli.import_s":
            values[name] = import_s
        elif name == "host.calib_s":
            values[name] = calib_s
        elif name == "trace.wall_s":
            values[name] = trace_wall
        elif name == "trace.overhead_s":
            values[name] = trace_wall - untraced_net
        elif head.startswith("cli."):
            command = head.partition(".")[2]
            walls = [it["commands"][command] for it in ok if command in it.get("commands", {})]
            values[name] = median(walls) if walls else 0.0
        else:
            if head not in wrapped:
                absent.append(head)
            values[name] = layers.get(head, {}).get(stat, 0)
    return values, layers, sorted(set(absent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload for the harness self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "evstudy" / "cli.py").is_file():
        print(f"error: no evstudy sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    kind, full, tiny = workloads.WORKLOADS[args.workload]
    s = full if args.scale == "full" else tiny
    work = workloads.fresh_dir(BENCH / ".work" / args.workload)
    try:
        calib_before = calibrate()
        runner = Runner(work)
        info = runner.info()
        setup_walls, imports = runner.setup(SETUP_REPEATS[args.scale])
        setup_s, import_s = median(setup_walls), median(imports)

        # Traced runs split their time: fresh-process iterations for the
        # per-command walls, then in-process iterations for the spans.
        seconds = args.seconds / 2 if args.trace else args.seconds
        if kind == "crosscheck":
            untraced, _ = runner.worker(args.workload, args.scale, args.seed, seconds, trace=False)
        else:
            untraced = runner.cli_loop(kind, s, args.seed, seconds)
        traced, extra = [], {}
        if args.trace:
            traced, extra = runner.worker(args.workload, args.scale, args.seed, seconds, trace=True)
        calib_after = calibrate()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    done = untraced + traced
    failed = [it for it in done if it["problems"]]
    ok = [it for it in untraced if not it["problems"]] or untraced
    calib_s = (calib_before + calib_after) / 2
    record = {
        "workload": args.workload, "kind": kind, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, **git_revision(), **info,
        "nproc": os.cpu_count(), "sizes": workloads.size_record(kind, s),
        "attempted": len(done), "failed": len(failed), "error_rate": len(failed) / len(done),
        "problems": [p for it in failed for p in it["problems"]][:20],
        "host": {"calib_before_s": calib_before, "calib_after_s": calib_after},
        "setup": {"wall_s": setup_walls, "import_s": imports},
        "iterations": [{k: it[k] for k in ("wall_s", "peak_rss_mb", "commands") if k in it}
                       for it in untraced],
    }
    if args.trace:
        traced_ok = [it for it in traced if not it["problems"]] or traced
        n_commands = len(workloads.cli_commands(kind, s, args.seed, work))
        values, layers, absent = layer_metrics(ok, traced_ok, set(extra.get("wrapped", ())),
                                               setup_s, import_s, calib_s, n_commands)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        record.update(
            traced=[{"wall_s": it["wall_s"],
                     "self_sum_s": sum(st["self_s"] for st in it.get("stats", {}).values())}
                    for it in traced],
            layers=layers, absent=absent)
    else:
        values = {"wall_s": median(it["wall_s"] for it in ok), "setup_s": setup_s,
                  "peak_rss_mb": median(it["peak_rss_mb"] for it in ok)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (RESULTS / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} revision={record['revision']} "
          f"backend={info.get('backend')} samples={len(ok)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:12.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {record['error_rate']:12.6g} ratio "
          f"({len(failed)} of {len(done)} failed)")
    for problem in record["problems"][:5]:
        print(f"  failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(done), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
