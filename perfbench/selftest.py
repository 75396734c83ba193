#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, reports exactly the metrics that
   BENCHMARK.json names, with no failed operation.
2. The output checks reject a corrupted estimate table, standard error,
   SVG and Monte Carlo report, so such an iteration counts as failed.
3. In every traced iteration the self times sum to no more than its wall.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import checks
import run
import workloads

SEED = 5


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metric_names_and_self_times() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    assert names[0] == list(run.END_TO_END) and names[1] == list(run.PER_LAYER), \
        "BENCHMARK.json and run.py name different metrics"
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, trace)
            assert sorted(result["metrics"]) == sorted(names[trace]), (workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
        record = json.loads((run.RESULTS / f"BENCH_{workload}.trace.json").read_text(encoding="utf-8"))
        for it in record["traced"]:
            assert it["self_sum_s"] <= it["wall_s"], (workload, it)
        print(f"ok   {workload}: metric names, no failures, self times within trace wall")


def _rewrite(path, mutate) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    mutate(next(row for row in rows if row.get("omitted", "0") == "0"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def check_corruptions_fail() -> None:
    work = workloads.fresh_dir(run.BENCH / ".work" / "selftest")
    try:
        runner = run.Runner(work)
        for workload in ("pipeline_default", "montecarlo"):
            kind, _, s = workloads.WORKLOADS[workload]
            [sample] = runner.cli_loop(kind, s, SEED, seconds=0)
            assert sample["problems"] == [], sample["problems"]
            out = work / "out"
            saved = work / "saved"
            shutil.copytree(out, saved)
            if kind == "pipeline":
                cases = {
                    "coefficient + 1e-6": lambda: _rewrite(out / "est.csv", lambda row: row.update(
                        coefficient=repr(float(row["coefficient"]) + 1e-6))),
                    "std_error 0": lambda: _rewrite(out / "est.csv", lambda row: row.update(std_error="0.0")),
                    "missing SVG point": lambda: (out / "fig_twfe.svg").write_text(
                        (saved / "fig_twfe.svg").read_text().replace("<circle", "<ellipse", 1)),
                }
            else:
                def six_se_off(row):
                    off = 6 * float(row["mc_se"])
                    row.update(mean_coefficient=repr(float(row["population_value"]) + off),
                               abs_deviation=repr(off))
                cases = {"mean 6 mc_se off": lambda: _rewrite(out / "mc.csv", six_se_off)}
            for label, corrupt in cases.items():
                shutil.rmtree(out)
                shutil.copytree(saved, out)
                corrupt()
                problems = checks.check(kind, out, s)
                assert problems, f"{workload}: the check accepted {label}"
                print(f"ok   {workload}: {label} fails the check ({problems[0]})")
            shutil.rmtree(saved)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    check_corruptions_fail()
    check_metric_names_and_self_times()
    print("selftest passed")
