"""Child process of the benchmark; run.py starts it with PYTHONPATH=<checkout>/src.

    worker.py info RESULT
    worker.py loop RESULT --workload W --scale full|tiny --seed N --seconds S --out DIR [--trace]

Each mode writes one JSON object to RESULT. ``info`` reports versions and
the numeric backend. ``loop`` runs a workload's iterations in this one
process, CLI commands through ``evstudy.cli.main``; with ``--trace`` it
first installs tracing's wrappers around evstudy's public functions.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

import evstudy
import evstudy.cli
from evstudy import dgp, estimators, kernels, oracle


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy's wheel bundles, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # active_backend goes away with the numba backend; numpy is all that is left then.
    backend = kernels.active_backend() if hasattr(kernels, "active_backend") else "numpy"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "evstudy": getattr(evstudy, "__version__", None),
        "backend": backend,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _compare(label: str, closed: dict, other: dict) -> list[str]:
    if set(closed) != set(other):
        return [f"{label}: relative times {sorted(closed)} vs {sorted(other)}"]
    return [f"{label}: r={r} differs by {abs(closed[r] - other[r]):.3g}"
            for r in sorted(closed) if not abs(closed[r] - other[r]) <= checks.COEF_TOL]


def crosscheck(s: workloads.Sizes, seed: int) -> list[str]:
    """Every closed-form coefficient of the four tags against its genuine
    twin (twfe_regression, bjs_imputation) and against brute_force_did."""
    panel = dgp.simulate(dgp.DgpConfig(gamma=s.gamma, t_min=s.t_min, t_max=s.t_max,
                                       n_treated=s.n_treated, n_control=s.n_control, seed=seed))
    closed = {tag: estimators.estimate(panel, tag).coefficients for tag in checks.TAGS}
    regression = estimators.twfe_regression(panel).coefficients
    imputation = estimators.bjs_imputation(panel).coefficients
    problems = (_compare("twfe vs twfe_regression", closed["twfe"], regression)
                + _compare("cs_dcdh_universal vs twfe_regression", closed["cs_dcdh_universal"], regression)
                + _compare("bjs vs bjs_imputation", closed["bjs"], imputation))
    for tag, coefs in closed.items():
        brute = {r: oracle.brute_force_did(panel, r, oracle.matching_base_spec(tag, r, panel.t_min))
                 for r in coefs}
        problems += _compare(f"{tag} vs brute_force_did", coefs, brute)
    return problems


def _attempt(operation) -> list[str]:
    """Problems of one operation; an exception escaping evstudy is one, and
    the loop goes on so that it counts as one failed iteration."""
    try:
        return operation()
    except Exception as exc:
        return [f"raised {traceback.format_exception_only(exc)[-1].strip()}"]


def _run_cli(kind: str, s: workloads.Sizes, seed: int, out: Path) -> list[str]:
    for name, argv in workloads.cli_commands(kind, s, seed, out):
        code = evstudy.cli.main(argv)
        if code != 0:
            return [f"{name} returned {code}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["info", "loop"])
    parser.add_argument("result", type=Path)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "info":
        args.result.write_text(json.dumps(info()), encoding="utf-8")
        return 0
    kind, full, tiny = workloads.WORKLOADS[args.workload]
    s = full if args.scale == "full" else tiny
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)

    def iteration():
        if kind == "crosscheck":
            operation = functools.partial(crosscheck, s, args.seed)
        else:
            workloads.fresh_dir(args.out)
            operation = functools.partial(_run_cli, kind, s, args.seed, args.out)
        if tracer:
            tracer.reset()
        t0 = perf_counter()
        problems = _attempt(operation)
        it = {"wall_s": perf_counter() - t0}
        if tracer:
            it["stats"] = {name: dict(st) for name, st in tracer.stats.items() if st["calls"]}
        if not problems and kind != "crosscheck":
            problems = checks.check(kind, args.out, s)
        it["problems"] = problems
        return it

    result = {"iterations": workloads.closed_loop(args.seconds, iteration)}
    if tracer:
        result["wrapped"] = sorted(tracer.stats)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
