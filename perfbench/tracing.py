"""Spans around evstudy's public functions, installed from outside the package.

``install`` wraps every public function defined in an ``evstudy.*`` module
and rebinds every module attribute (and module-level dict value) that holds
the original object, because ``cli`` and ``inference`` import names
directly. A function's self time is its span minus the spans of wrapped
functions it called; ``rss_rise_mb`` is how far the span raised the
process's peak RSS (``ru_maxrss``), which costs far less than tracemalloc.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
from time import perf_counter

# Extra count per function, computed from its result.
_ROWS = {"tableio.read_panel_csv": lambda panel: panel.n_units * panel.n_periods}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Per-function totals since the last ``reset``."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._open: list[float] = []  # child time accumulated by each open span

    def reset(self) -> None:
        for st in self.stats.values():
            for key in st:
                st[key] = 0

    def wrap(self, name: str, fn):
        st = self.stats[name] = {"calls": 0, "self_s": 0.0, "rss_rise_mb": 0.0}
        rows = _ROWS.get(name)
        if rows:
            st["rows"] = 0
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = _maxrss_mb()
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                st["calls"] += 1
                st["self_s"] += span - child
                st["rss_rise_mb"] += _maxrss_mb() - rss0
            if rows:
                st["rows"] += rows(result)
            return result

        return wrapper


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "evstudy" or name.startswith("evstudy."))]


def install(tracer: Tracer) -> None:
    """Wrap every public function of every imported evstudy module."""
    modules = _package_modules()
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapper = tracer.wrap(f"{short}.{name}", fn)
            for holder in modules:
                namespace = vars(holder)
                for key, value in list(namespace.items()):
                    if key.startswith("__"):
                        continue
                    if value is fn:
                        setattr(holder, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapper
