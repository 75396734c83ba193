"""Deterministic SVG event-study plots (no external plotting dependency).

Output is a plain text SVG built from the data alone -- no timestamps, ids
or library version strings -- so byte-identical inputs give byte-identical
files, which makes golden-file testing possible.
"""

from __future__ import annotations

import math
from html import escape

WIDTH = 640
HEIGHT = 420
MARGIN_L = 64
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 48

POINT_COLOR = "#1f5fa8"
OVERLAY_COLOR = "#c23b22"


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _nice_step(span: float, target_ticks: int) -> float:
    if span <= 0:
        return 1.0
    raw = span / target_ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            return m * mag
    return 10.0 * mag


def event_study_svg(
    title: str,
    points: list[tuple[int, float, float | None, float | None]],
    overlay: list[tuple[int, float]] | None = None,
) -> str:
    """Render coefficients (r, value, ci_low, ci_high) as an event-study plot.

    Draws CI whiskers where bounds are given, a horizontal zero line, a
    vertical reference at r = -0.5 (the treatment date), and an optional
    population-curve overlay as connected line segments. Raises ValueError
    when a value is not finite or the padded y-axis span overflows.
    """
    if not points:
        raise ValueError("no coefficients to plot")
    points = sorted(points)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lows = [p[2] for p in points if p[2] is not None]
    highs = [p[3] for p in points if p[3] is not None]
    y_all = ys + lows + highs + [0.0]
    if overlay:
        overlay = sorted(overlay)
        xs = xs + [q[0] for q in overlay]
        y_all += [q[1] for q in overlay]

    if not all(map(math.isfinite, y_all)):
        raise ValueError(f"{title}: plotted values must be finite")

    x_lo, x_hi = min(xs) - 0.5, max(xs) + 0.5
    y_lo, y_hi = min(y_all), max(y_all)
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError(f"{title}: the padded y-axis span overflows")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]

    # Axis ticks.
    x_step = max(1, int(round(_nice_step(x_hi - x_lo, 12))))
    x_tick = int(-((-x_lo) // x_step) * x_step)  # first multiple of step >= x_lo
    while x_tick <= x_hi:
        if x_lo <= x_tick:
            px = sx(x_tick)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" '
                f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{x_tick}</text>'
            )
        x_tick += x_step
    y_step = _nice_step(y_hi - y_lo, 6)
    y_tick = (y_lo // y_step) * y_step
    while y_tick <= y_hi:
        if y_lo <= y_tick:
            py = sy(y_tick)
            parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#444"/>'
            )
            label = f"{y_tick:g}"
            parts.append(
                f'<text x="{MARGIN_L - 9}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )
        y_tick += y_step

    # Reference lines: zero effect, treatment date at r = -0.5.
    if y_lo <= 0.0 <= y_hi:
        py = sy(0.0)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" x2="{WIDTH - MARGIN_R}" y2="{_fmt(py)}" '
            f'stroke="#888" stroke-width="1"/>'
        )
    if x_lo <= -0.5 <= x_hi:
        px = sx(-0.5)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B}" '
            f'stroke="#888" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    if overlay:
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in overlay)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{OVERLAY_COLOR}" '
            f'stroke-width="1.5"/>'
        )

    for r, value, lo, hi in points:
        px = sx(r)
        if lo is not None and hi is not None:
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(sy(lo))}" x2="{_fmt(px)}" y2="{_fmt(sy(hi))}" '
                f'stroke="{POINT_COLOR}" stroke-width="1.2"/>'
            )
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(sy(value))}" r="3" fill="{POINT_COLOR}"/>'
        )

    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">relative time r</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
