import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evstudy.svgplot import event_study_svg

from helpers import drawn_tick_labels

POINTS = [(-2, -1.0, -1.5, -0.5), (0, 1.0, 0.4, 1.6), (1, 2.0, None, None)]


def test_basic_structure():
    svg = event_study_svg("twfe", POINTS)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 3
    assert "twfe" in svg
    assert "stroke-dasharray" in svg  # treatment-date reference line


@pytest.mark.parametrize("rs, drawn", [((-3, -1), True), ((0, 2), True), ((1, 3), False)],
                         ids=["pre-only", "post-only", "after-treatment"])
def test_treatment_line_on_a_split_figure_edge(rs, drawn):
    # A --split-bjs figure has r = -0.5 at the edge of its x axis.
    svg = event_study_svg("t", [(r, 1.0, None, None) for r in rs])
    assert ("stroke-dasharray" in svg) == drawn


def test_whiskers_only_where_ci_given():
    svg = event_study_svg("t", POINTS)
    no_ci = event_study_svg("t", [(r, v, None, None) for r, v, _, _ in POINTS])
    assert svg.count("<line") > no_ci.count("<line")


def test_deterministic():
    assert event_study_svg("x", POINTS) == event_study_svg("x", POINTS)


def test_overlay_polyline():
    svg = event_study_svg("x", POINTS, overlay=[(-2, -1.0), (0, 0.5), (1, 1.0)])
    assert "<polyline" in svg
    assert "<polyline" not in event_study_svg("x", POINTS)


def test_single_point():
    svg = event_study_svg("one", [(0, 0.5, None, None)])
    assert svg.count("<circle") == 1
    assert "</svg>" in svg


def test_title_escaped():
    svg = event_study_svg("a & <b>", [(0, 1.0, None, None)])
    assert "a &amp; &lt;b&gt;" in svg


@pytest.mark.parametrize("points, overlay, x_labels, y_labels", [
    # Steps below 1.
    ([(-1, -0.08, None, None), (0, 0.05, None, None), (1, 0.1, None, None)], None,
     ["-1", "0", "1"], ["-0.05", "0", "0.05", "0.1"]),
    # Steps above 10.
    ([(r, 0.5 * (r + 1), None, None) for r in range(-100, 50) if r != -1], None,
     ["-100", "-80", "-60", "-40", "-20", "0", "20", "40"], ["-40", "-20", "0", "20"]),
    # 12 relative times over 12 ticks: a raw step of exactly 1 is a nice step.
    ([(r, 0.1 * r, None, None) for r in range(-6, 6)], None,
     [str(r) for r in range(-6, 6)], ["-0.5", "0", "0.5"]),
    # Without an overlay, the x axis spans the points' relative times alone.
    (POINTS, None, ["-2", "-1", "0", "1"], ["-1", "0", "1", "2"]),
    # An overlay's values set the y axis, never the x axis.
    (POINTS, [(-2, 10.0), (0, 20.0), (1, 30.0)], ["-2", "-1", "0", "1"], ["0", "10", "20", "30"]),
    # A table may give one bound of an interval; it still sets the y axis.
    ([(0, 1.0, None, 5.0), (1, 2.0, -3.0, None)], None, ["0", "1"], ["-2", "0", "2", "4"]),
    # All zero: the axis is [-1, 1], and its ends are ticks.
    ([(0, 0.0, None, None)], None, ["0"], ["-1", "-0.5", "0", "0.5", "1"]),
], ids=["values-within-0.1", "150-relative-times", "12-relative-times", "no-overlay",
        "overlay-beyond-the-x-span", "one-sided-intervals", "all-zero"])
def test_tick_labels(points, overlay, x_labels, y_labels):
    assert drawn_tick_labels(event_study_svg("t", points, overlay)) == (x_labels, y_labels)


def test_empty_rejected():
    with pytest.raises(ValueError):
        event_study_svg("none", [])


@pytest.mark.parametrize("points, overlay", [
    ([(0, float("nan"), None, None)], None),
    ([(0, 1.0, float("-inf"), 2.0)], None),
    (POINTS, [(-2, 1.0), (0, float("inf"))]),
], ids=["nan-value", "inf-ci", "inf-overlay"])
def test_non_finite_values_and_spans_rejected(points, overlay):
    with pytest.raises(ValueError, match="must be finite"):
        event_study_svg("x", points, overlay)


@pytest.mark.parametrize("points, y_labels", [
    ([(-2, 1e308, None, None), (0, -1e308, None, None)],
     ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]),
    ([(-2, 9e307, None, None), (0, -8e307, None, None)], ["-5e+307", "0", "5e+307"]),
], ids=["span-overflows", "padded-span-overflows"])
def test_spans_past_the_largest_float_are_drawn(points, y_labels):
    # The unscaled span, or the padded one, is past the largest float; the
    # axis is laid out on quarters of the values.
    assert drawn_tick_labels(event_study_svg("x", points))[1] == y_labels


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.tuples(FINITE, st.none() | st.tuples(FINITE, FINITE)), min_size=1,
                       max_size=5),
       overlay=st.none() | st.lists(FINITE, min_size=1, max_size=5))
# A value of 10 subnormal steps made a tick step of 0.
@example(values=[(5e-323, None)], overlay=None)
def test_any_finite_values_are_drawn_on_the_canvas(values, overlay):
    points = [(r, v, *(ci or (None, None))) for r, (v, ci) in enumerate(values)]
    overlay = overlay and list(enumerate(overlay[:len(points)]))
    drawn_tick_labels(event_study_svg("x", points, overlay))
