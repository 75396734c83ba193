import pytest

from evstudy.svgplot import event_study_svg

POINTS = [(-2, -1.0, -1.5, -0.5), (0, 1.0, 0.4, 1.6), (1, 2.0, None, None)]


def test_basic_structure():
    svg = event_study_svg("twfe", POINTS)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 3
    assert "twfe" in svg
    assert "stroke-dasharray" in svg  # treatment-date reference line


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


def test_empty_rejected():
    with pytest.raises(ValueError):
        event_study_svg("none", [])


@pytest.mark.parametrize("points, overlay", [
    ([(0, float("nan"), None, None)], None),
    ([(0, 1.0, float("-inf"), 2.0)], None),
    (POINTS, [(-2, 1.0), (0, float("inf"))]),
    ([(-2, 1e308, None, None), (0, -1e308, None, None)], None),
    ([(-2, 9e307, None, None), (0, -8e307, None, None)], None),
], ids=["nan-value", "inf-ci", "inf-overlay", "span-overflows", "padded-span-overflows"])
def test_non_finite_values_and_spans_rejected(points, overlay):
    with pytest.raises(ValueError, match="must be finite|span overflows"):
        event_study_svg("x", points, overlay)
