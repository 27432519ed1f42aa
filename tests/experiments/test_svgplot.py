"""Tests for the SVG chart renderer."""

import xml.etree.ElementTree as ET

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import SeriesStats, SweepResult
from repro.experiments.svgplot import render_svg, write_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_result(x_values=(0.0, 0.5, 1.0)):
    n = len(x_values)
    return SweepResult(
        name="figX", title="A sweep", xlabel="dynamism",
        x_values=list(x_values),
        series={
            "nothing": SeriesStats(mean=[100.0 + 50 * i for i in range(n)],
                                   std=[1.0] * n, raw=[[0.0]] * n,
                                   swap_counts=[0.0] * n),
            "swap-greedy": SeriesStats(mean=[90.0 + 40 * i for i in range(n)],
                                       std=[1.0] * n, raw=[[0.0]] * n,
                                       swap_counts=[1.0] * n),
        },
        seeds=[0])


def parse(svg_text):
    return ET.fromstring(svg_text)


def test_renders_valid_xml():
    root = parse(render_svg(sample_result()))
    assert root.tag == f"{SVG_NS}svg"


def test_one_polyline_per_series():
    root = parse(render_svg(sample_result()))
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2


def test_markers_cover_every_point():
    root = parse(render_svg(sample_result()))
    circles = root.findall(f".//{SVG_NS}circle")
    assert len(circles) == 2 * 3


def test_legend_and_labels_present():
    text = render_svg(sample_result())
    assert "nothing" in text and "swap-greedy" in text
    assert "dynamism" in text
    assert "execution time" in text


def test_higher_values_plot_higher_on_screen():
    """SVG y grows downward: the larger makespan has the smaller cy."""
    root = parse(render_svg(sample_result()))
    circles = root.findall(f".//{SVG_NS}circle")
    ys = [float(c.get("cy")) for c in circles]
    # nothing's last point (200) must be above (smaller cy than) its
    # first point (100).
    assert ys[2] < ys[0]


def test_single_x_value_ok():
    text = render_svg(sample_result(x_values=(0.5,)))
    parse(text)


def test_infinite_x_rejected():
    with pytest.raises(ExperimentError):
        render_svg(sample_result(x_values=(0.0, float("inf"))))


def test_title_escaped():
    result = sample_result()
    result.title = "a <b> & c"
    text = render_svg(result)
    assert "&lt;b&gt; &amp; c" in text
    parse(text)


def test_write_svg_file(tmp_path):
    path = tmp_path / "chart.svg"
    write_svg(sample_result(), path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"


def test_escape_matches_xml_sax():
    from xml.sax.saxutils import escape as sax_escape

    from repro.experiments.svgplot import escape
    for text in ("plain", "", "a & b < c > d", "&amp;<<>>&", "\"quoted\" 'x'"):
        assert escape(text) == sax_escape(text)
