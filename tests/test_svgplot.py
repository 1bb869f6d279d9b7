"""SVG output: well-formed, deterministic, honest about log axes."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from phenopart.svgplot import PlotSeries, line_plot

NS = "{http://www.w3.org/2000/svg}"


def _series():
    x = np.linspace(0.0, 1.0, 20)
    return [PlotSeries("one", x, np.sin(x)),
            PlotSeries("two", x, np.cos(x))]


def test_output_parses_and_has_polylines(tmp_path):
    out = tmp_path / "plot.svg"
    line_plot(out, _series(), "demo", "t", "value",
              annotations=["order = 1.98"])
    root = ET.parse(out).getroot()
    assert root.tag == f"{NS}svg"
    polys = root.iter(f"{NS}polyline")
    data_polys = [p for p in polys if p.get("fill") == "none"]
    assert len(data_polys) >= 2
    text = ET.tostring(root, encoding="unicode")
    assert "order = 1.98" in text
    assert "demo" in text and "value" in text


def test_bytes_are_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    line_plot(a, _series(), "demo", "t", "value")
    line_plot(b, _series(), "demo", "t", "value")
    assert a.read_bytes() == b.read_bytes()


def test_log_axis_rejects_nonpositive(tmp_path):
    s = [PlotSeries("s", [0.1, 1.0], [0.0, 2.0])]
    with pytest.raises(ValueError, match="log y"):
        line_plot(tmp_path / "x.svg", s, "t", "x", "y", logy=True)
    s = [PlotSeries("s", [-1.0, 1.0], [1.0, 2.0])]
    with pytest.raises(ValueError, match="log x"):
        line_plot(tmp_path / "y.svg", s, "t", "x", "y", logx=True)


def test_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError, match="nothing"):
        line_plot(tmp_path / "z.svg", [], "t", "x", "y")


def test_loglog_plot(tmp_path):
    hs = np.array([0.1, 0.05, 0.025])
    s = [PlotSeries("err", hs, 3.0 * hs ** 2)]
    out = tmp_path / "log.svg"
    line_plot(out, s, "convergence", "h", "error", logx=True, logy=True)
    root = ET.parse(out).getroot()
    assert root.tag == f"{NS}svg"


def test_flat_series_does_not_crash(tmp_path):
    s = [PlotSeries("flat", [0.0, 1.0], [2.0, 2.0])]
    line_plot(tmp_path / "flat.svg", s, "t", "x", "y")
    assert (tmp_path / "flat.svg").stat().st_size > 0
    # on a linear axis the pad grows with |y| past 1e6, so the range stays
    # open where +-0.5 would vanish in rounding
    for level in (5e60, -5e60):
        s = [PlotSeries("flat", [1.0, 2.0, 3.0], [level] * 3)]
        out = tmp_path / f"flat-lin-{level:g}.svg"
        line_plot(out, s, "t", "x", "y")
        assert ET.parse(out).getroot().tag == f"{NS}svg"
    # on a log axis the flat range opens by half a decade, not by 0.5 in
    # data units (which goes negative below 0.5 and vanishes at 5e60)
    for level in (0.3, 5e60):
        s = [PlotSeries("flat", [1.0, 2.0, 3.0], [level] * 3)]
        out = tmp_path / f"flat-log-{level:g}.svg"
        line_plot(out, s, "t", "h", "y", logx=True, logy=True)
        assert ET.parse(out).getroot().tag == f"{NS}svg"
