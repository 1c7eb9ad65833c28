import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spincavity import DomainError, ScanConfig, lorentzian_spectrum
from spincavity.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R,
                                MARGIN_T, WIDTH, _Canvas, render_spectra,
                                render_sweep_map)

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def test_labels_and_title_are_escaped():
    spec = lorentzian_spectrum(30.0, 0.0, ScanConfig(-50, 50, 21))
    svg = render_spectra([(spec, "a<b & c", False)], title='"R" > 0 & <dip>')
    texts = [t.text for t in ET.fromstring(svg).iter(SVG_TEXT)]
    assert "a<b & c" in texts
    assert '"R" > 0 & <dip>' in texts


def test_sweep_map_is_well_formed():
    spec = replace(lorentzian_spectrum(30.0, 0.0, ScanConfig(-50, 50, 21)),
                   meta={"field_T": 1.5})
    root = ET.fromstring(render_sweep_map([spec], 1.0, title="B < 2 T & rising"))
    texts = [t.text for t in root.iter(SVG_TEXT)]
    assert "B < 2 T & rising" in texts
    assert "1.5 T" in texts


@pytest.mark.parametrize("norm", [0.0, -1.0, math.nan, math.inf])
def test_sweep_map_norm_must_be_positive_and_finite(norm):
    spec = lorentzian_spectrum(30.0, 0.0, ScanConfig(-50, 50, 21))
    with pytest.raises(DomainError, match="sweep map norm must be positive "
                                          "and finite"):
        render_sweep_map([spec], norm)


def _ref_x(x, x0, x1):
    return f"{MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R):.2f}"


def _ref_y(y, y0, y1):
    return f"{HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (HEIGHT - MARGIN_T - MARGIN_B):.2f}"


_range = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False)
                   ).filter(lambda r: r[0] < r[1])
_points = st.lists(st.tuples(st.floats(), st.floats()), max_size=12)


@given(x_range=_range, y_range=_range, points=_points)
@example(x_range=(-1.0, 1.0), y_range=(0.0, 1.1),
         points=[(-0.0, 0.0), (5e-324, -5e-324), (1e308, -1e308),
                 (-2.0, 3.0), (2.2250738585072014e-308, 1e-310)])
def test_curve_points_match_a_point_by_point_loop(x_range, y_range, points):
    # the pixel coordinates of each point are pinned to a plain loop over
    # Python floats, with the same operations in the same order
    (x0, x1), (y0, y1) = x_range, y_range
    xs = np.array([x for x, _ in points], dtype=float)
    ys = np.array([y for _, y in points], dtype=float)
    canvas = _Canvas(x_range, y_range)
    with np.errstate(all="ignore"):
        canvas.polyline(xs, ys, "#000")
        canvas.dots(xs, ys, "#111")
    refs = [(_ref_x(x, x0, x1), _ref_y(y, y0, y1))
            for x, y in zip(xs.tolist(), ys.tolist())]
    pts = " ".join(f"{x},{y}" for x, y in refs)
    assert canvas.parts[3] == (f'<polyline fill="none" stroke="#000" '
                               f'stroke-width="1.5" points="{pts}"/>')
    assert canvas.parts[4:] == [
        f'<circle cx="{x}" cy="{y}" r="2.0" fill="#111" fill-opacity="0.7"/>'
        for x, y in refs]
