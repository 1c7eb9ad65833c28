import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from spincavity import (DomainError, ScanConfig, frequency_to_wavelength,
                        lorentzian_spectrum)
from spincavity.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R,
                                MARGIN_T, WIDTH, _Canvas, _labels, _nice_ticks,
                                render_spectra, render_sweep_map)

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


@pytest.mark.parametrize("norm, message", [
    (0.0, "must be positive, got 0.0"), (-1.0, "must be positive, got -1.0"),
    (math.nan, "must be a finite number, got nan"),
    (math.inf, "must be a finite number, got inf")],
    ids=["0.0", "-1.0", "nan", "inf"])
def test_sweep_map_norm_must_be_positive_and_finite(norm, message):
    spec = lorentzian_spectrum(30.0, 0.0, ScanConfig(-50, 50, 21))
    with pytest.raises(DomainError) as info:
        render_sweep_map([spec], norm)
    assert str(info.value) == f"sweep map norm {message}"


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


@pytest.mark.parametrize("lo, hi, target, labels", [
    (-60.0, 60.0, 6, ["-60", "-40", "-20", "0", "20", "40", "60"]),
    (0.0, 1.05, 6, ["0", "0.2", "0.4", "0.6", "0.8", "1"]),
    (0.0, 0.1, 4, ["0", "0.025", "0.05", "0.075", "0.1"]),
    (321795.66, 321915.66, 6,
     ["321800", "321820", "321840", "321860", "321880", "321900"]),
    # a 2.5 step keeps its last digit; .6g once gave 1.2345e+06 to all
    (1234500.0, 1234510.0, 4, ["1234500", "1234502.5", "1234505",
                               "1234507.5", "1234510"]),
    (0.0, 2.5e-13, 6, ["0", "5e-14", "1e-13", "1.5e-13", "2e-13", "2.5e-13"]),
    # a one-ulp range: 17 digits read each float back exactly
    (1.0, 1.0000000000000002, 6, ["1", "1.0000000000000002"]),
    # the step underflows, or hi - lo overflows: one tick, at lo
    (0.0, 1e-323, 6, ["0"]),
    (-1e308, 1e308, 6, ["-1e+308"]),
])
def test_labels_carry_the_digits_of_the_step(lo, hi, target, labels):
    assert _labels(_nice_ticks(lo, hi, target)) == labels


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _tick_ranges(draw):
    """Finite lo < hi: any two floats, or a span of a few floats above lo."""
    lo = draw(_finite)
    if draw(st.booleans()):
        lo, hi = sorted((lo, draw(_finite)))
    else:  # subnormal spans near 0, spans of a few ulps elsewhere
        hi = lo + draw(st.integers(1, 64)) * math.ulp(lo)
    assume(lo < hi < math.inf)
    return lo, hi


@given(bounds=_tick_ranges(), target=st.sampled_from([4, 6]))
@example(bounds=(0.0, 1e-323), target=6)
@example(bounds=(0.0, 3e-323), target=6)
@example(bounds=(-1.7976931348623157e308, 1.7976931348623157e308), target=6)
@example(bounds=(-1.7976931348623157e308, -1e308), target=4)
@example(bounds=(1e16, 1e16 + 2), target=6)
@example(bounds=(321855.43, 321856.13), target=4)
def test_tick_rule_holds_for_every_finite_range(bounds, target):
    lo, hi = bounds
    ticks = _nice_ticks(lo, hi, target)
    steps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert all(step > 0 for step in steps)
    step = min(steps, default=0.0)
    assert lo <= ticks[0] and ticks[-1] <= hi + 1e-9 * step
    labels = _labels(ticks)
    assert len(set(labels)) == len(labels)
    for tick, label in zip(ticks, labels):
        assert abs(float(label) - tick) <= step / 2  # exact for a lone tick
    # the nm axis: labels apart wherever the wavelengths are finite and apart
    nms = [frequency_to_wavelength(t) for t in ticks] if lo > 0 else []
    gaps = [a - b for a, b in zip(nms, nms[1:])]
    if all(map(math.isfinite, nms)) and all(gaps):
        nm_labels = _labels(nms)
        assert len(set(nm_labels)) == len(nm_labels)
        for nm, label in zip(nms, nm_labels):
            assert abs(float(label) - nm) <= min(gaps, default=0.0) / 2
