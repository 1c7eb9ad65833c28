"""Minimal self-contained SVG 1.1 rendering of spectra and sweep maps.

No plotting library is used; output is deterministic text. Axes are in
GHz, with an optional secondary wavelength axis in nm along the top.
All three axes follow one tick rule: ticks at the integer multiples of
a nice step, each labelled with the digits that the spacing of
neighbouring labels needs (on the nm axis, the spacing of the
wavelengths at the GHz ticks).
Data coordinates are mapped to pixels as whole arrays, one numpy
expression per curve, with the same floating-point operations in the
same order as a point-by-point loop; a curve's flat coordinate list is
then formatted by one ``%.2f`` template.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .physcalc import _require_finite_real, frequency_to_wavelength

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 25, 50, 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Ticks of the range lo < hi: the integer multiples k * step in it.

    The step is the least of 1, 2, 2.5, 5 and 10 times a power of ten
    that is at least (hi - lo) / target. A tick within 1e-9 step above hi
    stays. Where the step underflows or hi - lo overflows, the one tick is
    lo.
    """
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw)) if 0 < raw < math.inf else 0.0
    step = next((m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag), 0.0)
    if not step:
        return [lo]
    ks = range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)
    ticks = [t for t in dict.fromkeys(k * step for k in ks)
             if lo <= t <= hi + 1e-9 * step]
    return ticks


def _labels(values: list[float]) -> list[str]:
    """Tick labels, each with its digits down to a third of the closest spacing.

    That resolution keeps neighbours apart (each label is within a sixth
    of the spacing of its value) and writes a 2.5 step exactly. At least
    6 significant digits are allowed, so a value below 1e6 reads without
    an exponent; trailing zeros are dropped. A lone value, or values
    that coincide, get the shortest text that reads back exactly. The
    sweep map labels its fields by the same rule.
    """
    gap = min((abs(b - a) for a, b in zip(values, values[1:])), default=0.0)
    if not gap > 0:
        return [repr(v).removesuffix(".0") for v in values]
    last = math.floor(math.log10(gap / 3))

    def digits(v):
        return math.floor(math.log10(abs(v))) - last + 1 if v else 1

    return [f"{v:.{min(max(digits(v), 6), 17)}g}" for v in values]


class _Canvas:
    def __init__(self, x_range, y_range):
        if not all(map(math.isfinite, (*x_range, *y_range))):
            raise NumericalError(f"plot range is not finite: x {x_range}, "
                                 f"y {y_range}")
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def px(self, x):
        """Pixel column of a data x, a number or an array."""
        frac = (x - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        """Pixel row of a data y, a number or an array."""
        frac = (y - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def _points(self, xs, ys) -> list[float]:
        """Pixel coordinates of a curve's points (float arrays), flat: x0, y0, x1, ..."""
        return np.column_stack((self.px(xs), self.py(ys))).ravel().tolist()

    def polyline(self, xs, ys, color: str, width: float = 1.5) -> None:
        flat = self._points(xs, ys)
        pts = " ".join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat)
        self.add(f'<polyline fill="none" stroke="{color}" '
                 f'stroke-width="{width}" points="{pts}"/>')

    def dots(self, xs, ys, color: str) -> None:
        # '%%' keeps a '%' in the colour out of the template's conversions
        circle = (f'<circle cx="%.2f" cy="%.2f" r="2.0" '
                  f'fill="{color.replace("%", "%%")}" fill-opacity="0.7"/>')
        flat = iter(self._points(xs, ys))
        self.parts.extend(map(circle.__mod__, zip(flat, flat)))

    def text(self, x_px, y_px, content, size=13, anchor="middle", rotate=None):
        # XML-escape; '&' goes first so no entity is escaped twice
        content = str(content).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        transform = f' transform="rotate(-90 {x_px:.1f} {y_px:.1f})"' if rotate else ""
        self.add(f'<text x="{x_px:.1f}" y="{y_px:.1f}" font-family="sans-serif" '
                 f'font-size="{size}" text-anchor="{anchor}"{transform}>'
                 f'{content}</text>')

    def _x_ticks(self, ticks, labels, y1, y2, label_y, size) -> None:
        """Tick marks from row y1 to y2 at data x ``ticks``, labels at label_y."""
        for t, label in zip(ticks, labels):
            x = self.px(t)
            self.add(f'<line x1="{x:.1f}" y1="{y1}" x2="{x:.1f}" '
                     f'y2="{y2}" stroke="black"/>')
            self.text(x, label_y, label, size=size)

    def axes(self, xlabel: str, ylabel: str, title: str = "",
             nm_axis: bool = False) -> None:
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        self.add(f'<rect x="{left}" y="{top}" width="{right-left}" '
                 f'height="{bottom-top}" fill="none" stroke="black"/>')
        ticks = _nice_ticks(self.x0, self.x1)
        self._x_ticks(ticks, _labels(ticks), bottom, bottom + 5, bottom + 20, 11)
        ticks = _nice_ticks(self.y0, self.y1)
        for t, label in zip(ticks, _labels(ticks)):
            y = self.py(t)
            self.add(f'<line x1="{left-5}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
            self.text(left - 9, y + 4, label, size=11, anchor="end")
        self.text((left + right) / 2, HEIGHT - 12, xlabel)
        self.text(16, (top + bottom) / 2, ylabel, rotate=True)
        if title:
            self.text((left + right) / 2, 20, title, size=15)
        if nm_axis and self.x0 > 0:
            ticks = _nice_ticks(self.x0, self.x1, target=4)
            nms = [frequency_to_wavelength(t) for t in ticks]
            self._x_ticks(ticks, _labels(nms), top, top - 5, top - 9, 10)
            self.text((left + right) / 2, top - 26, "wavelength (nm)", size=11)

    def legend(self, entries) -> None:
        x = WIDTH - MARGIN_R - 150
        y = MARGIN_T + 16
        for label, color in entries:
            self.add(f'<line x1="{x}" y1="{y-4}" x2="{x+22}" y2="{y-4}" '
                     f'stroke="{color}" stroke-width="2"/>')
            self.text(x + 28, y, label, size=11, anchor="start")
            y += 16

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _ranges(spectra) -> tuple[tuple[float, float], tuple[float, float]]:
    x0 = min(float(s.freq_ghz[0]) for s in spectra)
    x1 = max(float(s.freq_ghz[-1]) for s in spectra)
    y0 = min(float(s.reflectivity.min()) for s in spectra)
    y1 = max(float(s.reflectivity.max()) for s in spectra)
    pad = 0.05 * (y1 - y0 if y1 > y0 else max(y1, 1.0))
    return (x0, x1), (max(y0 - pad, 0.0), y1 + pad)


def render_spectra(entries, title: str = "", nm_axis: bool = False) -> str:
    """SVG for a list of (Spectrum, label, as_points) overlays."""
    canvas = _Canvas(*_ranges([e[0] for e in entries]))
    canvas.axes("probe frequency (GHz)", "reflectivity (arb. units)",
                title=title, nm_axis=nm_axis)
    legend = []
    for i, (spec, label, as_points) in enumerate(entries):
        color = PALETTE[i % len(PALETTE)]
        draw = canvas.dots if as_points else canvas.polyline
        draw(spec.freq_ghz, spec.reflectivity, color)
        if label:
            legend.append((label, color))
    canvas.legend(legend)
    return canvas.render()


def render_sweep_map(spectra, norm: float, title: str = "") -> str:
    """Waterfall of spectra divided by ``norm`` and stacked by magnetic field.

    ``norm``, typically the bare-cavity peak, must be a finite number > 0.
    Each curve with ``field_T`` metadata is labelled with its field by
    the tick-label rule (:func:`_labels`) over all the labelled fields,
    so distinct fields get distinct labels.
    """
    _require_finite_real("sweep map norm", norm, "positive")
    x0 = min(float(s.freq_ghz[0]) for s in spectra)
    x1 = max(float(s.freq_ghz[-1]) for s in spectra)
    offset_step = 0.8
    y1 = offset_step * (len(spectra) - 1) + 1.1
    canvas = _Canvas((x0, x1), (0.0, y1))
    canvas.axes("probe frequency (GHz)", "normalized reflectivity + offset",
                title=title)
    fields = [spec.meta.get("field_T") for spec in spectra]
    labels = iter(_labels([b for b in fields if b is not None]))
    for i, (spec, b) in enumerate(zip(spectra, fields)):
        color = PALETTE[i % len(PALETTE)]
        ys = spec.reflectivity / norm + offset_step * i
        canvas.polyline(spec.freq_ghz, ys, color, width=1.2)
        if b is not None:
            canvas.text(canvas.px(x1) - 4, canvas.py(ys[-1]) - 4,
                        f"{next(labels)} T", size=10, anchor="end")
    return canvas.render()
