"""Minimal self-contained SVG 1.1 rendering of spectra and sweep maps.

No plotting library is used; output is deterministic text. Axes are in
GHz, with an optional secondary wavelength axis in nm along the top.
Data coordinates are mapped to pixels as whole arrays, one numpy
expression per curve, with the same floating-point operations in the
same order as a point-by-point loop.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError
from .physcalc import frequency_to_wavelength

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 25, 50, 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * abs(step):
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.6g}"
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return text if text else "0"


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

    def _points(self, xs, ys):
        """Pixel coordinates of a curve's points (float arrays) as pairs."""
        return zip(self.px(xs).tolist(), self.py(ys).tolist())

    def polyline(self, xs, ys, color: str, width: float = 1.5) -> None:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in self._points(xs, ys))
        self.add(f'<polyline fill="none" stroke="{color}" '
                 f'stroke-width="{width}" points="{pts}"/>')

    def dots(self, xs, ys, color: str) -> None:
        for x, y in self._points(xs, ys):
            self.add(f'<circle cx="{x:.2f}" cy="{y:.2f}" '
                     f'r="2.0" fill="{color}" fill-opacity="0.7"/>')

    def text(self, x_px, y_px, content, size=13, anchor="middle", rotate=None):
        # XML-escape; '&' goes first so no entity is escaped twice
        content = str(content).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        transform = f' transform="rotate(-90 {x_px:.1f} {y_px:.1f})"' if rotate else ""
        self.add(f'<text x="{x_px:.1f}" y="{y_px:.1f}" font-family="sans-serif" '
                 f'font-size="{size}" text-anchor="{anchor}"{transform}>'
                 f'{content}</text>')

    def axes(self, xlabel: str, ylabel: str, title: str = "",
             nm_axis: bool = False) -> None:
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        self.add(f'<rect x="{left}" y="{top}" width="{right-left}" '
                 f'height="{bottom-top}" fill="none" stroke="black"/>')
        for t in _nice_ticks(self.x0, self.x1):
            x = self.px(t)
            self.add(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" '
                     f'y2="{bottom+5}" stroke="black"/>')
            self.text(x, bottom + 20, _fmt_tick(t), size=11)
        for t in _nice_ticks(self.y0, self.y1):
            y = self.py(t)
            self.add(f'<line x1="{left-5}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
            self.text(left - 9, y + 4, _fmt_tick(t), size=11, anchor="end")
        self.text((left + right) / 2, HEIGHT - 12, xlabel)
        self.text(16, (top + bottom) / 2, ylabel, rotate=True)
        if title:
            self.text((left + right) / 2, 20, title, size=15)
        if nm_axis and self.x0 > 0:
            for t in _nice_ticks(self.x0, self.x1, target=4):
                if t <= 0:
                    continue
                x = self.px(t)
                nm = frequency_to_wavelength(t)
                self.add(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                         f'y2="{top-5}" stroke="black"/>')
                self.text(x, top - 9, f"{nm:.3f}", size=10)
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
    spectra = [e[0] for e in entries]
    (x0, x1), (y0, y1) = _ranges(spectra)
    canvas = _Canvas((x0, x1), (y0, y1))
    canvas.axes("probe frequency (GHz)", "reflectivity (arb. units)",
                title=title, nm_axis=nm_axis)
    legend = []
    for i, (spec, label, as_points) in enumerate(entries):
        color = PALETTE[i % len(PALETTE)]
        if as_points:
            canvas.dots(spec.freq_ghz, spec.reflectivity, color)
        else:
            canvas.polyline(spec.freq_ghz, spec.reflectivity, color)
        if label:
            legend.append((label, color))
    if legend:
        canvas.legend(legend)
    return canvas.render()


def render_sweep_map(spectra, norm: float, title: str = "") -> str:
    """Waterfall of spectra divided by ``norm`` and stacked by magnetic field.

    ``norm``, typically the bare-cavity peak, must be positive and finite.
    """
    if not 0 < norm < math.inf:
        raise DomainError(f"sweep map norm must be positive and finite, got {norm}")
    x0 = min(float(s.freq_ghz[0]) for s in spectra)
    x1 = max(float(s.freq_ghz[-1]) for s in spectra)
    offset_step = 0.8
    y1 = offset_step * (len(spectra) - 1) + 1.1
    canvas = _Canvas((x0, x1), (0.0, y1))
    canvas.axes("probe frequency (GHz)", "normalized reflectivity + offset",
                title=title)
    for i, spec in enumerate(spectra):
        color = PALETTE[i % len(PALETTE)]
        ys = spec.reflectivity / norm + offset_step * i
        canvas.polyline(spec.freq_ghz, ys, color, width=1.2)
        label = spec.meta.get("field_T")
        if label is not None:
            canvas.text(canvas.px(x1) - 4, canvas.py(ys[-1]) - 4,
                        f"{label:g} T", size=10, anchor="end")
    return canvas.render()
