"""Reflectivity spectra: closed forms, master-equation scans, mixing, sweeps.

Every closed form is one weak-probe cavity response,

    R(w) = B + S / | -i (w - omega_c) + kappa/2
                     + sum_i g_i^2 / (-i (w - w_i) + gamma_perp_i) |^2

with one term per dipole line i of coupling g_i, frequency w_i and
transverse (coherence) decay rate gamma_perp_i = gamma_i/2 + gamma_d_i;
all symbols are converted to angular units internally. The bare-cavity
Lorentzian of FWHM kappa, the single-transition transparency dip and the
two-transition spin-down response are its 0-, 1- and 2-line cases, all
evaluated by :func:`cavity_response`.

The master-equation spectrum reads out the coherently scattered cavity
response |Tr(rho_ss a)|^2, normalized by the squared drive so that
scale and background mean the same thing as in the closed forms. The
total intracavity photon number Tr(rho_ss a'a) additionally contains
an incoherent fluorescence component (large near the reflectivity dips
when pure dephasing dominates spontaneous emission) which is not part
of the phase-coherent reflected probe; see hilbert.expectation_photon_number
for that observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import hilbert
from .errors import DomainError, NumericalError
from .hilbert import SystemParams
from .physcalc import (TWO_PI, TrionLevels, _require_finite_real,
                       _require_int, _require_squarable,
                       transition_frequencies)

# Most spectrum rows one scan or field sweep may ask for; counts read
# from outside input are refused above it before anything is allocated.
_ROW_LIMIT = 10**6


def _first_bad_point(freq, refl, weight) -> tuple[int, str] | None:
    """(index, message) of the first point that breaks a point rule, or None.

    The lowest index comes first and, within one point, the frequency,
    span, reflectivity and weight rules in that order. The message names
    the rule and the offending value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        span = freq - freq[:1]
    ok = np.isfinite(np.column_stack((freq, span, refl, weight)))
    ok[1:, 0] &= freq[1:] > freq[:-1]
    ok[:, 2] &= refl >= 0
    ok[:, 3] &= weight > 0
    if ok.all():
        return None
    i, rule = divmod(int(np.argmin(ok)), 4)
    rule_text = ("frequency must be finite and strictly increasing",
                 "frequency span from the first point must be finite",
                 "reflectivity must be a finite number >= 0",
                 "weight must be a finite number > 0")[rule]
    suffix = (f" after {float(freq[i - 1])}" if rule == 0 and i else
              f" from {float(freq[0])}" if rule == 1 else "")
    return i, f"{rule_text}, got {float((freq, freq, refl, weight)[rule][i])}{suffix}"


@dataclass(frozen=True)
class Spectrum:
    """Sampled reflectivity versus probe frequency.

    At least 3 points; frequencies are finite and strictly increasing
    over a finite span, reflectivity is a finite number >= 0, and weights
    are finite numbers > 0 (default 1). ``meta`` carries free-form
    annotations such as field_T or a label.
    """

    freq_ghz: np.ndarray
    reflectivity: np.ndarray
    weight: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.freq_ghz, dtype=float)
        r = np.asarray(self.reflectivity, dtype=float)
        w = self.weight
        w = np.ones_like(f) if w is None else np.asarray(w, dtype=float)
        object.__setattr__(self, "freq_ghz", f)
        object.__setattr__(self, "reflectivity", r)
        object.__setattr__(self, "weight", w)
        if f.ndim != 1 or f.size < 3:
            raise DomainError(f"need at least 3 spectrum points, got {f.size}")
        if r.shape != f.shape or w.shape != f.shape:
            raise DomainError("frequency, reflectivity and weight lengths differ")
        if (bad := _first_bad_point(f, r, w)) is not None:
            raise DomainError(f"spectrum point {bad[0]}: {bad[1]}")

    @property
    def n_points(self) -> int:
        return self.freq_ghz.size


@dataclass(frozen=True)
class ScanConfig:
    """Probe grid of 3 to ``_ROW_LIMIT`` points plus the response scale and background."""

    start: float
    stop: float
    n_points: int
    scale: float = 1.0
    background: float = 0.0

    def __post_init__(self):
        _require_finite_real("start", self.start)
        _require_finite_real("stop", self.stop)
        if not self.start < self.stop:
            raise DomainError(f"need start < stop, got [{self.start}, {self.stop}]")
        if not math.isfinite(self.stop - self.start):
            raise DomainError(f"the scan span stop - start overflows, got "
                              f"[{self.start}, {self.stop}]")
        _require_int("n_points", self.n_points, 3)
        if self.n_points > _ROW_LIMIT:
            raise DomainError(
                f"need 3 to {_ROW_LIMIT} points, got {self.n_points}")
        _require_finite_real("scale", self.scale, "positive")
        _require_finite_real("background", self.background, ">= 0")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


@dataclass(frozen=True)
class FringeModel:
    """Multiplicative sinusoidal etalon distortion of a spectrum."""

    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self):
        _require_finite_real("fringe amplitude", self.amplitude)
        _require_finite_real("fringe period", self.period, "positive")
        _require_finite_real("fringe phase", self.phase)
        if not 0.0 <= self.amplitude < 0.5:
            raise DomainError(f"fringe amplitude must be in [0, 0.5), got {self.amplitude}")

    def factor(self, freq_ghz: np.ndarray) -> np.ndarray:
        return 1.0 + self.amplitude * np.sin(TWO_PI * freq_ghz / self.period + self.phase)


NO_FRINGE = FringeModel(amplitude=0.0, period=1.0)


def cavity_response(freq, kappa, omega_c, lines=()):
    """Unscaled cavity response with any number of coupled dipole lines.

    ``lines`` holds (g, gamma_perp, omega_i) triples; lines with g = 0 are
    skipped, and with no lines the result is the bare Lorentzian. On a
    lossless line (gamma_perp = 0), at its own frequency, the response is
    its limit, 0. Where a part of the denominator overflows, the response
    is its limit, 0, too, and numpy does not warn; a point whose
    arithmetic gives NaN is left to the Spectrum point rule. A coupling
    whose angular square overflows raises DomainError.
    """
    freq = np.asarray(freq, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # real and imaginary parts of the denominator, in angular units;
        # each line adds g^2 / (a - i b) = g^2 (a + i b) / (a^2 + b^2)
        re, im = TWO_PI * kappa / 2.0, -TWO_PI * (freq - omega_c)
        for g, gamma_perp, omega in lines:
            if g:
                a, b = TWO_PI * gamma_perp, TWO_PI * (freq - omega)
                w = TWO_PI * g
                _require_squarable("line coupling 2 pi g", w)
                d = a * a + b * b
                if a * a == 0:
                    # a lossless line's term is infinite where d is 0: an
                    # infinite real part there gives the response's limit, 0
                    on_line = d == 0
                    d = np.where(on_line, np.inf, d)
                    re = np.where(on_line, np.inf, re)
                q = w ** 2 / d
                re = re + a * q
                im = im + b * q
        return 1.0 / (re * re + im * im)


def spin_down_lines(p) -> tuple:
    """(g, gamma_perp, omega_i) of transitions 3 and 4 of the spin-down dot.

    ``p`` maps the SystemParams field names to values. Transition 4 sits
    delta_h below omega_x; gamma_perp_i = gamma_i/2 + gamma_d_i.
    """
    return ((p["g3"], p["gamma3"] / 2.0 + p["gamma_d3"], p["omega_x"]),
            (p["g4"], p["gamma4"] / 2.0 + p["gamma_d4"], p["omega_x"] - p["delta_h"]))


def lorentzian_response(freq, kappa, omega_c):
    """Unscaled bare-cavity response: the kernel with no lines."""
    return cavity_response(freq, kappa, omega_c)


def two_transition_response(freq, params: SystemParams):
    """Unscaled spin-down response with both transitions coupled."""
    return cavity_response(freq, params.kappa, params.omega_c,
                           spin_down_lines(vars(params)))


def lorentzian_spectrum(kappa: float, omega_c: float, cfg: ScanConfig) -> Spectrum:
    """Bare-cavity Lorentzian with FWHM kappa, peaked at omega_c."""
    _require_finite_real("kappa", kappa, "positive")
    _require_finite_real("omega_c", omega_c)
    f = cfg.grid()
    r = cfg.background + cfg.scale * lorentzian_response(f, kappa, omega_c)
    return Spectrum(f, r)


def dit_spectrum(g: float, kappa: float, gamma: float, delta: float,
                 omega_c: float, cfg: ScanConfig) -> Spectrum:
    """Single-transition reflectivity with the transparency dip.

    Reduces exactly to :func:`lorentzian_spectrum` at g = 0. On joint
    resonance the dip is suppressed by 1/(1+C)^2 relative to the bare
    peak, with cooperativity C = 2 g^2 / (kappa gamma).
    """
    _require_finite_real("coupling g", g, ">= 0")
    _require_finite_real("kappa", kappa, "positive")
    _require_finite_real("gamma", gamma, "positive")
    _require_finite_real("delta", delta)
    _require_finite_real("omega_c", omega_c)
    f = cfg.grid()
    r = cfg.background + cfg.scale * cavity_response(
        f, kappa, omega_c, ((g, gamma, omega_c + delta),))
    return Spectrum(f, r)


def two_transition_spectrum(params: SystemParams, cfg: ScanConfig) -> Spectrum:
    """Closed-form reflectivity with both transitions of the spin-down dot."""
    f = cfg.grid()
    r = cfg.background + cfg.scale * two_transition_response(f, params)
    return Spectrum(f, r)


def master_equation_spectrum(params: SystemParams, cfg: ScanConfig) -> Spectrum:
    """Reflectivity from the steady state of the full master equation.

    The coherent cavity response |Tr(rho_ss a)|^2 is divided by the
    squared angular drive so the result carries the same scale and
    background conventions as the closed forms and agrees with them in
    the weak-drive limit. A squared drive that overflows (or underflows
    to 0) raises NumericalError before any steady state is solved.
    """
    _require_finite_real("drive_amp", params.drive_amp, "positive")
    amp = TWO_PI * params.drive_amp
    norm = amp * amp
    if not 0 < norm < math.inf:
        raise NumericalError(
            f"squared angular drive (2pi drive_amp)^2 = {norm} is not a "
            "finite positive number")
    f = cfg.grid()
    vals = np.empty_like(f)
    for i, probe in enumerate(f):
        rho = hilbert.steady_state(params, probe)
        amp = hilbert.expectation_cavity_amplitude(rho)
        vals[i] = abs(amp) ** 2 / norm
    r = cfg.background + cfg.scale * vals
    return Spectrum(f, r)


def _require_same_grid(a: Spectrum, b: Spectrum) -> None:
    """Raise DomainError unless the two spectra share one frequency grid."""
    if not np.array_equal(a.freq_ghz, b.freq_ghz):
        raise DomainError("the two spectra are on different frequency grids")


def mixed_spectrum(p_up: float, spectrum_up: Spectrum,
                   spectrum_down: Spectrum) -> Spectrum:
    """Pointwise convex combination of the two pure-spin spectra."""
    _require_finite_real("p_up", p_up)
    if not 0.0 <= p_up <= 1.0:
        raise DomainError(f"p_up must be in [0, 1], got {p_up}")
    _require_same_grid(spectrum_up, spectrum_down)
    r = p_up * spectrum_up.reflectivity + (1.0 - p_up) * spectrum_down.reflectivity
    meta = dict(spectrum_down.meta)
    meta["p_up"] = p_up
    return Spectrum(spectrum_down.freq_ghz.copy(), r, meta=meta)


def field_sweep(levels: TrionLevels, params: SystemParams,
                fields: Sequence[float], cfg: ScanConfig) -> list[Spectrum]:
    """Closed-form spectra at each magnetic field.

    At every field the frequency of transition 3 and the excited-state
    splitting are recomputed from the Zeeman level structure; the other
    system parameters are held fixed. All fields are evaluated in one
    broadcast of :func:`cavity_response` over a (fields, points) array,
    bit for bit the per-field :func:`two_transition_spectrum`. Spectra
    carry ``field_T`` metadata and each has its own frequency array.
    """
    fields = list(fields)
    if not fields:
        raise DomainError("need at least one field value")
    if len(fields) * cfg.n_points > _ROW_LIMIT:
        raise DomainError(
            f"{len(fields)} fields of {cfg.n_points} points pass the "
            f"{_ROW_LIMIT}-row limit")
    fields = [float(b) for b in fields]
    nu3, nu4 = [], []
    for b in fields:
        _, _, a, c = transition_frequencies(replace(levels, field=b))
        nu3.append(a)
        nu4.append(c)
    # (F, 1) columns broadcast against the (N,) grid to (F, N)
    nu3 = np.array(nu3)[:, None]
    lines = spin_down_lines({**vars(params), "omega_x": nu3,
                             "delta_h": nu3 - np.array(nu4)[:, None]})
    f = cfg.grid()
    r = cfg.background + cfg.scale * cavity_response(
        f, params.kappa, params.omega_c, lines)
    return [Spectrum(f.copy(), row, meta={"field_T": b})
            for b, row in zip(fields, r)]


def synthesize_noisy(spectrum: Spectrum, noise_rel: float,
                     fringe: FringeModel = NO_FRINGE,
                     seed: int = 0) -> Spectrum:
    """Deterministic synthetic measurement: etalon fringe plus shot noise.

    The signal is first multiplied by the sinusoidal fringe factor, then
    Gaussian noise with standard deviation noise_rel times the local
    (fringed) value is added. Results are floored at zero so the output
    remains a valid reflectivity. Identical seeds give identical output;
    the seed must be a non-negative integer. A fringe, fringed signal or
    noise that overflows (a fringe period near 0, say) raises DomainError
    naming what overflowed, with no numpy warning.
    """
    _require_finite_real("noise_rel", noise_rel, ">= 0")
    _require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = fringe.factor(spectrum.freq_ghz)
        clean = spectrum.reflectivity * factor
        noisy = clean + rng.standard_normal(clean.size) * (noise_rel * clean)
    if not np.all(np.isfinite(factor)):
        raise DomainError(f"fringe period {fringe.period!r} and phase "
                          f"{fringe.phase!r} give a fringe phase that overflows")
    if not np.all(np.isfinite(clean)):
        raise DomainError(f"fringe amplitude {fringe.amplitude!r} makes the "
                          f"signal overflow")
    if not np.all(np.isfinite(noisy)):
        raise DomainError(f"noise_rel={noise_rel!r} makes the noise overflow")
    meta = dict(spectrum.meta)
    meta.update(noise_rel=noise_rel, seed=int(seed),
                fringe_amplitude=fringe.amplitude, fringe_period=fringe.period,
                fringe_phase=fringe.phase)
    return Spectrum(spectrum.freq_ghz.copy(), np.maximum(noisy, 0.0),
                    weight=spectrum.weight.copy(), meta=meta)


def max_relative_difference(a: Spectrum, b: Spectrum) -> float:
    """Largest deviation between two spectra on a common grid.

    The deviation is normalized by the larger spectrum's maximum, a
    scale-relative measure that stays meaningful at the bottom of deep
    dips; it is 0 when both spectra are zero everywhere.
    """
    _require_same_grid(a, b)
    diff = np.abs(a.reflectivity - b.reflectivity)
    scale = max(float(np.max(a.reflectivity)), float(np.max(b.reflectivity)))
    return float(np.max(diff) / scale) if scale > 0 else 0.0
