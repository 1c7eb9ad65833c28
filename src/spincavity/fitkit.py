"""Weighted nonlinear least-squares fitting of reflectivity spectra.

Every model is a parameter-name map onto the one cavity response of
:func:`spectra.cavity_response`,

    R(w) = B + S / | -i (w - omega_c) + kappa/2
                     + sum_i g_i^2 / (-i (w - w_i) + gamma_perp_i) |^2

with gamma_perp_i = gamma_i/2 + gamma_d_i; the three models are its 0-,
1- and 2-line cases:

* ``lorentzian``: bare cavity. Parameters kappa, omega_c, scale,
  background.
* ``single``: one transition coupled to the cavity. Parameters g,
  gamma (the transverse rate gamma_perp itself), delta (dot-cavity
  detuning, so w_1 = omega_c + delta), kappa, omega_c, scale, background.
* ``mixed``: convex mixture of the bare-cavity response (spin up) and
  the two-transition response (spin down), sharing one scale and
  background. Parameters p_up, g3, g4, gamma3, gamma4, gamma_d3,
  gamma_d4, kappa, omega_c, omega_x, delta_h, scale, background.

:func:`problem_from_params` builds every fit problem that starts from a
parameter set: the values of fixed parameters, the seeds of free ones
and the split that leaves g3 to the coupling constraint. The ``fit``
command and :func:`fit_thermal_pup` (stage two of the two-stage
protocol) both go through it, so they fit the same problem.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt) loop with
forward-difference Jacobians and box bounds enforced by projection.
:func:`fit` gives 95% intervals from the linearized covariance, or from
the profile of the residual sum of squares for a parameter on its bound.
Everything is deterministic: identical inputs give identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError
from .physcalc import (TWO_PI, _require_finite_real, _require_int,
                       _require_squarable, cooperativity, is_strongly_coupled)
from .spectra import (Spectrum, cavity_response, lorentzian_response,
                      spin_down_lines)

# 95% two-sided normal quantile and 95% chi-square quantile (1 dof).
Z_95 = 1.959963984540054
CHI2_95_DF1 = 3.841458820694124

MAX_ITERATIONS = 500
GRADIENT_TOL = 1e-10

_NOTHING: Mapping[str, float] = MappingProxyType({})


class ModelKind(str, Enum):
    LORENTZIAN = "lorentzian"
    SINGLE_TRANSITION = "single"
    MIXED_TWO_TRANSITION = "mixed"


def _lorentzian_model(freq, p):
    return p["background"] + p["scale"] * lorentzian_response(
        freq, p["kappa"], p["omega_c"])


def _single_model(freq, p):
    return p["background"] + p["scale"] * cavity_response(
        freq, p["kappa"], p["omega_c"],
        ((p["g"], p["gamma"], p["omega_c"] + p["delta"]),))


def _mixed_model(freq, p):
    # Spin-up leaves the bare cavity; spin-down couples both transitions.
    up = lorentzian_response(freq, p["kappa"], p["omega_c"])
    down = cavity_response(freq, p["kappa"], p["omega_c"], spin_down_lines(p))
    return p["background"] + p["scale"] * (
        p["p_up"] * up + (1.0 - p["p_up"]) * down)


MODEL_FUNCS: dict[ModelKind, Callable] = {
    ModelKind.LORENTZIAN: _lorentzian_model,
    ModelKind.SINGLE_TRANSITION: _single_model,
    ModelKind.MIXED_TWO_TRANSITION: _mixed_model,
}

MODEL_PARAMS: dict[ModelKind, tuple[str, ...]] = {
    ModelKind.LORENTZIAN: ("kappa", "omega_c", "scale", "background"),
    ModelKind.SINGLE_TRANSITION: (
        "g", "gamma", "delta", "kappa", "omega_c", "scale", "background"),
    ModelKind.MIXED_TWO_TRANSITION: (
        "p_up", "g3", "g4", "gamma3", "gamma4", "gamma_d3", "gamma_d4",
        "kappa", "omega_c", "omega_x", "delta_h", "scale", "background"),
}

# Default box bounds; frequencies are unbounded, rates non-negative,
# probabilities live in [0, 1].
_UNBOUNDED = (-np.inf, np.inf)
_NONNEG = (0.0, np.inf)
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "kappa": (1e-6, np.inf),
    "g": _NONNEG, "g3": _NONNEG, "g4": _NONNEG,
    "gamma": (1e-9, np.inf), "gamma3": _NONNEG, "gamma4": _NONNEG,
    "gamma_d3": _NONNEG, "gamma_d4": _NONNEG,
    "p_up": (0.0, 1.0),
    "omega_c": _UNBOUNDED, "omega_x": _UNBOUNDED, "delta": _UNBOUNDED,
    "delta_h": _UNBOUNDED,
    "scale": (1e-12, np.inf), "background": _NONNEG,
}


@dataclass(frozen=True)
class FreeParam:
    """Finite init and required bounds of one free parameter (defaults: free_param)."""

    init: float
    lower: float
    upper: float

    def __post_init__(self):
        _require_finite_real("initial value", self.init)
        if not self.lower <= self.init <= self.upper:
            raise DomainError(
                f"initial value {self.init} outside bounds "
                f"[{self.lower}, {self.upper}]")


def free_param(name: str, init: float,
               lower: float | None = None, upper: float | None = None) -> FreeParam:
    """FreeParam with the model's default bounds filled in."""
    dlo, dhi = DEFAULT_BOUNDS.get(name, _UNBOUNDED)
    return FreeParam(init, dlo if lower is None else lower,
                     dhi if upper is None else upper)


@dataclass(frozen=True)
class FitProblem:
    """A dataset, a model, and a parameter partition.

    Every model parameter must appear in exactly one of ``free``,
    ``fixed``, or be derived by the coupling constraint (g3 from
    g3^2 + g4^2 = g_total^2 when ``g_total`` is set on the mixed model).
    One bounds rule holds for every value: a fixed value must lie inside
    its name's box in DEFAULT_BOUNDS, and so must a free parameter's
    [lower, upper]. ``g_total`` must be positive and its square finite.
    ``center_weight`` = (n, factor) multiplies the weights of the n points
    nearest the data's reflectivity minimum by a finite factor > 1.
    """

    data: Spectrum
    model: ModelKind
    free: dict[str, FreeParam]
    fixed: dict[str, float] = dc_field(default_factory=dict)
    g_total: float | None = None
    center_weight: tuple[int, float] | None = None

    def __post_init__(self):
        model = ModelKind(self.model)
        object.__setattr__(self, "model", model)
        names = set(MODEL_PARAMS[model])
        derived = ()
        if self.g_total is not None:
            if model is not ModelKind.MIXED_TWO_TRANSITION:
                raise DomainError("the coupling constraint applies to the mixed model only")
            _require_finite_real("g_total", self.g_total, "positive")
            _require_squarable("g_total", self.g_total)
            derived = ("g3",)
        for name, value in self.fixed.items():
            _require_finite_real(name, value)
        claimed = [*self.free, *self.fixed, *derived]
        twice = {n for n in claimed if claimed.count(n) > 1}
        if twice:
            raise DomainError(f"parameters assigned twice: {sorted(twice)}")
        missing = names - set(claimed)
        if missing:
            raise DomainError(f"unassigned model parameters: {sorted(missing)}")
        unknown = set(claimed) - names
        if unknown:
            raise DomainError(f"not parameters of model '{model.value}': {sorted(unknown)}")
        for name, value in self.fixed.items():
            lo, hi = DEFAULT_BOUNDS[name]
            if not lo <= value <= hi:
                raise DomainError(
                    f"{name} must lie inside [{lo:g}, {hi:g}], got {value:g}")
        for name, fp in self.free.items():
            lo, hi = DEFAULT_BOUNDS[name]
            if fp.lower < lo or fp.upper > hi:
                raise DomainError(f"{name} bounds must lie inside [{lo:g}, {hi:g}]")
        if self.g_total is not None:
            g4_init = self.free["g4"].init if "g4" in self.free else self.fixed.get("g4")
            if g4_init is not None and g4_init > self.g_total:
                raise DomainError(
                    f"constraint infeasible: g4={g4_init} exceeds g_total={self.g_total}")
        if not self.free:
            raise DomainError("a fit needs at least one free parameter")
        if self.data.n_points < len(self.free) + 2:
            raise DomainError(
                f"{self.data.n_points} points cannot determine {len(self.free)} "
                "free parameters")
        if self.center_weight is not None:
            if len(self.center_weight) != 2:
                raise DomainError(f"center_weight {self.center_weight} is not (n, factor)")
            n, factor = self.center_weight
            _require_int("center_weight n", n, 1)
            _require_finite_real("center_weight factor", factor)
            if factor <= 1.0:
                raise DomainError(f"center_weight factor must be > 1, got {factor}")


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with 95% confidence half-widths.

    ``ci_method`` records whether each half-width came from the
    linearized covariance, from a profile of the residual sum of
    squares (used when the optimum sits on a parameter bound), or from
    neither: ``"none"`` marks the ``inf`` half-widths of a fit whose
    Jacobian is not finite, so that no covariance was formed.
    ``derived`` holds the computable subset of
    {g3, cooperativity, strong_coupling, detuning_sigma4_cavity}.
    """

    params: dict[str, float]
    ci95: dict[str, float]
    residual_rms: float
    n_iterations: int
    converged: bool
    derived: dict = dc_field(default_factory=dict)
    ci_method: dict[str, str] = dc_field(default_factory=dict)


def _constrained_g3(g_total: float, g4: float) -> float:
    return math.sqrt(max(g_total ** 2 - g4 ** 2, 0.0))


def _values(problem: FitProblem, names, theta,
            pinned: Mapping[str, float]) -> dict:
    """Every model value: fixed, then pinned, then free, then constrained g3."""
    p = {**problem.fixed, **pinned}
    p.update(zip(names, theta))
    if problem.g_total is not None:
        p["g3"] = _constrained_g3(problem.g_total, p["g4"])
    return p


def _box(problem: FitProblem, name: str) -> tuple[float, float]:
    """Bounds of a free parameter; the constraint caps g4 at g_total."""
    fp = problem.free[name]
    if name == "g4" and problem.g_total is not None:
        return fp.lower, min(fp.upper, problem.g_total)
    return fp.lower, fp.upper


def effective_weights(problem: FitProblem) -> np.ndarray:
    """Data weights with the center-of-dip boost applied."""
    w = problem.data.weight.copy()
    if problem.center_weight is not None:
        n, factor = problem.center_weight
        dip = int(np.argmin(problem.data.reflectivity))
        order = np.argsort(np.abs(problem.data.freq_ghz -
                                  problem.data.freq_ghz[dip]))
        w[order[:n]] *= factor
    return w


def _on_bounds(theta, lo, hi):
    """(at_lo, at_hi): which of theta lie within 1e-12 max(|theta|, 1) of a
    finite bound; LM's projected gradient and fit's interval choice use it."""
    tol = 1e-12 * np.maximum(np.abs(theta), 1.0)
    return (np.isfinite(lo) & (theta - lo <= tol),
            np.isfinite(hi) & (hi - theta <= tol))


def _levenberg_marquardt(residual_fn, theta0, lo, hi):
    """Damped Gauss-Newton minimization of sum(residual^2) in a box.

    Returns (theta, ssr, n_iterations, converged, jacobian), the Jacobian
    at the returned theta. It converges on a small projected gradient, on
    no descent (damping above 1e13) or on a negligible drop or step. It
    stops unconverged at MAX_ITERATIONS, or at once with a NaN
    Jacobian when the starting SSR is not finite (the residuals overflow).
    """
    theta = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    r = residual_fn(theta)
    with np.errstate(over="ignore"):
        ssr = float(r @ r)
    if not math.isfinite(ssr):
        return theta, ssr, 0, False, np.full((r.size, theta.size), np.nan)
    lam = 1e-3
    jac = _jacobian(residual_fn, theta, r, lo, hi)
    for n_iter in range(1, MAX_ITERATIONS + 1):
        grad = jac.T @ r
        # first-order condition for the box: gradient components that
        # push against an active bound do not count
        at_lo, at_hi = _on_bounds(theta, lo, hi)
        pgrad = np.where((at_lo & (grad > 0)) | (at_hi & (grad < 0)), 0.0, grad)
        # initial=0: with nothing free (a pinned profile) LM is at rest
        if float(np.max(np.abs(pgrad), initial=0.0)) <= GRADIENT_TOL * max(1.0, ssr):
            return theta, ssr, n_iter, True, jac
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1e-12
        while lam <= 1e13:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(theta + step, lo, hi)
            # a step lost to rounding or to the bounds needs no evaluation
            r_new = r if np.array_equal(trial, theta) else residual_fn(trial)
            ssr_new = float(r_new @ r_new)
            if ssr_new < ssr * (1.0 - 1e-15):
                break
            lam *= 5.0
        else:  # no descent direction left within the damping budget
            return theta, ssr, n_iter, True, jac
        rel_drop = (ssr - ssr_new) / max(ssr, 1e-300)
        step_small = float(np.max(np.abs(trial - theta))) <= \
            1e-12 * float(np.max(np.abs(theta)) + 1.0)
        theta, r, ssr = trial, r_new, ssr_new
        lam = max(lam / 3.0, 1e-14)
        jac = _jacobian(residual_fn, theta, r, lo, hi)
        if rel_drop < 1e-14 or step_small:
            return theta, ssr, n_iter, True, jac
    return theta, ssr, MAX_ITERATIONS, False, jac


def _jacobian(residual_fn, theta, r0, lo, hi):
    jac = np.empty((r0.size, theta.size))
    for j in range(theta.size):
        span = hi[j] - lo[j]
        typical = 1e-6 * span if np.isfinite(span) else 1.0
        h = 1e-6 * max(abs(theta[j]), typical, 1e-9)
        tp = theta.copy()
        if theta[j] + h > hi[j]:
            h = -h
        tp[j] = theta[j] + h
        jac[:, j] = (residual_fn(tp) - r0) / h
    return jac


def _solve_problem(problem: FitProblem,
                   pinned: Mapping[str, float] = _NOTHING,
                   warm: Mapping[str, float] = _NOTHING):
    """LM solve of the free parameters not in ``pinned``.

    Each starts from its ``warm`` value, falling back to its initial value.
    """
    model = MODEL_FUNCS[problem.model]
    freq = problem.data.freq_ghz
    y = problem.data.reflectivity
    sw = np.sqrt(effective_weights(problem))
    names = [n for n in problem.free if n not in pinned]

    def residual(theta):
        return sw * (model(freq, _values(problem, names, theta, pinned)) - y)

    lo = np.array([_box(problem, n)[0] for n in names])
    hi = np.array([_box(problem, n)[1] for n in names])
    theta0 = np.array([warm.get(n, problem.free[n].init) for n in names])
    return (names, *_levenberg_marquardt(residual, theta0, lo, hi), lo, hi)


def _weighted_rms(problem: FitProblem, ssr: float) -> float:
    return math.sqrt(ssr / float(np.sum(effective_weights(problem))))


def _dof(problem: FitProblem) -> int:
    return max(problem.data.n_points - len(problem.free), 1)


def fit(problem: FitProblem) -> FitResult:
    """Weighted least-squares fit of the problem's model to its data."""
    names, theta, ssr, n_iter, converged, jac, lo, hi = _solve_problem(problem)
    # With J = Js diag(n), n the column norms, s^2 (J'J)^-1 is
    # diag(1/n) s^2 V diag(w^-2) V' diag(1/n) for the SVD Js = U diag(w) V';
    # unit columns make the undetermined test free of the parameters'
    # units. hypot forms each norm without overflow or underflow. A J
    # that is not finite (the model overflowed) determines nothing and
    # forms no covariance, and the SVD would refuse it.
    sd = np.full(len(names), np.inf)
    formed = bool(np.isfinite(jac).all())
    if formed:
        norms = np.hypot.reduce(jac, axis=0)
        norms[norms == 0.0] = 1.0   # a zero column stays undetermined
        _, w, vt = np.linalg.svd(jac / norms, full_matrices=False)
        determined = w > 1e-7 * w[0]   # cond(Js'Js) <= 1e14
        sd = np.sqrt(ssr / _dof(problem) * np.sum(
            (vt[determined] / w[determined, None]) ** 2, axis=0)) / norms
        sd[np.any(np.abs(vt[~determined]) > 0.5, axis=0)] = np.inf
    ci, method = {}, {}
    params = dict(zip(names, theta.tolist()))
    at_lo, at_hi = _on_bounds(theta, lo, hi)
    for j, name in enumerate(names):
        if (at_lo[j] or at_hi[j]) and np.isfinite(sd[j]):
            bound = profile_bound(problem, name, params, ssr, upper=at_lo[j])
            ci[name] = float(abs(bound - theta[j]))
            method[name] = "profile"
        else:
            ci[name] = float(Z_95 * sd[j])
            method[name] = "covariance" if formed else "none"

    values = _values(problem, names, params.values(), _NOTHING)
    derived = {}
    if problem.g_total is not None:
        params["g3"] = derived["g3"] = values["g3"]
    derived.update(_derived_quantities(values))

    return FitResult(params=params, ci95=ci,
                     residual_rms=_weighted_rms(problem, ssr),
                     n_iterations=n_iter, converged=converged,
                     derived=derived, ci_method=method)


def _derived_quantities(values: Mapping[str, float]) -> dict:
    """Cooperativity, strong coupling and detuning, where their inputs are values.

    The single model's g, kappa and gamma lie inside their bounds, so
    the physcalc functions are the only check of them; they raise
    DomainError for a cooperativity that is not a finite number.
    """
    out = {}
    if "g" in values and "gamma" in values:
        rates = (values["g"], values["kappa"], values["gamma"])
        out["cooperativity"] = cooperativity(*rates)
        out["strong_coupling"] = is_strongly_coupled(*rates)
    if "omega_x" in values:
        _, (_, _, omega4) = spin_down_lines(values)
        out["detuning_sigma4_cavity"] = abs(omega4 - values["omega_c"])
    elif "delta" in values:
        out["detuning_sigma4_cavity"] = abs(values["delta"])
    return out


def _pinned_ssr(problem: FitProblem, param_name: str,
                start: Mapping[str, float]) -> Callable[[float], float]:
    """SSR versus one pinned parameter, re-optimizing all other free ones.

    Each solve starts from the previous optimum; the first starts from
    ``start``, falling back to the free parameters' initial values.
    """
    if param_name not in problem.free:
        raise DomainError(f"'{param_name}' is not a free parameter")
    warm = dict(start)

    def ssr_at(value):
        names, theta, ssr = _solve_problem(
            problem, {param_name: float(value)}, warm)[:3]
        warm.update(zip(names, theta))
        return ssr

    return ssr_at


def profile_bound(problem: FitProblem, param_name: str,
                  best_params: Mapping[str, float], ssr_min: float,
                  upper: bool = True) -> float:
    """95% profile confidence limit from the SSR threshold crossing.

    The threshold is ssr_min * (1 + chi2_95 / dof), the least-squares
    analogue of a single-parameter likelihood-ratio interval with the
    noise variance estimated from the fit itself.
    """
    profile_ssr = _pinned_ssr(problem, param_name, best_params)
    threshold = ssr_min * (1.0 + CHI2_95_DF1 / _dof(problem))
    lo, hi = _box(problem, param_name)
    limit = hi if upper else lo

    x0 = float(best_params[param_name])
    span = hi - lo
    step = 1e-3 * span if np.isfinite(span) else max(0.05 * abs(x0), 1e-3)
    sign = 1.0 if upper else -1.0
    # walk outward with doubling steps until the threshold is crossed,
    # then bisect between the last point inside (near) and outside (far)
    near = x0
    for _ in range(80):
        far = near + sign * step
        if sign * far >= sign * limit:
            far = limit
        if profile_ssr(far) >= threshold:
            break
        near = far
        if near == limit:
            return limit
        step *= 2.0
    else:
        return limit
    for _ in range(48):
        mid = 0.5 * (near + far)
        if profile_ssr(mid) >= threshold:
            far = mid
        else:
            near = mid
        if abs(far - near) < max(1e-7, 1e-9 * abs(x0)):
            break
    return 0.5 * (near + far)


def problem_from_params(data: Spectrum, model, params, free_names,
                        fixed: Mapping[str, float] = _NOTHING,
                        init: Mapping[str, float] = _NOTHING,
                        g_total: float | None = None,
                        center_weight: tuple[int, float] | None = None
                        ) -> FitProblem:
    """The fit problem of ``model`` on ``data``, valued from ``params``.

    A parameter not in ``fixed`` takes its value from ``params`` (a
    SystemParams), with scale 1, background 0, p_up 0 and the single
    transition's g = sqrt(g3^2 + g4^2) and transition-4 gamma and delta.
    Free ones start from ``init``, else from the model's seed heuristic,
    else from that value. DomainError refuses names foreign to the model,
    ``init`` names not free, ``fixed`` names free or derived, and, by
    FitProblem's bounds rule, values outside their default boxes.
    """
    model = ModelKind(model)
    names = MODEL_PARAMS[model]
    unknown = {*free_names, *fixed, *init} - set(names)
    if unknown:
        raise DomainError(
            f"not parameters of model '{model.value}': {sorted(unknown)}")
    not_free = set(init) - set(free_names)
    if not_free:
        raise DomainError(
            f"initial values for parameters that are not free: {sorted(not_free)}")
    g = float(np.hypot(params.g3, params.g4))
    _, (_, gamma_perp4, omega4) = spin_down_lines(vars(params))
    values = {**vars(params), "scale": 1.0, "background": 0.0, "p_up": 0.0,
              "g": g, "gamma": gamma_perp4, "delta": omega4 - params.omega_c,
              **fixed}
    if model is ModelKind.LORENTZIAN:
        seeds = seed_lorentzian(data)
    elif model is ModelKind.SINGLE_TRANSITION:
        seeds = seed_single_transition(data, params.kappa)
    else:
        seeds = seed_mixed(data, params.kappa, params.delta_h,
                           max(g, 1e-3) if g_total is None else g_total)
    # FitProblem refuses a fixed name that is also free or derived
    derived = () if g_total is None else ("g3",)
    return FitProblem(
        data=data, model=model,
        free={n: free_param(n, float(init.get(n, seeds.get(n, values[n]))))
              for n in free_names},
        fixed={n: values[n] for n in names
               if n in fixed or n not in {*free_names, *derived}},
        g_total=g_total, center_weight=center_weight)


def fit_thermal_pup(data: Spectrum, fixed_params) -> FitResult:
    """Occupation-only fit with all quantum parameters pinned.

    Stage two of the two-stage protocol: couplings, linewidths and
    frequencies come from ``fixed_params`` (a SystemParams) and only the
    spin-up probability plus the scale and background nuisances float.
    """
    return fit(problem_from_params(
        data, ModelKind.MIXED_TWO_TRANSITION, fixed_params,
        ("p_up", "scale", "background")))


# ---------------------------------------------------------------------------
# Initial-guess heuristics


def _scale_seed(scale: float) -> float:
    """``scale`` held between the scale floor and the largest finite float."""
    return min(max(scale, DEFAULT_BOUNDS["scale"][0]), np.finfo(float).max)


def _half_width_squared(name: str, width: float) -> float:
    """(2 pi width / 2)^2, the squared angular half-width of a FWHM ``width``."""
    half = TWO_PI * width / 2.0
    _require_squarable(f"pi * {name}", half)
    return half ** 2


def seed_scale_background(data: Spectrum, kappa_guess: float) -> dict:
    """Scale and background seeds from the data extremes."""
    background = 0.8 * float(np.min(data.reflectivity))
    peak = float(np.max(data.reflectivity))
    scale = (peak - background) * _half_width_squared("kappa", kappa_guess) * 0.7
    return {"scale": _scale_seed(scale), "background": background}


def seed_lorentzian(data: Spectrum) -> dict:
    """Peak-position and half-width heuristics for the bare-cavity fit."""
    y = data.reflectivity
    f = data.freq_ghz
    ipk = int(np.argmax(y))
    background = float(np.min(y))
    half = background + 0.5 * (y[ipk] - background)
    above = np.where(y >= half)[0]
    width = float(f[above[-1]] - f[above[0]]) if above.size >= 2 else \
        float(f[-1] - f[0]) / 4.0
    width = max(width, float(f[1] - f[0]))
    return {"kappa": width, "omega_c": float(f[ipk]),
            "scale": _scale_seed((y[ipk] - background) *
                                 _half_width_squared("peak width", width)),
            "background": background}


def _local_maxima(y: np.ndarray) -> np.ndarray:
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def seed_single_transition(data: Spectrum, kappa: float) -> dict:
    """Dip and polariton-peak heuristics for the single-transition fit."""
    y = data.reflectivity
    f = data.freq_ghz
    peaks = _local_maxima(y)
    if peaks.size >= 2:
        two = peaks[np.argsort(y[peaks])[-2:]]
        lo_i, hi_i = int(min(two)), int(max(two))
        sep = float(abs(f[hi_i] - f[lo_i]))
        center = 0.5 * (f[hi_i] + f[lo_i])
        dip = lo_i + int(np.argmin(y[lo_i:hi_i + 1]))
        delta0 = float(f[dip] - center)
    else:
        center = float(f[int(np.argmax(y))])
        sep = float(f[-1] - f[0]) / 4.0
        delta0 = 0.0
    out = {"g": max(sep / 2.0, 1e-3), "gamma": 1.5, "delta": delta0,
           "omega_c": center}
    out.update(seed_scale_background(data, kappa))
    return out


def seed_mixed(data: Spectrum, kappa: float, delta_h: float,
               g_total: float) -> dict:
    """Heuristics for the mixed two-transition fit.

    The deepest dip is read as transition 4, so the transition-3
    frequency seed sits delta_h above it. The coupling seed starts at
    the dominant-transition end of the constraint (g4 close to the
    total): descending into the interior from there is robust, whereas
    seeds with a too-strong transition 3 tend to stall on the
    g4 = g_total boundary.
    """
    y = data.reflectivity
    f = data.freq_ghz
    dip = int(np.argmin(y))
    out = {"p_up": 0.2, "g4": 0.95 * g_total, "gamma_d3": 1.0, "gamma_d4": 1.0,
           "omega_x": float(f[dip]) + delta_h}
    out.update(seed_scale_background(data, kappa))
    return out
