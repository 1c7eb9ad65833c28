import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spincavity import (DomainError, FitProblem, FringeModel, ModelKind,
                        ScanConfig, Spectrum, SystemParams, dit_spectrum, fit,
                        fit_thermal_pup, free_param, lorentzian_spectrum,
                        mixed_spectrum, profile_bound, synthesize_noisy,
                        two_transition_spectrum)
from spincavity.fitkit import (MODEL_FUNCS, _pinned_ssr, _weighted_rms,
                               effective_weights, seed_lorentzian, seed_mixed,
                               seed_single_transition)
from spincavity.spectra import lorentzian_response, two_transition_response
from conftest import (DELTA_H, G4, G_TOTAL, GAMMA_D3, GAMMA_D4,
                      GAMMA_PERP_0T, KAPPA)

SCALE = (np.pi * KAPPA) ** 2   # bare peak close to 1
BACKGROUND = 0.05


def lorentzian_data(noise=0.0, fringe=FringeModel(0.0, 1.0), seed=0,
                    kappa=KAPPA):
    cfg = ScanConfig(-100, 100, 201, scale=SCALE, background=BACKGROUND)
    clean = lorentzian_spectrum(kappa, 0.0, cfg)
    return synthesize_noisy(clean, noise, fringe, seed=seed)


def single_data(noise=0.0, seed=0, fringe=FringeModel(0.0, 1.0), delta=0.0):
    cfg = ScanConfig(-80, 80, 241, scale=SCALE, background=BACKGROUND)
    clean = dit_spectrum(G_TOTAL, KAPPA, GAMMA_PERP_0T, delta, 0.0, cfg)
    return synthesize_noisy(clean, noise, fringe, seed=seed)


def mixed_params(p_up):
    del p_up  # occupancy handled by the mixture, kept for clarity
    return SystemParams(kappa=KAPPA, g3=np.sqrt(G_TOTAL**2 - G4**2), g4=G4,
                        gamma_d3=GAMMA_D3, gamma_d4=GAMMA_D4,
                        omega_c=0.0, omega_x=DELTA_H, delta_h=DELTA_H)


def mixed_data(p_up, noise=0.0, seed=0):
    cfg = ScanConfig(-60, 60, 301, scale=SCALE, background=BACKGROUND)
    params = mixed_params(p_up)
    up = lorentzian_spectrum(KAPPA, 0.0, cfg)
    down = two_transition_spectrum(params, cfg)
    clean = mixed_spectrum(p_up, up, down)
    return synthesize_noisy(clean, noise, FringeModel(0.0, 1.0), seed=seed)


def lorentzian_problem(data, center_weight=None):
    seeds = seed_lorentzian(data)
    return FitProblem(
        data=data, model=ModelKind.LORENTZIAN,
        free={k: free_param(k, v) for k, v in seeds.items()},
        center_weight=center_weight)


def single_problem(data):
    seeds = seed_single_transition(data, KAPPA)
    free = {k: free_param(k, seeds[k])
            for k in ("g", "gamma", "delta", "scale", "background")}
    return FitProblem(data=data, model=ModelKind.SINGLE_TRANSITION,
                      free=free, fixed={"kappa": KAPPA, "omega_c": 0.0})


def mixed_problem(data, center_weight=(3, 10.0)):
    seeds = seed_mixed(data, KAPPA, DELTA_H, G_TOTAL)
    # dephasing beyond the cavity linewidth is spectroscopically
    # unresolvable here, so bound it by kappa
    free = {"p_up": free_param("p_up", seeds["p_up"]),
            "g4": free_param("g4", seeds["g4"]),
            "gamma_d3": free_param("gamma_d3", seeds["gamma_d3"], upper=KAPPA),
            "gamma_d4": free_param("gamma_d4", seeds["gamma_d4"], upper=KAPPA),
            "omega_x": free_param("omega_x", seeds["omega_x"],
                                  lower=float(data.freq_ghz[0]),
                                  upper=float(data.freq_ghz[-1])),
            "scale": free_param("scale", seeds["scale"]),
            "background": free_param("background", seeds["background"])}
    fixed = {"kappa": KAPPA, "omega_c": 0.0, "delta_h": DELTA_H,
             "gamma3": 0.1, "gamma4": 0.1}
    return FitProblem(data=data, model=ModelKind.MIXED_TWO_TRANSITION,
                      free=free, fixed=fixed, g_total=G_TOTAL,
                      center_weight=center_weight)


class TestSeeds:
    def test_single_transition_seed_with_one_peak(self):
        # no polariton pair to read: the seed sits on the one peak, with
        # no detuning and a splitting of a quarter of the scan
        seeds = seed_single_transition(lorentzian_data(), KAPPA)
        assert (seeds["omega_c"], seeds["delta"], seeds["g"]) == (0.0, 0.0, 25.0)


class TestProblemValidation:
    def test_every_parameter_assigned_once(self):
        data = lorentzian_data()
        with pytest.raises(DomainError):
            FitProblem(data=data, model=ModelKind.LORENTZIAN,
                       free={"kappa": free_param("kappa", 30.0)})
        with pytest.raises(DomainError):
            FitProblem(data=data, model=ModelKind.LORENTZIAN,
                       free={"kappa": free_param("kappa", 30.0)},
                       fixed={"kappa": 30.0, "omega_c": 0, "scale": 1,
                              "background": 0})
        with pytest.raises(DomainError):
            FitProblem(data=data, model=ModelKind.LORENTZIAN,
                       free={"kappa": free_param("kappa", 30.0),
                             "bogus": free_param("scale", 1.0)},
                       fixed={"omega_c": 0, "scale": 1, "background": 0})

    def test_init_inside_bounds(self):
        with pytest.raises(DomainError):
            free_param("p_up", 1.5)

    @pytest.mark.parametrize("init", [np.inf, -np.inf, np.nan])
    def test_init_must_be_finite(self, init):
        with pytest.raises(DomainError, match="initial value"):
            free_param("omega_c", init)

    def test_constraint_needs_the_mixed_model(self):
        problem = lorentzian_problem(lorentzian_data())
        with pytest.raises(DomainError, match="mixed model only"):
            replace(problem, g_total=G_TOTAL)

    @pytest.mark.parametrize("lower, upper", [(-0.1, 1.0), (0.0, 1.1)])
    def test_p_up_bounds_inside_the_unit_interval(self, lower, upper):
        problem = mixed_problem(mixed_data(0.0))
        free = {**problem.free, "p_up": free_param("p_up", 0.2, lower, upper)}
        with pytest.raises(DomainError, match=r"p_up bounds must lie inside \[0, 1\]"):
            replace(problem, free=free)

    def test_free_bounds_inside_the_default_box(self):
        # kappa's default box starts at 1e-6, not at 0
        problem = lorentzian_problem(lorentzian_data())
        free = {**problem.free, "kappa": free_param("kappa", 30.0, lower=0.0)}
        with pytest.raises(DomainError,
                           match=r"^kappa bounds must lie inside \[1e-06, inf\]$"):
            replace(problem, free=free)

    @pytest.mark.parametrize("name, value, bounds", [
        ("gamma3", -0.1, r"\[0, inf\]"), ("kappa", 0.0, r"\[1e-06, inf\]")],
        ids=["gamma3", "kappa"])
    def test_fixed_values_inside_the_default_box(self, name, value, bounds):
        problem = mixed_problem(mixed_data(0.0))
        with pytest.raises(DomainError,
                           match=rf"^{name} must lie inside {bounds}, got {value:g}$"):
            replace(problem, fixed={**problem.fixed, name: value})

    def test_infeasible_constraint(self):
        data = mixed_data(0.0)
        problem = mixed_problem(data)
        bad_free = dict(problem.free)
        bad_free["g4"] = free_param("g4", G_TOTAL + 1.0)
        with pytest.raises(DomainError):
            FitProblem(data=data, model=problem.model, free=bad_free,
                       fixed=problem.fixed, g_total=G_TOTAL)

    @pytest.mark.parametrize("g_total", [0.0, np.inf, np.nan])
    def test_constraint_must_be_positive_and_finite(self, g_total):
        problem = mixed_problem(mixed_data(0.0))
        with pytest.raises(DomainError, match="g_total"):
            replace(problem, g_total=g_total)

    @pytest.mark.parametrize("value", [np.nan, np.inf, "31.79"])
    def test_fixed_values_must_be_finite_numbers(self, value):
        problem = mixed_problem(mixed_data(0.0))
        with pytest.raises(DomainError, match="kappa"):
            replace(problem, fixed={**problem.fixed, "kappa": value})

    def test_needs_a_free_parameter(self):
        problem = mixed_problem(mixed_data(0.0))
        fixed = {**problem.fixed, "g3": 7.26,
                 **{n: fp.init for n, fp in problem.free.items()}}
        with pytest.raises(DomainError, match="free parameter"):
            FitProblem(data=problem.data, model=problem.model, free={},
                       fixed=fixed)

    @pytest.mark.parametrize("center_weight", [
        (3.5, 10.0), (True, 10.0), (0, 10.0), (3, np.nan), (3, np.inf),
        (3, "10"), (3, 1.0), (3,), (3, 10.0, 1)])
    def test_center_weight_needs_an_integer_count_and_finite_factor(
            self, center_weight):
        problem = lorentzian_problem(lorentzian_data())
        with pytest.raises(DomainError, match="center_weight"):
            replace(problem, center_weight=center_weight)

    def test_needs_enough_points(self):
        tiny = Spectrum([0, 1, 2], [1.0, 2.0, 1.0])
        with pytest.raises(DomainError):
            FitProblem(data=tiny, model=ModelKind.LORENTZIAN,
                       free={k: free_param(k, 1.0)
                             for k in ("kappa", "omega_c", "scale", "background")})


class TestModels:
    def test_mixed_model_with_uncoupled_zero_width_line(self):
        # transition 3 fully switched off: g3 = gamma3 = gamma_d3 = 0
        params = SystemParams(kappa=KAPPA, g3=0.0, g4=G4, gamma_d3=0.0,
                              gamma_d4=GAMMA_D4, omega_c=0.0, omega_x=DELTA_H,
                              delta_h=DELTA_H, gamma3=0.0)
        freq = np.array([-20.0, 0.0, DELTA_H, 30.0])
        p = dict(vars(params), p_up=0.3, scale=SCALE, background=BACKGROUND)
        r = MODEL_FUNCS[ModelKind.MIXED_TWO_TRANSITION](freq, p)
        assert np.all(np.isfinite(r))
        expected = BACKGROUND + SCALE * (
            0.3 * lorentzian_response(freq, KAPPA, 0.0)
            + 0.7 * two_transition_response(freq, params))
        np.testing.assert_allclose(r, expected, rtol=1e-14)


class TestNoiselessRoundTrips:
    def test_lorentzian_exact(self):
        result = fit(lorentzian_problem(lorentzian_data()))
        assert result.converged
        assert result.params["kappa"] == pytest.approx(KAPPA, rel=1e-6)
        assert result.params["omega_c"] == pytest.approx(0.0, abs=1e-6)
        assert result.residual_rms < 1e-8

    def test_single_transition_exact(self):
        result = fit(single_problem(single_data()))
        assert result.converged
        # identifiability contract is 1e-4 relative; actual recovery is
        # far tighter on noiseless data
        assert result.params["g"] == pytest.approx(G_TOTAL, rel=1e-6)
        assert result.params["gamma"] == pytest.approx(GAMMA_PERP_0T, rel=1e-6)
        assert result.params["delta"] == pytest.approx(0.0, abs=1e-6)
        assert result.params["scale"] == pytest.approx(SCALE, rel=1e-6)
        assert result.params["background"] == pytest.approx(BACKGROUND, rel=1e-6)

    def test_mixed_exact(self):
        result = fit(mixed_problem(mixed_data(0.3)))
        assert result.converged
        assert result.params["p_up"] == pytest.approx(0.3, abs=1e-6)
        assert result.params["g4"] == pytest.approx(G4, rel=1e-6)
        assert result.params["gamma_d3"] == pytest.approx(GAMMA_D3, rel=1e-6)
        assert result.params["gamma_d4"] == pytest.approx(GAMMA_D4, rel=1e-6)
        assert result.params["omega_x"] == pytest.approx(DELTA_H, abs=1e-6)

    def test_constraint_consistency(self):
        result = fit(mixed_problem(mixed_data(0.1)))
        g3, g4 = result.params["g3"], result.params["g4"]
        assert g3**2 + g4**2 == pytest.approx(G_TOTAL**2, abs=1e-10)


class TestNoisyRecovery:
    def test_single_transition_quoted_intervals(self):
        hits = 0
        for seed in range(10):
            result = fit(single_problem(single_data(noise=0.01, seed=seed)))
            if abs(result.params["g"] - G_TOTAL) <= 0.35 and \
               abs(result.params["gamma"] - GAMMA_PERP_0T) <= 0.70:
                hits += 1
        assert hits >= 9

    def test_single_transition_with_fringe(self):
        fr = FringeModel(0.02, 60.0, 0.7)
        hits = 0
        for seed in range(10):
            result = fit(single_problem(single_data(noise=0.01, seed=seed,
                                                    fringe=fr)))
            if abs(result.params["g"] - G_TOTAL) <= 0.35 and \
               abs(result.params["gamma"] - GAMMA_PERP_0T) <= 0.70:
                hits += 1
        assert hits >= 8

    def test_ci_grows_with_noise(self):
        medians = []
        for noise in (0.005, 0.01, 0.02):
            widths = []
            for seed in range(30):
                result = fit(lorentzian_problem(
                    lorentzian_data(noise=noise, seed=1000 + seed)))
                widths.append(result.ci95["kappa"])
            medians.append(float(np.median(widths)))
        assert medians[0] < medians[1] < medians[2]

    def test_determinism(self):
        data = lorentzian_data(noise=0.01, seed=5)
        a = fit(lorentzian_problem(data))
        b = fit(lorentzian_problem(data))
        assert a.params == b.params
        assert a.ci95 == b.ci95
        assert a.n_iterations == b.n_iterations


class TestCenterWeighting:
    def test_weighted_fit_tracks_the_dip(self):
        # a fringe-distorted shoulder pulls the plain fit away from the
        # dip; boosting the three central points restores it
        cfg = ScanConfig(-80, 80, 241, scale=SCALE, background=BACKGROUND)
        clean = dit_spectrum(G_TOTAL, KAPPA, GAMMA_PERP_0T, 0.0, 0.0, cfg)
        data = synthesize_noisy(clean, 0.01, FringeModel(0.05, 90.0, 0.9),
                                seed=21)
        dip = int(np.argmin(data.reflectivity))
        window = slice(max(dip - 1, 0), dip + 2)

        def dip_residual(result):
            from spincavity.fitkit import MODEL_FUNCS
            values = {"kappa": KAPPA, "omega_c": 0.0}
            values.update(result.params)
            model = MODEL_FUNCS[ModelKind.SINGLE_TRANSITION](
                data.freq_ghz, values)
            return float(np.sum((model[window] - data.reflectivity[window]) ** 2))

        plain = fit(single_problem(data))
        problem = single_problem(data)
        weighted = fit(replace(problem, center_weight=(3, 10.0)))
        assert dip_residual(weighted) < dip_residual(plain)


class TestConfidenceBounds:
    def test_profile_at_boundary_optimum(self):
        data = mixed_data(0.0, noise=0.01, seed=4)
        problem = mixed_problem(data)
        result = fit(problem)
        assert result.params["p_up"] <= 1e-3
        assert result.ci_method["p_up"] == "profile"
        assert result.params["p_up"] + result.ci95["p_up"] <= 0.03

    def test_interior_uses_covariance(self):
        result = fit(lorentzian_problem(lorentzian_data(noise=0.01, seed=9)))
        assert all(m == "covariance" for m in result.ci_method.values())

    def test_unbounded_ci_for_unidentifiable_parameter(self):
        # with g4 fixed at zero the transition-4 dephasing has no effect,
        # so J'J is singular; at 1e-4 it is near-singular (w_min/w_max 3e-9)
        data = mixed_data(0.0, noise=0.0)
        free = {"gamma_d4": free_param("gamma_d4", 1.0),
                "scale": free_param("scale", SCALE),
                "background": free_param("background", BACKGROUND)}
        for g4 in (0.0, 1e-4):
            fixed = {"p_up": 0.0, "g3": 7.26, "g4": g4, "gamma3": 0.1,
                     "gamma4": 0.1, "gamma_d3": GAMMA_D3, "kappa": KAPPA,
                     "omega_c": 0.0, "omega_x": DELTA_H, "delta_h": DELTA_H}
            result = fit(FitProblem(
                data=data, model=ModelKind.MIXED_TWO_TRANSITION,
                free=free, fixed=fixed))
            assert not np.isfinite(result.ci95["gamma_d4"])
            # the undetermined direction does not blank the determined ones
            assert np.isfinite(result.ci95["scale"])
            assert np.isfinite(result.ci95["background"])

    def test_only_the_swapped_basin_pair_is_unbounded(self):
        # this fit settles with transitions 3 and 4 swapped: g4 on its
        # zero bound leaves g4 and gamma_d4 without effect, so J'J is
        # singular, while the other five stay determined
        result = fit(mixed_problem(mixed_data(0.3, noise=0.01, seed=2)))
        assert result.params["g4"] < 1e-6
        unbounded = {n for n, w in result.ci95.items() if not np.isfinite(w)}
        assert unbounded == {"g4", "gamma_d4"}

    def test_overflowing_model_gives_unbounded_intervals(self):
        # residuals near 1e307 overflow the finite-difference Jacobian
        data = lorentzian_data(noise=0.01, seed=1)
        huge = Spectrum(data.freq_ghz, data.reflectivity * 1e307)
        with np.errstate(all="ignore"):
            result = fit(lorentzian_problem(huge))
        assert not any(np.isfinite(w) for w in result.ci95.values())

    def test_overflowing_ssr_is_not_converged(self):
        # residuals near 1e250 are finite, their sum of squares is not:
        # LM has nothing to descend on, and nothing is determined
        spec = lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 41))
        huge = Spectrum(spec.freq_ghz, spec.reflectivity * 1e250)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(lorentzian_problem(huge))
        assert result.converged is False
        assert all(w == np.inf for w in result.ci95.values())
        assert not any(np.isnan(w) for w in result.ci95.values())
        assert result.residual_rms == np.inf
        # the Jacobian is not finite, so no covariance was formed
        assert result.ci_method == dict.fromkeys(
            ("kappa", "omega_c", "scale", "background"), "none")

    def test_undetermined_directions_do_not_depend_on_units(self):
        # scaling the data by 1e100 scales the scale and background
        # columns of J by 1e100 but leaves what the data determine alone
        data = lorentzian_data(noise=0.01, seed=1)
        plain = fit(lorentzian_problem(data))
        huge = fit(lorentzian_problem(
            Spectrum(data.freq_ghz, data.reflectivity * 1e100)))
        assert np.isfinite(huge.ci95["scale"])
        assert np.isfinite(huge.ci95["background"])
        for name in ("kappa", "omega_c"):
            assert huge.ci95[name] == pytest.approx(plain.ci95[name], rel=1e-8)

    @pytest.mark.parametrize("name", ["kappa", "omega_c"])
    @pytest.mark.parametrize("upper", [False, True])
    def test_profile_bound_matches_covariance_at_interior_optimum(self, name,
                                                                 upper):
        # the first run of the downward search; near a quadratic optimum
        # the profile limit sits one covariance half-width from the fit
        problem = lorentzian_problem(lorentzian_data(noise=0.01, seed=9))
        result = fit(problem)
        ssr = result.residual_rms ** 2 * float(np.sum(problem.data.weight))
        bound = profile_bound(problem, name, result.params, ssr, upper=upper)
        offset = bound - result.params[name]
        assert (offset > 0) == upper
        assert abs(offset) == pytest.approx(result.ci95[name], rel=0.01)

    def test_profile_bound_respects_the_coupling_constraint(self):
        # g4 just below the total: the upward profile of g4 must stop at
        # g_total, where the constraint leaves g3 = 0
        g4 = 18.66
        params = replace(mixed_params(0.0), g4=g4,
                         g3=float(np.sqrt(G_TOTAL**2 - g4**2)))
        cfg = ScanConfig(-60, 60, 301, scale=SCALE, background=BACKGROUND)
        clean = two_transition_spectrum(params, cfg)
        problem = mixed_problem(synthesize_noisy(clean, 0.1, seed=1))
        result = fit(problem)
        ssr = result.residual_rms ** 2 * float(np.sum(effective_weights(problem)))
        bound = profile_bound(problem, "g4", result.params, ssr, upper=True)
        assert result.params["g4"] <= bound <= G_TOTAL


class TestEvaluationCount:
    def test_converged_fit_never_repeats_a_parameter_vector(self, monkeypatch):
        seen = []
        base = MODEL_FUNCS[ModelKind.LORENTZIAN]

        def recording(freq, p):
            seen.append(tuple(sorted(p.items())))
            return base(freq, p)

        monkeypatch.setitem(MODEL_FUNCS, ModelKind.LORENTZIAN, recording)
        result = fit(lorentzian_problem(lorentzian_data(noise=0.01, seed=9)))
        assert result.converged
        assert all(m == "covariance" for m in result.ci_method.values())
        assert len(seen) == len(set(seen))


class TestGoodnessProfile:
    """The pinned-SSR profile that ``profile_bound`` searches."""

    @staticmethod
    def rms_profile(problem, name, grid):
        ssr_at = _pinned_ssr(problem, name, {})
        return [_weighted_rms(problem, ssr_at(value)) for value in grid]

    def test_minimum_at_truth_noiseless(self):
        problem = lorentzian_problem(lorentzian_data())
        grid = np.linspace(KAPPA - 4, KAPPA + 4, 9)
        rms = self.rms_profile(problem, "kappa", grid)
        assert grid[int(np.argmin(rms))] == pytest.approx(KAPPA, abs=0.5)

    def test_monotone_away_from_boundary_truth(self):
        problem = mixed_problem(mixed_data(0.0, noise=0.01, seed=13))
        rms = self.rms_profile(problem, "p_up", np.linspace(0.0, 0.05, 6))
        assert all(a <= b + 1e-12 for a, b in zip(rms, rms[1:]))

    def test_locally_quadratic_near_interior_optimum(self):
        problem = lorentzian_problem(lorentzian_data())
        h = 0.05
        ssr = [r**2 for r in self.rms_profile(problem, "kappa",
                                              [KAPPA - h, KAPPA, KAPPA + h])]
        assert ssr[0] == pytest.approx(ssr[2], rel=0.05)
        assert ssr[1] < ssr[0]

    def test_one_free_parameter_profile_pins_everything(self):
        # the profile re-optimizes nothing: LM gets an empty vector
        data = lorentzian_data()
        problem = FitProblem(data=data, model=ModelKind.LORENTZIAN,
                             free={"kappa": free_param("kappa", 30.0)},
                             fixed={"omega_c": 0.0, "scale": SCALE,
                                    "background": BACKGROUND})
        rms = self.rms_profile(problem, "kappa", [KAPPA - 1, KAPPA, KAPPA + 1])
        assert rms[1] < 1e-12 < min(rms[0], rms[2])

    def test_requires_free_parameter(self):
        problem = lorentzian_problem(lorentzian_data())
        with pytest.raises(DomainError, match="'nope' is not a free parameter"):
            profile_bound(problem, "nope", {}, 1.0)

    @pytest.mark.parametrize("ssr_min, message", [
        (math.nan, r"^ssr_min must be a finite number, got nan$"),
        (math.inf, r"^ssr_min must be a finite number, got inf$"),
        (-1.0, r"^ssr_min must be >= 0, got -1\.0$"),
        ("1.0", r"^ssr_min must be a finite number, got '1\.0'$")],
        ids=["nan", "inf", "negative", "string"])
    def test_ssr_min_must_be_finite_and_not_negative(self, ssr_min, message):
        # no SSR reaches a NaN or infinite threshold, and a negative one
        # sits below the best fit: each returned a limit that meant nothing
        problem = lorentzian_problem(lorentzian_data())
        with pytest.raises(DomainError, match=message):
            profile_bound(problem, "kappa", fit(problem).params, ssr_min)


class TestThermalStage:
    def test_recovers_thermal_occupation(self):
        params = mixed_params(0.52)
        hits = 0
        for seed in range(10):
            data = mixed_data(0.52, noise=0.01, seed=300 + seed)
            result = fit_thermal_pup(data, params)
            if abs(result.params["p_up"] - 0.52) <= 0.04:
                hits += 1
        assert hits >= 9

    def test_pure_limits_noiseless(self):
        params = mixed_params(0.0)
        res0 = fit_thermal_pup(mixed_data(0.0), params)
        assert res0.params["p_up"] == pytest.approx(0.0, abs=1e-6)
        res1 = fit_thermal_pup(mixed_data(1.0), params)
        assert res1.params["p_up"] == pytest.approx(1.0, abs=1e-6)
        assert res1.residual_rms < 1e-8


class TestDeriveReport:
    """The ``derived`` field of a fit result."""

    def test_reference_values(self):
        problem = mixed_problem(mixed_data(0.0))
        result = fit(problem)
        assert result.derived["g3"] == pytest.approx(7.26, abs=0.01)
        assert result.derived["g3"] == result.params["g3"]
        assert result.derived["detuning_sigma4_cavity"] == pytest.approx(
            0.0, abs=1e-6)
        values = {**problem.fixed, **result.params}
        assert result.derived["detuning_sigma4_cavity"] == abs(
            values["omega_x"] - values["delta_h"] - values["omega_c"])
        # the mixed model has no single coupling and width to form it from
        assert "cooperativity" not in result.derived

    def test_cooperativity_only(self):
        result = fit(single_problem(single_data()))
        assert result.derived["cooperativity"] == pytest.approx(12.32, abs=0.05)
        assert result.derived["strong_coupling"] is True
        assert "g3" not in result.derived

    def test_missing_inputs(self):
        # the bare cavity has the inputs of no derived quantity
        assert fit(lorentzian_problem(lorentzian_data())).derived == {}

    def test_infeasible_constraint(self):
        problem = mixed_problem(mixed_data(0.0))
        free = {n: fp for n, fp in problem.free.items() if n != "g4"}
        with pytest.raises(DomainError, match="constraint infeasible"):
            replace(problem, free=free,
                    fixed={**problem.fixed, "g4": G_TOTAL + 1.0})

    def test_single_transition_detuning(self):
        result = fit(single_problem(single_data(delta=-2.5)))
        assert result.params["delta"] == pytest.approx(-2.5, abs=1e-6)
        assert result.derived["detuning_sigma4_cavity"] == abs(
            result.params["delta"])

    def test_nonpositive_rate_rejected(self):
        problem = single_problem(single_data())
        free = {n: fp for n, fp in problem.free.items() if n != "gamma"}
        with pytest.raises(DomainError,
                           match=r"^gamma must lie inside \[1e-09, inf\], got 0$"):
            replace(problem, free=free, fixed={**problem.fixed, "gamma": 0.0})

    @pytest.mark.parametrize("name, message", [
        ("g", r"^g must lie inside \[0, inf\], got -1$"),
        ("g_total", r"^g_total must be positive, got -1\.0$"),
    ], ids=["g", "g_total"])
    def test_negative_coupling_rejected(self, name, message):
        if name == "g":
            problem = single_problem(single_data())
            free = {n: fp for n, fp in problem.free.items() if n != "g"}
            change = {"free": free, "fixed": {**problem.fixed, "g": -1.0}}
        else:
            problem = mixed_problem(mixed_data(0.0))
            change = {"g_total": -1.0}
        with pytest.raises(DomainError, match=message):
            replace(problem, **change)

    def test_fit_result_carries_derived(self):
        result = fit(single_problem(single_data()))
        assert result.derived["cooperativity"] == pytest.approx(12.32, abs=0.2)
        assert result.derived["strong_coupling"] is True

    def test_mixed_fit_reports_detuning(self):
        result = fit(mixed_problem(mixed_data(0.1)))
        assert result.derived["detuning_sigma4_cavity"] <= 0.5
        assert result.derived["g3"] == pytest.approx(7.26, abs=0.05)
