"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines. Statistical criteria use 30 fixed seeds; every
tolerance is asserted exactly as stated, including runtime budgets.
"""

import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from spincavity import (FitProblem, FringeModel, ModelKind, ScanConfig,
                        SystemParams, TrionLevels, build_liouvillian,
                        cooperativity, dit_spectrum, expectation_cavity_amplitude,
                        expectation_photon_number, fit, fit_thermal_pup,
                        free_param, is_strongly_coupled, lande_g_factor,
                        lorentzian_spectrum, master_equation_spectrum,
                        mixed_spectrum, profile_bound, splitting_nm_to_ghz,
                        steady_state, synthesize_noisy,
                        thermal_spin_up_population, transition_frequencies,
                        two_transition_spectrum, wavelength_to_frequency)
from spincavity.fitkit import (effective_weights, seed_lorentzian, seed_mixed,
                               seed_single_transition)
from spincavity.physcalc import TWO_PI
from spincavity.spectra import two_transition_response
from conftest import (CAVITY_NM, DELTA_H, DIAMAGNETIC, DOT_0T_NM, ELECTRON_G,
                      G3, G4, G_TOTAL, GAMMA_D3, GAMMA_D4, GAMMA_PERP_0T,
                      HOLE_G, KAPPA, dense_steady_state, textbook_liouvillian)

N_SEEDS = 30
SCALE = (np.pi * KAPPA) ** 2
BACKGROUND = 0.05


def reference_params(**overrides) -> SystemParams:
    kwargs = dict(kappa=KAPPA, g3=G3, g4=G4, gamma_d3=GAMMA_D3,
                  gamma_d4=GAMMA_D4, omega_c=0.0, omega_x=DELTA_H,
                  delta_h=DELTA_H)
    kwargs.update(overrides)
    return SystemParams(**kwargs)


def timed_call(fn, *args, repeats=100):
    best = math.inf
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return value, best


# The detail each criterion prints, without its trailing run time. The
# figures of criteria 7, 9 and 14 are roundoff, whose bits depend on the
# BLAS; they read "*" here and are checked against their bounds instead.
# A change that moves a value edits it here and names it in CHANGES.md.
RECORD = {
    1: "cooperativity(18.67, 31.79, 1.78) = 12.3199 (12.32 +- 0.05)",
    2: "thermal occupation(0.165 meV, 4.2 K) = 0.3880 (0.39 +- 0.005)",
    3: "g-factor(0.12 nm at 931.4 nm, 6.2 T) = 0.4779 (0.478 +- 0.005)",
    4: "sqrt(18.67^2 - 17.2^2) = 7.2615 GHz (7.26 +- 0.01)",
    5: "4g > kappa + gamma for (18.67, 31.79, 1.78): True",
    6: "closed form vs master equation on 21 sets: worst relative deviation "
       "3.36e-03 <= 1e-2",
    7: "steady-state invariants held at every point; undriven photon number "
       "* < 1e-12",
    8: "dip/bare ratio 5.6363e-03 = 1/(1+C)^2; mixture ratio 0.522705 affine "
       "to 1e-10",
    9: "noiseless kappa relative error *; noisy recovery 30/30 within "
       "+-1.9 GHz",
    10: "coupling/linewidth recovery 30/30 within +-0.35 / +-0.70 GHz",
    11: "constrained mixed fit 30/30 seeds inside all quoted intervals (incl. "
        "occupation bound <= 0.03 and detuning <= 2.8 GHz)",
    12: "thermal occupation recovered 30/30 within +-0.04 of 0.52",
    13: "splittings 41.48 / 12.01 GHz at 6.2 / 6.0 T; anti-crossing minimum "
        "gap 40.0 >= 34.4 GHz",
    14: "imaginary vs real coupling phase: max relative spectrum change * "
        "<= 1e-10",
}
_TIMING = re.compile(r"[,;] \d+(\.\d+)? (us|ms|s)$")
_ROUNDOFF = {7: "photon number ", 9: "relative error ", 14: "spectrum change "}


def recorded_form(criterion, detail):
    """``detail`` without its trailing run time and with its roundoff figure as "*"."""
    detail = _TIMING.sub("", detail)
    label = _ROUNDOFF.get(criterion)
    if label:
        detail = re.sub(re.escape(label) + r"[-+.e\d]+", label + "*", detail)
    return detail


def report(criterion, detail):
    assert recorded_form(criterion, detail) == RECORD[criterion], (
        f"criterion {criterion} printed {detail!r}")
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_cooperativity():
    value, runtime = timed_call(cooperativity, 18.67, 31.79, 1.78)
    assert value == pytest.approx(12.32, abs=0.05)
    assert runtime < 1e-3
    report(1, f"cooperativity(18.67, 31.79, 1.78) = {value:.4f} "
              f"(12.32 +- 0.05), {runtime * 1e6:.1f} us")


def test_criterion_02_thermal_population():
    value, runtime = timed_call(thermal_spin_up_population, 0.165, 4.2)
    assert value == pytest.approx(0.39, abs=0.005)
    assert runtime < 1e-3
    report(2, f"thermal occupation(0.165 meV, 4.2 K) = {value:.4f} "
              f"(0.39 +- 0.005), {runtime * 1e6:.1f} us")


def test_criterion_03_lande_g_factor():
    def chain():
        return lande_g_factor(splitting_nm_to_ghz(0.12, 931.4), 6.2)
    value, runtime = timed_call(chain)
    assert value == pytest.approx(0.478, abs=0.005)
    assert runtime < 1e-3
    report(3, f"g-factor(0.12 nm at 931.4 nm, 6.2 T) = {value:.4f} "
              f"(0.478 +- 0.005), {runtime * 1e6:.1f} us")


def test_criterion_04_derived_coupling():
    def derived():
        return math.sqrt(18.67**2 - 17.2**2)
    value, runtime = timed_call(derived)
    assert value == pytest.approx(7.26, abs=0.01)
    assert runtime < 1e-3
    report(4, f"sqrt(18.67^2 - 17.2^2) = {value:.4f} GHz (7.26 +- 0.01), "
              f"{runtime * 1e6:.1f} us")


def test_criterion_05_strong_coupling():
    value, runtime = timed_call(is_strongly_coupled, 18.67, 31.79, 1.78)
    assert value is True
    assert runtime < 1e-3
    report(5, f"4g > kappa + gamma for (18.67, 31.79, 1.78): {value}, "
              f"{runtime * 1e6:.1f} us")


def _criterion6_sets():
    """Reference parameter set plus 20 randomized ones."""
    sets = [(reference_params(), 161)]
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = SystemParams(kappa=float(rng.uniform(10, 50)),
                         g3=float(rng.uniform(0, 15)),
                         g4=float(rng.uniform(0, 25)),
                         gamma_d3=float(rng.uniform(0, 5)),
                         gamma_d4=float(rng.uniform(0, 5)),
                         omega_c=0.0,
                         omega_x=float(rng.uniform(-20, 20)),
                         delta_h=float(rng.uniform(0, 20)))
        sets.append((p, 81))
    return sets


def test_criterion_06_and_07_oracle_equivalence_and_steady_state_physics():
    t_start = time.perf_counter()
    worst_dev = 0.0
    for params, n_points in _criterion6_sets():
        assert params.drive_amp == pytest.approx(params.kappa / 100)
        halfspan = max(3 * params.kappa,
                       abs(params.omega_x) + 3 * params.kappa,
                       abs(params.omega_x - params.delta_h) + 3 * params.kappa)
        probes = np.linspace(-halfspan, halfspan, n_points)
        norm = (TWO_PI * params.drive_amp) ** 2
        master = np.empty(n_points)
        for i, probe in enumerate(probes):
            rho = steady_state(params, probe)
            # criterion 7: state invariants at every test point
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert float(np.linalg.eigvalsh(rho)[0]) >= -1e-8
            liou = build_liouvillian(params, probe)
            residual = np.linalg.norm(liou @ rho.reshape(-1, order="F"))
            assert residual <= 1e-9 * np.linalg.norm(liou)
            master[i] = abs(expectation_cavity_amplitude(rho)) ** 2 / norm
        closed = two_transition_response(probes, params)
        dev = float(np.max(np.abs(master - closed)) / np.max(closed))
        worst_dev = max(worst_dev, dev)
        assert dev <= 0.01
    # criterion 7: undriven system relaxes to the vacuum
    undriven = replace(reference_params(), drive_amp=0.0)
    n_vac = expectation_photon_number(steady_state(undriven, 5.0))
    assert n_vac < 1e-12
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    report(6, f"closed form vs master equation on 21 sets: worst relative "
              f"deviation {worst_dev:.2e} <= 1e-2, {elapsed:.1f} s")
    report(7, f"steady-state invariants held at every point; undriven photon "
              f"number {n_vac:.1e} < 1e-12")


def test_criterion_08_on_resonance_contrast():
    t_start = time.perf_counter()
    cfg = ScanConfig(-60, 60, 241)   # grid point exactly on resonance
    i0 = 120
    dit = dit_spectrum(G_TOTAL, KAPPA, GAMMA_PERP_0T, 0.0, 0.0, cfg)
    bare = lorentzian_spectrum(KAPPA, 0.0, cfg)
    assert dit.freq_ghz[i0] == 0.0
    ratio = dit.reflectivity[i0] / bare.reflectivity[i0]
    c = cooperativity(G_TOTAL, KAPPA, GAMMA_PERP_0T)
    assert ratio == pytest.approx(1.0 / (1.0 + c) ** 2, abs=1e-12)
    assert ratio == pytest.approx(5.63e-3, abs=1e-4)
    mix = mixed_spectrum(0.52, bare, dit)
    mix_ratio = mix.reflectivity[i0] / bare.reflectivity[i0]
    assert mix_ratio == pytest.approx(0.52 + 0.48 * ratio, abs=1e-10)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    report(8, f"dip/bare ratio {ratio:.4e} = 1/(1+C)^2; mixture ratio "
              f"{mix_ratio:.6f} affine to 1e-10; {elapsed * 1e3:.0f} ms")


def _lorentzian_problem(data):
    seeds = seed_lorentzian(data)
    return FitProblem(data=data, model=ModelKind.LORENTZIAN,
                      free={k: free_param(k, v) for k, v in seeds.items()})


def test_criterion_09_lorentzian_round_trip():
    t_start = time.perf_counter()
    cfg = ScanConfig(-100, 100, 201, scale=SCALE, background=BACKGROUND)
    clean = lorentzian_spectrum(KAPPA, 0.0, cfg)

    exact = fit(_lorentzian_problem(clean))
    assert exact.params["kappa"] == pytest.approx(KAPPA, rel=1e-6)

    fringe = FringeModel(0.02, 60.0, 0.7)
    hits = 0
    for seed in range(N_SEEDS):
        data = synthesize_noisy(clean, 0.01, fringe, seed=seed)
        result = fit(_lorentzian_problem(data))
        if abs(result.params["kappa"] - KAPPA) <= 1.9:
            hits += 1
    elapsed = time.perf_counter() - t_start
    assert hits >= 0.9 * N_SEEDS
    assert elapsed < 10.0
    report(9, f"noiseless kappa relative error {abs(exact.params['kappa'] - KAPPA) / KAPPA:.1e}; "
              f"noisy recovery {hits}/{N_SEEDS} within +-1.9 GHz; {elapsed:.1f} s")


def _single_problem(data):
    seeds = seed_single_transition(data, KAPPA)
    free = {k: free_param(k, seeds[k])
            for k in ("g", "gamma", "delta", "scale", "background")}
    return FitProblem(data=data, model=ModelKind.SINGLE_TRANSITION, free=free,
                      fixed={"kappa": KAPPA, "omega_c": 0.0})


def test_criterion_10_single_transition_round_trip():
    t_start = time.perf_counter()
    cfg = ScanConfig(-80, 80, 241, scale=SCALE, background=BACKGROUND)
    clean = dit_spectrum(G_TOTAL, KAPPA, GAMMA_PERP_0T, 0.0, 0.0, cfg)
    hits = 0
    for seed in range(N_SEEDS):
        data = synthesize_noisy(clean, 0.01, FringeModel(0.0, 1.0), seed=seed)
        result = fit(_single_problem(data))
        if abs(result.params["g"] - G_TOTAL) <= 0.35 and \
           abs(result.params["gamma"] - GAMMA_PERP_0T) <= 0.70:
            hits += 1
    elapsed = time.perf_counter() - t_start
    assert hits >= 0.9 * N_SEEDS
    assert elapsed < 30.0
    report(10, f"coupling/linewidth recovery {hits}/{N_SEEDS} within "
               f"+-0.35 / +-0.70 GHz; {elapsed:.1f} s")


def _mixed_problem(data):
    seeds = seed_mixed(data, KAPPA, DELTA_H, G_TOTAL)
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
                      center_weight=(3, 10.0))


def _mixed_clean(p_up, cfg):
    params = reference_params(g3=math.sqrt(G_TOTAL**2 - G4**2))
    up = lorentzian_spectrum(KAPPA, 0.0, cfg)
    down = two_transition_spectrum(params, cfg)
    return mixed_spectrum(p_up, up, down)


def test_criterion_11_mixed_two_transition_protocol():
    t_start = time.perf_counter()
    cfg = ScanConfig(-60, 60, 301, scale=SCALE, background=BACKGROUND)
    clean = _mixed_clean(0.01, cfg)
    hits = 0
    for seed in range(N_SEEDS):
        data = synthesize_noisy(clean, 0.01, FringeModel(0.0, 1.0), seed=seed)
        problem = _mixed_problem(data)
        result = fit(problem)
        ssr = result.residual_rms ** 2 * float(np.sum(effective_weights(problem)))
        upper = profile_bound(problem, "p_up", result.params, ssr, upper=True)
        ok = (abs(result.params["g4"] - G4) <= 0.6
              and abs(result.params["gamma_d4"] - GAMMA_D4) <= 0.4
              and abs(result.params["gamma_d3"] - GAMMA_D3) <= 1.5
              and upper <= 0.03
              and result.derived["detuning_sigma4_cavity"] <= 2.8)
        hits += ok
    elapsed = time.perf_counter() - t_start
    assert hits >= 0.85 * N_SEEDS
    assert elapsed < 300.0
    report(11, f"constrained mixed fit {hits}/{N_SEEDS} seeds inside all "
               f"quoted intervals (incl. occupation bound <= 0.03 and "
               f"detuning <= 2.8 GHz); {elapsed:.1f} s")


def test_criterion_12_thermal_stage_fit():
    t_start = time.perf_counter()
    cfg = ScanConfig(-60, 60, 301, scale=SCALE, background=BACKGROUND)
    clean = _mixed_clean(0.52, cfg)
    truth = reference_params(g3=math.sqrt(G_TOTAL**2 - G4**2))
    hits = 0
    for seed in range(N_SEEDS):
        data = synthesize_noisy(clean, 0.01, FringeModel(0.0, 1.0),
                                seed=500 + seed)
        result = fit_thermal_pup(data, truth)
        if abs(result.params["p_up"] - 0.52) <= 0.04:
            hits += 1
    elapsed = time.perf_counter() - t_start
    assert hits >= 0.9 * N_SEEDS
    assert elapsed < 120.0
    report(12, f"thermal occupation recovered {hits}/{N_SEEDS} within "
               f"+-0.04 of 0.52; {elapsed:.1f} s")


def test_criterion_13_field_sweep():
    t_start = time.perf_counter()
    levels = TrionLevels(zero_field_frequency=wavelength_to_frequency(DOT_0T_NM),
                         electron_g=ELECTRON_G, hole_g=HOLE_G,
                         diamagnetic_coeff=DIAMAGNETIC)
    # (i) parallelogram splittings at the quoted fields
    nu62 = transition_frequencies(replace(levels, field=6.2))
    de = nu62[0] - nu62[2]
    nu60 = transition_frequencies(replace(levels, field=6.0))
    dh = nu60[2] - nu60[3]
    assert de == pytest.approx(41.5, abs=0.1)
    assert dh == pytest.approx(12.0, abs=0.1)
    assert nu62[0] - nu62[1] == pytest.approx(nu62[2] - nu62[3], abs=1e-6)

    # (ii) anti-crossing gap where transition 4 crosses the cavity
    cavity = wavelength_to_frequency(CAVITY_NM)
    params = reference_params(omega_c=cavity, omega_x=cavity + DELTA_H)
    grid = np.linspace(cavity - 80, cavity + 80, 3201)
    gaps = []
    for field in np.arange(0.0, 6.51, 0.25):
        nu = transition_frequencies(replace(levels, field=float(field)))
        if abs(nu[3] - cavity) > G4:
            continue
        p = replace(params, omega_x=nu[2], delta_h=nu[2] - nu[3])
        y = two_transition_response(grid, p)
        peaks = np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
        two = peaks[np.argsort(y[peaks])[-2:]]
        gaps.append(float(abs(grid[two[1]] - grid[two[0]])))
    assert gaps, "no field crossed the cavity"
    assert min(gaps) >= 2 * G4
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    report(13, f"splittings {de:.2f} / {dh:.2f} GHz at 6.2 / 6.0 T; "
               f"anti-crossing minimum gap {min(gaps):.1f} >= "
               f"{2 * G4:.1f} GHz; {elapsed:.1f} s")


def test_criterion_14_phase_convention_invariance():
    t_start = time.perf_counter()
    params = reference_params()
    cfg = ScanConfig(-60, 60, 61)
    with_imag = master_equation_spectrum(params, cfg)
    # The real coupling convention, solved densely from the suite's own
    # textbook generator.
    norm = (TWO_PI * params.drive_amp) ** 2
    amps = [expectation_cavity_amplitude(dense_steady_state(
        textbook_liouvillian(params, probe, real_g3=True))) for probe in cfg.grid()]
    with_real = cfg.background + cfg.scale * np.abs(amps) ** 2 / norm
    rel = np.max(np.abs(with_imag.reflectivity - with_real) /
                 with_imag.reflectivity)
    assert rel <= 1e-10
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    report(14, f"imaginary vs real coupling phase: max relative spectrum "
               f"change {rel:.1e} <= 1e-10; {elapsed:.1f} s")
