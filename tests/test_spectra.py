import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincavity import (DomainError, FringeModel, ScanConfig, ShapeError,
                        Spectrum, SystemParams, cooperativity, dit_spectrum,
                        field_sweep, lorentzian_spectrum,
                        master_equation_spectrum, max_relative_difference,
                        mixed_spectrum, synthesize_noisy,
                        two_transition_spectrum, wavelength_to_frequency)
from spincavity.spectra import cavity_response
from conftest import (CAVITY_NM, DELTA_H, G3, G4, G_TOTAL, GAMMA_D3, GAMMA_D4,
                      GAMMA_PERP_0T, KAPPA)


def peak_indices(y):
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def refused_peak_bytes(call, match):
    """Peak traced allocation of a call that must raise DomainError."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestSpectrumType:
    def test_validation(self):
        with pytest.raises(DomainError):
            Spectrum([0, 1], [1, 1])                     # too short
        with pytest.raises(DomainError):
            Spectrum([0, 2, 1], [1, 1, 1])               # not increasing
        with pytest.raises(DomainError):
            Spectrum([0, 1, 2], [1, -0.1, 1])            # negative
        with pytest.raises(DomainError):
            Spectrum([0, 1, 2], [1, np.nan, 1])          # not finite
        with pytest.raises(DomainError):
            Spectrum([0, 1, 2], [1, 1, 1], [1, 0, 1])    # weight <= 0
        with pytest.raises(ShapeError):
            Spectrum([0, 1, 2], [1, 1, 1], [1, 1])

    @pytest.mark.parametrize("freq, index", [
        ([-np.inf, 0.0, 1.0], 0), ([0.0, 1.0, np.inf], 2),
        ([0.0, np.nan, 1.0], 1), ([-1e308, 0.0, 1e308], 2)])
    def test_nonfinite_frequency_refused(self, freq, index):
        with pytest.raises(DomainError, match=f"point {index}: frequency"):
            Spectrum(freq, [1, 1, 1])

    def test_default_weights(self):
        s = Spectrum([0, 1, 2], [1, 2, 3])
        assert np.all(s.weight == 1.0)

    def test_scan_config_validation(self):
        with pytest.raises(DomainError):
            ScanConfig(start=1.0, stop=1.0, n_points=5)
        with pytest.raises(DomainError):
            ScanConfig(start=0.0, stop=1.0, n_points=2)
        with pytest.raises(DomainError):
            ScanConfig(start=0.0, stop=1.0, n_points=5, background=-1.0)
        with pytest.raises(DomainError, match="span"):
            ScanConfig(start=-1e308, stop=1e308, n_points=5)

    @pytest.mark.parametrize("field, value", [
        ("scale", np.nan), ("scale", np.inf),
        ("background", np.nan), ("background", np.inf),
        ("start", -np.inf), ("start", np.nan),
        ("stop", np.inf), ("stop", np.nan)])
    def test_scan_config_refuses_nonfinite(self, field, value):
        with pytest.raises(DomainError, match=field):
            ScanConfig(**{"start": 0.0, "stop": 1.0, "n_points": 5,
                          field: value})

    @pytest.mark.parametrize("n_points", [5.0, True, "5", None])
    def test_scan_config_needs_an_integer_count(self, n_points):
        with pytest.raises(DomainError, match="n_points"):
            ScanConfig(-1, 1, n_points)

    def test_fringe_validation(self):
        with pytest.raises(DomainError):
            FringeModel(amplitude=0.5, period=1.0)
        with pytest.raises(DomainError):
            FringeModel(amplitude=0.1, period=0.0)

    @pytest.mark.parametrize("args, named", [
        ((0.1, 1.0, np.nan), "phase"), ((0.1, 1.0, np.inf), "phase"),
        ((0.1, np.inf), "period"), ((0.1, np.nan), "period"),
        ((np.nan, 1.0), "amplitude")])
    def test_fringe_refuses_nonfinite(self, args, named):
        with pytest.raises(DomainError, match=f"fringe {named}"):
            FringeModel(*args)


class TestLorentzian:
    def test_half_width_identity(self):
        # grid contains omega_c and omega_c +- kappa/2 exactly
        cfg = ScanConfig(start=-KAPPA, stop=KAPPA, n_points=5,
                         scale=1.0, background=0.2)
        s = lorentzian_spectrum(KAPPA, 0.0, cfg)
        peak = s.reflectivity[2] - 0.2
        assert s.reflectivity[1] - 0.2 == pytest.approx(peak / 2, rel=1e-12)
        assert s.reflectivity[3] - 0.2 == pytest.approx(peak / 2, rel=1e-12)

    def test_fwhm_equals_kappa(self):
        cfg = ScanConfig(start=-80, stop=80, n_points=16001)
        s = lorentzian_spectrum(KAPPA, 0.0, cfg)
        y = s.reflectivity
        half = y.max() / 2
        above = np.where(y >= half)[0]
        fwhm = s.freq_ghz[above[-1]] - s.freq_ghz[above[0]]
        assert fwhm == pytest.approx(KAPPA, abs=0.05)

    def test_quality_factor_scale(self):
        q = wavelength_to_frequency(CAVITY_NM) / KAPPA
        assert q == pytest.approx(10124.4, abs=0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            lorentzian_spectrum(0.0, 0.0, ScanConfig(-1, 1, 5))


class TestDitSpectrum:
    @pytest.mark.parametrize("kappa, gamma, named", [
        (0.0, GAMMA_PERP_0T, "kappa"), (-KAPPA, GAMMA_PERP_0T, "kappa"),
        (KAPPA, 0.0, "gamma"), (KAPPA, -1.0, "gamma")])
    def test_domain(self, kappa, gamma, named):
        with pytest.raises(DomainError, match=f"{named} must be positive"):
            dit_spectrum(G_TOTAL, kappa, gamma, 0.0, 0.0, ScanConfig(-1, 1, 5))

    def test_reduces_to_lorentzian_at_zero_coupling(self):
        cfg = ScanConfig(start=-50, stop=50, n_points=401, scale=3.0,
                         background=0.1)
        a = dit_spectrum(0.0, KAPPA, GAMMA_PERP_0T, 0.0, 0.0, cfg)
        b = lorentzian_spectrum(KAPPA, 0.0, cfg)
        assert np.max(np.abs(a.reflectivity - b.reflectivity)) < 1e-15 * np.max(
            b.reflectivity)

    def test_on_resonance_contrast(self):
        cfg = ScanConfig(start=-60, stop=60, n_points=241)  # contains 0
        dit = dit_spectrum(G_TOTAL, KAPPA, GAMMA_PERP_0T, 0.0, 0.0, cfg)
        bare = lorentzian_spectrum(KAPPA, 0.0, cfg)
        i0 = 120
        assert dit.freq_ghz[i0] == 0.0
        ratio = dit.reflectivity[i0] / bare.reflectivity[i0]
        c = cooperativity(G_TOTAL, KAPPA, GAMMA_PERP_0T)
        assert ratio == pytest.approx(1.0 / (1.0 + c) ** 2, rel=1e-12)

    def test_two_peak_splitting(self):
        cfg = ScanConfig(start=-60, stop=60, n_points=24001)
        s = dit_spectrum(G_TOTAL, KAPPA, GAMMA_PERP_0T, 0.0, 0.0, cfg)
        peaks = peak_indices(s.reflectivity)
        assert peaks.size == 2
        separation = s.freq_ghz[peaks[1]] - s.freq_ghz[peaks[0]]
        assert separation == pytest.approx(38.76, abs=0.05)  # frozen oracle
        assert separation == pytest.approx(2 * G_TOTAL, abs=2.0)
        # dip sits at the degenerate dot/cavity frequency
        dip = int(np.argmin(s.reflectivity[peaks[0]:peaks[1]])) + peaks[0]
        assert abs(s.freq_ghz[dip]) < 0.2

    def test_dip_depth_monotone_in_gamma(self):
        cfg = ScanConfig(start=-60, stop=60, n_points=241)
        dips = []
        for gamma in (0.5, 1.0, 1.78, 3.0, 6.0, 12.0):
            s = dit_spectrum(G_TOTAL, KAPPA, gamma, 0.0, 0.0, cfg)
            dips.append(s.reflectivity[120])
        assert all(a < b for a, b in zip(dips, dips[1:]))


FREQS = st.lists(st.floats(-500, 500), min_size=1, max_size=20).map(np.array)
KAPPAS = st.floats(0.1, 100)
CENTERS = st.floats(-100, 100)
LINES = st.lists(st.tuples(st.floats(0, 50), st.floats(1e-3, 50),
                           st.floats(-100, 100)), max_size=3)
PROPERTY = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)


class TestCavityResponse:
    @PROPERTY
    @given(FREQS, KAPPAS, CENTERS)
    def test_no_lines_is_the_lorentzian(self, f, kappa, omega_c):
        expected = 1.0 / ((2 * np.pi * (f - omega_c)) ** 2 + (np.pi * kappa) ** 2)
        np.testing.assert_allclose(cavity_response(f, kappa, omega_c),
                                   expected, rtol=1e-12, atol=0)

    @PROPERTY
    @given(FREQS, KAPPAS, CENTERS, LINES)
    def test_bounded_by_the_bare_peak(self, f, kappa, omega_c, lines):
        # every line term has a non-negative real part, so the real part
        # of the denominator never drops below kappa/2 (angular)
        r = cavity_response(f, kappa, omega_c, lines)
        assert np.all(r > 0)
        assert np.all(r <= 1.0 / (np.pi * kappa) ** 2)

    @PROPERTY
    @given(FREQS, KAPPAS, CENTERS, LINES, st.floats(0, 50), CENTERS)
    def test_uncoupled_line_changes_nothing(self, f, kappa, omega_c, lines,
                                            gamma_perp, omega):
        with_line = lines + [(0.0, gamma_perp, omega)]
        np.testing.assert_array_equal(
            cavity_response(f, kappa, omega_c, with_line),
            cavity_response(f, kappa, omega_c, lines))


class TestTwoTransition:
    def test_single_transition_reduction(self, ref_params, ref_scan):
        p = replace(ref_params, g3=0.0)
        a = two_transition_spectrum(p, ref_scan)
        b = dit_spectrum(p.g4, p.kappa, p.gamma4 / 2 + p.gamma_d4,
                         p.omega_x - p.delta_h - p.omega_c, p.omega_c, ref_scan)
        assert np.max(np.abs(a.reflectivity - b.reflectivity)) < 1e-12 * np.max(
            b.reflectivity)

    def test_reference_shape(self, ref_params, ref_scan):
        s = two_transition_spectrum(ref_params, ref_scan)
        y = s.reflectivity
        minima = np.where((y[1:-1] < y[:-2]) & (y[1:-1] < y[2:]))[0] + 1
        assert minima.size == 2
        f_dips = s.freq_ghz[minima]
        # transition 4 on the cavity, transition 3 a splitting above
        assert abs(f_dips[0] - 0.0) < 1.0
        assert abs(f_dips[1] - DELTA_H) < 1.5
        # the resonant transition carves the deeper dip
        assert y[minima[0]] < y[minima[1]]

    def test_nonnegative_and_above_background(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = SystemParams(kappa=rng.uniform(5, 50),
                             g3=rng.uniform(0, 15), g4=rng.uniform(0, 25),
                             gamma_d3=rng.uniform(0, 5), gamma_d4=rng.uniform(0, 5),
                             omega_c=0.0, omega_x=rng.uniform(-20, 20),
                             delta_h=rng.uniform(0, 20))
            cfg = ScanConfig(start=-90, stop=90, n_points=301,
                             background=rng.uniform(0, 0.5))
            s = two_transition_spectrum(p, cfg)
            assert np.all(s.reflectivity >= cfg.background)


class TestMasterEquationAgreement:
    def test_reference_set_scale_relative(self, ref_params, ref_scan):
        cfg = replace(ref_scan, n_points=81)
        closed = two_transition_spectrum(ref_params, cfg)
        master = master_equation_spectrum(ref_params, cfg)
        assert max_relative_difference(master, closed) < 1e-2

    def test_pointwise_in_weak_drive_limit(self, ref_params, ref_scan):
        cfg = replace(ref_scan, n_points=61)
        p = replace(ref_params, drive_amp=ref_params.kappa / 1000.0)
        closed = two_transition_spectrum(p, cfg)
        master = master_equation_spectrum(p, cfg)
        diff = np.abs(master.reflectivity - closed.reflectivity)
        assert np.max(diff / closed.reflectivity) < 5e-3

    def test_with_background_and_scale(self, ref_params):
        cfg = ScanConfig(start=-40, stop=40, n_points=41, scale=7.5,
                         background=0.3)
        closed = two_transition_spectrum(ref_params, cfg)
        master = master_equation_spectrum(ref_params, cfg)
        assert max_relative_difference(master, closed) < 1e-2

    def test_undriven_master_spectrum_refused(self, ref_params):
        with pytest.raises(DomainError, match="drive_amp"):
            master_equation_spectrum(replace(ref_params, drive_amp=0.0),
                                     ScanConfig(-1, 1, 5))

    def test_difference_needs_one_grid(self, ref_params, ref_scan):
        closed = two_transition_spectrum(ref_params, ref_scan)
        other = two_transition_spectrum(ref_params,
                                        replace(ref_scan, n_points=101))
        with pytest.raises(ShapeError, match="different frequency grids"):
            max_relative_difference(closed, other)


class TestMixedSpectrum:
    def test_pure_limits(self, ref_params, ref_scan):
        up = lorentzian_spectrum(ref_params.kappa, ref_params.omega_c, ref_scan)
        down = two_transition_spectrum(ref_params, ref_scan)
        assert np.array_equal(mixed_spectrum(1.0, up, down).reflectivity,
                              up.reflectivity)
        assert np.array_equal(mixed_spectrum(0.0, up, down).reflectivity,
                              down.reflectivity)

    def test_affine_in_occupation(self, ref_params, ref_scan):
        up = lorentzian_spectrum(ref_params.kappa, ref_params.omega_c, ref_scan)
        down = two_transition_spectrum(ref_params, ref_scan)
        mix = mixed_spectrum(0.3, up, down)
        expected = 0.3 * up.reflectivity + 0.7 * down.reflectivity
        assert np.max(np.abs(mix.reflectivity - expected)) < 1e-12

    def test_thermal_mixture_between_pure_cases(self, ref_params, ref_scan):
        up = lorentzian_spectrum(ref_params.kappa, ref_params.omega_c, ref_scan)
        down = two_transition_spectrum(ref_params, ref_scan)
        mix = mixed_spectrum(0.52, up, down)
        i0 = np.argmin(down.reflectivity)
        assert down.reflectivity[i0] < mix.reflectivity[i0] < up.reflectivity[i0]

    def test_grid_mismatch(self, ref_params, ref_scan):
        up = lorentzian_spectrum(ref_params.kappa, ref_params.omega_c, ref_scan)
        other = lorentzian_spectrum(ref_params.kappa, ref_params.omega_c,
                                    replace(ref_scan, n_points=101))
        with pytest.raises(ShapeError):
            mixed_spectrum(0.5, up, other)

    def test_probability_domain(self, ref_params, ref_scan):
        up = lorentzian_spectrum(ref_params.kappa, ref_params.omega_c, ref_scan)
        with pytest.raises(DomainError):
            mixed_spectrum(1.2, up, up)


class TestRowLimit:
    def test_scan_refused_before_allocation(self):
        peak = refused_peak_bytes(lambda: ScanConfig(0.0, 1.0, 10**14), "points")
        assert peak < 100_000

    def test_sweep_refused_before_allocation(self, ref_levels, ref_params):
        fields = [0.0] * 2000
        cfg = ScanConfig(0.0, 1.0, 1000)
        peak = refused_peak_bytes(
            lambda: field_sweep(ref_levels, ref_params, fields, cfg), "row")
        assert peak < 100_000


class TestFieldSweep:
    def test_far_detuned_is_bare(self, ref_levels, cavity_freq):
        # park the cavity far (> 20 kappa) below every transition
        omega_c = ref_levels.zero_field_frequency - 25 * KAPPA
        params = SystemParams(kappa=KAPPA, g3=G3, g4=G4, gamma_d3=GAMMA_D3,
                              gamma_d4=GAMMA_D4, omega_c=omega_c,
                              omega_x=ref_levels.zero_field_frequency,
                              delta_h=0.1)
        cfg = ScanConfig(start=omega_c - 60, stop=omega_c + 60, n_points=241)
        spec = field_sweep(ref_levels, params, [0.0], cfg)[0]
        bare = lorentzian_spectrum(KAPPA, omega_c, cfg)
        ipk = int(np.argmax(bare.reflectivity))
        assert spec.reflectivity[ipk] == pytest.approx(
            bare.reflectivity[ipk], rel=1e-2)

    def test_crossing_detuning_at_reference_field(self, ref_levels, cavity_freq):
        from spincavity import transition_frequencies
        nu = transition_frequencies(replace(ref_levels, field=6.2))
        assert abs(nu[3] - cavity_freq) <= 2.8

    def test_anticrossing_gap(self, ref_levels, cavity_freq):
        from spincavity import transition_frequencies
        params = SystemParams(kappa=KAPPA, g3=G3, g4=G4, gamma_d3=GAMMA_D3,
                              gamma_d4=GAMMA_D4, omega_c=cavity_freq,
                              omega_x=cavity_freq + DELTA_H, delta_h=DELTA_H)
        cfg = ScanConfig(start=cavity_freq - 80, stop=cavity_freq + 80,
                         n_points=3201)
        fields = np.arange(5.4, 6.81, 0.1)
        sweep = field_sweep(ref_levels, params, fields, cfg)
        gaps = []
        for b, spec in zip(fields, sweep):
            nu4 = transition_frequencies(replace(ref_levels, field=b))[3]
            if abs(nu4 - cavity_freq) > G4:
                continue
            peaks = peak_indices(spec.reflectivity)
            assert peaks.size >= 2
            two = peaks[np.argsort(spec.reflectivity[peaks])[-2:]]
            gaps.append(abs(spec.freq_ghz[two[1]] - spec.freq_ghz[two[0]]))
        assert gaps, "no field in the sweep crossed the cavity"
        assert min(gaps) >= 2 * G4

    def test_metadata_and_validation(self, ref_levels, ref_params, ref_scan):
        sweep = field_sweep(ref_levels, ref_params, [0.0, 1.5], ref_scan)
        assert sweep[0].meta["field_T"] == 0.0
        assert sweep[1].meta["field_T"] == 1.5
        with pytest.raises(DomainError):
            field_sweep(ref_levels, ref_params, [], ref_scan)
        with pytest.raises(DomainError):
            field_sweep(ref_levels, ref_params, [-1.0], ref_scan)


class TestSynthesizeNoisy:
    def test_identity_without_noise(self, ref_params, ref_scan):
        clean = two_transition_spectrum(ref_params, ref_scan)
        out = synthesize_noisy(clean, 0.0, FringeModel(0.0, 1.0), seed=3)
        assert np.array_equal(out.reflectivity, clean.reflectivity)

    def test_deterministic(self, ref_params, ref_scan):
        clean = two_transition_spectrum(ref_params, ref_scan)
        fr = FringeModel(0.03, 45.0, 0.4)
        a = synthesize_noisy(clean, 0.01, fr, seed=11)
        b = synthesize_noisy(clean, 0.01, fr, seed=11)
        assert np.array_equal(a.reflectivity, b.reflectivity)
        c = synthesize_noisy(clean, 0.01, fr, seed=12)
        assert not np.array_equal(a.reflectivity, c.reflectivity)

    def test_noise_statistics(self):
        cfg = ScanConfig(start=-200, stop=200, n_points=10000, background=0.5)
        clean = lorentzian_spectrum(KAPPA, 0.0, cfg)
        noisy = synthesize_noisy(clean, 0.01, FringeModel(0.0, 1.0), seed=99)
        rel = (noisy.reflectivity - clean.reflectivity) / clean.reflectivity
        assert np.std(rel) == pytest.approx(0.01, rel=0.1)

    def test_fringe_applied_multiplicatively(self, ref_scan):
        clean = lorentzian_spectrum(KAPPA, 0.0, ref_scan)
        fr = FringeModel(0.1, 37.0, 1.1)
        out = synthesize_noisy(clean, 0.0, fr, seed=0)
        expected = clean.reflectivity * fr.factor(clean.freq_ghz)
        assert np.max(np.abs(out.reflectivity - expected)) < 1e-12

    def test_domain(self, ref_scan):
        clean = lorentzian_spectrum(KAPPA, 0.0, ref_scan)
        with pytest.raises(DomainError):
            synthesize_noisy(clean, -0.01, FringeModel(0.0, 1.0), seed=0)

    @pytest.mark.parametrize("kwargs, named", [
        ({"noise_rel": np.nan}, "noise_rel"), ({"noise_rel": np.inf}, "noise_rel"),
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"seed": True}, "seed")])
    def test_refuses_nonfinite_noise_and_bad_seed(self, ref_scan, kwargs, named):
        clean = lorentzian_spectrum(KAPPA, 0.0, ref_scan)
        with pytest.raises(DomainError, match=named):
            synthesize_noisy(clean, **{"noise_rel": 0.01, "seed": 0, **kwargs})

    def test_accepts_numpy_integer_seed(self, ref_scan):
        clean = lorentzian_spectrum(KAPPA, 0.0, ref_scan)
        a = synthesize_noisy(clean, 0.01, seed=np.int64(5))
        b = synthesize_noisy(clean, 0.01, seed=5)
        assert np.array_equal(a.reflectivity, b.reflectivity)
