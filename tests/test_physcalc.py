import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincavity import (CONSTANTS, DomainError, FringeModel, PhysConstants,
                        ScanConfig, Spectrum, SystemParams, TrionLevels,
                        cooperativity, dit_spectrum, frequency_to_wavelength,
                        is_strongly_coupled, lande_g_factor,
                        lorentzian_spectrum, mixed_spectrum,
                        splitting_nm_to_ghz, thermal_spin_up_population,
                        transition_frequencies, wavelength_to_frequency,
                        zeeman_splitting_ghz)

C_NM_GHZ = 299792458.0  # speed of light in nm*GHz


class TestConstants:
    def test_hbar_consistent_with_h(self):
        assert CONSTANTS.hbar == CONSTANTS.planck_h / (2 * math.pi)

    def test_hbar_follows_planck_h(self):
        assert PhysConstants(planck_h=1.0).hbar == 1.0 / (2 * math.pi)
        with pytest.raises(TypeError):
            PhysConstants(hbar=1.0)

    def test_all_positive(self):
        assert CONSTANTS.planck_h > 0
        assert CONSTANTS.bohr_magneton > 0
        assert CONSTANTS.boltzmann_k > 0
        assert CONSTANTS.light_speed == 299792458.0


class TestWavelengthConversion:
    def test_direct_evaluation(self):
        # oracle: c / lambda with c in nm*GHz
        assert wavelength_to_frequency(931.45) == pytest.approx(
            C_NM_GHZ / 931.45, rel=1e-12)
        assert wavelength_to_frequency(931.45) == pytest.approx(321855.66, abs=0.01)
        assert wavelength_to_frequency(931.32) == pytest.approx(321900.59, abs=0.01)

    def test_speed_of_light_wavelength(self):
        assert wavelength_to_frequency(299.792458) == pytest.approx(1.0e6, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for lam in rng.uniform(100.0, 2000.0, 50):
            back = frequency_to_wavelength(wavelength_to_frequency(lam))
            assert back == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            wavelength_to_frequency(bad)
        with pytest.raises(DomainError):
            frequency_to_wavelength(bad)


class TestSplittingConversion:
    def test_ground_state_splitting(self):
        # oracle: c * dlam / lam^2
        expected = C_NM_GHZ * 0.12 / 931.4**2
        got = splitting_nm_to_ghz(0.12, 931.4)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(41.47, abs=0.01)

    def test_zero(self):
        assert splitting_nm_to_ghz(0.0, 931.4) == 0.0

    def test_excited_state_splitting(self):
        got = splitting_nm_to_ghz(0.04, 931.44)
        assert got == pytest.approx(C_NM_GHZ * 0.04 / 931.44**2, rel=1e-12)
        assert got == pytest.approx(13.82, abs=0.01)

    def test_sign_follows_input(self):
        assert splitting_nm_to_ghz(-0.04, 931.44) < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            splitting_nm_to_ghz(0.1, 0.0)


class TestLandeGFactor:
    def test_measured_splitting(self):
        split = splitting_nm_to_ghz(0.12, 931.4)
        g = lande_g_factor(split, 6.2)
        # oracle: h * dnu / (mu_B * B)
        expected = 6.62607015e-34 * split * 1e9 / (9.2740100783e-24 * 6.2)
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(0.478, abs=0.005)

    def test_energy_quoted_in_mev(self):
        # 0.165 meV expressed as a frequency is 39.897 GHz
        split = 0.165e-3 * 1.602176634e-19 / 6.62607015e-34 / 1e9
        assert split == pytest.approx(39.90, abs=0.01)
        assert lande_g_factor(split, 6.2) == pytest.approx(0.460, abs=0.001)

    def test_zero_splitting(self):
        assert lande_g_factor(0.0, 6.2) == 0.0

    def test_scaling_properties(self):
        g = lande_g_factor(41.47, 6.2)
        assert lande_g_factor(2 * 41.47, 6.2) == pytest.approx(2 * g, rel=1e-15)
        assert lande_g_factor(41.47, 2 * 6.2) == pytest.approx(g / 2, rel=1e-15)

    def test_round_trip_with_zeeman(self):
        for gf, b in [(0.478, 6.2), (0.143, 6.0), (1.3, 0.7)]:
            split = zeeman_splitting_ghz(gf, b)
            assert lande_g_factor(split, b) == pytest.approx(gf, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            lande_g_factor(41.47, 0.0)


class TestThermalPopulation:
    def test_reference_value(self):
        p = thermal_spin_up_population(0.165, 4.2)
        assert p == pytest.approx(0.39, abs=0.005)
        assert p == pytest.approx(0.3879608583670368, rel=1e-12)  # frozen oracle

    def test_degenerate(self):
        assert thermal_spin_up_population(0.0, 4.2) == 0.5

    def test_one_thermal_quantum(self):
        # kT at 4.2 K is 0.36193 meV, so 0.362 meV sits essentially one
        # thermal quantum up: r close to 1/e
        p = thermal_spin_up_population(0.362, 4.2)
        assert p == pytest.approx(0.269, abs=1e-3)
        assert p == pytest.approx(0.268902308628237, rel=1e-12)  # frozen oracle

    def test_monotone_in_energy_and_temperature(self):
        energies = np.linspace(0.0, 1.0, 11)
        pops = [thermal_spin_up_population(e, 4.2) for e in energies]
        assert all(a > b for a, b in zip(pops, pops[1:]))
        temps = np.linspace(1.0, 30.0, 12)
        pops_t = [thermal_spin_up_population(0.165, t) for t in temps]
        assert all(a < b for a, b in zip(pops_t, pops_t[1:]))

    def test_range(self):
        rng = np.random.default_rng(3)
        for de, t in zip(rng.uniform(0, 5, 40), rng.uniform(0.1, 50, 40)):
            p = thermal_spin_up_population(de, t)
            assert 0.0 < p <= 0.5

    def test_negative_energy_is_the_complement(self):
        rng = np.random.default_rng(4)
        for de, t in zip(rng.uniform(0, 5, 40), rng.uniform(0.1, 50, 40)):
            assert thermal_spin_up_population(-de, t) == pytest.approx(
                1.0 - thermal_spin_up_population(de, t), rel=1e-12)
        assert thermal_spin_up_population(-1.0, 1e-300) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_spin_up_population(0.165, 0.0)
        with pytest.raises(DomainError, match="kT"):
            thermal_spin_up_population(0.165, 1e-320)


class TestCooperativity:
    def test_reference_value(self):
        assert cooperativity(18.67, 31.79, 1.78) == pytest.approx(12.32, abs=0.05)

    def test_uncoupled(self):
        assert cooperativity(0.0, 31.79, 1.78) == 0.0

    def test_single_transition_value(self):
        assert cooperativity(17.2, 31.79, 1.78) == pytest.approx(10.46, abs=0.01)

    def test_quadratic_scaling(self):
        c = cooperativity(9.1, 20.0, 2.0)
        assert cooperativity(18.2, 20.0, 2.0) == pytest.approx(4 * c, rel=1e-14)

    @pytest.mark.parametrize("kappa,gamma", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain(self, kappa, gamma):
        with pytest.raises(DomainError):
            cooperativity(10.0, kappa, gamma)

    def test_negative_coupling_refused(self):
        with pytest.raises(DomainError, match="coupling g"):
            cooperativity(-18.67, 31.79, 1.78)


class TestStrongCoupling:
    def test_reference_true(self):
        assert is_strongly_coupled(18.67, 31.79, 1.78)

    def test_uncoupled_false(self):
        assert not is_strongly_coupled(0.0, 31.79, 1.78)

    def test_boundary(self):
        # 4 * 8.39 = 33.56 falls just below kappa + gamma = 33.57
        assert not is_strongly_coupled(8.39, 31.79, 1.78)
        assert is_strongly_coupled(8.40, 31.79, 1.78)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_strongly_coupled(-1.0, 31.79, 1.78)


class TestTrionLevels:
    def test_zero_field_degeneracy(self):
        levels = TrionLevels(zero_field_frequency=321855.0, electron_g=0.478,
                             hole_g=0.143, field=0.0)
        nu = transition_frequencies(levels)
        assert all(x == 321855.0 for x in nu)

    def test_parallelogram_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            levels = TrionLevels(
                zero_field_frequency=rng.uniform(3e5, 3.3e5),
                electron_g=rng.uniform(0.05, 2.0),
                hole_g=rng.uniform(0.05, 2.0),
                diamagnetic_coeff=rng.uniform(0, 2.0),
                field=rng.uniform(0.1, 9.0))
            n1, n2, n3, n4 = transition_frequencies(levels)
            de = levels.electron_splitting
            dh = levels.hole_splitting
            # identities hold to roundoff on the absolute frequency scale
            tol = 16 * np.finfo(float).eps * levels.zero_field_frequency
            assert n1 - n2 == pytest.approx(dh, abs=tol)
            assert n3 - n4 == pytest.approx(dh, abs=tol)
            assert n1 - n3 == pytest.approx(de, abs=tol)
            assert n2 - n4 == pytest.approx(de, abs=tol)

    def test_ordering_when_electron_dominates(self):
        levels = TrionLevels(zero_field_frequency=321855.0, electron_g=0.478,
                             hole_g=0.143, field=6.2)
        n1, n2, n3, n4 = transition_frequencies(levels)
        assert n1 >= n2 >= n3 >= n4

    def test_ground_splitting_at_reference_field(self):
        levels = TrionLevels(zero_field_frequency=321855.0, electron_g=0.478,
                             hole_g=0.143, field=6.2)
        n1, _, n3, _ = transition_frequencies(levels)
        assert n1 - n3 == pytest.approx(41.48, abs=0.01)
        # splitting converts back to the same g-factor
        assert lande_g_factor(n1 - n3, 6.2) == pytest.approx(0.478, rel=1e-12)

    def test_excited_splitting_at_reference_field(self):
        levels = TrionLevels(zero_field_frequency=321855.0, electron_g=0.478,
                             hole_g=0.143, field=6.0)
        _, _, n3, n4 = transition_frequencies(levels)
        assert n3 - n4 == pytest.approx(12.0, abs=0.02)

    def test_diamagnetic_shift(self):
        base = TrionLevels(zero_field_frequency=1000.0, electron_g=0.5,
                           hole_g=0.1, diamagnetic_coeff=1.15, field=4.0)
        flat = TrionLevels(zero_field_frequency=1000.0, electron_g=0.5,
                           hole_g=0.1, diamagnetic_coeff=0.0, field=4.0)
        shifted = transition_frequencies(base)
        plain = transition_frequencies(flat)
        for s, p in zip(shifted, plain):
            assert s - p == pytest.approx(1.15 * 16.0, rel=1e-12)

    @pytest.mark.parametrize("field, diamagnetic", [
        (1e200, 1.15),   # the quadratic shift overflows
        (1e200, 0.0),    # 0 times an overflowed square
        (1e308, 0.0),    # the Zeeman splittings overflow too
    ])
    def test_nonfinite_frequencies_refused(self, field, diamagnetic):
        levels = TrionLevels(zero_field_frequency=1000.0, electron_g=0.5,
                             hole_g=0.1, diamagnetic_coeff=diamagnetic,
                             field=field)
        message = f"transition frequencies at field {field!r} T are not finite"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            transition_frequencies(levels)

    def test_field_validation(self):
        with pytest.raises(DomainError):
            TrionLevels(zero_field_frequency=1000.0, electron_g=0.5,
                        hole_g=0.1, field=-1.0)
        with pytest.raises(DomainError):
            TrionLevels(zero_field_frequency=1000.0, electron_g=math.nan,
                        hole_g=0.1)

    @pytest.mark.parametrize("key, value", [
        ("zero_field_frequency", "321838.42"), ("electron_g", math.nan),
        ("hole_g", True), ("diamagnetic_coeff", math.inf), ("field", "6.2"),
        ("field", math.nan), ("electron_g", None)])
    def test_rejects_mistyped_and_nonfinite_values(self, key, value):
        kwargs = dict(zero_field_frequency=321838.42, electron_g=0.478,
                      hole_g=0.143, diamagnetic_coeff=1.15, field=6.2)
        kwargs[key] = value
        with pytest.raises(DomainError, match=key):
            TrionLevels(**kwargs)


# The number rule: each public function and parameter class refuses a
# value that is not a finite real number with DomainError, and a finite
# one either gives a finite result or is refused the same way.
_CFG = ScanConfig(-60.0, 60.0, 5)
_UP = lorentzian_spectrum(31.79, 0.0, _CFG)
_DOWN = dit_spectrum(17.2, 31.79, 1.78, 0.0, 0.0, _CFG)

# name: (callable, valid keyword arguments); one argument is replaced
NUMBER_RULE_CASES = {
    "wavelength_to_frequency": (wavelength_to_frequency, {"lambda_nm": 931.45}),
    "frequency_to_wavelength": (frequency_to_wavelength, {"freq_ghz": 321855.66}),
    "splitting_nm_to_ghz": (splitting_nm_to_ghz, {
        "delta_lambda_nm": 0.13, "center_lambda_nm": 931.45}),
    "lande_g_factor": (lande_g_factor, {"splitting_ghz": 40.0, "field": 6.2}),
    "zeeman_splitting_ghz": (zeeman_splitting_ghz, {"g_factor": 0.478, "field": 6.2}),
    "thermal_spin_up_population": (thermal_spin_up_population, {
        "delta_e_mev": 0.17, "temperature": 4.2}),
    "cooperativity": (cooperativity, {"g": 18.67, "kappa": 31.79, "gamma": 1.78}),
    "is_strongly_coupled": (is_strongly_coupled, {
        "g": 18.67, "kappa": 31.79, "gamma": 1.78}),
    "TrionLevels": (lambda **kw: transition_frequencies(TrionLevels(**kw)), {
        "zero_field_frequency": 321838.42, "electron_g": 0.478, "hole_g": 0.143,
        "diamagnetic_coeff": 1.15, "field": 6.2}),
    "SystemParams": (SystemParams, {
        "kappa": 31.79, "g3": 7.2, "g4": 17.2, "gamma_d3": 3.1, "gamma_d4": 1.4,
        "omega_c": 0.0, "omega_x": 12.0, "delta_h": 12.0, "gamma3": 0.1,
        "gamma4": 0.1, "drive_amp": 0.3, "fock_dim": 4}),
    "ScanConfig": (ScanConfig, {"start": -60.0, "stop": 60.0, "n_points": 5,
                                "scale": 1.0, "background": 0.0}),
    "FringeModel": (FringeModel, {"amplitude": 0.1, "period": 10.0, "phase": 0.0}),
    "lorentzian_spectrum": (lambda **kw: lorentzian_spectrum(cfg=_CFG, **kw),
                            {"kappa": 31.79, "omega_c": 0.0}),
    "dit_spectrum": (lambda **kw: dit_spectrum(cfg=_CFG, **kw), {
        "g": 17.2, "kappa": 31.79, "gamma": 1.78, "delta": 0.0, "omega_c": 0.0}),
    "mixed_spectrum": (lambda **kw: mixed_spectrum(
        spectrum_up=_UP, spectrum_down=_DOWN, **kw), {"p_up": 0.5}),
}
# None is the documented default of SystemParams.drive_amp (kappa/100).
_NONE_IS_VALID = {("SystemParams", "drive_amp")}
# c / x overflows to inf for a subnormal x, and so does g mu_B B for a
# huge g: their callers refuse that inf with a message of their own
# (ScanConfig names the bound, transition_frequencies the field).
_MAY_OVERFLOW = {"wavelength_to_frequency", "frequency_to_wavelength",
                 "zeeman_splitting_ghz"}
_NUMBER_DRAWS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, "1", None, 0.0]),
    st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False))


# numpy warns where an extreme finite value overflows inside a spectrum;
# the Spectrum point rule then refuses what is not finite. A large drawn
# drive_amp gives SystemParams' documented linear-response warning.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:drive_amp exceeds kappa/10")
@pytest.mark.parametrize("name", sorted(NUMBER_RULE_CASES))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_number_rule(name, data):
    call, valid = NUMBER_RULE_CASES[name]
    key = data.draw(st.sampled_from(sorted(valid)), label="argument")
    value = data.draw(_NUMBER_DRAWS, label="value")
    try:
        result = call(**dict(valid, **{key: value}))
    except DomainError:
        return
    finite = type(value) is float and math.isfinite(value)
    assert finite or (value is None and (name, key) in _NONE_IS_VALID), (
        f"{name} accepted {key}={value!r}")
    if name == "is_strongly_coupled":
        assert type(result) is bool
    elif isinstance(result, float):
        assert math.isfinite(result) or (
            name in _MAY_OVERFLOW and not math.isnan(result)), result
    elif isinstance(result, tuple):
        assert all(map(math.isfinite, result))
    elif isinstance(result, Spectrum):
        assert np.isfinite(result.reflectivity).all()
