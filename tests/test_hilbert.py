import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincavity import (DomainError, NumericalError, StateError, SystemParams,
                        build_hamiltonian, build_liouvillian,
                        expectation_cavity_amplitude,
                        expectation_photon_number, fock_convergence_shift,
                        steady_state, time_evolve_oracle,
                        validate_density_matrix)
from spincavity import hilbert
from spincavity.hilbert import ground_state, number_operator, _trace_vector
from spincavity.physcalc import TWO_PI


def vec(rho):
    return rho.reshape(-1, order="F")


def empty_cavity_photon_number(kappa, drive, detuning):
    """Analytic driven damped cavity occupation (angular internally)."""
    eps = TWO_PI * drive
    return eps**2 / ((TWO_PI * detuning) ** 2 + (TWO_PI * kappa / 2.0) ** 2)


def textbook_liouvillian(params, probe, real_g3=False):
    """Reference generator: -i[H, .] plus one Kronecker-built dissipator
    rate * (C* x C - (1/2) I x C'C - (1/2) (C'C)^T x I) per collapse operator."""
    h = build_hamiltonian(params, probe, real_g3=real_g3)
    fock = params.fock_dim
    eye = np.eye(params.dim)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    a, s3, s4 = hilbert._operators(fock)
    for rate, op in ((params.kappa, a),
                     (params.gamma3, s3), (params.gamma4, s4),
                     (2 * params.gamma_d3, s3.conj().T @ s3),
                     (2 * params.gamma_d4, s4.conj().T @ s4)):
        opdop = op.conj().T @ op
        liou += TWO_PI * rate * (np.kron(op.conj(), op)
                                 - 0.5 * np.kron(eye, opdop)
                                 - 0.5 * np.kron(opdop.T, eye))
    return liou


def excitation_difference(fock_dim):
    """k = N_i - N_j of each column-major vec(rho) entry, N the excitation number."""
    _, s3, s4 = hilbert._operators(fock_dim)
    n = np.diag(number_operator(fock_dim) + s3.conj().T @ s3
                + s4.conj().T @ s4).real.astype(int)
    return (n[:, None] - n[None, :]).reshape(-1, order="F")


def dense_steady_state(params, probe, real_g3=False):
    """Reference solve: one dense LU of L with row 0 set to the trace row."""
    d = params.dim
    m = build_liouvillian(params, probe, real_g3=real_g3)
    m[0] = np.eye(d).reshape(-1, order="F")
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(m, b).reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def rk4_loop(liou, v, dt, n_steps):
    """n_steps classical Runge-Kutta steps of dv/dt = liou v, 4 matvecs each."""
    for _ in range(n_steps):
        k1 = liou @ v
        k2 = liou @ (v + 0.5 * dt * k1)
        k3 = liou @ (v + 0.5 * dt * k2)
        k4 = liou @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def liouvillian_timescales(liou):
    """(stable step, settle time) from the spectrum of the generator."""
    evals = np.linalg.eigvals(liou)
    dt = 2.0 / float(np.max(np.abs(evals)))
    nonzero = evals[np.abs(evals) > 1e-9]
    gap = -float(np.max(nonzero.real))
    return dt, 18.0 / gap


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a, _, _ = hilbert._operators(5)
        assert a.shape == (15, 15)
        for atom in range(3):
            for n in range(1, 5):
                row = atom * 5 + (n - 1)
                col = atom * 5 + n
                assert a[row, col] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 12

    def test_lowering_operators(self):
        _, s3, s4 = hilbert._operators(4)
        # |ground><excited| tensor identity on the photon sector
        for n in range(4):
            assert s3[n, 4 + n] == 1.0
            assert s4[n, 8 + n] == 1.0
        assert np.count_nonzero(s3) == 4
        assert (s3 @ s3).any() == False  # nilpotent


class TestSystemParams:
    def test_drive_default(self):
        p = SystemParams(kappa=31.79, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=0, omega_x=0, delta_h=0)
        assert p.drive_amp == pytest.approx(31.79 / 100)
        assert p.fock_dim == 4
        assert p.gamma3 == 0.1 and p.gamma4 == 0.1

    def test_validation(self):
        with pytest.raises(DomainError):
            SystemParams(kappa=0, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=0, omega_x=0, delta_h=0)
        with pytest.raises(DomainError):
            SystemParams(kappa=1, g3=-1, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=0, omega_x=0, delta_h=0)
        with pytest.raises(DomainError):
            SystemParams(kappa=1, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=0, omega_x=0, delta_h=0, fock_dim=1)

    @pytest.mark.parametrize("key, value", [
        ("kappa", "31.79"), ("g4", float("nan")), ("omega_x", float("-inf")),
        ("gamma3", True), ("drive_amp", float("nan")), ("fock_dim", 4.0)])
    def test_rejects_mistyped_and_nonfinite_values(self, key, value):
        kwargs = dict(kappa=31.79, g3=7.26, g4=17.2, gamma_d3=3.1,
                      gamma_d4=1.4, omega_c=0.0, omega_x=12.0, delta_h=12.0)
        kwargs[key] = value
        with pytest.raises(DomainError, match=key):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("fock_dim", [40, np.int64(10**6)])
    def test_oversized_fock_dim_refused_before_allocation(self, fock_dim):
        hilbert._generator_parts.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="fock_dim"):
                SystemParams(kappa=31.79, g3=7.2, g4=17.2, gamma_d3=3.1,
                             gamma_d4=1.4, omega_c=0.0, omega_x=12.0,
                             delta_h=12.0, fock_dim=fock_dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert hilbert._generator_parts.cache_info().currsize == 0

    def test_largest_used_cutoff_admitted(self, ref_params):
        # fock_dim 8 plus the +2 of fock_convergence_shift
        assert replace(ref_params, fock_dim=10).dim == 30

    def test_strong_drive_warns(self):
        with pytest.warns(UserWarning):
            SystemParams(kappa=10, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=0, omega_x=0, delta_h=0, drive_amp=2.0)


class TestHamiltonian:
    def test_hermitian_for_random_params(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = SystemParams(kappa=rng.uniform(5, 50),
                             g3=rng.uniform(0, 20), g4=rng.uniform(0, 20),
                             gamma_d3=rng.uniform(0, 5), gamma_d4=rng.uniform(0, 5),
                             omega_c=rng.uniform(-50, 50),
                             omega_x=rng.uniform(-50, 50),
                             delta_h=rng.uniform(0, 20))
            h = build_hamiltonian(p, rng.uniform(-60, 60))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_resonant_uncoupled_probe(self):
        p = SystemParams(kappa=10, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=5.0, omega_x=30.0, delta_h=12.0, drive_amp=0.0)
        h = build_hamiltonian(p, probe_freq=5.0)
        # photon sector contributes nothing on the diagonal; only the
        # atomic detunings remain
        diag = np.diag(h).real / TWO_PI
        fock = p.fock_dim
        assert np.allclose(diag[:fock], 0.0, atol=1e-12)
        assert np.allclose(diag[fock:2 * fock], 25.0, atol=1e-12)
        assert np.allclose(diag[2 * fock:], 13.0, atol=1e-12)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-12

    def test_vacuum_rabi_splitting(self):
        # single-excitation block of the resonant one-transition system
        p = SystemParams(kappa=10, g3=0.0, g4=5.0, gamma_d3=0, gamma_d4=0,
                         omega_c=0.0, omega_x=12.0, delta_h=12.0,
                         drive_amp=0.0, fock_dim=2)
        h = build_hamiltonian(p, probe_freq=0.0)
        # basis |ground,1> (index 1) and |excited4,0> (index 4)
        block = h[np.ix_([1, 4], [1, 4])] / TWO_PI
        eigs = np.sort(np.linalg.eigvalsh(block))
        assert eigs[0] == pytest.approx(-5.0, abs=1e-12)
        assert eigs[1] == pytest.approx(+5.0, abs=1e-12)


class TestLiouvillian:
    def test_pure_commutator_fixed_points(self):
        p = SystemParams(kappa=1e-9, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         gamma3=0, gamma4=0, omega_c=3.0, omega_x=9.0,
                         delta_h=4.0, drive_amp=0.0)
        liou = build_liouvillian(p, probe_freq=0.0)
        rng = np.random.default_rng(0)
        diag = rng.uniform(0, 1, p.dim)
        diag /= diag.sum()
        rho = np.diag(diag).astype(complex)
        # kappa is negligible: any diagonal state is (almost) stationary
        assert np.max(np.abs(liou @ vec(rho))) < 1e-6

    def test_vacuum_dark_under_cavity_decay(self):
        p = SystemParams(kappa=20.0, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         gamma3=0, gamma4=0, omega_c=0.0, omega_x=5.0,
                         delta_h=2.0, drive_amp=0.0)
        liou = build_liouvillian(p, probe_freq=0.0)
        fock = p.fock_dim
        # diagonal atomic part: coherences would precess under the
        # detuning Hamiltonian, populations are strictly dark
        rho_atom = np.diag([0.6, 0.3, 0.1]).astype(complex)
        vac = np.zeros((fock, fock), dtype=complex)
        vac[0, 0] = 1.0
        rho = np.kron(rho_atom, vac)
        assert np.max(np.abs(liou @ vec(rho))) < 1e-10

    def test_trace_preservation(self, ref_params):
        liou = build_liouvillian(ref_params, probe_freq=7.0)
        tr = _trace_vector(ref_params.dim)
        # the trace functional annihilates the generator
        assert np.max(np.abs(tr @ liou)) < 1e-10

    def test_flow_maps_hermitian_to_traceless_hermitian(self, ref_params):
        liou = build_liouvillian(ref_params, probe_freq=-4.0)
        d = ref_params.dim
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = m + m.conj().T
            image = (liou @ vec(rho)).reshape((d, d), order="F")
            assert np.max(np.abs(image - image.conj().T)) < 1e-10 * np.max(
                np.abs(image))
            assert abs(np.trace(image)) < 1e-10 * np.max(np.abs(image))

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    @pytest.mark.parametrize("real_g3", [False, True])
    @pytest.mark.parametrize("dephasing", [0.0, 2.3])
    def test_matches_textbook_construction(self, ref_params, fock_dim, real_g3,
                                           dephasing):
        p = replace(ref_params, fock_dim=fock_dim, omega_c=1.5,
                    gamma_d3=dephasing, gamma_d4=0.4 * dephasing)
        for probe in (-60.0, 0.0, 7.25, 41.0):
            ref = textbook_liouvillian(p, probe, real_g3=real_g3)
            liou = build_liouvillian(p, probe, real_g3=real_g3)
            assert np.max(np.abs(liou - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    @pytest.mark.parametrize("real_g3", [False, True])
    def test_block_tridiagonal_in_excitation_difference(self, ref_params,
                                                        fock_dim, real_g3):
        p = replace(ref_params, fock_dim=fock_dim)
        k = excitation_difference(fock_dim)
        l0, diag, parts, _ = hilbert._generator_parts(p, real_g3)
        rows, cols = np.nonzero(l0)
        assert np.max(np.abs(k[rows] - k[cols])) == 1
        # N is read off the basis layout, so D is exactly the i 2pi k
        # that the elimination adds per block
        assert np.array_equal(diag, 1j * TWO_PI * k)
        assert np.all(k[np.nonzero(_trace_vector(p.dim))] == 0)
        # the solver's blocks are those of this ordering, read off the
        # bordered generator; block -k holds the transposes of block k
        bordered = l0.copy()
        bordered[0] = _trace_vector(p.dim)
        centre, sides, spans, blocks, up, down, _ = parts
        index = [centre] + [sides[span, 0] for span in spans[1:]]
        for kk, idx in enumerate(index):
            assert np.array_equal(idx, np.flatnonzero(k == kk))
            assert np.array_equal(blocks[kk], bordered[np.ix_(idx, idx)])
            if kk:
                assert np.array_equal(down[kk], bordered[np.ix_(idx, index[kk - 1])])
                assert np.array_equal(up[kk - 1], bordered[np.ix_(index[kk - 1], idx)])
        flat = np.arange(p.dim**2).reshape((p.dim, p.dim), order="F")
        assert np.array_equal(sides[:, 1], flat.T.reshape(-1, order="F")[sides[:, 0]])

    def test_assembly_holds_about_one_generator(self, ref_params):
        # The jump terms are scattered in place, so the assembly, with
        # its elimination blocks, holds little more than the generator.
        p = replace(ref_params, fock_dim=8)
        hilbert._operators(p.fock_dim)
        hilbert._generator_parts.cache_clear()
        tracemalloc.start()
        try:
            hilbert._generator_parts(p, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            hilbert._generator_parts.cache_clear()
        assert peak < 1.5 * 16 * p.dim**4

    @pytest.mark.parametrize("probe", [math.nan, math.inf, -math.inf, "3.0",
                                       None, True])
    def test_nonfinite_probe_refused(self, ref_params, probe):
        with pytest.raises(DomainError, match="probe_freq"):
            build_hamiltonian(ref_params, probe)
        with pytest.raises(DomainError, match="probe_freq"):
            build_liouvillian(ref_params, probe)
        with pytest.raises(DomainError, match="probe_freq"):
            steady_state(ref_params, probe)

    @settings(max_examples=80, deadline=None)
    @given(kappa=st.floats(10, 50), g3=st.floats(0, 15), g4=st.floats(0, 25),
           gamma_d3=st.floats(0, 5), gamma_d4=st.floats(0, 5),
           omega_x=st.floats(-20, 20), delta_h=st.floats(0, 20),
           probe=st.floats(-1e4, 1e4), fock_dim=st.integers(2, 6),
           real_g3=st.booleans())
    def test_cached_norm_matches_the_generator(self, kappa, g3, g4, gamma_d3,
                                               gamma_d4, omega_x, delta_h,
                                               probe, fock_dim, real_g3):
        p = SystemParams(kappa=kappa, g3=g3, g4=g4, gamma_d3=gamma_d3,
                         gamma_d4=gamma_d4, omega_c=0.0, omega_x=omega_x,
                         delta_h=delta_h, fock_dim=fock_dim)
        norms = hilbert._generator_parts(p, real_g3)[3]
        expected = np.linalg.norm(build_liouvillian(p, probe, real_g3=real_g3))
        assert hilbert._generator_norm(norms, probe) == pytest.approx(
            expected, rel=1e-13, abs=0.0)

    def test_returns_a_fresh_writable_matrix(self, ref_params):
        first = build_liouvillian(ref_params, 3.0)
        expected = first.copy()
        assert first.flags.writeable
        first[:] = 0.0
        assert np.array_equal(build_liouvillian(ref_params, 3.0), expected)


class TestSteadyState:
    def test_undriven_relaxes_to_vacuum(self, ref_params):
        p = replace(ref_params, drive_amp=0.0)
        rho = steady_state(p, probe_freq=3.0)
        assert expectation_photon_number(rho) < 1e-12
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_empty_cavity_matches_analytic(self, bare_params):
        for detuning in (0.0, 4.0, -11.0, 25.0):
            rho = steady_state(bare_params, bare_params.omega_c + detuning)
            n = expectation_photon_number(rho)
            expected = empty_cavity_photon_number(
                bare_params.kappa, bare_params.drive_amp, detuning)
            assert n == pytest.approx(expected, rel=1e-2)

    def test_reference_dip_contrast(self, ref_params, bare_params):
        rho_dip = steady_state(ref_params, 0.0)
        rho_bare = steady_state(bare_params, 0.0)
        amp_ratio = (abs(expectation_cavity_amplitude(rho_dip)) /
                     abs(expectation_cavity_amplitude(rho_bare))) ** 2
        # coherent response is suppressed close to 1/(1+C)^2 = 5.6e-3
        # (the second transition and weak saturation shift it slightly)
        assert amp_ratio == pytest.approx(5.64e-3, rel=0.1)
        # the photon number additionally carries incoherent fluorescence,
        # which dominates at the dip when dephasing beats emission
        n_ratio = (expectation_photon_number(rho_dip) /
                   expectation_photon_number(rho_bare))
        assert amp_ratio < n_ratio < 0.1

    def test_invariants_and_residual(self, ref_params):
        for probe in (-20.0, 0.0, 12.0, 33.0):
            rho = steady_state(ref_params, probe)
            validate_density_matrix(rho)
            liou = build_liouvillian(ref_params, probe)
            assert np.linalg.norm(liou @ vec(rho)) <= 1e-9 * np.linalg.norm(liou)

    def test_one_generator_assembly_per_parameter_set(self, ref_params):
        hilbert._generator_parts.cache_clear()
        for probe in (-20.0, 0.0, 5.0, 20.0):
            steady_state(ref_params, probe)
        # two lookups per solve, one in build_liouvillian and one for the
        # blocks, and one assembly of L0, D and the blocks together
        info = hilbert._generator_parts.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        steady_state(replace(ref_params, g3=ref_params.g3 + 1.0), 0.0)
        assert hilbert._generator_parts.cache_info().misses == 2

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    @pytest.mark.parametrize("real_g3", [False, True])
    def test_trace_column_solve_matches_the_general_solve(self, ref_params,
                                                          fock_dim, real_g3):
        # The first solve skips the sweep towards k = 0, which would act
        # on zeros only; it must give the bits of the general solve.
        p = replace(ref_params, fock_dim=fock_dim, omega_c=1.5)
        blocks = hilbert._generator_parts(p, real_g3)[2]
        e0 = np.zeros(p.dim**2, dtype=complex)
        e0[0] = 1.0
        for probe in (-60.0, 0.0, 7.25, 41.0):
            factors = hilbert._eliminate(blocks, probe)
            direct = hilbert._block_solve(blocks, factors)
            general = hilbert._block_solve(blocks, factors, e0)
            assert direct.tobytes() == general.tobytes()

    def test_degenerate_system_raises(self):
        # no decay at all from the atomic sector: steady state not unique
        p = SystemParams(kappa=20.0, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         gamma3=0, gamma4=0, omega_c=0.0, omega_x=5.0,
                         delta_h=2.0, drive_amp=0.0)
        with pytest.raises(NumericalError, match=r"^steady-state solve failed "
                           r"\(.+\); condition estimate \d\.\d{3}e\+\d+$") as excinfo:
            steady_state(p, probe_freq=0.0)
        cond = excinfo.value.condition_estimate
        assert 1e12 < cond < math.inf
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    def test_residual_check_raises(self, ref_params, monkeypatch):
        # a tolerance far below roundoff trips the final residual check
        monkeypatch.setattr(hilbert, "_RESIDUAL_REL", 1e-30)
        with pytest.raises(NumericalError, match=r"^steady-state residual \S+ "
                           r"exceeds 1e-30 \* norm \S+; condition estimate "
                           r"\d\.\d{3}e\+\d+$") as excinfo:
            steady_state(ref_params, probe_freq=0.0)
        assert 1.0 <= excinfo.value.condition_estimate < math.inf

    def test_positivity_rule_is_shared(self, ref_params, monkeypatch):
        # a threshold above every eigenvalue trips the one positivity rule
        # of both the solver and the validator, with the same error
        monkeypatch.setattr(hilbert, "POSITIVITY_TOL", 1.0)
        pattern = r"^density matrix not positive: min eigenvalue \S+$"
        with pytest.raises(StateError, match=pattern):
            steady_state(ref_params, probe_freq=0.0)
        with pytest.raises(StateError, match=pattern):
            validate_density_matrix(ground_state(ref_params.fock_dim))

    @settings(max_examples=60, deadline=None)
    @given(kappa=st.floats(10, 50),
           g3=st.one_of(st.just(0.0), st.floats(0, 15)),
           g4=st.one_of(st.just(0.0), st.floats(0, 25)),
           gamma_d3=st.one_of(st.just(0.0), st.floats(0, 5)),
           gamma_d4=st.one_of(st.just(0.0), st.floats(0, 5)),
           omega_x=st.floats(-20, 20), delta_h=st.floats(0, 20),
           probe=st.floats(-190, 190), fock_dim=st.integers(2, 5),
           real_g3=st.booleans())
    def test_agrees_with_a_dense_solve(self, kappa, g3, g4, gamma_d3,
                                       gamma_d4, omega_x, delta_h, probe,
                                       fock_dim, real_g3):
        p = SystemParams(kappa=kappa, g3=g3, g4=g4, gamma_d3=gamma_d3,
                         gamma_d4=gamma_d4, omega_c=0.0, omega_x=omega_x,
                         delta_h=delta_h, fock_dim=fock_dim)
        rho = steady_state(p, probe, real_g3=real_g3)
        assert np.max(np.abs(rho - dense_steady_state(p, probe, real_g3))) <= 1e-12

    def test_elimination_residual_over_seeded_draws(self):
        # The block elimination does not pivot across blocks; the
        # full-generator residual shows whether that ever costs accuracy.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            # acceptance criterion 6's ranges, dephasing from 0
            p = SystemParams(kappa=rng.uniform(10, 50), g3=rng.uniform(0, 15),
                             g4=rng.uniform(0, 25), gamma_d3=rng.uniform(0, 5),
                             gamma_d4=rng.uniform(0, 5), omega_c=0.0,
                             omega_x=rng.uniform(-20, 20),
                             delta_h=rng.uniform(0, 20))
            span = max(abs(p.omega_x), abs(p.omega_x - p.delta_h)) + 3 * p.kappa
            for probe in rng.uniform(-span, span, 3):
                liou = build_liouvillian(p, probe)
                rho = steady_state(p, probe)
                ratio = np.linalg.norm(liou @ vec(rho)) / np.linalg.norm(liou)
                worst = max(worst, ratio)
        assert worst <= 1e-12


class TestExpectations:
    def test_vacuum(self):
        assert expectation_photon_number(ground_state(4)) == 0.0

    def test_single_photon(self):
        rho = np.zeros((12, 12), dtype=complex)
        rho[1, 1] = 1.0  # |ground, n=1>
        assert expectation_photon_number(rho) == pytest.approx(1.0)

    def test_weighted_count(self):
        rho = np.zeros((12, 12), dtype=complex)
        rho[0, 0] = 0.8
        rho[1, 1] = 0.2
        assert expectation_photon_number(rho) == pytest.approx(0.2)

    def test_invalid_state_rejected(self):
        rho = np.zeros((12, 12), dtype=complex)
        rho[0, 0] = 0.7  # trace != 1
        with pytest.raises(StateError):
            expectation_photon_number(rho)
        rho = np.zeros((12, 12), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = 0.5  # not hermitian
        with pytest.raises(StateError):
            expectation_photon_number(rho)
        rho = np.zeros((12, 12), dtype=complex)
        rho[0, 0], rho[1, 1] = 1.25, -0.25  # hermitian, unit trace, not positive
        with pytest.raises(StateError, match=r"not positive: min eigenvalue "
                           r"-2\.500e-01$"):
            expectation_photon_number(rho)
        with pytest.raises(StateError, match=r"3\*fock_dim space, got \(4, 4\)"):
            expectation_photon_number(np.eye(4, dtype=complex) / 4)

    def test_amplitude_of_vacuum(self):
        assert expectation_cavity_amplitude(ground_state(4)) == 0.0


class TestTimeEvolveOracle:
    def test_undriven_decay_to_vacuum(self):
        p = SystemParams(kappa=31.79, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=0.0, omega_x=5.0, delta_h=2.0, drive_amp=0.0)
        rho0 = np.zeros((p.dim, p.dim), dtype=complex)
        rho0[p.fock_dim, p.fock_dim] = 1.0  # excited3, vacuum
        rho = time_evolve_oracle(p, 0.0, t_final=30.0, rho0=rho0)
        assert np.max(np.abs(rho - ground_state(p.fock_dim))) < 1e-6

    def test_driven_cavity_matches_analytic(self, bare_params):
        rho = time_evolve_oracle(bare_params, bare_params.omega_c + 5.0,
                                 t_final=2.0)
        n = expectation_photon_number(rho)
        expected = empty_cavity_photon_number(
            bare_params.kappa, bare_params.drive_amp, 5.0)
        assert n == pytest.approx(expected, rel=1e-4)

    def test_matches_steady_state_reference(self, ref_params):
        rho_lu = steady_state(ref_params, 3.0)
        liou = build_liouvillian(ref_params, 3.0)
        dt, t_settle = liouvillian_timescales(liou)
        rho_rk = time_evolve_oracle(ref_params, 3.0,
                                    t_final=max(t_settle, 20 / ref_params.kappa),
                                    dt=dt)
        assert np.max(np.abs(rho_rk - rho_lu)) < 1e-6

    @pytest.mark.parametrize("fock_dim, matvecs_only", [(3, False), (7, True)])
    def test_powering_equals_step_loop(self, ref_params, fock_dim, matvecs_only):
        # fock_dim 3 takes 390 steps on 81 rows: three squarings, two of
        # them after an odd count, then matvecs. fock_dim 7 with the
        # spectral step takes fewer steps than its 441 rows: matvecs only.
        p = replace(ref_params, fock_dim=fock_dim)
        liou = build_liouvillian(p, 5.0)
        t_final = 20.0 / p.kappa
        if matvecs_only:
            dt, _ = liouvillian_timescales(liou)
        else:
            dt = 2.0 / np.linalg.norm(liou, 1)
        n_steps = math.ceil(t_final / dt)
        assert n_steps <= p.dim**2 if matvecs_only else n_steps > 4 * p.dim**2
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        v = rk4_loop(liou, vec(rho0), t_final / n_steps, n_steps)
        rho = v.reshape((p.dim, p.dim), order="F")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        rho_rk = time_evolve_oracle(p, 5.0, t_final=t_final, dt=dt, rho0=rho0)
        assert np.max(np.abs(rho_rk - rho)) <= 1e-12

    def test_solves_no_linear_system(self, ref_params, monkeypatch):
        # The oracle stays independent of the steady-state solver.
        def refuse(*args, **kwargs):
            raise AssertionError("the RK4 oracle solved a linear system")
        hilbert._generator_parts.cache_clear()
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(hilbert, "_eliminate", refuse)
        rho = time_evolve_oracle(ref_params, 3.0, t_final=1.0)
        validate_density_matrix(rho)

    def test_short_horizon_rejected(self, ref_params):
        with pytest.raises(DomainError):
            time_evolve_oracle(ref_params, 0.0, t_final=0.1)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(probe_freq=math.nan, t_final=2.0), "probe_freq"),
        (dict(probe_freq=0.0, t_final=math.nan), "t_final"),
        (dict(probe_freq=0.0, t_final=math.inf), "t_final"),
        (dict(probe_freq=0.0, t_final=2.0, dt=math.nan), "dt"),
        (dict(probe_freq=0.0, t_final=2.0, dt=math.inf), "dt"),
    ])
    def test_nonfinite_inputs_refused(self, ref_params, kwargs, named):
        with pytest.raises(DomainError, match=named):
            time_evolve_oracle(ref_params, **kwargs)

    @pytest.mark.parametrize("dt, message", [
        (0.0, r"^invalid integration step dt=0\.0$"),
        (1e-9, r"^step size dt=1\.000e-09 underflows the time span: "
               r"1000000000 steps$")])
    def test_unusable_step_refused(self, ref_params, dt, message):
        # refused before any step is taken
        with pytest.raises(NumericalError, match=message):
            time_evolve_oracle(ref_params, 0.0, t_final=1.0, dt=dt)

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            p = SystemParams(kappa=rng.uniform(10, 50),
                             g3=rng.uniform(0, 25), g4=rng.uniform(0, 25),
                             gamma_d3=rng.uniform(0.5, 5),
                             gamma_d4=rng.uniform(0.5, 5),
                             omega_c=0.0, omega_x=rng.uniform(-15, 15),
                             delta_h=rng.uniform(0, 15))
            probe = rng.uniform(-p.kappa, p.kappa)
            rho_lu = steady_state(p, probe)
            liou = build_liouvillian(p, probe)
            dt, t_settle = liouvillian_timescales(liou)
            rho_rk = time_evolve_oracle(p, probe,
                                        t_final=max(t_settle, 20 / p.kappa),
                                        dt=dt)
            assert np.max(np.abs(rho_rk - rho_lu)) < 1e-6


class TestWeakDriveRegime:
    def test_linearity_at_quarter_percent(self, ref_params):
        # doubling the drive quadruples the photon number in linear
        # response; checked on and off the transparency dip
        for probe, divisor in ((0.0, 200.0), (25.0, 100.0), (-14.0, 100.0)):
            p1 = replace(ref_params, drive_amp=ref_params.kappa / divisor)
            p2 = replace(ref_params, drive_amp=ref_params.kappa / (2 * divisor))
            n1 = expectation_photon_number(steady_state(p1, probe))
            n2 = expectation_photon_number(steady_state(p2, probe))
            assert n1 / n2 == pytest.approx(4.0, rel=5e-3)

    def test_undriven_set_has_no_shift(self, ref_params):
        # the vacuum holds no photons at either cutoff
        p = replace(ref_params, drive_amp=0.0)
        assert fock_convergence_shift(p, 0.0) == 0.0

    def test_fock_truncation_converged(self, ref_params):
        p = replace(ref_params, drive_amp=ref_params.kappa / 20.0)
        for probe in (0.0, 18.0):
            assert fock_convergence_shift(p, probe) < 1e-3

    def test_phase_convention_invariance(self, ref_params):
        for probe in (-25.0, 0.0, 9.0, 30.0):
            n_imag = expectation_photon_number(
                steady_state(ref_params, probe, real_g3=False))
            n_real = expectation_photon_number(
                steady_state(ref_params, probe, real_g3=True))
            assert abs(n_imag - n_real) / n_imag < 1e-10
