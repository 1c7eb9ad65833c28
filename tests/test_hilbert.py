import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincavity import (DomainError, NumericalError, StateError, SystemParams,
                        build_liouvillian,
                        expectation_cavity_amplitude,
                        expectation_photon_number, fock_convergence_shift,
                        steady_state, time_evolve_oracle,
                        validate_density_matrix)
from spincavity import hilbert
from spincavity.hilbert import ground_state, number_operator, _trace_vector
from spincavity.physcalc import TWO_PI
from conftest import (dense_steady_state, textbook_hamiltonian,
                      textbook_liouvillian)


def vec(rho):
    return rho.reshape(-1, order="F")


def empty_cavity_photon_number(kappa, drive, detuning):
    """Analytic driven damped cavity occupation (angular internally)."""
    eps = TWO_PI * drive
    return eps**2 / ((TWO_PI * detuning) ** 2 + (TWO_PI * kappa / 2.0) ** 2)


# Every rate 1e-4 GHz and the cavity at 0: ||L(omega)||_F is about 0.03
# near resonance.
SMALL_RATES = SystemParams(kappa=1e-4, g3=1e-4, g4=1e-4, gamma_d3=1e-4,
                           gamma_d4=1e-4, omega_c=0.0, omega_x=1e-4,
                           delta_h=1e-4, gamma3=1e-4, gamma4=1e-4)


# The SystemParams fields that enter the generator.
GENERATOR_TERMS = ("kappa", "gamma3", "gamma4", "gamma_d3", "gamma_d4",
                   "omega_c", "omega_x", "delta_h", "g3", "g4", "drive_amp")


def distinct_params(fock_dim, variant):
    """A seeded set whose eleven generator terms are nonzero and distinct."""
    rng = np.random.default_rng([fock_dim, int(variant)])
    kappa = rng.uniform(10, 50)
    return SystemParams(kappa=kappa, g3=rng.uniform(1, 15), g4=rng.uniform(1, 25),
                        gamma_d3=rng.uniform(0.5, 5), gamma_d4=rng.uniform(0.5, 5),
                        omega_c=rng.uniform(-20, -1), omega_x=rng.uniform(1, 20),
                        delta_h=rng.uniform(1, 20), gamma3=rng.uniform(0.05, 0.5),
                        gamma4=rng.uniform(0.05, 0.5),
                        drive_amp=rng.uniform(0.01, 0.1) * kappa, fock_dim=fock_dim)


def excitation_difference(fock_dim):
    """k = N_i - N_j of each column-major vec(rho) entry, N the excitation number."""
    _, s3, s4 = hilbert._operators(fock_dim)
    n = np.diag(number_operator(fock_dim) + s3.conj().T @ s3
                + s4.conj().T @ s4).real.astype(int)
    return (n[:, None] - n[None, :]).reshape(-1, order="F")


def gauge(fock_dim):
    """Diagonal of S = conj(U) x U, U = diag(1, -i, 1) x I on the atomic basis.

    U maps the library's i g3 coupling to the real one, so S L S^-1 is the
    generator of the real convention (column-major vec).
    """
    u = np.repeat([1.0, -1j, 1.0], fock_dim)
    return np.kron(u.conj(), u)


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
            h = textbook_hamiltonian(p, rng.uniform(-60, 60))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_resonant_uncoupled_probe(self):
        p = SystemParams(kappa=10, g3=0, g4=0, gamma_d3=0, gamma_d4=0,
                         omega_c=5.0, omega_x=30.0, delta_h=12.0, drive_amp=0.0)
        h = textbook_hamiltonian(p, 5.0)
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
        h = textbook_hamiltonian(p, 0.0)
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

    # A gauge row checks the real coupling convention: the library's L
    # conjugated by S = conj(U) x U is the textbook generator with real g3.
    @pytest.mark.parametrize("case, gauged, fock_dim", [
        *((dephasing, gauged, fock_dim) for dephasing in (0.0, 2.3)
          for gauged in (False, True) for fock_dim in range(2, 9)),
        *(("distinct", gauged, fock_dim) for gauged in (False, True)
          for fock_dim in range(2, 6))])
    def test_matches_textbook_construction(self, ref_params, case, gauged,
                                           fock_dim):
        if case == "distinct":
            # the reference set has omega_x = delta_h and gamma3 = gamma4,
            # so a term lost or swapped between them could go unseen there
            p = distinct_params(fock_dim, gauged)
            values = [getattr(p, name) for name in GENERATOR_TERMS]
            assert 0.0 not in values and len(set(values)) == len(values) == 11
        else:
            p = replace(ref_params, fock_dim=fock_dim, omega_c=1.5,
                        gamma_d3=case, gamma_d4=0.4 * case)
        s = gauge(fock_dim) if gauged else np.ones(p.dim**2)
        for probe in (-60.0, 0.0, 7.25, 41.0):
            ref = textbook_liouvillian(p, probe, real_g3=gauged)
            liou = s[:, None] * build_liouvillian(p, probe) * s.conj()
            assert np.max(np.abs(liou - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    def test_block_tridiagonal_in_excitation_difference(self, ref_params,
                                                        fock_dim):
        p = replace(ref_params, fock_dim=fock_dim)
        k = excitation_difference(fock_dim)
        _, diag, parts, _ = hilbert._generator_parts(p)
        l0 = build_liouvillian(p, 0.0)
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
        table = parts.table
        index = [table.order[span] for span in table.spans]
        for kk, idx in enumerate(index):
            assert np.array_equal(idx, np.flatnonzero(k == kk))
            assert np.array_equal(parts.diag[kk], bordered[np.ix_(idx, idx)])
            if kk:
                assert np.array_equal(parts.down[kk],
                                      bordered[np.ix_(idx, index[kk - 1])])
                assert np.array_equal(parts.up[kk - 1],
                                      bordered[np.ix_(index[kk - 1], idx)])
        flat = np.arange(p.dim**2).reshape((p.dim, p.dim), order="F")
        transpose = flat.T.reshape(-1, order="F")
        assert np.array_equal(table.transpose, transpose)
        # the solver's vector holds block 0, the blocks k > 0 and then
        # their transposes, and gather puts it back in column-major order
        centre_size, half = table.spans[0].stop, table.spans[-1].stop
        assert np.array_equal(table.order[half:],
                              transpose[table.order[centre_size:half]])
        assert np.array_equal(table.order[table.gather], np.arange(p.dim**2))
        # block 0 is its own transpose: swap reorders it so, and fold
        # gathers the real form of w + conj(w[swap][:, swap]) for a
        # centre-sized w in one step
        centre, swap = table.centre, table.swap
        assert np.array_equal(centre, index[0])
        assert np.array_equal(centre[swap], transpose[centre])
        rng = np.random.default_rng(fock_dim)
        w = rng.standard_normal((centre_size, 2 * centre_size)).view(complex)
        folded = w + w[swap][:, swap].conj()
        assert np.allclose(hilbert._FOLD_SIGNS @ w.view(float).take(table.fold),
                           (folded.real + folded.imag[:, swap]).reshape(-1),
                           rtol=0.0, atol=1e-14)
        assert np.array_equal(parts.centre_real, parts.diag[0].real
                              + parts.diag[0].imag[:, swap])

    def test_assembly_holds_about_one_generator(self, ref_params):
        # The assembly lists each term sparsely and keeps L0 as its
        # nonzero values, so it holds less than one dense generator.
        p = replace(ref_params, fock_dim=8)
        hilbert._operators(p.fock_dim)
        hilbert._generator_parts.cache_clear()
        tracemalloc.start()
        try:
            hilbert._generator_parts(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            hilbert._generator_parts.cache_clear()
        assert peak < 1.5 * 16 * p.dim**4

    @pytest.mark.parametrize("probe", [math.nan, math.inf, -math.inf, "3.0",
                                       None, True])
    def test_nonfinite_probe_refused(self, ref_params, probe):
        with pytest.raises(DomainError, match="probe_freq"):
            build_liouvillian(ref_params, probe)
        with pytest.raises(DomainError, match="probe_freq"):
            steady_state(ref_params, probe)

    # At 2e306 every entry of L is finite but ||L||_F overflows; at
    # +-1.7e308 the entries probe_freq * D overflow too. A scan grid yields
    # np.float64 probes, whose scalar arithmetic would warn where a float's
    # does not. The suite turns every RuntimeWarning into an error.
    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("probe", [2e306, 1.7e308, -1.7e308])
    def test_overflowing_probe_refused(self, ref_params, probe, kind):
        message = ("^the generator L overflows at probe_freq="
                   + re.escape(f"{probe:.6g}; no steady-state solve"))
        hilbert._generator_parts(ref_params)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match=message):
                build_liouvillian(ref_params, kind(probe))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # refused before the dense generator is allocated
        assert peak < 16 * ref_params.dim**4 / 4
        with pytest.raises(NumericalError, match=message):
            steady_state(ref_params, kind(probe))
        with pytest.raises(NumericalError, match=message):
            time_evolve_oracle(ref_params, kind(probe), t_final=1.0)

    @settings(max_examples=80, deadline=None)
    @given(kappa=st.floats(10, 50), g3=st.floats(0, 15), g4=st.floats(0, 25),
           gamma_d3=st.floats(0, 5), gamma_d4=st.floats(0, 5),
           omega_x=st.floats(-20, 20), delta_h=st.floats(0, 20),
           probe=st.floats(-1e4, 1e4), fock_dim=st.integers(2, 6))
    def test_cached_norm_matches_the_generator(self, kappa, g3, g4, gamma_d3,
                                               gamma_d4, omega_x, delta_h,
                                               probe, fock_dim):
        p = SystemParams(kappa=kappa, g3=g3, g4=g4, gamma_d3=gamma_d3,
                         gamma_d4=gamma_d4, omega_c=0.0, omega_x=omega_x,
                         delta_h=delta_h, fock_dim=fock_dim)
        norms = hilbert._generator_parts(p)[3]
        expected = np.linalg.norm(build_liouvillian(p, probe))
        assert hilbert._generator_norm(norms, probe) == pytest.approx(
            expected, rel=1e-13, abs=0.0)
        # the norm of L0's rows on block 0, where D is zero
        l0 = build_liouvillian(p, 0.0)
        centre = np.linalg.norm(l0[excitation_difference(fock_dim) == 0])
        assert norms[0] * norms[4] == pytest.approx(centre, rel=1e-13, abs=0.0)

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
        hilbert._generator_table.cache_clear()
        hilbert._generator_parts.cache_clear()
        for probe in (-20.0, 0.0, 5.0, 20.0):
            steady_state(ref_params, probe)
        # two lookups per solve, one in build_liouvillian and one for the
        # blocks, and one assembly of L0, D and the blocks together
        info = hilbert._generator_parts.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        steady_state(replace(ref_params, g3=ref_params.g3 + 1.0), 0.0)
        assert hilbert._generator_parts.cache_info().misses == 2
        # the second set reuses the cutoff's table of the eleven terms
        info = hilbert._generator_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    def test_trace_column_solve_matches_the_general_solve(self, ref_params,
                                                          fock_dim):
        # The first solve skips the sweep towards k = 0, which would act
        # on zeros only, and LU-solves the centre block C for e_0 alone.
        # The general solve's inward sweep leaves that right-hand side
        # e_0 exactly, so it must give the same bits.
        p = replace(ref_params, fock_dim=fock_dim, omega_c=1.5)
        blocks = hilbert._generator_parts(p)[2]
        e0 = np.zeros(p.dim**2, dtype=complex)
        e0[0] = 1.0
        for probe in (-60.0, 0.0, 7.25, 41.0):
            factors = hilbert._eliminate(blocks, probe)
            direct = hilbert._block_solve(blocks, factors)
            general = hilbert._block_solve(blocks, factors, e0)
            assert direct.tobytes() == general.tobytes()

    @pytest.mark.parametrize("probe", [0.0, 1e4, 1e160])
    @pytest.mark.parametrize("fock_dim", range(2, 7))
    def test_state_is_exactly_hermitian(self, monkeypatch, fock_dim, probe):
        # The solve comes from the real form of the centre block and
        # mirrors block k into block -k, so the state is hermitian bit for
        # bit, also where the coherences are subnormal (probe 1e160). Most
        # draws need no refinement step; a refined state is checked in
        # TestRefinement.
        calls = TestRefinement.count_solves(monkeypatch)
        unrefined = 0
        for variant in range(6):
            rho = steady_state(distinct_params(fock_dim, variant), probe)
            unrefined += calls == [2]
            calls.clear()
            assert np.array_equal(rho, rho.conj().T)
        assert unrefined >= 1

    @pytest.mark.parametrize("fock_dim", range(2, 7))
    def test_hermitian_right_hand_side_matches_a_dense_solve(self, fock_dim):
        # The refinement step's solve, for a right-hand side that is
        # hermitian but not e_0, sweeps inwards through the kept S_k
        p = distinct_params(fock_dim, 0)
        rng = np.random.default_rng(fock_dim)
        blocks = hilbert._generator_parts(p)[2]
        transpose = blocks.table.transpose
        for probe in (-60.0, 0.0, 41.0, 1e4):
            bordered = build_liouvillian(p, probe)
            bordered[0] = _trace_vector(p.dim)
            r = rng.standard_normal(p.dim**2) + 1j * rng.standard_normal(p.dim**2)
            r = 0.5 * (r + r[transpose].conj())
            x = hilbert._block_solve(blocks, hilbert._eliminate(blocks, probe), r)
            dense = np.linalg.solve(bordered, r)
            assert np.linalg.norm(x - dense) <= 1e-13 * np.linalg.norm(dense)
            assert (np.linalg.norm(bordered @ x - r)
                    <= 1e-15 * np.linalg.norm(bordered) * np.linalg.norm(x))

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

    def test_singular_centre_block_raises(self, ref_params, monkeypatch):
        # C is factored only by the first solve's one LU solve for e_0, so
        # a singular C raises in _block_solve, with the same error as a
        # singular block of the elimination
        centre = hilbert._generator_parts(ref_params)[2].table.centre
        solve, refused = np.linalg.solve, []

        def singular_centre(a, b):
            if a.shape == (centre.size, centre.size) and b.ndim == 1:
                refused.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_centre)
        with pytest.raises(NumericalError, match=r"^steady-state solve failed "
                           r"\(Singular matrix\); condition estimate "
                           r"\d\.\d{3}e\+\d+$") as excinfo:
            steady_state(ref_params, probe_freq=0.0)
        assert refused == [(centre.size, centre.size)]
        assert 1.0 <= excinfo.value.condition_estimate < math.inf
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    def test_solves_without_an_explicit_inverse(self, ref_params, monkeypatch,
                                                fock_dim):
        # Every block is LU-solved, never inverted: with np.linalg.inv
        # refused, a clean solve and a refined one give the same state.
        p = replace(ref_params, fock_dim=fock_dim, omega_c=1.5)
        probes = (-60.0, 0.0, 7.25, 41.0)
        clean = [steady_state(p, probe) for probe in probes]

        def refuse(*args, **kwargs):
            raise AssertionError("the steady-state solve formed an inverse")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        for probe, expected in zip(probes, clean):
            assert np.array_equal(steady_state(p, probe), expected)
            with pytest.MonkeyPatch.context() as patch:
                calls = TestRefinement.count_solves(patch, 1e-9, 1 + p.dim)
                rho = steady_state(p, probe)
            assert calls == [2, 3]
            assert np.max(np.abs(rho - expected)) <= 1e-14

    def test_residual_check_raises(self, ref_params, monkeypatch):
        # a tolerance far below roundoff trips the final residual check
        monkeypatch.setattr(hilbert, "_RESIDUAL_REL", 1e-30)
        with pytest.raises(NumericalError, match=r"^steady-state residual \S+ "
                           r"exceeds 1e-30 \* \(norm \S+ \* \|x\| \S+\); "
                           r"condition estimate \d\.\d{3}e\+\d+$") as excinfo:
            steady_state(ref_params, probe_freq=0.0)
        assert 1.0 <= excinfo.value.condition_estimate < math.inf

    @pytest.mark.parametrize("kappa, probe", [(None, 1e160), (1e160, 0.0)],
                             ids=["probe", "kappa"])
    def test_huge_generator_keeps_a_finite_scale(self, ref_params, monkeypatch,
                                                 kappa, probe):
        # ||L(omega)||_F is finite here though its square is not; a scale
        # of inf would let the residual check pass any finite residual
        p = replace(ref_params, kappa=kappa or ref_params.kappa)
        liou = build_liouvillian(p, probe)
        big = np.max(np.abs(liou))
        scale = hilbert._generator_norm(hilbert._generator_parts(p)[3], probe)
        assert scale == pytest.approx(big * np.linalg.norm(liou / big),
                                      rel=1e-13, abs=0.0)
        validate_density_matrix(steady_state(p, probe))
        solve = hilbert._block_solve

        def corrupted(*args):
            x = solve(*args)
            x[p.dim] += 1e-3   # rho[0, 1], in block k = -1
            return x

        monkeypatch.setattr(hilbert, "_block_solve", corrupted)
        with pytest.raises(NumericalError, match=r"^steady-state residual "
                           r"\d\.\d{3}e\+1[56]\d exceeds 1e-09 \* \(norm "
                           r"\d\.\d{3}e\+16\d \* \|x\| \S+\);"):
            steady_state(p, probe)

    # Entries rho[1, 1], rho[1, 0] and rho[2 fock_dim - 1, 0] of blocks
    # k = 0, 1 and fock_dim. D is zero on block 0, so once omega D
    # dominates ||L(omega)||_F only the centre-block figure sees an error
    # there. In the "small" set every rate is 1e-4 GHz, so ||L(omega)||_F
    # is far below 1 near resonance: the figures must not depend on the
    # generator's scale.
    @pytest.mark.parametrize("probe", [0.0, 1e4, 1e160])
    @pytest.mark.parametrize("block", ["0", "1", "fock_dim"])
    @pytest.mark.parametrize("scale", ["ref", "small"])
    def test_corrupted_block_raises(self, ref_params, monkeypatch, scale,
                                    block, probe):
        params = ref_params if scale == "ref" else SMALL_RATES
        validate_density_matrix(steady_state(params, probe))
        d, fock_dim = params.dim, params.fock_dim
        at = {"0": 1 + d, "1": 1, "fock_dim": 2 * fock_dim - 1}[block]
        assert excitation_difference(fock_dim)[at] == {
            "0": 0, "1": 1, "fock_dim": fock_dim}[block]
        solve = hilbert._block_solve

        def corrupted(*args):
            x = solve(*args)
            x[at] += 1e-6
            return x

        monkeypatch.setattr(hilbert, "_block_solve", corrupted)
        with pytest.raises(NumericalError,
                           match=r"^steady-state (centre-block )?residual "):
            steady_state(params, probe)


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
           probe=st.floats(-190, 190), fock_dim=st.integers(2, 5))
    def test_agrees_with_a_dense_solve(self, kappa, g3, g4, gamma_d3,
                                       gamma_d4, omega_x, delta_h, probe,
                                       fock_dim):
        p = SystemParams(kappa=kappa, g3=g3, g4=g4, gamma_d3=gamma_d3,
                         gamma_d4=gamma_d4, omega_c=0.0, omega_x=omega_x,
                         delta_h=delta_h, fock_dim=fock_dim)
        rho = steady_state(p, probe)
        dense = dense_steady_state(build_liouvillian(p, probe))
        assert np.max(np.abs(rho - dense)) <= 1e-12

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


class TestRefinement:
    """One refinement step runs only when the first solve's backward
    error exceeds machine epsilon."""

    @staticmethod
    def count_solves(monkeypatch, perturb=0.0, at=0):
        """Count ``_block_solve`` calls; add ``perturb`` at ``at`` to the first."""
        solve, calls = hilbert._block_solve, []

        def counted(*args):
            x = solve(*args)
            if not calls:
                x[at] += perturb
            calls.append(len(args))
            return x

        monkeypatch.setattr(hilbert, "_block_solve", counted)
        return calls

    @pytest.mark.parametrize("scale", ["ref", "small"])
    def test_clean_solve_is_not_refined(self, ref_params, monkeypatch, scale):
        params, unit = ((ref_params, 1.0) if scale == "ref"
                        else (SMALL_RATES, 1e-4 / ref_params.kappa))
        calls = self.count_solves(monkeypatch)
        for probe in (-20.0, 0.0, 12.0, 33.0):
            steady_state(params, probe * unit)
        assert len(calls) == 4

    @pytest.mark.parametrize("probe", [0.0, 1e4, 1e160])
    def test_perturbed_first_solve_is_refined(self, ref_params, probe):
        clean = steady_state(ref_params, probe)
        d, fock_dim = ref_params.dim, ref_params.fock_dim
        # rho[1, 1], rho[1, 0] and rho[2 fock_dim - 1, 0], in blocks k = 0,
        # 1 and fock_dim: the refinement's sweep towards k = 0 carries each
        # residual through the kept S_k, down to the centre block C
        for at, k in ((1 + d, 0), (1, 1), (2 * fock_dim - 1, fock_dim)):
            assert excitation_difference(fock_dim)[at] == k
            with pytest.MonkeyPatch.context() as patch:
                calls = self.count_solves(patch, 1e-9, at)
                rho = steady_state(ref_params, probe)
            # the solve for e_0, then the refinement solve for its residual
            assert calls == [2, 3]
            assert np.max(np.abs(rho - clean)) <= 1e-14
            assert np.array_equal(rho, rho.conj().T)

    def test_matches_two_solves_over_seeded_draws(self):
        # The ranges of the benchmark's master-equation scan, where no
        # solve is refined: a refinement step would move no entry of the
        # state beyond roundoff.
        rng = np.random.default_rng(27)
        worst = 0.0
        for _ in range(40):
            p = SystemParams(kappa=rng.uniform(10, 50), g3=rng.uniform(0, 15),
                             g4=rng.uniform(0, 25),
                             gamma_d3=rng.uniform(0.5, 5),
                             gamma_d4=rng.uniform(0.5, 5), omega_c=0.0,
                             omega_x=rng.uniform(-20, 20),
                             delta_h=rng.uniform(0, 20))
            blocks = hilbert._generator_parts(p)[2]
            span = max(abs(p.omega_x), abs(p.omega_x - p.delta_h)) + 3 * p.kappa
            for probe in rng.uniform(-span, span, 4):
                factors = hilbert._eliminate(blocks, probe)
                x = hilbert._block_solve(blocks, factors)
                r = -(build_liouvillian(p, probe) @ x)
                r[0] = 1.0 - np.trace(x.reshape((p.dim, p.dim), order="F"))
                transpose = blocks.table.transpose
                x += hilbert._block_solve(blocks, factors,
                                          0.5 * (r + r[transpose].conj()))
                twice = hilbert._density_matrix(x, p.dim)
                worst = max(worst, np.max(np.abs(steady_state(p, probe) - twice)))
        assert worst <= 1e-15


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

    def test_nonfinite_state_rejected(self):
        rho = ground_state(2)
        rho[1, 1] = math.nan
        for check in (validate_density_matrix, expectation_photon_number):
            with pytest.raises(StateError, match="^density matrix has "
                               "non-finite entries$"):
                check(rho)

    def test_amplitude_of_vacuum(self):
        assert expectation_cavity_amplitude(ground_state(4)) == 0.0

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    def test_readouts_match_the_operator_traces(self, fock_dim):
        # Both readouts take the entries of rho they need, not a product
        a = hilbert._operators(fock_dim)[0]
        number = number_operator(fock_dim)
        rng = np.random.default_rng(fock_dim)
        m = rng.standard_normal((3 * fock_dim, 6 * fock_dim)).view(complex)
        mixed = m @ m.conj().T
        states = [mixed / np.trace(mixed).real] + [
            steady_state(distinct_params(fock_dim, 1), probe)
            for probe in (-30.0, 0.0, 12.0)]
        eps = np.finfo(float).eps
        for rho in states:
            for value, reference in (
                    (expectation_cavity_amplitude(rho), np.trace(rho @ a)),
                    (expectation_photon_number(rho), np.trace(rho @ number).real)):
                assert abs(value - reference) <= 4 * eps * max(1.0, abs(reference))


class TestRealForm:
    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(10, 50), g3=st.floats(0, 15), g4=st.floats(0, 25),
           gamma_d3=st.floats(0, 5), gamma_d4=st.floats(0, 5),
           omega_x=st.floats(-20, 20), delta_h=st.floats(0, 20),
           probe=st.floats(-190, 190), fock_dim=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_real_form_is_a_similarity(self, kappa, g3, g4, gamma_d3,
                                       gamma_d4, omega_x, delta_h, probe,
                                       fock_dim, seed):
        # c(v) = Re v + Im v carries L v to M c(v) for every hermitian rho,
        # and ((1+i) c + (1-i) c[t]) / 2 gives v back to rounding.
        p = SystemParams(kappa=kappa, g3=g3, g4=g4, gamma_d3=gamma_d3,
                         gamma_d4=gamma_d4, omega_c=0.0, omega_x=omega_x,
                         delta_h=delta_h, fock_dim=fock_dim)
        liou = build_liouvillian(p, probe)
        real, swap = hilbert._real_form(liou, p.dim)
        assert real.dtype == np.float64
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim))
        rho = a + a.conj().T
        v = vec(rho)
        assert np.array_equal(v[swap], vec(rho.T))
        c = v.real + v.imag
        lv = liou @ v
        scale = np.linalg.norm(liou, np.inf) * np.max(np.abs(v))
        assert np.max(np.abs((lv.real + lv.imag) - real @ c)) <= 1e-13 * scale
        back = 0.5 * ((1 + 1j) * c + (1 - 1j) * c[swap])
        assert np.max(np.abs(back - v)) <= 4 * np.finfo(float).eps * np.max(np.abs(v))


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

    @pytest.mark.parametrize("fock_dim, spectral_step", [(3, False), (7, True)])
    def test_powering_equals_step_loop(self, ref_params, fock_dim, spectral_step):
        # fock_dim 3 takes 390 steps on 81 rows: four squarings, two of
        # them after an odd count, then 24 matvecs. fock_dim 7 with the
        # spectral step takes 391 steps on 441 rows: two squarings, both
        # after an odd count, then 97 matvecs.
        p = replace(ref_params, fock_dim=fock_dim)
        liou = build_liouvillian(p, 5.0)
        t_final = 20.0 / p.kappa
        if spectral_step:
            dt, _ = liouvillian_timescales(liou)
        else:
            dt = 2.0 / np.linalg.norm(liou, 1)
        n_steps = math.ceil(t_final / dt)
        squared_above = 2 * hilbert._SQUARING_MATVECS * p.dim**2
        assert n_steps > (2 if spectral_step else 8) * squared_above
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

    def test_default_step_from_the_square_of_the_real_form(self, ref_params):
        # The default step is 2/sqrt(||M^2||_1), which for this set gives
        # fewer steps than the 2/||L||_1 of the complex generator.
        p = replace(ref_params, fock_dim=3)
        liou = build_liouvillian(p, 5.0)
        d = p.dim
        index = np.arange(d * d)
        swap = index // d + d * (index % d)
        real = liou.real + liou.imag[:, swap]
        dt = 2.0 / math.sqrt(np.linalg.norm(real @ real, 1))
        t_final = 20.0 / p.kappa
        assert math.ceil(t_final / dt) < math.ceil(
            t_final * np.linalg.norm(liou, 1) / 2.0)
        rho = time_evolve_oracle(p, 5.0, t_final=t_final)
        assert np.array_equal(
            rho, time_evolve_oracle(p, 5.0, t_final=t_final, dt=dt))

    @pytest.mark.parametrize("edit, message", [
        (lambda rho: rho[:6, :6], r"^rho0 of shape \(6, 6\) is not on the "
                                  r"fock_dim=4 space$"),
        (lambda rho: rho[:5, :5], r"^expected a square matrix on a "
                                  r"3\*fock_dim space, got \(5, 5\)$"),
        (lambda rho: rho[:0, :0], r"3\*fock_dim space, got \(0, 0\)$"),
        (lambda rho: rho[0, 0], r"3\*fock_dim space, got \(\)$"),
        (lambda rho: np.where(rho == 0.0, math.nan, rho), "non-finite"),
        (lambda rho: rho + np.triu(np.ones_like(rho), 1), "not hermitian"),
        (lambda rho: 2.0 * rho, "trace"),
        (lambda rho: np.diag([1.5, -0.5] + [0.0] * 10), "not positive"),
    ], ids=["other-space", "not-3-fold", "empty", "scalar", "nan",
            "non-hermitian", "trace", "negative"])
    def test_invalid_initial_state_refused_first(self, ref_params, monkeypatch,
                                                 edit, message):
        # refused before the generator is built
        def refuse(*args, **kwargs):
            raise AssertionError("the generator was built")
        monkeypatch.setattr(hilbert, "build_liouvillian", refuse)
        rho0 = edit(ground_state(ref_params.fock_dim))
        with pytest.raises(StateError, match=message):
            time_evolve_oracle(ref_params, 0.0, t_final=1.0, rho0=rho0)

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

    def test_overflowing_step_matrix_refused_quietly(self, ref_params):
        # ||L||_F is finite at this probe, but M^2 overflows: the default
        # step is 0 and is refused, with no numpy warning
        with pytest.raises(NumericalError, match=r"^invalid integration "
                           r"step dt=0\.0$"):
            time_evolve_oracle(ref_params, 1e160, t_final=1.0)

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
        # the real coupling convention, solved densely from the textbook
        # generator
        for probe in (-25.0, 0.0, 9.0, 30.0):
            n_imag = expectation_photon_number(steady_state(ref_params, probe))
            n_real = expectation_photon_number(dense_steady_state(
                textbook_liouvillian(ref_params, probe, real_g3=True)))
            assert abs(n_imag - n_real) / n_imag < 1e-10
