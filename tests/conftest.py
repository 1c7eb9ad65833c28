"""Shared reference parameter sets and reference generators for the test suite."""

import math

import numpy as np
import pytest

from spincavity import ScanConfig, SystemParams, TrionLevels, hilbert
from spincavity.physcalc import TWO_PI, wavelength_to_frequency

# Canonical device numbers used throughout the suite: cavity linewidth
# 31.79 GHz, total zero-field coupling 18.67 GHz with transverse dipole
# rate 1.78 GHz, and the field-split couplings 17.2 / 7.2 GHz with
# dephasings 1.4 / 3.1 GHz. Transition 4 sits on the cavity resonance,
# 12 GHz below transition 3.
KAPPA = 31.79
G_TOTAL = 18.67
GAMMA_PERP_0T = 1.78
G4 = 17.2
G3 = 7.2
GAMMA_D3 = 3.1
GAMMA_D4 = 1.4
DELTA_H = 12.0

CAVITY_NM = 931.45
DOT_0T_NM = 931.50
ELECTRON_G = 0.478
HOLE_G = 0.143
DIAMAGNETIC = 1.15  # GHz/T^2, places the transition-4 crossing near 6.2 T


@pytest.fixture
def ref_params() -> SystemParams:
    """Coupled-system parameters with transition 4 on cavity resonance."""
    return SystemParams(kappa=KAPPA, g3=G3, g4=G4,
                        gamma_d3=GAMMA_D3, gamma_d4=GAMMA_D4,
                        omega_c=0.0, omega_x=DELTA_H, delta_h=DELTA_H)


@pytest.fixture
def bare_params(ref_params) -> SystemParams:
    from dataclasses import replace
    return replace(ref_params, g3=0.0, g4=0.0)


@pytest.fixture
def ref_levels() -> TrionLevels:
    return TrionLevels(zero_field_frequency=wavelength_to_frequency(DOT_0T_NM),
                       electron_g=ELECTRON_G, hole_g=HOLE_G,
                       diamagnetic_coeff=DIAMAGNETIC)


@pytest.fixture
def cavity_freq() -> float:
    return wavelength_to_frequency(CAVITY_NM)


@pytest.fixture
def ref_scan() -> ScanConfig:
    """Symmetric scan whose grid contains the cavity resonance exactly."""
    return ScanConfig(start=-60.0, stop=60.0, n_points=241,
                      scale=(np.pi * KAPPA) ** 2, background=0.0)


def textbook_hamiltonian(params, probe, real_g3=False):
    """Reference H/hbar of the ``hilbert`` module docstring, term by term (rad/ns).

    ``real_g3`` takes the real coupling g3 (a s3' + s3 a') in place of the
    library's i g3 (a s3' - s3 a'); the two differ by the gauge unitary
    U = diag(1, -i, 1) x I on the atomic basis.
    """
    a, s3, s4 = hilbert._operators(params.fock_dim)
    ad, s3d, s4d = a.conj().T, s3.conj().T, s4.conj().T
    coupling3 = (a @ s3d + s3 @ ad) if real_g3 else 1j * (a @ s3d - s3 @ ad)
    return TWO_PI * ((params.omega_c - probe) * (ad @ a)
                     + (params.omega_x - probe) * (s3d @ s3)
                     + (params.omega_x - params.delta_h - probe) * (s4d @ s4)
                     + params.g3 * coupling3
                     + params.g4 * (a @ s4d + s4 @ ad)
                     + params.drive_amp * (a + ad))


def textbook_liouvillian(params, probe, real_g3=False):
    """Reference generator: -i[H, .] plus one Kronecker-built dissipator
    rate * (C* x C - (1/2) I x C'C - (1/2) (C'C)^T x I) per collapse operator."""
    h = textbook_hamiltonian(params, probe, real_g3=real_g3)
    eye = np.eye(params.dim)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    a, s3, s4 = hilbert._operators(params.fock_dim)
    for rate, op in ((params.kappa, a),
                     (params.gamma3, s3), (params.gamma4, s4),
                     (2 * params.gamma_d3, s3.conj().T @ s3),
                     (2 * params.gamma_d4, s4.conj().T @ s4)):
        opdop = op.conj().T @ op
        liou += TWO_PI * rate * (np.kron(op.conj(), op)
                                 - 0.5 * np.kron(eye, opdop)
                                 - 0.5 * np.kron(opdop.T, eye))
    return liou


def dense_steady_state(liou):
    """Reference solve: one dense LU of the generator ``liou`` (column-major
    vec) with row 0 set to the trace row."""
    d = math.isqrt(liou.shape[0])
    m = liou.copy()
    m[0] = np.eye(d).reshape(-1, order="F")
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(m, b).reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real
