"""Driven V-scheme master equation on a truncated atom x Fock space.

The Hilbert space is spanned by |atom> x |n> with atom in
{ground, excited3, excited4} and n = 0 .. fock_dim-1; the flat index is
atom * fock_dim + n. Transition 3 is the higher-frequency line of the
spin-down doublet (frequency omega_x), transition 4 sits delta_h below
it. Both couple to a common cavity mode at omega_c.

In the frame rotating at the probe frequency the Hamiltonian is

    H/hbar = Dc a'a + D3 s3's3 + D4 s4's4
             + i g3 (a s3' - s3 a') + g4 (a s4' + s4 a')
             + eps (a + a')

with Dc = omega_c - omega, D3 = omega_x - omega,
D4 = omega_x - delta_h - omega, and a weak coherent probe drive eps.
Dissipation enters through the Lindblad terms

    kappa D(a) + gamma3 D(s3) + gamma4 D(s4)
    + 2 gamma_d3 D(s3's3) + 2 gamma_d4 D(s4's4),

where D(O)rho = O rho O' - {O'O, rho}/2. The probe frequency enters H
only through -omega N with N = a'a + s3's3 + s4's4, so the generator is
affine in it:

    L(omega) = L0 + omega D,    D = i 2pi (1 x N - N x 1),

with D diagonal. Ordered by the excitation difference k = N_i - N_j of
rho[i, j], L(omega) is block tridiagonal (the undriven generator
conserves k, the drive moves it by one). ``steady_state`` eliminates its
blocks towards k = 0, the matrix continued fraction of Risken, The
Fokker-Planck Equation, ch. 9. The RK4 oracle uses the dense generator
alone and solves no linear system. L maps hermitian matrices to
hermitian ones, so the oracle integrates its real form (Alicki and
Lendi, Quantum Dynamical Semigroups and Applications, 1987), on which
every product is real.

All user-facing rates and frequencies are quoted values (value/2pi in
GHz); internally one global multiplication by 2pi converts them to
angular units (rad/ns, with time measured in ns).

The i g3 coupling phase is a pure gauge choice: conjugating the atomic
basis maps it to a real coupling without changing any observable. The
``real_g3`` flag of the builders switches to the real convention so the
equivalence can be asserted numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError, StateError
from .physcalc import (TWO_PI, _require_finite_real, _require_int,
                       _require_squarable)

DEFAULT_FOCK_DIM = 4

# Density-matrix invariant tolerances.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = -1e-8
_RESIDUAL_REL = 1e-9
# Extra Fock levels of the larger cutoff fock_convergence_shift compares.
_CONVERGENCE_EXTRA = 2

# Largest dense generator, 16 (3 fock_dim)^4 bytes, that SystemParams
# admits. A steady-state solve holds two matrices of this size, the
# cached L0 and L(omega), and a failed one adds a bordered copy and SVD
# workspace for its condition number. Assembling L0 with its blocks holds
# about 1.1-1.3, as jump terms are scattered in place; the RK4 oracle up
# to three, its real step matrices being half the size.
_GENERATOR_BYTES_LIMIT = 256 * 2**20

# The sign each SystemParams rate must have; every other value need only
# be finite.
_SIGNS = {"kappa": "positive", **dict.fromkeys(
    ("g3", "g4", "gamma3", "gamma4", "gamma_d3", "gamma_d4", "drive_amp"), ">= 0")}


@dataclass(frozen=True)
class SystemParams:
    """All rates and frequencies of the coupled dot-cavity system.

    Rates and frequencies are value/2pi in GHz. ``drive_amp`` is the
    coherent probe amplitude; it defaults to kappa/100, which keeps the
    system deep in linear response. ``fock_dim`` is the photon-number
    cutoff (occupied levels 0 .. fock_dim-1); it is refused when the
    dense generator would pass ``_GENERATOR_BYTES_LIMIT``. Every rate and
    frequency must be a finite real number.
    """

    kappa: float
    g3: float
    g4: float
    gamma_d3: float
    gamma_d4: float
    omega_c: float
    omega_x: float
    delta_h: float
    gamma3: float = 0.1
    gamma4: float = 0.1
    drive_amp: float | None = None
    fock_dim: int = DEFAULT_FOCK_DIM

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "fock_dim" or (f.name == "drive_amp" and value is None):
                continue
            _require_finite_real(f.name, value, _SIGNS.get(f.name))
        for name in ("g3", "g4"):
            _require_squarable(f"2 pi {name}", TWO_PI * getattr(self, name))
        _require_int("fock_dim", self.fock_dim, 2)
        matrix_bytes = 16 * (3 * int(self.fock_dim)) ** 4
        if matrix_bytes > _GENERATOR_BYTES_LIMIT:
            raise DomainError(
                f"fock_dim={self.fock_dim} needs a {matrix_bytes / 2**20:.0f} MiB "
                f"generator, above the {_GENERATOR_BYTES_LIMIT / 2**20:.0f} MiB limit")
        if self.drive_amp is None:
            object.__setattr__(self, "drive_amp", self.kappa / 100.0)
        if self.drive_amp > self.kappa / 10.0:
            warnings.warn(
                "drive_amp exceeds kappa/10; linear-response comparisons "
                "with the closed-form spectra will degrade", stacklevel=2)

    @property
    def dim(self) -> int:
        return 3 * self.fock_dim


@lru_cache(maxsize=16)
def _operators(fock_dim: int):
    """(a, sigma3, sigma4) on the full space, cached read-only."""
    a_fock = np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)
    a = np.kron(np.eye(3), a_fock)
    m3 = np.zeros((3, 3), dtype=complex)
    m3[0, 1] = 1.0   # |ground><excited3|
    m4 = np.zeros((3, 3), dtype=complex)
    m4[0, 2] = 1.0   # |ground><excited4|
    s3 = np.kron(m3, np.eye(fock_dim))
    s4 = np.kron(m4, np.eye(fock_dim))
    for op in (a, s3, s4):
        op.setflags(write=False)
    return a, s3, s4


def number_operator(fock_dim: int) -> np.ndarray:
    """Photon-number operator a'a on the full space."""
    return np.kron(np.eye(3), np.diag(np.arange(fock_dim, dtype=float))).astype(complex)


def build_hamiltonian(params: SystemParams, probe_freq: float,
                      real_g3: bool = False) -> np.ndarray:
    """Hamiltonian (angular units, rad/ns) in the probe rotating frame.

    ``probe_freq`` must be a finite real number.
    """
    _require_finite_real("probe_freq", probe_freq)
    a, s3, s4 = _operators(params.fock_dim)
    ad = a.conj().T
    h = TWO_PI * (
        (params.omega_c - probe_freq) * (ad @ a)
        + (params.omega_x - probe_freq) * (s3.conj().T @ s3)
        + (params.omega_x - params.delta_h - probe_freq) * (s4.conj().T @ s4)
        + params.g4 * (a @ s4.conj().T + s4 @ ad)
        + params.drive_amp * (a + ad)
    )
    if real_g3:
        h = h + TWO_PI * params.g3 * (a @ s3.conj().T + s3 @ ad)
    else:
        h = h + 1j * TWO_PI * params.g3 * (a @ s3.conj().T - s3 @ ad)
    return h


@lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")   # overflow is refused below
def _generator_parts(params: SystemParams, real_g3: bool):
    """(L0, D, blocks, norms) with L(omega) = L0 + omega * diag(D), cached read-only.

    L rho = H_eff rho + rho H_eff' + sum_r r C rho C' with
    H_eff = -i H - (1/2) sum_r r C'C, where H is the Hamiltonian at zero
    probe frequency. On the (d, d, d, d) view of the column-major
    generator, entry [j, i, l, k] maps rho[k, l] to (L rho)[i, j], so
    the I x H_eff and conj(H_eff) x I terms are writes on diagonal blocks.
    Each collapse operator C has at most one nonzero per row, so its
    jump term r C rho C' has at most d^2 nonzeros: for the nonzeros
    C[i, k] and C[j, l] it adds r conj(C[j, l]) C[i, k] at [j, i, l, k].
    These are scattered straight into the generator; within one operator
    the index tuples are distinct, so no entry is added twice, and the
    operators are added in a fixed order.

    ``blocks`` = (centre, sides, spans, diag, up, down, swap) holds the
    blocks k >= 0 of the bordered L0, grouped by the integer k = N_i - N_j
    behind D. The trace row that replaces row 0 (rho[0, 0]) lives on
    block 0. L0 maps rho' to (L0 rho)', so block -k, its entries in the
    transposed order of block k's, is the complex conjugate of block k
    and is not stored. The parts are the column-major flat indices of
    block 0; rows pairing each index of a block k > 0 with that of its
    transpose, and the slice ``spans[k]`` of block k's rows; the diagonal
    blocks and the couplings of block k to k + 1 and to k - 1
    (``down[0]`` is None); and the permutation that orders block 0 as
    its own transpose.

    ``norms`` = (||L0||^2, 2 Re <D, diag L0>, ||D||^2), so that
    ||L(omega)||_F^2 = ||L0||^2 + omega 2 Re <D, diag L0> + omega^2 ||D||^2
    with no pass over the generator's entries (D is diagonal).
    """
    d = params.dim
    a, s3, s4 = _operators(params.fock_dim)
    n3 = s3.conj().T @ s3
    n4 = s4.conj().T @ s4
    h_eff = -1j * build_hamiltonian(params, 0.0, real_g3=real_g3)
    liou = np.zeros((d, d, d, d), dtype=complex)
    for rate, op in ((TWO_PI * params.kappa, a),
                     (TWO_PI * params.gamma3, s3),
                     (TWO_PI * params.gamma4, s4),
                     (2.0 * TWO_PI * params.gamma_d3, n3),
                     (2.0 * TWO_PI * params.gamma_d4, n4)):
        h_eff -= 0.5 * rate * (op.conj().T @ op)
        r, c = np.nonzero(op)
        v = op[r, c]
        liou[r[:, None], r[None, :], c[:, None], c[None, :]] += (
            rate * np.multiply.outer(v.conj(), v))
    idx = np.arange(d)
    liou[idx, :, idx, :] += h_eff
    liou[:, idx, :, idx] += h_eff.conj()
    liou = liou.reshape(d * d, d * d)
    if not np.isfinite(liou).all():
        raise NumericalError("the generator L0 overflows for these "
                             "parameters; no steady-state solve can use it")
    # The probe enters H only as -2pi omega N, N = a'a + s3's3 + s4's4:
    # at index atom * fock_dim + n, N is n plus 1 if the atom is excited.
    number = idx % params.fock_dim + (idx >= params.fock_dim)
    k_of = (number[None, :] - number[:, None]).reshape(-1)
    diag_d = 1j * TWO_PI * k_of
    index = [np.flatnonzero(k_of == k) for k in range(params.fock_dim + 1)]
    diag = [liou[np.ix_(i, i)] for i in index]
    diag[0][0] = _trace_vector(d)[index[0]]
    up = [liou[np.ix_(m, n)] for m, n in zip(index, index[1:])]
    up[0][0] = 0.0
    down = [None] + [liou[np.ix_(m, n)] for m, n in zip(index[1:], index)]
    centre = index[0]
    upper = np.concatenate(index[1:])
    sides = np.stack((upper, upper // d + d * (upper % d)), axis=1)
    ends = np.cumsum([0] + [len(i) for i in index[1:]])
    spans = [None] + [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    swap = np.searchsorted(centre, centre // d + d * (centre % d))
    norms = (float(np.vdot(liou, liou).real),
             2.0 * float(np.vdot(diag_d, liou.diagonal()).real),
             float(np.vdot(diag_d, diag_d).real))
    for part in (liou, diag_d, centre, sides, *diag, *up, *down[1:], swap):
        part.setflags(write=False)
    return liou, diag_d, (centre, sides, spans, diag, up, down, swap), norms


def build_liouvillian(params: SystemParams, probe_freq: float,
                      real_g3: bool = False) -> np.ndarray:
    """Generator L with d vec(rho)/dt = L vec(rho), column-major vec.

    Returns a fresh, writable L0 + probe_freq * diag(D). ``probe_freq``
    must be a finite real number.
    """
    _require_finite_real("probe_freq", probe_freq)
    l0, diag, _, _ = _generator_parts(params, real_g3)
    liou = l0.copy()
    liou.reshape(-1)[::liou.shape[0] + 1] += probe_freq * diag
    return liou


def _generator_norm(norms, probe_freq: float) -> float:
    """||L0 + probe_freq D||_F from the ``norms`` of ``_generator_parts``."""
    norm2, cross, d_norm2 = norms
    return math.sqrt(norm2 + probe_freq * (cross + probe_freq * d_norm2))


def _trace_vector(d: int) -> np.ndarray:
    """Row functional t with t @ vec(rho) = Tr rho (column-major vec)."""
    t = np.zeros(d * d, dtype=complex)
    t[np.arange(d) * d + np.arange(d)] = 1.0
    return t


def _density_matrix(v: np.ndarray, d: int) -> np.ndarray:
    """The hermitized, unit-trace matrix of a column-major vec(rho)."""
    rho = v.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _require_positive(rho: np.ndarray) -> None:
    """StateError when the hermitian ``rho`` has an eigenvalue below POSITIVITY_TOL."""
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < POSITIVITY_TOL:
        raise StateError(f"density matrix not positive: min eigenvalue {min_eig:.3e}")


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check finite entries, hermiticity, unit trace and numerical positivity."""
    if not np.isfinite(rho).all():
        raise StateError("density matrix has non-finite entries")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
        raise StateError(f"density matrix not hermitian: defect {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateError(f"density matrix trace {tr} != 1")
    _require_positive(rho)


def _eliminate(blocks, probe_freq: float):
    """Inverse Schur complements of the bordered L(probe_freq).

    The blocks k > 0 are eliminated from k = fock_dim down to 1:
    S_k = A_k + i 2pi k omega - up_k T_(k+1) and T_k = S_k^-1 down_k.
    The side k < 0 is the complex conjugate of this one and folds into
    the centre block through ``swap``. Returns (inverses, couplings):
    S_k^-1 and T_k for k >= 1, and at k = 0 the inverse of the centre.
    A singular block raises ``np.linalg.LinAlgError``.
    """
    _, _, _, diag, up, down, swap = blocks
    top = len(diag) - 1
    inverses, couplings = [None] * (top + 1), [None] * (top + 1)
    for k in range(top, 0, -1):
        s = diag[k].copy()
        s.reshape(-1)[::s.shape[0] + 1] += 1j * TWO_PI * k * probe_freq
        if k < top:
            s -= up[k] @ couplings[k + 1]
        inverses[k] = np.linalg.inv(s)
        couplings[k] = inverses[k] @ down[k]
    w = up[0] @ couplings[1]
    inverses[0] = np.linalg.inv(diag[0] - w - w[swap][:, swap].conj())
    return inverses, couplings


def _block_solve(blocks, factors, rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve the bordered system for ``rhs`` with the factors of ``_eliminate``.

    The entries of blocks k and -k run together as the two columns
    [v_k, conj(v_-k)], so both sides go through the same k > 0 factors.
    ``rhs=None`` stands for e_0, the right-hand side of the trace row.
    It lies in the centre block at position 0, so the sweep towards
    k = 0 would act on zeros only: the centre solution is column 0 of
    the centre inverse, and only the sweep outwards runs.
    """
    centre, sides, spans, _, up, _, swap = blocks
    inverses, couplings = factors
    top = len(spans) - 1
    if rhs is None:
        y = np.zeros(sides.shape, dtype=complex)
        x0 = inverses[0][:, 0]
    else:
        y = rhs[sides]
        y[:, 1] = y[:, 1].conj()
        for k in range(top, 0, -1):
            if k < top:
                y[spans[k]] -= up[k] @ y[spans[k + 1]]
            y[spans[k]] = inverses[k] @ y[spans[k]]
        w = up[0] @ y[spans[1]]
        x0 = inverses[0] @ (rhs[centre] - w[:, 0] - w[swap, 1].conj())
    below = np.stack((x0, x0[swap].conj()), axis=1)
    for k in range(1, top + 1):
        y[spans[k]] -= couplings[k] @ below
        below = y[spans[k]]
    y[:, 1] = y[:, 1].conj()
    x = np.empty(len(centre) + sides.size, dtype=complex)
    x[centre] = x0
    x[sides] = y
    return x


def _solve_failure(message: str, liou: np.ndarray, d: int) -> NumericalError:
    """The error of a failed steady-state solve, with its condition estimate.

    The estimate is the condition number of L with row 0 replaced by the
    trace row; inf when that matrix is not finite or its SVD fails.
    """
    bordered = liou.copy()
    bordered[0] = _trace_vector(d)
    cond = math.inf
    if np.isfinite(bordered).all():
        try:
            cond = float(np.linalg.cond(bordered))
        except np.linalg.LinAlgError:
            pass
    return NumericalError(f"{message}; condition estimate {cond:.3e}",
                          condition_estimate=cond)


def steady_state(params: SystemParams, probe_freq: float,
                 real_g3: bool = False) -> np.ndarray:
    """Unique steady state of the driven damped system.

    Solves L vec(rho) = 0 with row 0 of the (singular) generator replaced
    by the trace-normalization equation. The bordered system is block
    tridiagonal in the excitation-difference ordering (``_generator_parts``);
    it is solved by block elimination from both ends towards k = 0. The
    right-hand side e_0 lies in block 0, so the first solution is column 0
    of the centre inverse carried outwards block by block. One step of
    iterative refinement follows and reuses the inverse Schur complements.
    The residual of the refinement and the final check are formed with the
    dense L(omega); the final check compares against ||L(omega)||_F, which
    comes from three cached scalars of the parameter set. The result is
    symmetrized and exactly trace-normalized, so of the invariants of
    ``validate_density_matrix`` only positivity is left to test, by the
    same rule: an eigenvalue below POSITIVITY_TOL raises StateError. The
    truncated generator keeps Lindblad form, so its steady state is
    positive at any Fock cutoff; a breach means a failed solve.
    """
    liou = build_liouvillian(params, probe_freq, real_g3=real_g3)
    _, _, blocks, norms = _generator_parts(params, real_g3)
    d = params.dim
    scale = _generator_norm(norms, probe_freq)
    try:
        factors = _eliminate(blocks, probe_freq)
        x = _block_solve(blocks, factors)
        # Residual of the bordered system: row 0 is the trace equation.
        r = -(liou @ x)
        r[0] = 1.0 - x[::d + 1].sum()
        x += _block_solve(blocks, factors, r)
    except np.linalg.LinAlgError as exc:
        raise _solve_failure(f"steady-state solve failed ({exc})", liou, d) from exc

    residual = float(np.linalg.norm(liou @ x))
    if not residual <= _RESIDUAL_REL * scale:
        raise _solve_failure(f"steady-state residual {residual:.3e} exceeds "
                             f"{_RESIDUAL_REL} * norm {scale:.3e}", liou, d)

    rho = _density_matrix(x, d)
    _require_positive(rho)
    return rho


def _fock_dim_of(rho: np.ndarray) -> int:
    """fock_dim of a square matrix on the 3*fock_dim space, else StateError."""
    d = rho.shape[0] if rho.ndim == 2 else 0
    if not d or rho.shape != (d, d) or d % 3 != 0:
        raise StateError(f"expected a square matrix on a 3*fock_dim space, got {rho.shape}")
    return d // 3


def expectation_photon_number(rho: np.ndarray) -> float:
    """Tr(rho a'a); validates the state first."""
    fock_dim = _fock_dim_of(rho)
    validate_density_matrix(rho)
    value = complex(np.trace(rho @ number_operator(fock_dim)))
    if abs(value.imag) > 1e-10:
        raise StateError(f"photon number has imaginary part {value.imag:.3e}")
    return max(value.real, 0.0)


def expectation_cavity_amplitude(rho: np.ndarray) -> complex:
    """Coherent cavity amplitude Tr(rho a)."""
    a, _, _ = _operators(_fock_dim_of(rho))
    return complex(np.trace(rho @ a))


def ground_state(fock_dim: int) -> np.ndarray:
    """|ground, 0><ground, 0| on the full space."""
    d = 3 * fock_dim
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _real_form(liou: np.ndarray, d: int):
    """(M, t): the real form of the generator ``liou`` on hermitian matrices.

    L maps hermitian matrices to hermitian matrices, so on them it is a
    real operator. t is the transpose permutation of the column-major
    index, t[i + j d] = j + i d, so vec(rho)[t] = conj(vec(rho)) for a
    hermitian rho. The real vector c = Re vec(rho) + Im vec(rho) evolves
    by the real matrix M = Re L + Im L[:, t], and
    vec(rho) = ((1+i) c + (1-i) c[t]) / 2 maps it back: L S = S M with
    S = ((1+i) I + (1-i) Pi) / 2, Pi the permutation t. The map from
    vec(rho) to c has condition number sqrt(2). Im L[:, t] is Im L with
    its column axis, viewed as (d, d), transposed; that copy becomes M.
    """
    n = d * d
    real = liou.imag.reshape(n, d, d).transpose(0, 2, 1).reshape(n, n)
    real += liou.real
    index = np.arange(n)
    return real, index // d + d * (index % d)


def time_evolve_oracle(params: SystemParams, probe_freq: float, t_final: float,
                       dt: float | None = None,
                       rho0: np.ndarray | None = None) -> np.ndarray:
    """Brute-force steady-state oracle: explicit RK4 integration to t_final.

    Integrates d vec(rho)/dt = L vec(rho) with a fixed-step classical
    Runge-Kutta scheme. Because the flow is linear, the exact kernel of L
    is a fixed point of the RK4 map, so for long times the result
    converges to the true steady state with no truncation-error floor.

    The integration runs on the real form M of L (``_real_form``), so
    every product is real.

    The default step is 2/sqrt(||M^2||_1). By Gelfand's formula that
    bound is never below the spectral radius of M, which is that of L,
    so every eigenvalue of dt L lies in the left half-disk of radius 2,
    inside the RK4 stability region. kappa > 0 keeps the norm above 0;
    one that overflows gives a zero step, which is refused.

    The n steps are applied as P^n, where P = I + X + X^2 (I/2 + X/6 +
    X^2/24), X = dt M, is the exact RK4 step matrix, built from M^2 with
    one more product. While more than N = d^2 steps remain, P is squared
    (N^3 work) to halve their number; the remaining steps are
    matrix-vector products (N^2 work each). No linear system is solved.

    Time is in ns (1/GHz). t_final must be at least 20/kappa; it and an
    explicit dt must be finite real numbers. ``rho0`` (default: the
    ground state) must be a finite density matrix on the 3*fock_dim
    space of ``params`` (``validate_density_matrix``), else StateError.
    """
    _require_finite_real("t_final", t_final)
    if dt is not None:
        _require_finite_real("dt", dt)
    if t_final < 20.0 / params.kappa:
        raise DomainError(
            f"t_final={t_final} is below 20/kappa={20.0 / params.kappa}; "
            "the oracle contract needs many cavity lifetimes")
    if rho0 is None:
        rho0 = ground_state(params.fock_dim)
    else:
        if _fock_dim_of(rho0) != params.fock_dim:
            raise StateError(f"rho0 of shape {rho0.shape} is not on the "
                             f"fock_dim={params.fock_dim} space")
        validate_density_matrix(rho0)
    d = params.dim
    n = d * d
    real, swap = _real_form(build_liouvillian(params, probe_freq), d)
    square = real @ real
    if dt is None:
        dt = 2.0 / math.sqrt(float(np.linalg.norm(square, 1)))
    if dt <= 0 or not math.isfinite(dt):
        raise NumericalError(f"invalid integration step dt={dt}")
    n_steps = int(math.ceil(t_final / dt))
    if n_steps > 50_000_000:
        raise NumericalError(
            f"step size dt={dt:.3e} underflows the time span: {n_steps} steps")
    dt = t_final / n_steps

    v = (0.5 * (rho0 + rho0.conj().T)).reshape(-1, order="F")
    c = v.real + v.imag
    # One RK4 step is c -> P c, P = I + X + X^2 (I/2 + X/6 + X^2/24).
    # Binary powering of P stops once no more steps remain than P has
    # rows: a squaring then costs more than the matvecs it saves.
    real *= dt
    square *= dt * dt
    step = real / 6.0
    step += square / 24.0
    step.reshape(-1)[::n + 1] += 0.5
    step = square @ step
    step += real
    step.reshape(-1)[::n + 1] += 1.0
    del real, square
    while n_steps > n:
        if n_steps & 1:
            c = step @ c
        n_steps >>= 1
        step = step @ step
    for _ in range(n_steps):
        c = step @ c
    return _density_matrix(0.5 * ((1 + 1j) * c + (1 - 1j) * c[swap]), d)


def _larger_cutoff(params: SystemParams) -> SystemParams:
    """``params`` at the larger Fock cutoff that ``fock_convergence_shift`` uses.

    Building it refuses a cutoff whose generator passes the size limit,
    so a caller can build it before solving anything.
    """
    return replace(params, fock_dim=params.fock_dim + _CONVERGENCE_EXTRA)


def fock_convergence_shift(params: SystemParams, probe_freq: float) -> float:
    """Relative photon-number change when the Fock cutoff grows by 2.

    A shift above 1e-3 at drive_amp <= kappa/20 means the truncation is
    not converged and fock_dim should be raised. That threshold is
    calibrated for this fixed +2 (``_CONVERGENCE_EXTRA``).
    """
    bigger = _larger_cutoff(params)
    n0 = expectation_photon_number(steady_state(params, probe_freq))
    n1 = expectation_photon_number(steady_state(bigger, probe_freq))
    if n1 == 0.0:
        return 0.0
    return abs(n1 - n0) / n1
