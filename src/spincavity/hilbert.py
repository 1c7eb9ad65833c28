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
only through -omega N with N = a'a + s3's3 + s4's4, and every other
parameter enters linearly, so the generator is

    L(omega) = sum_t c_t M_t + omega D,    D = i 2pi (1 x N - N x 1),

with D diagonal, c_t = 2pi times one of the eleven parameters kappa,
gamma3, gamma4, gamma_d3, gamma_d4, omega_c, omega_x, delta_h, g3, g4
and drive_amp, and M_t its fixed superoperator (``_terms``). The M_t of
a Fock cutoff are tabulated once, sparsely; a parameter set's
L0 = sum_t c_t M_t is one product of that table with the c_t, the route
of QuTiP's coefficient-weighted superoperators (Johansson, Nation and
Nori, Comput. Phys. Commun. 183, 1760 (2012)).

Ordered by the excitation difference k = N_i - N_j of rho[i, j],
L(omega) is block tridiagonal (the undriven generator conserves k, the
drive moves it by one). L maps hermitian matrices to hermitian ones, so
on them it has a real form (Alicki and Lendi, Quantum Dynamical
Semigroups and Applications, 1987), and block -k of a hermitian rho is
the conjugate transpose of block k. ``steady_state`` works on that
hermitian half: it eliminates the blocks k > 0 towards k = 0, the matrix
continued fraction of Risken, The Fokker-Planck Equation, ch. 9, with
one LU solve per block and no inverse, folds the mirrored side k < 0
into the real form of the centre Schur complement, LU-solves that real
matrix for a single column, and carries the one column outwards. The
RK4 oracle uses the dense generator alone and solves no linear system;
it integrates the real form of the whole generator, on which every
product is real.

All user-facing rates and frequencies are quoted values (value/2pi in
GHz); internally one global multiplication by 2pi converts them to
angular units (rad/ns, with time measured in ns).

The library uses the i g3 coupling phase. It is a pure gauge choice:
the unitary U = diag(1, -i, 1) x I on the atomic basis maps it to the
real coupling g3 (a s3' + s3 a') without changing any observable, and
the tests check the real convention through U.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

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
# A steady-state solve is refined only when its backward error exceeds this.
_EPSILON = float(np.finfo(float).eps)
# Extra Fock levels of the larger cutoff fock_convergence_shift compares.
_CONVERGENCE_EXTRA = 2
# Cost of squaring the N x N real RK4 step matrix, in matrix-vector
# products per row: the medians of 41 timings with OpenBLAS on one thread
# (x86-64, 2 vCPUs) were 0.17-0.21 matvecs per row for N = 144-441
# (fock_dim 4-7), and 0.10-0.12 at N = 81 and 576. Counting flops would
# say 1: a product of two matrices runs near the BLAS peak, a matvec at
# memory speed.
_SQUARING_MATVECS = 0.2

# Largest dense generator, 16 (3 fock_dim)^4 bytes, that SystemParams
# admits. A steady-state solve holds one matrix of this size, L(omega):
# the cache keeps only L0's nonzero values and its blocks, about 0.6 of
# it at fock_dim 8. A failed solve adds a bordered copy and SVD workspace
# for its condition number; the RK4 oracle holds up to three, its real
# step matrices being half the size.
_GENERATOR_BYTES_LIMIT = 256 * 2**20

# The signs of the four gathers that fold the side k < 0 into the real
# form of the centre block (``_Table.fold``, ``_eliminate``).
_FOLD_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])

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


def _terms(fock_dim: int):
    """The eleven terms of L0 = sum_t c_t M_t, c_t = 2pi times a parameter.

    One (name, operator, rate factor) per ``SystemParams`` field that
    enters the generator. A Hamiltonian term has the rate factor None:
    c_t times its operator is its part of H at zero probe frequency, and
    M_t rho = -i [operator, rho]. A collapse term C with rate factor f has
    M_t rho = f (C rho C' - {C'C, rho}/2).
    """
    a, s3, s4 = _operators(fock_dim)
    ad, s3d, s4d = a.conj().T, s3.conj().T, s4.conj().T
    n3, n4 = s3d @ s3, s4d @ s4
    return (("kappa", a, 1.0), ("gamma3", s3, 1.0), ("gamma4", s4, 1.0),
            ("gamma_d3", n3, 2.0), ("gamma_d4", n4, 2.0),
            ("omega_c", ad @ a, None), ("omega_x", n3 + n4, None),
            ("delta_h", -n4, None), ("g3", 1j * (a @ s3d - s3 @ ad), None),
            ("g4", a @ s4d + s4 @ ad, None), ("drive_amp", a + ad, None))


@dataclass(frozen=True)
class _Table:
    """What ``_generator_parts`` needs of one cutoff.

    L0 is zero but at the row-major flat positions ``at``. Row t of
    ``coeffs`` holds M_t there, real and imaginary parts interleaved, so
    c @ coeffs, for the values c of the terms ``names``, is L0.flat[at]
    viewed as floats. The blocks k >= 0 of the bordered L0 lie side by
    side in one buffer: ``base`` (zero but for the trace row in block 0)
    with the values ``src`` of L0 written at ``dst``. ``layout`` gives each
    block's (start, stop, shape), the diagonal blocks first, then the
    couplings to k + 1 and to k - 1. ``diag_d`` is D, and ``d_norm2`` its
    squared norm. ``im_on_diag`` picks, in the float view, the imaginary
    parts of the diagonal entries of L0 where D is not zero, and D is
    ``1j * d_on_diag`` there. ``centre_rows`` picks, in the float view, the
    entries of L0 on the rows of block 0, where D is zero.

    The solver's vector holds block 0, then the blocks k = 1 .. fock_dim,
    then their transposes (blocks -k) in the same order: slot s holds
    the column-major flat index ``order[s]``, ``spans[k]`` is block k's
    slice (``spans[0]`` that of block 0, whose indices are ``centre``),
    and ``gather`` is the inverse of ``order``. ``transpose`` maps each
    flat index to that of the transposed entry, and ``swap`` does so
    within block 0, which is its own transpose. ``fold`` holds four rows
    of flat indices into the float view of a complex block-0-sized w:
    they gather Re w, Im w[:, swap], Re w[swap][:, swap] and
    Im w[swap, :], which with the signs ``_FOLD_SIGNS`` sum to the real
    form of w + conj(w[swap][:, swap]).
    """

    names: tuple
    at: np.ndarray
    coeffs: np.ndarray
    diag_d: np.ndarray
    d_norm2: float
    im_on_diag: np.ndarray
    d_on_diag: np.ndarray
    centre_rows: np.ndarray
    base: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    layout: tuple
    centre: np.ndarray
    order: np.ndarray
    gather: np.ndarray
    spans: tuple
    transpose: np.ndarray
    swap: np.ndarray
    fold: np.ndarray


class _Blocks(NamedTuple):
    """The bordered L0 of one parameter set, blocked by k (``_generator_parts``)."""

    table: _Table
    diag: list
    up: list
    down: list
    centre_real: np.ndarray


@lru_cache(maxsize=8)
def _generator_table(fock_dim: int) -> _Table:
    """The ``_Table`` of L0 = sum_t c_t M_t at this cutoff, cached read-only.

    M_t rho = G rho + rho G' + f C rho C', with G = -i times the operator
    of a Hamiltonian term (and no jump), and G = -(f/2) C'C for a collapse
    term. Each part is listed sparsely from the nonzeros of the d x d
    operators: for column-major vec, G[i, k] maps rho[k, j] to
    (L rho)[i, j] for every j, conj(G[j, l]) maps rho[i, l] to it for
    every i, and f C[i, k] conj(C[j, l]) maps rho[k, l] to it. Entries at
    one position are summed per term, in a fixed order; positions where
    every term cancels are dropped.

    The blocks group vec(rho) by the integer k = N_i - N_j behind D. The
    trace row that replaces row 0 (rho[0, 0]) lives on block 0. L0 maps
    rho' to (L0 rho)', so block -k, its entries in the transposed order
    of block k's, is the complex conjugate of block k and is not stored.
    """
    d = 3 * fock_dim
    n = d * d
    terms = _terms(fock_dim)
    every = np.arange(d)
    rows, cols, values, which = [], [], [], []
    for t, (_, op, rate) in enumerate(terms):
        parts = []
        if rate is None:
            g = -1j * op
        else:
            g = -0.5 * rate * (op.conj().T @ op)
            r, c = np.nonzero(op)
            v = op[r, c]
            parts.append((r[:, None] + d * r, c[:, None] + d * c,
                          rate * np.multiply.outer(v, v.conj())))
        r, c = np.nonzero(g)
        v = g[r, c]
        parts.append((r[:, None] + d * every, c[:, None] + d * every, v[:, None]))
        parts.append((every[:, None] + d * r, every[:, None] + d * c, v.conj()))
        for r, c, v in parts:
            rows.append(r.reshape(-1))
            cols.append(c.reshape(-1))
            values.append(np.broadcast_to(v, r.shape).reshape(-1))
            which.append(np.full(r.size, t))
    at, where = np.unique(np.concatenate(rows) * n + np.concatenate(cols),
                          return_inverse=True)
    coeffs = np.zeros((at.size, len(terms)), dtype=complex)
    np.add.at(coeffs, (where, np.concatenate(which)), np.concatenate(values))
    nonzero = coeffs.any(axis=1)
    at, coeffs = at[nonzero], coeffs[nonzero]
    row, col = np.divmod(at, n)

    # The probe enters H only as -2pi omega N, N = a'a + s3's3 + s4's4:
    # at index atom * fock_dim + n, N is n plus 1 if the atom is excited.
    number = every % fock_dim + (every >= fock_dim)
    k_of = (number[None, :] - number[:, None]).reshape(-1)
    diag_d = 1j * TWO_PI * k_of
    index = [np.flatnonzero(k_of == k) for k in range(fock_dim + 1)]
    local = np.empty(n, dtype=np.intp)
    for i in index:
        local[i] = np.arange(i.size)
    pairs = ([(k, k) for k in range(fock_dim + 1)]
             + [(k, k + 1) for k in range(fock_dim)]
             + [(k + 1, k) for k in range(fock_dim)])
    layout, src, dst, start = [], [], [], 0
    for p, q in pairs:
        shape = (index[p].size, index[q].size)
        hit = np.flatnonzero((k_of[row] == p) & (k_of[col] == q) & (row != 0))
        src.append(hit)
        dst.append(start + local[row[hit]] * shape[1] + local[col[hit]])
        layout.append((start, start + shape[0] * shape[1], shape))
        start += shape[0] * shape[1]
    base = np.zeros(start, dtype=complex)
    base[:index[0].size] = _trace_vector(d)[index[0]]

    centre = index[0]
    upper = np.concatenate(index[1:])
    transpose = np.arange(n)
    transpose = transpose // d + d * (transpose % d)
    order = np.concatenate((centre, upper, transpose[upper]))
    ends = np.cumsum([0] + [len(i) for i in index]).tolist()
    swap = np.searchsorted(centre, transpose[centre])
    flat = np.arange(2 * centre.size**2).reshape(centre.size, centre.size, 2)
    re, im = flat[..., 0], flat[..., 1]
    fold = np.stack((re, im[:, swap], re[swap][:, swap], im[swap, :]))
    on_diag = np.flatnonzero((row == col) & (k_of[row] != 0))
    table = _Table(
        tuple(name for name, _, _ in terms), at,
        np.ascontiguousarray(coeffs.T).view(float), diag_d,
        float(np.vdot(diag_d, diag_d).real), 2 * on_diag + 1,
        diag_d[row[on_diag]].imag, np.flatnonzero(np.repeat(k_of[row] == 0, 2)),
        base, np.concatenate(src), np.concatenate(dst), tuple(layout), centre,
        order, np.argsort(order), tuple(map(slice, ends, ends[1:])), transpose,
        swap, fold.reshape(4, -1))
    for part in (at, table.coeffs, diag_d, table.im_on_diag, table.d_on_diag,
                 table.centre_rows, base, table.src, table.dst, centre, order,
                 table.gather, transpose, swap, table.fold):
        part.setflags(write=False)
    return table


@lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")   # overflow is refused below
def _generator_parts(params: SystemParams):
    """((at, values), D, blocks, norms) with L(omega) = L0 + omega * diag(D).

    L0 is zero but for ``values`` at the row-major flat positions ``at``,
    the product of the cutoff's coefficient table (``_generator_table``)
    with the eleven values c_t of ``params``; nothing here is dense in
    the generator's size. Cached read-only.

    ``blocks`` is a ``_Blocks``: the cutoff's table, the diagonal blocks
    k >= 0 of the bordered L0, the couplings of block k to k + 1 and to
    k - 1 (``down[0]`` is None), and the real form of block 0,
    Re diag[0] + Im diag[0][:, swap] (``_real_form``).

    ``norms`` = (s, ||L0||^2 / s^2, 2 Re <D, diag L0> / s, ||D||^2, c / s),
    s the largest real or imaginary part in L0 (kappa > 0 keeps it above
    0), so that ``_generator_norm`` gives ||L(omega)||_F with no pass over
    the generator's entries (D is diagonal) and without overflow; c is the
    norm of L0's rows on block 0, those of L(omega) at any probe.
    """
    table = _generator_table(params.fock_dim)
    floats = (TWO_PI * np.array([getattr(params, name) for name in table.names])
              ) @ table.coeffs
    # The largest real or imaginary part: the scale of the norms, and NaN
    # or inf when L0 overflows.
    scale = float(np.max(np.abs(floats)))
    if not math.isfinite(scale):
        raise NumericalError("the generator L0 overflows for these "
                             "parameters; no steady-state solve can use it")
    values = floats.view(complex)
    buffer = table.base.copy()
    buffer[table.dst] = values[table.src]
    for part in (buffer, values):
        part.setflags(write=False)
    blocks = [buffer[lo:hi].reshape(shape) for lo, hi, shape in table.layout]
    top = len(table.spans) - 1
    centre_real = blocks[0].real + blocks[0].imag[:, table.swap]
    centre_real.setflags(write=False)
    unit = floats / scale
    centre_unit = unit[table.centre_rows]
    # D is imaginary, so Re <D, diag L0> pairs it with Im diag L0.
    norms = (scale, float(unit @ unit),
             2.0 * float(table.d_on_diag @ unit[table.im_on_diag]),
             table.d_norm2, math.sqrt(float(centre_unit @ centre_unit)))
    return ((table.at, values), table.diag_d,
            _Blocks(table, blocks[:top + 1], blocks[top + 1:2 * top + 1],
                    [None] + blocks[2 * top + 1:], centre_real), norms)


def build_liouvillian(params: SystemParams, probe_freq: float) -> np.ndarray:
    """Generator L with d vec(rho)/dt = L vec(rho), column-major vec.

    Returns a fresh, writable L0 + probe_freq * diag(D). ``probe_freq``
    must be a finite real number. A probe at which ||L||_F overflows
    raises NumericalError before anything is allocated.
    """
    _require_finite_real("probe_freq", probe_freq)
    (at, values), diag, _, norms = _generator_parts(params)
    if not math.isfinite(_generator_norm(norms, float(probe_freq))):
        raise NumericalError(f"the generator L overflows at probe_freq="
                             f"{probe_freq:.6g}; no steady-state solve can use it")
    n = params.dim ** 2
    liou = np.zeros((n, n), dtype=complex)
    liou.reshape(-1)[at] = values
    liou.reshape(-1)[::n + 1] += probe_freq * diag
    return liou


def _generator_norm(norms, probe_freq: float) -> float:
    """||L0 + probe_freq D||_F from the ``norms`` of ``_generator_parts``.

    It is formed relative to m = max(s, |probe_freq|), so it overflows
    only when the norm itself does.
    """
    scale, norm2, cross, d_norm2, _ = norms
    m = max(scale, abs(probe_freq))
    r, w = scale / m, probe_freq / m
    return m * math.sqrt(r * (r * norm2 + w * cross) + w * w * d_norm2)


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


def _eliminate(blocks: _Blocks, probe_freq: float):
    """Schur complements of the bordered L(probe_freq), by LU solves alone.

    The blocks k > 0 are eliminated from k = fock_dim down to 1:
    S_k = A_k + i 2pi k omega - up_k T_(k+1) and T_k = S_k^-1 down_k,
    formed by one LU solve of S_k for the columns of down_k. The side
    k < 0 is the complex conjugate of this one, so with w = up_0 T_1 the
    centre Schur complement is C = A_0 - w - conj(w[swap][:, swap]). C
    maps the block 0 of a hermitian matrix to that of a hermitian one, so
    only its real form M = Re C + Im C[:, swap] (``_real_form``) is
    formed, from w by one gather of the table's ``fold`` indices.
    Returns (schur, couplings): S_k and T_k for k >= 1, and M, unfactored,
    at k = 0. No inverse is formed (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, ch. 14). A singular S_k raises
    ``np.linalg.LinAlgError``; a singular M raises it in ``_block_solve``.
    """
    diag, up, down = blocks.diag, blocks.up, blocks.down
    top = len(diag) - 1
    schur, couplings = [None] * (top + 1), [None] * (top + 1)
    for k in range(top, 0, -1):
        s = diag[k].copy()
        s.reshape(-1)[::s.shape[0] + 1] += 1j * TWO_PI * k * probe_freq
        if k < top:
            s -= up[k] @ couplings[k + 1]
        schur[k] = s
        couplings[k] = np.linalg.solve(s, down[k])
    w = up[0] @ couplings[1]
    folded = _FOLD_SIGNS @ w.view(float).take(blocks.table.fold)
    schur[0] = blocks.centre_real - folded.reshape(w.shape)
    return schur, couplings


def _block_solve(blocks: _Blocks, factors, rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve the bordered system for a hermitian ``rhs`` with ``_eliminate``'s factors.

    The bordered generator maps hermitian matrices to hermitian ones (the
    trace of one is real), so for a hermitian right-hand side the solution
    is hermitian: its block -k is the conjugate of block k, transposed.
    The solve runs on the hermitian half alone, one column in the table's
    ``order``: blocks 0 and k > 0, of which it reads ``rhs``. The centre
    is one real LU solve, M c = Re b_0 + Im b_0 for the centre right-hand
    side b_0, and x_0 = ((1 + i) c + (1 - i) c[swap]) / 2 is exactly
    hermitian; the sweep outwards with the couplings T_k then gives each
    block k > 0, its conjugate gives block -k, and one gather of the
    table's ``gather`` gives x in column-major order, exactly hermitian.

    ``rhs=None`` stands for e_0, the right-hand side of the trace row. It
    lies in block 0, so the sweep towards k = 0 would act on zeros only,
    and c = M^-1 e_0. Any other ``rhs`` (the rare refinement step) is
    first swept inwards with LU solves of the kept S_k. A singular M
    raises ``np.linalg.LinAlgError``.
    """
    table = blocks.table
    schur, couplings = factors
    spans = table.spans
    top, half = len(spans) - 1, spans[-1].stop
    x = np.zeros(table.order.size, dtype=complex)
    if rhs is None:
        b0 = np.zeros(table.centre.size)
        b0[0] = 1.0
    else:
        x[:half] = rhs[table.order[:half]]
        for k in range(top, 0, -1):
            if k < top:
                x[spans[k]] -= blocks.up[k] @ x[spans[k + 1]]
            x[spans[k]] = np.linalg.solve(schur[k], x[spans[k]])
        w = blocks.up[0] @ x[spans[1]]
        b0 = x[spans[0]] - w - w[table.swap].conj()
        b0 = b0.real + b0.imag
    c = np.linalg.solve(schur[0], b0)
    # x_0 = ((1 + i) c + (1 - i) c[swap]) / 2 is a sum and a difference of
    # the same two entries, so x_0[swap] = conj(x_0) holds exactly, also
    # where c is subnormal
    x0, c_swap = x[spans[0]], c[table.swap]
    x0.real = c + c_swap
    x0.imag = c - c_swap
    x0 *= 0.5
    for k in range(1, top + 1):
        x[spans[k]] -= couplings[k] @ x[spans[k - 1]]
    np.conjugate(x[spans[0].stop:half], out=x[half:])
    return x.take(table.gather)


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


def _backward_errors(liou: np.ndarray, x: np.ndarray, centre: np.ndarray,
                     norms: tuple) -> tuple:
    """(L x, errors, ||x||) of a solve x of the bordered system B x = e_0.

    B is the generator ``liou`` with row 0 the trace equation. ``errors``
    are normwise backward errors of L x = 0, ||L x|| / (||L|| ||x||):
    over all of L x with ``norms[0]`` for ||L||, and over its ``centre``
    block with ``norms[1]``, the norm of L's rows there. The trace row is
    left out of both: the state is normalized exactly afterwards, and its
    error is on the scale of 1, not of L. Each figure is the norm of L x
    scaled down by its denominator, so a residual whose square overflows
    still gives a finite figure; a denominator that overflows or is 0
    gives inf.
    """
    lx = liou @ x
    x_norm = math.sqrt(np.vdot(x, x).real)
    errors = []
    for part, norm in ((lx, norms[0]), (lx[centre], norms[1])):
        den = norm * x_norm
        if 0.0 < den < math.inf:
            part = part / den
            errors.append(math.sqrt(np.vdot(part, part).real))
        else:
            errors.append(math.inf)
    return lx, errors, x_norm


def steady_state(params: SystemParams, probe_freq: float) -> np.ndarray:
    """Unique steady state of the driven damped system.

    Solves L vec(rho) = 0 with row 0 of the (singular) generator replaced
    by the trace-normalization equation. The bordered system is block
    tridiagonal in the excitation-difference ordering (``_generator_parts``)
    and maps hermitian matrices to hermitian ones, so it is solved on the
    hermitian half of rho: block elimination of the blocks k > 0 towards
    k = 0, one LU solve per Schur complement S_k and none forming an
    inverse, the mirrored side k < 0 folded into the real form of the
    centre Schur complement, one real LU solve of that for the column
    e_0, and one column carried outwards block by block (``_block_solve``).

    The product L(omega) x, formed with the dense generator, gives two
    normwise backward errors ||L x|| / (||L|| ||x||): one over the whole
    vector against ||L(omega)||_F, and one over block 0 against the norm
    of L's rows there, where D is zero, so that an error in that block
    shows at any probe frequency. Both norms come from cached scalars of
    the parameter set. Only when either exceeds machine epsilon does one
    step of iterative refinement follow, LU-solving the kept Schur
    complements S_k and the centre one again; below it a refinement step
    cannot gain anything (Skeel, Math. Comp. 35, 817 (1980)). The solution
    is hermitian, so the step adds the solve for the hermitian part of
    the residual to the hermitian part of x. Both figures must then be at
    most 1e-9.
    Either way x is exactly hermitian, so the result is x divided by its
    real trace: exactly hermitian and exactly trace-normalized, so of the
    invariants of ``validate_density_matrix`` only positivity is left to
    test, by the same rule: an eigenvalue below POSITIVITY_TOL raises
    StateError. The truncated generator keeps Lindblad form, so its
    steady state is positive at any Fock cutoff; a breach means a failed
    solve.
    """
    liou = build_liouvillian(params, probe_freq)
    _, _, blocks, norms = _generator_parts(params)
    d = params.dim
    centre = blocks.table.centre
    scales = (_generator_norm(norms, probe_freq), norms[0] * norms[4])
    try:
        factors = _eliminate(blocks, probe_freq)
        x = _block_solve(blocks, factors)
    except np.linalg.LinAlgError as exc:
        raise _solve_failure(f"steady-state solve failed ({exc})", liou, d) from exc
    lx, errors, x_norm = _backward_errors(liou, x, centre, scales)
    if not max(errors) <= _EPSILON:
        r = -lx
        r[0] = 1.0 - x[::d + 1].sum()
        transpose = blocks.table.transpose
        x = 0.5 * (x + x[transpose].conj())
        x += _block_solve(blocks, factors, 0.5 * (r + r[transpose].conj()))
        _, errors, x_norm = _backward_errors(liou, x, centre, scales)
    for label, error, scale in zip(("residual", "centre-block residual"),
                                   errors, scales):
        if not error <= _RESIDUAL_REL:
            raise _solve_failure(
                f"steady-state {label} {error * scale * x_norm:.3e} "
                f"exceeds {_RESIDUAL_REL} * (norm {scale:.3e} * |x| "
                f"{x_norm:.3e})", liou, d)

    rho = x.reshape((d, d), order="F") / x[::d + 1].sum().real
    _require_positive(rho)
    return rho


def _fock_dim_of(rho: np.ndarray) -> int:
    """fock_dim of a square matrix on the 3*fock_dim space, else StateError."""
    d = rho.shape[0] if rho.ndim == 2 else 0
    if not d or rho.shape != (d, d) or d % 3 != 0:
        raise StateError(f"expected a square matrix on a 3*fock_dim space, got {rho.shape}")
    return d // 3


@lru_cache(maxsize=16)
def _readouts(fock_dim: int):
    """(rows, cols, sqrt(n), n) of the photon readouts, cached read-only.

    n is the photon number of each basis state. a has the entry sqrt(n)
    at (i - 1, i) for each state i with n >= 1, so
    Tr(rho a) = rho[rows, cols] @ sqrt(n)[rows], with cols = rows - 1;
    a'a is diagonal, so Tr(rho a'a) = diag(rho) @ n.
    """
    n = np.tile(np.arange(fock_dim, dtype=float), 3)
    rows = np.flatnonzero(n)
    parts = (rows, rows - 1, np.sqrt(n[rows]), n)
    for part in parts:
        part.setflags(write=False)
    return parts


def expectation_photon_number(rho: np.ndarray) -> float:
    """Tr(rho a'a), read from the diagonal of rho; validates the state first."""
    fock_dim = _fock_dim_of(rho)
    validate_density_matrix(rho)
    value = complex(np.diagonal(rho) @ _readouts(fock_dim)[3])
    if abs(value.imag) > 1e-10:
        raise StateError(f"photon number has imaginary part {value.imag:.3e}")
    return max(value.real, 0.0)


def expectation_cavity_amplitude(rho: np.ndarray) -> complex:
    """Coherent cavity amplitude Tr(rho a), read from the entries rho[n, n - 1]."""
    rows, cols, weights, _ = _readouts(_fock_dim_of(rho))
    return complex(rho[rows, cols] @ weights)


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
    return real, _generator_table(d // 3).transpose


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
    one more product. While more than 2N/5 steps remain (N = d^2), P is
    squared to halve their number (``_SQUARING_MATVECS``); the remaining
    steps are matrix-vector products. No linear system is solved.

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
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
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
    # Binary powering of P stops once a squaring costs more than the
    # matvecs it saves, half of the steps left.
    real *= dt
    square *= dt * dt
    step = real / 6.0
    step += square / 24.0
    step.reshape(-1)[::n + 1] += 0.5
    step = square @ step
    step += real
    step.reshape(-1)[::n + 1] += 1.0
    del real, square
    while n_steps > 2 * _SQUARING_MATVECS * n:
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
