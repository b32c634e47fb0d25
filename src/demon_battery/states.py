"""Quantum state types, Bloch parametrization, and ergotropy.

Sign convention (opposite to a common one, so stated prominently): the
computational ground state is |0> with sigma_z|0> = +|0>, and qubit
Hamiltonians read H = -omega*sigma_z/2.  A qubit's ergotropy against such
an H is omega*(|r| - r_z)/2 in Bloch coordinates, bounded by [0, omega].

Every DensityMatrix is validated when it is built: finite entries, then
Hermiticity, unit trace and positivity, each within DM_ATOL.  A 2x2 state
is checked from its four scalars, with its least eigenvalue in closed
form; a 4x4 state takes eigvalsh.  The two accept and reject alike, up to
roundoff right at the -DM_ATOL boundary.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DimensionMismatch, StateInvalid
from .qmath import SIGMA_Z, EigenSystem, eig_hermitian

#: absolute tolerances for DensityMatrix validation
DM_ATOL = 1e-10
#: negative-ergotropy clamp threshold
ERGOTROPY_CLAMP = 1e-10


@dataclass(frozen=True)
class PureQubit:
    """Bloch angles naming a pure qubit state
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi]; phi is wrapped into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (-1e-12 <= self.theta <= math.pi + 1e-12):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    def amplitudes(self) -> np.ndarray:
        c = math.cos(0.5 * self.theta)
        s = math.sin(0.5 * self.theta)
        return np.array([c, s * np.exp(1.0j * self.phi)], dtype=np.complex128)


@dataclass(frozen=True)
class QubitHamiltonian:
    """H = -omega*sigma_z/2; ground state |0> with energy -omega/2."""

    omega: float

    @property
    def matrix(self) -> np.ndarray:
        return -0.5 * self.omega * SIGMA_Z

    @property
    def ground_energy(self) -> float:
        return -0.5 * self.omega


@lru_cache(maxsize=64)
def _hamiltonian_eigensystem(h: QubitHamiltonian) -> EigenSystem:
    """eig_hermitian(h.matrix), computed once per Hamiltonian; read-only."""
    eig = eig_hermitian(h.matrix)
    for a in eig:
        a.setflags(write=False)
    return eig


def _check_trace(tr: complex) -> None:
    if not (abs(tr.real - 1.0) <= DM_ATOL and abs(tr.imag) <= DM_ATOL):
        raise StateInvalid(f"density matrix trace {tr:.12g} != 1 within 1e-10")


def _check_least_eigenvalue(least: float) -> None:
    if not least >= -DM_ATOL:
        raise StateInvalid(
            f"density matrix has eigenvalue {least:.3e} < -1e-10")


def _validate_2x2(a: complex, b: complex, c: complex, d: complex) -> None:
    """The checks _validate_4x4 makes, on the scalars of [[a, b], [c, d]].

    ``max|m - m^dag|`` is the largest of 2|Im a|, 2|Im d| and |b - c*|;
    the least eigenvalue, from the diagonal's real part and the lower
    triangle as eigvalsh reads them, is (a+d)/2 - sqrt(((a-d)/2)^2 + |c|^2).
    """
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise StateInvalid("density matrix has non-finite entries")
    if not max(2.0 * abs(a.imag), 2.0 * abs(d.imag),
               abs(b - c.conjugate())) <= DM_ATOL:
        raise StateInvalid("density matrix is not Hermitian within 1e-10")
    _check_trace(a + d)
    half_gap = 0.5 * (a.real - d.real)
    _check_least_eigenvalue(0.5 * (a.real + d.real) - math.sqrt(
        half_gap * half_gap + c.real * c.real + c.imag * c.imag))


def _validate_4x4(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise StateInvalid("density matrix has non-finite entries")
    if not np.abs(m - m.conj().T).max() <= DM_ATOL:
        raise StateInvalid("density matrix is not Hermitian within 1e-10")
    _check_trace(complex(m.trace()))
    _check_least_eigenvalue(float(np.linalg.eigvalsh(m)[0]))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated d x d density matrix (d = 2 or 4).

    Construction enforces finite entries, and Hermiticity, unit trace and
    positivity within 1e-10, and freezes the underlying array.  Instances are immutable and
    safe to share across threads.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise DimensionMismatch(
                f"density matrix must be 2x2 or 4x4, got shape {m.shape}")
        if m.shape[0] == 2:
            _validate_2x2(*m.ravel().tolist())
        else:
            _validate_4x4(m)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    def bloch_vector(self) -> np.ndarray:
        """(r_x, r_y, r_z) for a qubit state."""
        if self.dim != 2:
            raise DimensionMismatch("Bloch vector defined for 2x2 states only")
        m = self.mat
        return np.array([
            2.0 * m[0, 1].real,
            -2.0 * m[0, 1].imag,
            (m[0, 0] - m[1, 1]).real,
        ])


def ground_state() -> DensityMatrix:
    """|0><0| (the ground state under this package's sign convention)."""
    m = np.zeros((2, 2), dtype=np.complex128)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def to_density(psi: PureQubit) -> DensityMatrix:
    a = psi.amplitudes()
    return DensityMatrix(np.outer(a, a.conj()))


def _hamiltonian_matrix(h: Union[QubitHamiltonian, np.ndarray]) -> np.ndarray:
    if isinstance(h, QubitHamiltonian):
        return h.matrix
    return np.asarray(h, dtype=np.complex128)


def _energy_eigensystem(h: Union[QubitHamiltonian, np.ndarray],
                        h_mat: np.ndarray) -> EigenSystem:
    if isinstance(h, QubitHamiltonian):
        return _hamiltonian_eigensystem(h)
    return eig_hermitian(h_mat)


def ergotropy(rho: DensityMatrix, h: Union[QubitHamiltonian, np.ndarray]) -> float:
    """Maximum unitarily extractable work from ``rho`` against ``h``.

    Computed by the passive-state sort: with rho's eigenvalues descending
    over h's eigenvalues ascending, the passive energy realizes the
    minimum over all unitaries, so

        W = tr(rho h) - sum_k lambda_k(desc) * eps_k(asc).

    Values within 1e-10 of zero are clamped to exactly 0.
    """
    h_mat = _hamiltonian_matrix(h)
    if h_mat.shape != rho.mat.shape:
        raise DimensionMismatch(
            f"state dim {rho.dim} vs Hamiltonian shape {h_mat.shape}")
    rho_vals = np.linalg.eigvalsh(rho.mat)          # ascending
    h_vals = _energy_eigensystem(h, h_mat).values   # ascending
    passive_energy = float(np.dot(rho_vals[::-1], h_vals))
    w = float((rho.mat @ h_mat).trace().real) - passive_energy
    if w < 0.0:
        if w < -ERGOTROPY_CLAMP:
            raise StateInvalid(f"ergotropy {w:.3e} below -1e-10; invalid inputs")
        return 0.0
    return w


def ergotropy_pure(psi: PureQubit, omega: float) -> float:
    """Pure-state ergotropy omega*sin^2(theta/2) (= <H> - E_ground)."""
    s = math.sin(0.5 * psi.theta)
    return omega * s * s


def passive_state(rho: DensityMatrix,
                  h: Union[QubitHamiltonian, np.ndarray]) -> DensityMatrix:
    """The zero-ergotropy state reached by the optimal extraction unitary:
    rho's eigenvalues descending over h's energy eigenstates ascending."""
    h_mat = _hamiltonian_matrix(h)
    if h_mat.shape != rho.mat.shape:
        raise DimensionMismatch(
            f"state dim {rho.dim} vs Hamiltonian shape {h_mat.shape}")
    rho_vals = np.linalg.eigvalsh(rho.mat)[::-1]    # descending
    h_vecs = _energy_eigensystem(h, h_mat).vectors  # ascending energies
    return DensityMatrix((h_vecs * rho_vals) @ h_vecs.conj().T)
