"""Quantum state types, Bloch parametrization, and ergotropy.

Sign convention (opposite to a common one, so stated prominently): the
computational ground state is |0> with sigma_z|0> = +|0>, and qubit
Hamiltonians read H = -omega*sigma_z/2.  Ergotropy is defined for qubit
states against such an H only (a QubitHamiltonian): it is
omega*(|r| - r_z)/2 in Bloch coordinates, bounded by [0, omega].

Energies and ergotropy are read off a state's entries.  H is diagonal,
so tr(rho H) = omega*(Re rho_11 - Re rho_00)/2 takes the real diagonal
only, and the ergotropy is omega*(sqrt(h^2 + |c|^2) - h), with
h = (Re rho_00 - Re rho_11)/2 and c = rho_10, which is
omega*(|r| - r_z)/2.

Every DensityMatrix is validated when it is built: finite entries, then
Hermiticity, unit trace and positivity, each within DM_ATOL.  The first
three are checked on the entries as Python scalars, in the same order
and with the same arithmetic as numpy's elementwise checks, so they
accept, reject and report alike.  A 2x2 state takes its least eigenvalue
in closed form; a 4x4 state takes eigvalsh.  The two accept and reject
alike, up to roundoff right at the -DM_ATOL boundary.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .errors import DimensionMismatch, StateInvalid
from .qmath import SIGMA_Z

#: absolute tolerances for DensityMatrix validation
DM_ATOL = 1e-10


@dataclass(frozen=True)
class PureQubit:
    """Bloch angles naming a pure qubit state
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi], a -0.0 stored as +0.0 so that states that compare
    equal have the same density; phi is wrapped into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        _checks.within("theta", self.theta, -1e-12, math.pi + 1e-12)
        _checks.finite_real("phi", self.phi)
        # max keeps its first argument on a tie: max(0.0, -0.0) is +0.0
        object.__setattr__(self, "theta", min(max(0.0, self.theta), math.pi))
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    def amplitudes(self) -> np.ndarray:
        c = math.cos(0.5 * self.theta)
        s = math.sin(0.5 * self.theta)
        return np.array([c, s * np.exp(1.0j * self.phi)], dtype=np.complex128)


@dataclass(frozen=True)
class QubitHamiltonian:
    """H = -omega*sigma_z/2; ground state |0> with energy -omega/2.
    omega must be finite and > 0."""

    omega: float

    def __post_init__(self):
        _checks.positive_finite("omega", self.omega)

    @property
    def matrix(self) -> np.ndarray:
        return -0.5 * self.omega * SIGMA_Z

    def energy(self, rho: "DensityMatrix") -> float:
        """tr(rho H) for the qubit state ``rho``."""
        if rho.dim != 2:
            raise DimensionMismatch(
                f"energy needs a qubit state, got dim {rho.dim}")
        return qubit_energy(rho.mat, self.omega)


def qubit_energy(m: np.ndarray, omega: float) -> float:
    """tr(m H) for a 2x2 array ``m`` and H = -omega*sigma_z/2.

    H is diagonal, so only the real diagonal of m enters, through the
    same two products and one sum the matrix trace forms.  Any real omega
    is taken: a system gap may be 0.
    """
    half = 0.5 * omega
    return float(m[1, 1].real * half - m[0, 0].real * half)


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


#: flat index pairs (ij, ji) over the upper triangle of a 4x4 matrix,
#: diagonal included: |m_ij - m_ji*| and |m_ji - m_ij*| are one modulus,
#: so these cover every entry of |m - m^dag|
_UPPER_4X4 = tuple((4 * i + j, 4 * j + i)
                   for i in range(4) for j in range(i, 4))


def _validate_4x4(m: np.ndarray) -> None:
    """The checks of isfinite(m).all(), max|m - m^dag| and m.trace(), on
    the sixteen entries as Python scalars, then eigvalsh for the least
    eigenvalue.  The trace adds the diagonal in index order, as numpy's
    does."""
    e = m.ravel().tolist()
    if not all(map(cmath.isfinite, e)):
        raise StateInvalid("density matrix has non-finite entries")
    if not max([abs(e[i] - e[j].conjugate())
                for i, j in _UPPER_4X4]) <= DM_ATOL:
        raise StateInvalid("density matrix is not Hermitian within 1e-10")
    _check_trace(e[0] + e[5] + e[10] + e[15])
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
    """|psi><psi| for the pure qubit ``psi``."""
    a = psi.amplitudes()
    return DensityMatrix(np.outer(a, a.conj()))


def ergotropy(rho: DensityMatrix, h: QubitHamiltonian) -> float:
    """Maximum unitarily extractable work from the qubit state ``rho``
    against ``h``.

    The passive-state sort (rho's eigenvalues descending over h's
    ascending) in closed form: with h_z = (Re rho_00 - Re rho_11)/2 and
    c = rho_10, as the 2x2 validation reads them,

        W = omega * (sqrt(h_z^2 + |c|^2) - h_z) = omega * (|r| - r_z) / 2.

    math.hypot never returns less than its largest argument (a test
    holds it to that on adversarial inputs), so W >= 0 as computed.
    """
    if rho.dim != 2:
        raise DimensionMismatch(
            f"ergotropy needs a qubit state, got dim {rho.dim}")
    a, _, c, d = rho.mat.ravel().tolist()
    half_gap = 0.5 * (a.real - d.real)
    return h.omega * (math.hypot(half_gap, c.real, c.imag) - half_gap)


def ergotropy_pure(psi: PureQubit, omega: float) -> float:
    """Pure-state ergotropy omega*sin^2(theta/2) (= <H> - E_ground).
    omega must be finite and > 0, as in QubitHamiltonian."""
    _checks.positive_finite("omega", omega)
    s = math.sin(0.5 * psi.theta)
    return omega * s * s
