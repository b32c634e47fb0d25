"""Quantum state types, Bloch parametrization, and ergotropy.

Sign convention (opposite to a common one, so stated prominently): the
computational ground state is |0> with sigma_z|0> = +|0>, and qubit
Hamiltonians read H = -omega*sigma_z/2, and every function here takes H
as its gap omega, a float.  Ergotropy is defined for qubit states
against such an H only: it is omega*(|r| - r_z)/2 in Bloch coordinates,
bounded by [0, omega].

Energies and ergotropy are read off a state's entries.  H is diagonal,
so tr(rho H) = omega*(Re rho_11 - Re rho_00)/2 takes the real diagonal
only, and the ergotropy is omega*(sqrt(h^2 + |c|^2) - h), with
h = (Re rho_00 - Re rho_11)/2 and c = rho_10, which is
omega*(|r| - r_z)/2.

Every DensityMatrix is validated when it is built, by one function for
both dimensions: finite entries, then Hermiticity, unit trace and
positivity, each within DM_ATOL.  The first three are checked on the
entries as Python scalars, with the arithmetic of numpy's elementwise
checks, so they accept, reject and report alike.  Only the least
eigenvalue depends on the dimension: a 2x2 state takes it in closed form
(as eigvalsh does, up to roundoff right at -DM_ATOL), a 4x4 eigvalsh.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .errors import DimensionMismatch, StateInvalid

#: absolute tolerances for DensityMatrix validation
DM_ATOL = 1e-10


@dataclass(frozen=True)
class PureQubit:
    """Bloch angles naming a pure qubit state
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    Both are stored as floats: theta in [0, pi], a -0.0 as +0.0 so that
    states that compare equal have the same density, and phi wrapped
    into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        _checks.within("theta", self.theta, -1e-12, math.pi + 1e-12)
        _checks.finite_real("phi", self.phi)
        # max keeps its first argument on a tie: max(0.0, -0.0) is +0.0
        object.__setattr__(self, "theta",
                           min(max(0.0, float(self.theta)), math.pi))
        # x % 2pi rounds to 2pi itself for a tiny negative x
        phi = float(self.phi) % (2.0 * math.pi)
        object.__setattr__(self, "phi", phi if phi < 2.0 * math.pi else 0.0)

    def amplitudes(self) -> np.ndarray:
        c = math.cos(0.5 * self.theta)
        s = math.sin(0.5 * self.theta)
        return np.array([c, s * np.exp(1.0j * self.phi)], dtype=np.complex128)


def qubit_energy(m: np.ndarray, omega: float) -> float:
    """tr(m H) for a 2x2 array ``m`` and H = -omega*sigma_z/2.

    H is diagonal, so only the real diagonal of m enters, through the
    same two products and one sum the matrix trace forms.  Any real omega
    is taken: a system gap may be 0.  DimensionMismatch unless m is 2x2.
    """
    if m.shape != (2, 2):
        raise DimensionMismatch(
            f"qubit_energy needs a 2x2 array, got shape {m.shape}")
    half = 0.5 * omega
    return float(m[1, 1].real * half - m[0, 0].real * half)


#: per dimension d, flat index pairs (ij, ji) over the upper triangle of a
#: d x d matrix, diagonal included: |m_ij - m_ji*| = |m_ji - m_ij*|, so
#: they cover every entry of |m - m^dag|
_UPPER = {d: tuple((d * i + j, d * j + i)
                   for i in range(d) for j in range(i, d)) for d in (2, 4)}


def _validate(m: np.ndarray) -> None:
    """isfinite(m).all(), max|m - m^dag| and m.trace() on the entries as
    Python scalars, then the least eigenvalue (see the module docstring)."""
    dim = len(m)
    e = m.ravel().tolist()
    if not all(map(cmath.isfinite, e)):
        raise StateInvalid("density matrix has non-finite entries")
    if not max([abs(e[i] - e[j].conjugate())
                for i, j in _UPPER[dim]]) <= DM_ATOL:
        raise StateInvalid("density matrix is not Hermitian within 1e-10")
    # numpy sums a diagonal from +0.0, a 4-entry one pairwise; another order
    # can differ in the last bit or a zero's sign, so in verdict or message
    diag = e[::dim + 1]
    tr = 0j + (diag[0] + diag[1]) + (diag[2] + diag[3] if dim == 4 else 0j)
    if not (abs(tr.real - 1.0) <= DM_ATOL and abs(tr.imag) <= DM_ATOL):
        raise StateInvalid(f"density matrix trace {tr:.12g} != 1 within 1e-10")
    if dim == 2:
        # (a+d)/2 - sqrt(((a-d)/2)^2 + |c|^2) for [[a, b], [c, d]], from the
        # real diagonal and the lower triangle, the entries eigvalsh reads
        a, _, c, d = e
        half_gap = 0.5 * (a.real - d.real)
        least = 0.5 * (a.real + d.real) - math.sqrt(
            half_gap * half_gap + c.real * c.real + c.imag * c.imag)
    else:
        least = float(np.linalg.eigvalsh(m)[0])
    if not least >= -DM_ATOL:
        raise StateInvalid(
            f"density matrix has eigenvalue {least:.3e} < -1e-10")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated d x d density matrix (d = 2 or 4).

    Construction runs one validation for either dimension (finite entries, and
    Hermiticity, unit trace and positivity within 1e-10) and freezes the array.
    Instances are immutable and safe to share across threads.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise DimensionMismatch(
                f"density matrix must be 2x2 or 4x4, got shape {m.shape}")
        _validate(m)
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


def ergotropy(rho: DensityMatrix, omega: float) -> float:
    """Maximum unitarily extractable work from the qubit state ``rho``
    against H = -omega*sigma_z/2; omega must be finite and > 0.

    The passive-state sort (rho's eigenvalues descending over H's
    ascending) in closed form: with h_z = (Re rho_00 - Re rho_11)/2 and
    c = rho_10, as the 2x2 validation reads them,

        W = omega * (sqrt(h_z^2 + |c|^2) - h_z) = omega * (|r| - r_z) / 2.

    math.hypot never returns less than its largest argument (a test
    holds it to that on adversarial inputs), so W >= 0 as computed.
    """
    _checks.positive_finite("omega", omega)
    if rho.dim != 2:
        raise DimensionMismatch(
            f"ergotropy needs a qubit state, got dim {rho.dim}")
    a, _, c, d = rho.mat.ravel().tolist()
    half_gap = 0.5 * (a.real - d.real)
    return float(omega) * (math.hypot(half_gap, c.real, c.imag) - half_gap)


def ergotropy_pure(psi: PureQubit, omega: float) -> float:
    """Pure-state ergotropy omega*sin^2(theta/2) (= <H> - E_ground).
    omega must be finite and > 0, as in ergotropy."""
    _checks.positive_finite("omega", omega)
    s = math.sin(0.5 * psi.theta)
    return float(omega) * s * s
