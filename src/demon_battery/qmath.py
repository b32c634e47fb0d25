"""Exact complex linear algebra for 2x2 and 4x4 operators.

Everything here is eigendecomposition-based, so unitaries produced by
:func:`expm_i` are exact up to floating-point roundoff (no series
truncation).

Index convention (fixed once, imported everywhere): tensor products are
*system-major*.  ``kron(a, b)`` puts the system factor ``a`` first, so the
composite basis index is ``2*s + a`` for system index ``s`` and ancilla
index ``a``.  Measurement operators on the system therefore enter joint
expressions as ``kron(M, I2)``.
"""

from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITIAN_ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
IDENTITY_4 = np.eye(4, dtype=np.complex128)

# sigma_x eigenkets; note the sign convention used throughout the package:
# sigma_z |0> = +|0>, and qubit Hamiltonians are -omega*sigma_z/2, which
# makes |0> the ground state.
KET_PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0)


class EigenSystem(NamedTuple):
    """Hermitian eigendecomposition: ``vectors @ diag(values) @ vectors.conj().T``
    reconstructs the input.  ``values`` ascending, ``vectors`` unitary columns."""

    values: np.ndarray
    vectors: np.ndarray


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| for a normalized vector."""
    v = np.asarray(vec, dtype=np.complex128)
    return np.outer(v, v.conj())


def eig_hermitian(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises :class:`NotHermitian` if ``max|m - m^dag|`` exceeds 1e-12.
    """
    m = np.asarray(m, dtype=np.complex128)
    if not is_hermitian(m):
        raise NotHermitian(
            f"matrix deviates from Hermiticity by "
            f"{np.max(np.abs(m - m.conj().T)):.3e}"
        )
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values, vectors)


def expm_i(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i h t)`` for Hermitian ``h`` (hbar = 1).

    Computed as V diag(exp(-i w t)) V^dag from the exact eigensystem, so
    the result is unitary to roundoff for any ``t``.
    """
    values, vectors = eig_hermitian(h)
    phases = np.exp(-1.0j * values * t)
    return (vectors * phases) @ vectors.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, system factor first (see module
    docstring).

    One broadcast product: each entry is the single product
    ``a[i, j] * b[k, l]`` that ``np.kron`` forms, so the result is
    bit-identical to it at a fraction of the call overhead.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch(
            f"kron expects two matrices, got shapes {a.shape} and {b.shape}")
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def ptrace(m: np.ndarray, keep: Literal["system", "ancilla"]) -> np.ndarray:
    """Partial trace of a 4x4 operator down to the kept 2x2 factor.

    Uses the system-major index convention; trace-preserving by
    construction.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"ptrace expects a 4x4 matrix, got {m.shape}")
    r = m.reshape(2, 2, 2, 2)  # [s, a, s', a']
    if keep == "system":
        return np.einsum("iaja->ij", r)
    if keep == "ancilla":
        return np.einsum("aiaj->ij", r)
    raise ValueError(f"keep must be 'system' or 'ancilla', got {keep!r}")
