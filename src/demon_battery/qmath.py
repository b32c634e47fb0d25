"""Exact complex linear algebra for 2x2 and 4x4 operators: Pauli
matrices, sigma_x eigenkets, Kronecker products and partial traces.

Index convention (fixed once, imported everywhere): tensor products are
*system-major*.  ``kron(a, b)`` puts the system factor ``a`` first, so the
composite basis index is ``2*s + a`` for system index ``s`` and ancilla
index ``a``, and ``m.reshape(2, 2, 2, 2)`` indexes a joint operator as
``[s, a, s', a']``.
"""

from typing import Literal

import numpy as np

from .errors import DimensionMismatch

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY_4 = np.eye(4, dtype=np.complex128)

# sigma_x eigenkets; note the sign convention used throughout the package:
# sigma_z |0> = +|0>, and qubit Hamiltonians are -omega*sigma_z/2, which
# makes |0> the ground state.
KET_PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0)


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
    construction.  Each entry is the two-term sum over the traced index,
    taken as the sum of two 2x2 slices.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"ptrace expects a 4x4 matrix, got {m.shape}")
    r = m.reshape(2, 2, 2, 2)  # [s, a, s', a']
    if keep == "system":
        return r[:, 0, :, 0] + r[:, 1, :, 1]
    if keep == "ancilla":
        return r[0, :, 0, :] + r[1, :, 1, :]
    raise ValueError(f"keep must be 'system' or 'ancilla', got {keep!r}")
