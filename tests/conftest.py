import math

import numpy as np

from demon_battery.errors import StateInvalid
from demon_battery.qmath import SIGMA_Z
from demon_battery.states import DM_ATOL, DensityMatrix

#: the reset's jump operator |0><1|, lowering toward the ground state
#: under the package's basis (sigma_z|0> = +|0>).  Some texts call it
#: sigma_minus; the gamma*tau -> infinity limit reaching |0><0| pins the
#: convention.
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def haar_unitary(rng, dim):
    """Haar-distributed unitary via QR of a complex Ginibre matrix with
    the R-diagonal phase fix."""
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def projector(vec):
    """Rank-1 projector |v><v| for a normalized vector."""
    v = np.asarray(vec, dtype=np.complex128)
    return np.outer(v, v.conj())


def qubit_hamiltonian(omega):
    """H = -omega*sigma_z/2 as a matrix, for tr(rho H) oracles: the
    package takes this Hamiltonian as its gap omega alone."""
    return -0.5 * omega * SIGMA_Z


def random_density(rng, dim):
    """Random full-rank density matrix (normalized Ginibre G G^dag)."""
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim)))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng, dim):
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim)))
    return 0.5 * (g + g.conj().T)


class StubRng:
    """Replays a fixed list of uniforms; forces measurement outcomes."""

    def __init__(self, values):
        self._values = list(values)
        self._i = 0

    def random(self):
        v = self._values[self._i % len(self._values)]
        self._i += 1
        return v



def _lindblad_rhs(rho, h_s, rate):
    comm = h_s @ rho - rho @ h_s
    ldag_l = SIGMA_PLUS.conj().T @ SIGMA_PLUS
    diss = (SIGMA_PLUS @ rho @ SIGMA_PLUS.conj().T
            - 0.5 * (ldag_l @ rho + rho @ ldag_l))
    return -1.0j * comm + rate * diss


def reset_numeric(rho_s, gamma_tau_se, phase):
    """The oracle for channels.reset_closed_form: RK4 integration of the
    reset over the scaled time s = t/tau_SE in [0, 1],
    drho/ds = -i[H, rho] + gamma*tau_SE D[sigma_plus] rho, with
    H = -(omega_s*tau_SE/2) sigma_z, from any initial system state.  At
    tau_se = 1 this is the equation in t itself.

    The step count keeps the RK4 error below the 1e-8 oracle bound: it
    scales with the decay gamma*tau_SE and with the precession
    |omega_s|*tau_SE, whose phase error dominates for fast rotation.
    Raises StateInvalid if the integrated state loses positivity beyond
    1e-8.
    """
    steps = max(100, math.ceil(
        50.0 * max(gamma_tau_se, abs(phase))))
    h_s = -0.5 * phase * SIGMA_Z
    ds = 1.0 / steps
    rate = gamma_tau_se
    rho = np.array(rho_s.mat, dtype=np.complex128)
    for _ in range(steps):
        k1 = _lindblad_rhs(rho, h_s, rate)
        k2 = _lindblad_rhs(rho + 0.5 * ds * k1, h_s, rate)
        k3 = _lindblad_rhs(rho + 0.5 * ds * k2, h_s, rate)
        k4 = _lindblad_rhs(rho + ds * k3, h_s, rate)
        rho = rho + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = 0.5 * (rho + rho.conj().T)  # shed roundoff asymmetry only
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -1e-8:
        raise StateInvalid(
            f"integrated state has eigenvalue {vals.min():.3e} < -1e-8")
    if vals.min() < -DM_ATOL:
        # within the integrator's error budget: project onto valid states
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho = rho / np.trace(rho).real
    return DensityMatrix(rho)
