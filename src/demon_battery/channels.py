"""Physical primitives of one engine cycle.

Four maps: the system-ancilla collision unitary, the projective sigma_x
readout of the system, which leaves it in |x><x| and the ancilla in its
conditional state, the sigma_x pulse on the ancilla, and the dissipative
system reset.  The measurement and the pulse are the protocol's only
ones, so they are constants, not arguments.

Reset convention: the bath is at zero temperature and relaxes the system
toward |0><0|, the ground state under this package's basis
(sigma_z|0> = +|0>).  The reset is applied in closed form only; the test
suite integrates its Lindblad equation by RK4 as the closed form's oracle.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _checks
from .errors import StateInvalid
from .qmath import IDENTITY_4, SIGMA_Y, SIGMA_Z, kron
from .states import DensityMatrix, ground_state

#: branches below this probability are flagged degenerate and never sampled
DEGENERATE_P = 1e-14
#: absolute roundoff of an unnormalized branch: a few ulps for each of the
#: products behind it (the 4x4 collision and the measurement's block sums)
BRANCH_ROUNDOFF = 64 * np.finfo(float).eps


@lru_cache(maxsize=64, typed=True)
def collision_unitary(g_tau: float) -> np.ndarray:
    """exp(-i g tau sigma_y x sigma_z) for the one parameter g_tau =
    g*tau_SA, checked finite on a cache miss; cached and read-only.  The
    cache is typed, so a bool never hits the entry of its int.

    The generator squares to the identity, so the exponential series
    sums to cos(g tau) I - i sin(g tau) sigma_y x sigma_z exactly.
    """
    _checks.finite_real("g_tau", g_tau)
    u = (math.cos(g_tau) * IDENTITY_4
         - 1.0j * math.sin(g_tau) * kron(SIGMA_Y, SIGMA_Z))
    u.setflags(write=False)
    return u


def collide(rho_s: DensityMatrix, psi_a: DensityMatrix,
            g_tau: float) -> DensityMatrix:
    """One collision: U (rho_S x psi_A) U^dag on the 4-dim joint space."""
    u = collision_unitary(g_tau)
    joint = kron(rho_s.mat, psi_a.mat)
    return DensityMatrix(u @ joint @ u.conj().T)


@dataclass(frozen=True)
class MeasuredBranch:
    """One outcome of the sigma_x readout of the system, with the
    ancilla's conditional state.

    After the projective readout the system is exactly |x><x|, so the
    ancilla is all the branch holds: ``probability * ancilla`` is
    (<x| (x) I) rho (|x> (x) I).  Branches with probability below 1e-14 are
    flagged ``degenerate``: their conditional state is undefined, it is
    None, and samplers never select them.
    """

    outcome: object
    probability: float
    degenerate: bool
    ancilla: Optional[DensityMatrix]


def _state_within_roundoff(label, p: float, m: np.ndarray) -> DensityMatrix:
    """The state nearest ``m``: its Hermitian part with negative
    eigenvalues clipped to zero.  Raises StateInvalid when m misses being
    a state by more than the roundoff budget."""
    budget = BRANCH_ROUNDOFF / p
    herm = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    miss = max(float(np.max(np.abs(m - herm))), -float(vals.min()))
    if miss > budget:
        raise StateInvalid(
            f"branch {label!r} of probability {p:.3e} misses being a state "
            f"by {miss:.3e}, beyond its roundoff budget {budget:.3e}")
    vals = np.clip(vals, 0.0, None)
    fixed = (vecs * vals) @ vecs.conj().T
    return DensityMatrix(fixed / np.trace(fixed).real)


#: flat indices 4*a + a' of rho[0, a, 0, a'], for (a, a') in row-major order
_BLOCK = (0, 1, 4, 5)
#: numpy multiplies a complex array by 0.5 as by 0.5 + 0j, whose zero
#: terms set the signs of zeros that the division keeps
_HALF = complex(0.5, 0.0)


def measure(joint: DensityMatrix) -> list:
    """Both branches of the sigma_x measurement on the system factor,
    outcome +1 first, as engine._sample_branch unpacks them.

    With |x> = (|0> + x|1>)/sqrt(2), (<x| (x) I) rho (|x> (x) I) is half
    the sum of the 2x2 blocks rho[s, :, s', :] over s = s' plus x times
    their sum over s != s'.  The blocks are summed on the sixteen entries
    as Python complex scalars: the same sums as numpy's array expression
    0.5 * (diagonal + x * crossed) / p, in the same order, and products
    that give the same bits, signed zeros included (a test holds the two
    equal byte for byte).  A branch of probability p carries the
    absolute roundoff of the products behind it, which normalizing
    amplifies by 1/p: a state that fails validation is accepted within
    BRANCH_ROUNDOFF / p of a state.
    """
    e = joint.mat.ravel().tolist()  # rho[s, a, s', a'] at 8s + 4a + 2s' + a'
    # (diagonal, crossed) block entries (a, a'), in row-major order
    blocks = [(e[i] + e[i + 10], e[i + 2] + e[i + 8]) for i in _BLOCK]
    branches = []
    for label in (+1, -1):
        unnorm = [_HALF * (d + label * c) for d, c in blocks]
        # the trace; numpy's sum adds from +0.0, which would turn only a
        # sum of -0.0 into +0.0, and at unit trace there is none
        p = max(unnorm[0].real + unnorm[3].real, 0.0)
        if p < DEGENERATE_P:
            branches.append(MeasuredBranch(label, p, True, None))
            continue
        # numpy divides z by p + 0j as ((zr + 0*zi) * s, (zi - 0*zr) * s)
        # with s = 1/p; the product z * (s - 0j) gives the same bits
        scale = complex(1.0 / p, -0.0)
        m = np.array([z * scale for z in unnorm]).reshape(2, 2)
        try:
            ancilla = DensityMatrix(m)
        except StateInvalid:
            ancilla = _state_within_roundoff(label, p, m)
        branches.append(MeasuredBranch(label, p, False, ancilla))
    return branches


def apply_pulse(rho_a: DensityMatrix) -> DensityMatrix:
    """The demon's one pulse, sigma_x rho sigma_x, on the ancilla.

    sigma_x swaps |0> and |1>, so the product only permutes entries:
    (sigma_x rho sigma_x)_ij = rho_(1-i)(1-j), exactly.
    """
    return DensityMatrix(rho_a.mat[::-1, ::-1])


def reset_closed_form(start: int, gamma_tau_se: float,
                      phase: float) -> DensityMatrix:
    """Exact relaxed state after a reset of strength gamma_tau_se =
    gamma*tau_SE (finite, >= 0) and precession phase omega_s*tau_se
    (finite, of either sign), starting from |+> or |->.

    start = +1 means |+>, -1 means |->, i.e. the projective
    post-measurement system states; any other value, a bool or a float
    among them, raises ValueError.  The excited population decays by
    exp(-gamma*tau_SE) toward the ground state; the coherence decays by
    half that exponent and rotates by the phase.
    """
    start = _checks.outcome("start", start, (+1, -1))
    gamma_tau_se = _checks.nonnegative_finite("gamma_tau_se", gamma_tau_se)
    phase = _checks.finite_real("phase", phase)
    decay = math.exp(-gamma_tau_se)
    coh = 0.5 * start * math.exp(-0.5 * gamma_tau_se) \
        * np.exp(1.0j * phase)
    m = np.array([[1.0 - 0.5 * decay, coh],
                  [np.conj(coh), 0.5 * decay]], dtype=np.complex128)
    return DensityMatrix(m)


#: finite-reset row of the system state after an outcome: 0 (no cycle
#: yet) is |0><0|, +1 the relaxed |+>, -1 the relaxed |->
CANDIDATE_ROW = {0: 0, +1: 1, -1: 2}


@lru_cache(maxsize=64, typed=True)
def system_candidates(gamma_tau_se: float, phase: float,
                      reset_mode: str) -> tuple:
    """The states a collision's system can start in, built once: |0><0|,
    and under finite reset the rows of CANDIDATE_ROW after it."""
    if reset_mode == "full":
        return (ground_state(),)
    return (ground_state(), reset_closed_form(+1, gamma_tau_se, phase),
            reset_closed_form(-1, gamma_tau_se, phase))
