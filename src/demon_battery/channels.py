"""Physical primitives of one engine cycle.

Four maps: the system-ancilla collision unitary, the projective system
measurement with conditional updates, the conditional unitary pulse on the
ancilla, and the dissipative system reset.

Reset convention: the bath is at zero temperature and relaxes the system
toward |0><0|.  The jump operator is written ``sigma_plus = |0><1|`` here,
i.e. the *lowering-toward-ground* operator under this package's basis
(sigma_z|0> = +|0>).  Some texts call this operator sigma_minus; the
gamma*tau -> infinity limit reaching |0><0| pins the convention.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import NotUnitary, StateInvalid, ZeroProbabilityBranch
from .qmath import (IDENTITY_2, KET_MINUS, KET_PLUS, SIGMA_Y, SIGMA_Z,
                    expm_i, kron, projector, ptrace)
from .states import DensityMatrix, DM_ATOL

#: branches below this probability are flagged degenerate and never sampled
DEGENERATE_P = 1e-14
#: absolute roundoff of an unnormalized branch: a few ulps for each of the
#: 4x4 products behind it (collision and measurement)
BRANCH_ROUNDOFF = 64 * np.finfo(float).eps

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # |0><1|


@dataclass(frozen=True)
class CollisionParams:
    """Collision generator g*sigma_y(S) x sigma_z(A); only the product
    g*tau_SA enters the unitary, so it is the one parameter."""

    g_tau: float

    def __post_init__(self):
        if not math.isfinite(self.g_tau):
            raise ValueError("g_tau must be finite")


@lru_cache(maxsize=64)
def collision_unitary(params: CollisionParams) -> np.ndarray:
    """exp(-i g tau sigma_y x sigma_z), cached per parameter set."""
    u = expm_i(params.g_tau * kron(SIGMA_Y, SIGMA_Z), 1.0)
    u.setflags(write=False)
    return u


def collide(rho_s: DensityMatrix, psi_a: DensityMatrix,
            params: CollisionParams) -> DensityMatrix:
    """One collision: U (rho_S x psi_A) U^dag on the 4-dim joint space."""
    u = collision_unitary(params)
    joint = kron(rho_s.mat, psi_a.mat)
    return DensityMatrix(u @ joint @ u.conj().T)


@dataclass(frozen=True)
class Measurement:
    """Generalized system measurement {M_x}; completeness checked on build.

    ``joint_kraus`` holds the pairs (M_x x I, (M_x x I)^dag) acting on the
    joint space, built once here instead of on every measurement.
    """

    kraus: tuple
    labels: tuple
    joint_kraus: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.kraus) != len(self.labels):
            raise ValueError("kraus and labels must have equal length")
        total = sum(m.conj().T @ m for m in self.kraus)
        if np.max(np.abs(total - IDENTITY_2)) > 1e-12:
            raise ValueError("Kraus operators do not satisfy completeness")
        pairs = []
        for m_op in self.kraus:
            k = kron(m_op, IDENTITY_2)
            k_dag = k.conj().T
            k.setflags(write=False)
            k_dag.setflags(write=False)
            pairs.append((k, k_dag))
        object.__setattr__(self, "joint_kraus", tuple(pairs))


#: the demon's one measurement: projective in the |+>, |-> basis, labels
#: (+1, -1), shared by every cycle, so its arrays are read-only.  The label
#: order fixes the cumulative order used when sampling outcomes from a
#: single uniform variate.
SIGMA_X_MEASUREMENT = Measurement(
    kraus=(projector(KET_PLUS), projector(KET_MINUS)), labels=(+1, -1))
for _m in SIGMA_X_MEASUREMENT.kraus:
    _m.setflags(write=False)


@dataclass(frozen=True)
class MeasuredBranch:
    """One conditional update of the joint state.

    ``probability * joint`` reproduces the unnormalized conditional
    expression (M_x x I) rho (M_x^dag x I).  Branches with probability
    below 1e-14 are flagged ``degenerate``: their conditional states are
    undefined, they carry None placeholders, and samplers never select
    them.
    """

    outcome: object
    probability: float
    degenerate: bool
    joint: Optional[DensityMatrix]
    system: Optional[DensityMatrix]
    ancilla: Optional[DensityMatrix]

    def require_states(self) -> "MeasuredBranch":
        if self.degenerate:
            raise ZeroProbabilityBranch(
                f"branch {self.outcome!r} has probability "
                f"{self.probability:.3e}; conditional state undefined")
        return self


def _branch(label, p: float, joint: DensityMatrix) -> MeasuredBranch:
    return MeasuredBranch(
        outcome=label,
        probability=p,
        degenerate=False,
        joint=joint,
        system=DensityMatrix(ptrace(joint.mat, "system")),
        ancilla=DensityMatrix(ptrace(joint.mat, "ancilla")),
    )


def _branch_within_roundoff(label, p: float,
                            joint: np.ndarray) -> MeasuredBranch:
    """The branch at the state nearest ``joint``: its Hermitian part with
    negative eigenvalues clipped to zero.  Raises StateInvalid when joint
    misses being a state by more than the roundoff budget."""
    budget = BRANCH_ROUNDOFF / p
    herm = 0.5 * (joint + joint.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    miss = max(float(np.max(np.abs(joint - herm))), -float(vals.min()))
    if miss > budget:
        raise StateInvalid(
            f"branch {label!r} of probability {p:.3e} misses being a state "
            f"by {miss:.3e}, beyond its roundoff budget {budget:.3e}")
    vals = np.clip(vals, 0.0, None)
    fixed = (vecs * vals) @ vecs.conj().T
    return _branch(label, p, DensityMatrix(fixed / np.trace(fixed).real))


def measure(joint: DensityMatrix, meas: Measurement) -> list:
    """All conditional branches of a measurement on the system factor.

    A branch of probability p carries the absolute roundoff of the
    products behind it, which normalizing amplifies by 1/p: a branch that
    fails validation is accepted within BRANCH_ROUNDOFF / p of a state.
    """
    branches = []
    for (k, k_dag), label in zip(meas.joint_kraus, meas.labels):
        unnorm = k @ joint.mat @ k_dag
        p = max(float(unnorm.trace().real), 0.0)
        if p < DEGENERATE_P:
            branches.append(MeasuredBranch(label, p, True, None, None, None))
            continue
        try:
            branches.append(_branch(label, p, DensityMatrix(unnorm / p)))
        except StateInvalid:
            branches.append(_branch_within_roundoff(label, p, unnorm / p))
    return branches


def apply_pulse(rho_a: DensityMatrix, pulse: np.ndarray) -> DensityMatrix:
    """Unitary pulse O rho O^dag on the ancilla."""
    pulse = np.asarray(pulse, dtype=np.complex128)
    if np.max(np.abs(pulse.conj().T @ pulse - np.eye(pulse.shape[0]))) > 1e-12:
        raise NotUnitary("pulse operator is not unitary within 1e-12")
    return DensityMatrix(pulse @ rho_a.mat @ pulse.conj().T)


@dataclass(frozen=True)
class ResetParams:
    """Dissipative reset: rate gamma for time tau_se, system gap omega_s."""

    gamma: float
    tau_se: float
    omega_s: float

    def __post_init__(self):
        if self.gamma < 0.0 or self.tau_se < 0.0:
            raise ValueError("gamma and tau_se must be nonnegative")
        if not all(math.isfinite(v) for v in
                   (self.gamma, self.tau_se, self.omega_s)):
            raise ValueError("reset parameters must be finite")

    @property
    def gamma_tau(self) -> float:
        return self.gamma * self.tau_se

    @property
    def phase(self) -> float:
        return self.omega_s * self.tau_se

    def h_system(self) -> np.ndarray:
        return -0.5 * self.omega_s * SIGMA_Z


def reset_closed_form(start: int, params: ResetParams) -> DensityMatrix:
    """Exact relaxed state after time tau_se, starting from |+> or |->.

    start = +1 means |+>, -1 means |->, i.e. the projective
    post-measurement system states.  Populations relax as exp(-gamma*t)
    toward the ground state; the coherence decays at half that rate and
    rotates by omega_s*tau_se.
    """
    if start not in (+1, -1):
        raise ValueError(f"start must be +1 (|+>) or -1 (|->), got {start}")
    decay = math.exp(-params.gamma_tau)
    coh = 0.5 * start * math.exp(-0.5 * params.gamma_tau) * \
        np.exp(1.0j * params.phase)
    m = np.array([[1.0 - 0.5 * decay, coh],
                  [np.conj(coh), 0.5 * decay]], dtype=np.complex128)
    return DensityMatrix(m)


def _lindblad_rhs(rho: np.ndarray, h_s: np.ndarray, gamma: float) -> np.ndarray:
    comm = h_s @ rho - rho @ h_s
    ldag_l = SIGMA_PLUS.conj().T @ SIGMA_PLUS
    diss = (SIGMA_PLUS @ rho @ SIGMA_PLUS.conj().T
            - 0.5 * (ldag_l @ rho + rho @ ldag_l))
    return -1.0j * comm + gamma * diss


def default_reset_steps(params: ResetParams) -> int:
    """Fixed-step count keeping the RK4 error below the 1e-8 oracle bound.

    Scales with both decay (gamma*tau) and precession (|omega_s|*tau);
    the precession term is needed because phase error, not amplitude
    error, dominates for fast rotation.
    """
    return max(100,
               math.ceil(50.0 * params.gamma_tau),
               math.ceil(50.0 * abs(params.phase)))


def reset_numeric(rho_s: DensityMatrix, params: ResetParams,
                  steps: Optional[int] = None) -> DensityMatrix:
    """RK4 integration of drho/dt = -i[H_S, rho] + gamma D[sigma_plus] rho.

    Works from any initial system state; serves as the oracle for
    :func:`reset_closed_form` and handles states where the closed form
    does not apply.  Raises StateInvalid if the integrated state loses
    positivity beyond 1e-8 (step size too coarse).
    """
    if steps is None:
        steps = default_reset_steps(params)
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    h_s = params.h_system()
    dt = params.tau_se / steps
    rho = np.array(rho_s.mat, dtype=np.complex128)
    for _ in range(steps):
        k1 = _lindblad_rhs(rho, h_s, params.gamma)
        k2 = _lindblad_rhs(rho + 0.5 * dt * k1, h_s, params.gamma)
        k3 = _lindblad_rhs(rho + 0.5 * dt * k2, h_s, params.gamma)
        k4 = _lindblad_rhs(rho + dt * k3, h_s, params.gamma)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = 0.5 * (rho + rho.conj().T)  # shed roundoff asymmetry only
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -1e-8:
        raise StateInvalid(
            f"integrated state has eigenvalue {vals.min():.3e} < -1e-8; "
            f"increase steps")
    if vals.min() < -DM_ATOL:
        # within the integrator's error budget: project onto valid states
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho = rho / np.trace(rho).real
    return DensityMatrix(rho)
