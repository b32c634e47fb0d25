"""One full collision cycle, multi-collision trajectories, and the
closed-form energetics used as the test oracle.

Cycle pipeline: collide -> measure sigma_x on the system (outcome
sampled from the branch probabilities with a single uniform variate) ->
decide -> optional sigma_x pulse on the ancilla -> reset.  The
measurement and the pulse are fixed by the protocol; only the policy
varies.  After the projective measurement the system is exactly |+> or
|->, so the closed-form relaxed state applies at every step and the
numeric integrator is never needed inside the loop.

The energy ledger follows the three-step split: collision on/off work
charged to the system (depends on omega_s only), measurement shifts that
average to zero, and pulse work injected into the ancilla.

This is the reference path: every state it builds is a validated
DensityMatrix, checked as fully as ever.  The Bayes demon's likelihoods
P(x | psi_i) are memoised on g tau and the exact bits of the system state
and the member; each distinct input is computed once, by the same collide
and measure calls, so a memoised value equals a recomputed one.
"""

import math
import struct
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

import numpy as np

from .channels import (SIGMA_X_MEASUREMENT, CollisionParams, ResetParams,
                       apply_pulse, collide, measure, reset_closed_form)
from .demon import Action, BayesGainPolicy, DecisionPolicy, ThresholdFlip, decide
from .qmath import SIGMA_X, ptrace
from .states import (DensityMatrix, PureQubit, QubitHamiltonian, ergotropy,
                     ergotropy_pure, ground_state, to_density)

RESET_MODES = ("full", "finite")


@dataclass(frozen=True)
class EngineConfig:
    """All physical parameters of the engine.

    ``reset_mode="full"`` starts every cycle from |0><0| (the large
    gamma*tau_se limit); ``"finite"`` chains the relaxed post-measurement
    state into the next collision.
    """

    omega: float
    collision: CollisionParams
    reset: ResetParams
    policy: DecisionPolicy
    reset_mode: str = "full"

    def __post_init__(self):
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"reset_mode must be one of {RESET_MODES}")
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")

    @property
    def omega_s(self) -> float:
        return self.reset.omega_s

    def h_ancilla(self) -> QubitHamiltonian:
        return QubitHamiltonian(self.omega)

    @classmethod
    def default(cls, g_tau: float = math.pi / 8, omega: float = 1.0,
                omega_s: float = 1.0, gamma_tau_se: float = 8.0,
                tau_se: float = 1.0, reset_mode: str = "full",
                policy: Optional[DecisionPolicy] = None) -> "EngineConfig":
        """Shipped preset: threshold policy, omega = 1 (energies in units
        of omega)."""
        return cls(
            omega=omega,
            collision=CollisionParams(g_tau),
            reset=ResetParams(gamma=gamma_tau_se / tau_se, tau_se=tau_se,
                              omega_s=omega_s),
            policy=policy if policy is not None else ThresholdFlip(),
            reset_mode=reset_mode,
        )


@dataclass(frozen=True)
class CollisionRecord:
    """Per-collision log entry; energies in the ancilla's units."""

    ancilla_in: PureQubit
    outcome: int
    action: Action
    probability: float
    ergotropy_in: float
    ergotropy_out: float
    energy_in: float
    energy_meas: float
    energy_out: float
    pulse_work: float
    delta_e_col: float
    ancilla_out: DensityMatrix
    rho_s_next: DensityMatrix


@dataclass
class EnergyLedger:
    """Running sums over collision records; a pure reduction, so totals
    are independent of aggregation order."""

    n: int = 0
    collision_energy: float = 0.0
    measurement_shift: float = 0.0
    pulse_work: float = 0.0
    ergotropy_gain: float = 0.0

    def add(self, rec: CollisionRecord) -> None:
        self.n += 1
        self.collision_energy += rec.delta_e_col
        self.measurement_shift += rec.energy_meas - rec.energy_in
        self.pulse_work += rec.pulse_work
        self.ergotropy_gain += rec.ergotropy_out - rec.ergotropy_in

    @classmethod
    def from_records(cls, records: Iterable[CollisionRecord]) -> "EnergyLedger":
        ledger = cls()
        for rec in records:
            ledger.add(rec)
        return ledger


def _sample_branch(branches, u: float):
    """Walk the cumulative branch probabilities with one uniform variate.

    Degenerate branches are skipped (never sampled); cumulative roundoff
    falls through to the last live branch.
    """
    live = [b for b in branches if not b.degenerate]
    if not live:
        raise ValueError("no branch with nonzero probability")
    cum = 0.0
    for b in live:
        cum += b.probability
        if u < cum:
            return b
    return live[-1]


#: entries the likelihood memo holds before it starts afresh; a trajectory
#: needs (system states) x (ensemble members) of them, and its system takes
#: at most three states: |0><0| and the two relaxed states.  Entries are
#: pure values, so threads racing on the memo can only recompute or drop
#: one, never change what a lookup returns.
LIKELIHOOD_CACHE_SIZE = 256
_likelihood_cache: dict = {}


def _member_key(state) -> bytes:
    if isinstance(state, PureQubit):
        return struct.pack("<dd", state.theta, state.phi)
    return state.mat.tobytes()


def _member_likelihoods(collision: CollisionParams, rho_s: DensityMatrix,
                        state) -> dict:
    """{outcome: P(outcome | state)} through the same collide+measure
    channel the engine uses.

    A pure function of (g tau, rho_s, state), memoised on the collision
    parameters and the exact bits of rho_s and state, so each distinct
    input is computed, with all its validations, once; a hit returns the
    numbers the channel would recompute.
    """
    key = (collision, rho_s.mat.tobytes(), _member_key(state))
    probs = _likelihood_cache.get(key)
    if probs is None:
        member = to_density(state) if isinstance(state, PureQubit) else state
        branches = measure(collide(rho_s, member, collision),
                           SIGMA_X_MEASUREMENT)
        probs = {b.outcome: b.probability for b in branches}
        if len(_likelihood_cache) >= LIKELIHOOD_CACHE_SIZE:
            _likelihood_cache.clear()
        _likelihood_cache[key] = probs
    return probs


def _likelihoods_for(cfg: EngineConfig, rho_s: DensityMatrix,
                     outcome) -> np.ndarray:
    """P(outcome | psi_i) over the policy's ensemble members, as a fresh
    array."""
    return np.array([
        _member_likelihoods(cfg.collision, rho_s, state)[outcome]
        for state, _ in cfg.policy.ensemble.members])


def run_cycle(rho_s: DensityMatrix, psi: PureQubit, cfg: EngineConfig,
              rng) -> CollisionRecord:
    """One collision: evolve, measure, decide, optionally pulse, reset.

    ``rng`` must provide ``random()``; exactly one variate is drawn per
    cycle (the outcome), which pins reproducibility.
    """
    h_anc = cfg.h_ancilla()
    h_a = h_anc.matrix
    h_s = cfg.reset.h_system()
    psi_dm = to_density(psi)
    w_in = ergotropy_pure(psi, cfg.omega)
    e_in = float((psi_dm.mat @ h_a).trace().real)

    joint = collide(rho_s, psi_dm, cfg.collision)
    sys_after = ptrace(joint.mat, "system")
    delta_e_col = float(((sys_after - rho_s.mat) @ h_s).trace().real)

    branches = measure(joint, SIGMA_X_MEASUREMENT)
    branch = _sample_branch(branches, rng.random())

    likelihoods = None
    if cfg.policy.needs_likelihoods:
        likelihoods = _likelihoods_for(cfg, rho_s, branch.outcome)
    action = decide(cfg.policy, branch.outcome, likelihoods)

    ancilla = branch.require_states().ancilla
    e_meas = float((ancilla.mat @ h_a).trace().real)
    if action == Action.APPLY_PULSE:
        ancilla_out = apply_pulse(ancilla, SIGMA_X)
    else:
        ancilla_out = ancilla
    e_out = float((ancilla_out.mat @ h_a).trace().real)
    w_out = ergotropy(ancilla_out, h_anc)

    if cfg.reset_mode == "full":
        rho_s_next = ground_state()
    else:
        rho_s_next = reset_closed_form(branch.outcome, cfg.reset)

    return CollisionRecord(
        ancilla_in=psi,
        outcome=branch.outcome,
        action=action,
        probability=branch.probability,
        ergotropy_in=w_in,
        ergotropy_out=w_out,
        energy_in=e_in,
        energy_meas=e_meas,
        energy_out=e_out,
        pulse_work=e_out - e_meas,
        delta_e_col=delta_e_col,
        ancilla_out=ancilla_out,
        rho_s_next=rho_s_next,
    )


def run_trajectory(cfg: EngineConfig, n_collisions: int, sampler,
                   rng) -> List[CollisionRecord]:
    """Sequential collisions against a stream of sampled ancillas.

    In finite-reset mode each record's ``rho_s_next`` feeds the next
    cycle.  A prior-recycling Bayes policy gets a fresh per-trajectory
    copy so trajectories never share mutable state.
    """
    if n_collisions < 1:
        raise ValueError("n_collisions must be >= 1")
    if isinstance(cfg.policy, BayesGainPolicy) and cfg.policy.recycle_prior:
        cfg = replace(cfg, policy=cfg.policy.trajectory_instance())
    rho_s = ground_state()
    records = []
    for _ in range(n_collisions):
        psi = sampler.sample()
        rec = run_cycle(rho_s, psi, cfg, rng)
        records.append(rec)
        rho_s = rec.rho_s_next
    return records


@dataclass(frozen=True)
class EnergeticsClosedForm:
    """Closed-form per-cycle energetics in the full-reset regime
    (rho_S = |0><0|, sigma_x measurement, sigma_x pulse).

    Fields ending in _plus/_minus are conditional on the outcome; they are
    undefined (0/0) when the corresponding branch probability vanishes,
    which happens only at sin(2 g tau) = 1 with theta at a pole.
    """

    p_plus: float
    e_a_plus: float
    e_a_minus: float
    w_plus: float          # net pulse work on outcome +1 (W_minus = 0)
    w_avg: float           # outcome-averaged pulse work
    w_x_plus: float        # post-measurement ergotropy, outcome +1
    w_x_minus: float
    w_tilde_plus: float    # ergotropy after the pulse on outcome +1
    w_processed: float     # outcome-averaged final ergotropy


def energetics_oracle(theta: float, g_tau: float,
                      omega: float) -> EnergeticsClosedForm:
    """All closed-form cycle energetics for ancilla angle theta.

    Phi-independent: the interaction dephases coherences symmetrically, so
    only the polar angle enters.  Used as the independent oracle against
    the channel-level computation.
    """
    s = math.sin(2.0 * g_tau)
    cos_t = math.cos(theta)
    sin2_half = math.sin(0.5 * theta) ** 2
    cos2_half = math.cos(0.5 * theta) ** 2
    den_plus = 1.0 + s * cos_t
    den_minus = 1.0 - s * cos_t

    def div(num: float, den: float) -> float:
        # a vanishing denominator means the branch has zero probability
        # and its conditional value is undefined
        return num / den if den != 0.0 else math.nan

    return EnergeticsClosedForm(
        p_plus=0.5 * den_plus,
        e_a_plus=div(-0.5 * omega * (cos_t + s), den_plus),
        e_a_minus=div(-0.5 * omega * (cos_t - s), den_minus),
        w_plus=div(omega * (cos_t + s), den_plus),
        w_avg=0.5 * omega * (cos_t + s),
        w_x_plus=div(omega * sin2_half * (1.0 - s), den_plus),
        w_x_minus=div(omega * sin2_half * (1.0 + s), den_minus),
        w_tilde_plus=div(omega * cos2_half * (1.0 + s), den_plus),
        w_processed=0.5 * omega * (1.0 + s),
    )
