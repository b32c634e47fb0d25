"""One full collision cycle, multi-collision trajectories, and the
closed-form energetics used as the test oracle.

Cycle pipeline: collide -> measure sigma_x on the system (outcome
sampled from the branch probabilities with a single uniform variate) ->
decide -> optional sigma_x pulse on the ancilla -> reset.  The
measurement and the pulse are fixed by the protocol, so channels.measure
and channels.apply_pulse take no operator; only the policy varies.  After
the projective measurement the system is exactly |+> or |->, so the
closed-form relaxed state applies at every step.

Each record carries the energetics' three-step split: collision on/off
work charged to the system (depends on omega_s only), measurement shifts
that average to zero, and pulse work injected into the ancilla.

This is the reference path: every state it builds is a validated
DensityMatrix, checked as fully as ever.  Energies and ergotropies are
read off the qubit states' entries in closed form (see states), against
the ancilla gap cfg.omega, a float.  A Bayes policy's ensemble is
discrete and a cycle starts in one of at most three system_candidates,
so a trajectory collides and measures each of its m members once per
candidate it reaches, k <= 3, and keeps the whole measured collision in
a table: the member's density, the collision's on/off work and both
branches, whose probabilities are the likelihoods P(x | psi_i).  A cycle
whose ancilla is a member reads its collision off the table; any other
ancilla is collided afresh.  Over n cycles, a Bayes trajectory that
samples its own ensemble thus makes m*k collisions, one fed other
ancillas n + m*k, and a threshold trajectory n.  The tables live as long
as one trajectory.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import _checks
from .channels import (CANDIDATE_ROW, apply_pulse, collide, measure,
                       system_candidates)
from .demon import Action, BayesGainPolicy, DecisionPolicy, ThresholdFlip, decide
from .qmath import ptrace
from .states import (DensityMatrix, PureQubit, ergotropy, ergotropy_pure,
                     ground_state, qubit_energy, to_density)

RESET_MODES = ("full", "finite")


@dataclass(frozen=True)
class EngineConfig:
    """All physical parameters of the engine, each number checked and
    stored as a float: the ancilla gap omega finite and > 0, the collision
    strength g_tau = g*tau_SA and 2*g_tau finite, and the reset strength
    gamma_tau_se = gamma*tau_SE, tau_se and the system gap omega_s finite
    and >= 0, so that |0> is the ground state of both qubits, with a
    finite reset phase omega_s*tau_se.  ``reset_mode="full"`` starts
    every cycle from |0><0| (the large gamma*tau_se limit); ``"finite"``
    chains the relaxed post-measurement state into the next collision.
    """

    omega: float
    g_tau: float
    gamma_tau_se: float
    tau_se: float
    omega_s: float
    policy: DecisionPolicy
    reset_mode: str = "full"

    def __post_init__(self):
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"reset_mode must be one of {RESET_MODES}, "
                             f"got {self.reset_mode!r}")
        for name, check in (("omega", _checks.positive_finite),
                            ("g_tau", _checks.coupling),
                            ("gamma_tau_se", _checks.nonnegative_finite),
                            ("tau_se", _checks.nonnegative_finite),
                            ("omega_s", _checks.nonnegative_finite)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        _checks.finite_product("omega_s", self.omega_s, "tau_se", self.tau_se)

    @property
    def phase(self) -> float:
        """The reset's precession phase, the one place tau_se enters."""
        return self.omega_s * self.tau_se

    @classmethod
    def default(cls, g_tau: float = math.pi / 8, omega: float = 1.0,
                omega_s: float = 1.0, gamma_tau_se: float = 8.0,
                tau_se: float = 1.0, reset_mode: str = "full",
                policy: Optional[DecisionPolicy] = None) -> "EngineConfig":
        """Shipped preset: threshold policy, omega = 1 (energies in units
        of omega)."""
        return cls(omega, g_tau, gamma_tau_se, tau_se, omega_s,
                   policy if policy is not None else ThresholdFlip(),
                   reset_mode)


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


def _sample_branch(branches, u: float):
    """The sigma_x outcome, from measure's (+1, -1) branches and one
    uniform variate: +1 when its branch is live and either the -1 branch
    is degenerate or u < p_+, else -1.  A degenerate branch is never
    returned: ValueError when both are.
    """
    plus, minus = branches
    if plus.degenerate and minus.degenerate:
        raise ValueError("no branch with nonzero probability")
    if not plus.degenerate and (minus.degenerate or u < plus.probability):
        return plus
    return minus


@dataclass(frozen=True)
class _Collision:
    """One pure ancilla collided with one system state and measured: its
    density, the on/off work charged to the system, and both branches."""

    psi_a: DensityMatrix
    delta_e_col: float
    branches: list


def _collide_and_measure(rho_s: DensityMatrix, psi: PureQubit,
                         cfg: EngineConfig) -> _Collision:
    psi_a = to_density(psi)
    joint = collide(rho_s, psi_a, cfg.g_tau)
    sys_after = ptrace(joint.mat, "system")
    return _Collision(psi_a,
                      qubit_energy(sys_after - rho_s.mat, cfg.omega_s),
                      measure(joint))


@dataclass(frozen=True)
class _MemberTable:
    """A Bayes policy's ensemble against one system state: each member's
    _Collision by its PureQubit, and outcome -> P(outcome | psi_i) over
    the members in order."""

    collisions: dict
    likelihoods: dict


def _member_table(cfg: EngineConfig,
                  rho_s: DensityMatrix) -> Optional[_MemberTable]:
    """Collide and measure each member of the policy's ensemble with
    system ``rho_s`` once; None for a policy that needs no likelihoods."""
    if not isinstance(cfg.policy, BayesGainPolicy):
        return None
    collisions = {}
    likelihoods = {+1: [], -1: []}
    for state, _ in cfg.policy.ensemble.members:
        col = collisions[state] = _collide_and_measure(rho_s, state, cfg)
        for b in col.branches:
            likelihoods[b.outcome].append(b.probability)
    return _MemberTable(collisions,
                        {x: np.array(p) for x, p in likelihoods.items()})


def run_cycle(rho_s: DensityMatrix, psi: PureQubit, cfg: EngineConfig,
              rng) -> CollisionRecord:
    """One collision: evolve, measure, decide, optionally pulse, reset.

    ``rng`` must provide ``random()``; exactly one variate is drawn per
    cycle (the outcome), which pins reproducibility.  A Bayes policy's
    likelihoods come from a member table built for ``rho_s`` alone.
    """
    return _cycle(rho_s, psi, cfg, rng, _member_table(cfg, rho_s))


def _cycle(rho_s: DensityMatrix, psi: PureQubit, cfg: EngineConfig, rng,
           table: Optional[_MemberTable]) -> CollisionRecord:
    """run_cycle's body; ``table`` is _member_table(cfg, rho_s)."""
    omega = cfg.omega
    col = None if table is None else table.collisions.get(psi)
    if col is None:
        col = _collide_and_measure(rho_s, psi, cfg)
    w_in = ergotropy_pure(psi, omega)
    e_in = qubit_energy(col.psi_a.mat, omega)

    branch = _sample_branch(col.branches, rng.random())

    # a fresh copy: decide may keep or overwrite the vector it is handed
    likelihoods = None if table is None \
        else table.likelihoods[branch.outcome].copy()
    action = decide(cfg.policy, branch.outcome, likelihoods)

    ancilla = branch.ancilla
    e_meas = qubit_energy(ancilla.mat, omega)
    if action == Action.APPLY_PULSE:
        ancilla_out = apply_pulse(ancilla)
    else:
        ancilla_out = ancilla
    e_out = qubit_energy(ancilla_out.mat, omega)
    w_out = ergotropy(ancilla_out, omega)

    candidates = system_candidates(cfg.gamma_tau_se, cfg.phase,
                                   cfg.reset_mode)
    rho_s_next = candidates[0] if cfg.reset_mode == "full" \
        else candidates[CANDIDATE_ROW[branch.outcome]]

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
        delta_e_col=col.delta_e_col,
        ancilla_out=ancilla_out,
        rho_s_next=rho_s_next,
    )


def run_trajectory(cfg: EngineConfig, n_collisions: int, sampler,
                   rng) -> List[CollisionRecord]:
    """Sequential collisions against a stream of sampled ancillas.

    In finite-reset mode each record's ``rho_s_next`` feeds the next
    cycle.  The system starts every cycle in one of system_candidates, so
    a Bayes policy's member table is built once per candidate the
    trajectory reaches, k <= 3 of them, and lives only as long as the
    trajectory: when every ancilla is one of the m members, the
    trajectory makes m*k collisions, not one per cycle.  Cycles that draw
    the same member then share its immutable states, so records may hold
    the same DensityMatrix objects.
    A prior-recycling Bayes policy gets a fresh per-trajectory copy so
    trajectories never share mutable state.  Raises ValueError unless
    ``n_collisions`` is an int >= 1.
    """
    n_collisions = _checks.count("n_collisions", n_collisions)
    if isinstance(cfg.policy, BayesGainPolicy) and cfg.policy.recycle_prior:
        cfg = replace(cfg, policy=cfg.policy.trajectory_instance())
    rho_s = ground_state()
    row = 0                  # rho_s's row of CANDIDATE_ROW
    tables = {}              # row -> _member_table(cfg, rho_s)
    records = []
    for _ in range(n_collisions):
        psi = sampler.sample()
        if row not in tables:
            tables[row] = _member_table(cfg, rho_s)
        rec = _cycle(rho_s, psi, cfg, rng, tables[row])
        records.append(rec)
        rho_s = rec.rho_s_next
        if cfg.reset_mode == "finite":
            row = CANDIDATE_ROW[rec.outcome]
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
    only the polar angle enters.  The oracle of the channel-level cycle:
    theta must be finite, and g_tau and omega valid in an EngineConfig.
    """
    theta = _checks.finite_real("theta", theta)
    g_tau = _checks.coupling("g_tau", g_tau)
    omega = _checks.positive_finite("omega", omega)
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
