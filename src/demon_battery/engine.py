"""One full collision cycle, multi-collision trajectories, and the
closed-form energetics used as the test oracle.

Cycle pipeline: collide -> measure sigma_x on the system (outcome
sampled from the branch probabilities with a single uniform variate) ->
decide -> optional sigma_x pulse on the ancilla -> reset.  The
measurement and the pulse are fixed by the protocol, so channels.measure
and channels.apply_pulse take no operator; only the policy varies.  After
the projective measurement the system is exactly |+> or |->, so the
closed-form relaxed state applies at every step and the numeric
integrator is never needed inside the loop.

The energy ledger follows the three-step split: collision on/off work
charged to the system (depends on omega_s only), measurement shifts that
average to zero, and pulse work injected into the ancilla.

This is the reference path: every state it builds is a validated
DensityMatrix, checked as fully as ever.  Energies and ergotropies are
read off the qubit states' entries in closed form (see states).  A Bayes
policy's likelihoods P(x | psi_i) depend only on the system state a
cycle starts in, one of at most three system_candidates, so a trajectory
collides and measures each member once per candidate it reaches and
keeps both outcomes' probabilities in a table; nothing outlives the
trajectory.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional

import numpy as np

from . import _checks
from .channels import (CANDIDATE_ROW, CollisionParams, ResetParams,
                       apply_pulse, collide, measure, system_candidates)
from .demon import Action, BayesGainPolicy, DecisionPolicy, ThresholdFlip, decide
from .qmath import ptrace
from .states import (DensityMatrix, PureQubit, QubitHamiltonian, ergotropy,
                     ergotropy_pure, ground_state, qubit_energy, to_density)

RESET_MODES = ("full", "finite")


@dataclass(frozen=True)
class EngineConfig:
    """All physical parameters of the engine.

    ``reset_mode="full"`` starts every cycle from |0><0| (the large
    gamma*tau_se limit); ``"finite"`` chains the relaxed post-measurement
    state into the next collision.  omega must be > 0 and the system gap
    reset.omega_s >= 0, so that |0> is the ground state of both qubits.
    The ancilla Hamiltonian ``h_ancilla`` is built from omega once, and
    so checks it.
    """

    omega: float
    collision: CollisionParams
    reset: ResetParams
    policy: DecisionPolicy
    reset_mode: str = "full"
    h_ancilla: QubitHamiltonian = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"reset_mode must be one of {RESET_MODES}, "
                             f"got {self.reset_mode!r}")
        object.__setattr__(self, "h_ancilla", QubitHamiltonian(self.omega))
        # below 0, |0> would be the excited state, yet the cold bath
        # relaxes the system toward it
        _checks.nonnegative_finite("omega_s", self.reset.omega_s)

    @classmethod
    def default(cls, g_tau: float = math.pi / 8, omega: float = 1.0,
                omega_s: float = 1.0, gamma_tau_se: float = 8.0,
                tau_se: float = 1.0, reset_mode: str = "full",
                policy: Optional[DecisionPolicy] = None) -> "EngineConfig":
        """Shipped preset: threshold policy, omega = 1 (energies in units
        of omega).  The reset is ResetParams(gamma_tau_se, tau_se,
        omega_s), which checks all three."""
        return cls(
            omega=omega,
            collision=CollisionParams(g_tau),
            reset=ResetParams(gamma_tau_se, tau_se, omega_s),
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


def _likelihood_table(cfg: EngineConfig,
                      rho_s: DensityMatrix) -> Optional[dict]:
    """outcome -> P(outcome | psi_i) over the policy's ensemble members,
    from one collision and readout of each member with system ``rho_s``;
    None for a policy that needs no likelihoods."""
    if not cfg.policy.needs_likelihoods:
        return None
    table = {+1: [], -1: []}
    for state, _ in cfg.policy.ensemble.members:
        for b in measure(collide(rho_s, to_density(state), cfg.collision)):
            table[b.outcome].append(b.probability)
    return {x: np.array(p) for x, p in table.items()}


def run_cycle(rho_s: DensityMatrix, psi: PureQubit, cfg: EngineConfig,
              rng) -> CollisionRecord:
    """One collision: evolve, measure, decide, optionally pulse, reset.

    ``rng`` must provide ``random()``; exactly one variate is drawn per
    cycle (the outcome), which pins reproducibility.  A Bayes policy's
    likelihoods come from a table built for ``rho_s`` alone.
    """
    return _cycle(rho_s, psi, cfg, rng, _likelihood_table(cfg, rho_s))


def _cycle(rho_s: DensityMatrix, psi: PureQubit, cfg: EngineConfig, rng,
           table: Optional[dict]) -> CollisionRecord:
    """run_cycle's body; ``table`` is _likelihood_table(cfg, rho_s)."""
    h_anc = cfg.h_ancilla
    psi_a = to_density(psi)
    joint = collide(rho_s, psi_a, cfg.collision)
    w_in = ergotropy_pure(psi, cfg.omega)
    e_in = h_anc.energy(psi_a)

    sys_after = ptrace(joint.mat, "system")
    delta_e_col = qubit_energy(sys_after - rho_s.mat, cfg.reset.omega_s)

    branch = _sample_branch(measure(joint), rng.random())

    # a fresh copy: decide may keep or overwrite the vector it is handed
    likelihoods = None if table is None else table[branch.outcome].copy()
    action = decide(cfg.policy, branch.outcome, likelihoods)

    ancilla = branch.require_states().ancilla
    e_meas = h_anc.energy(ancilla)
    if action == Action.APPLY_PULSE:
        ancilla_out = apply_pulse(ancilla)
    else:
        ancilla_out = ancilla
    e_out = h_anc.energy(ancilla_out)
    w_out = ergotropy(ancilla_out, h_anc)

    candidates = system_candidates(cfg.reset, cfg.reset_mode)
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
        delta_e_col=delta_e_col,
        ancilla_out=ancilla_out,
        rho_s_next=rho_s_next,
    )


def run_trajectory(cfg: EngineConfig, n_collisions: int, sampler,
                   rng) -> List[CollisionRecord]:
    """Sequential collisions against a stream of sampled ancillas.

    In finite-reset mode each record's ``rho_s_next`` feeds the next
    cycle.  The system starts every cycle in one of system_candidates, so
    a Bayes policy's likelihood table is built once per candidate the
    trajectory reaches and lives only as long as the trajectory.  A
    prior-recycling Bayes policy gets a fresh per-trajectory copy so
    trajectories never share mutable state.  Raises ValueError unless
    ``n_collisions`` is an int >= 1.
    """
    _checks.count("n_collisions", n_collisions)
    if isinstance(cfg.policy, BayesGainPolicy) and cfg.policy.recycle_prior:
        cfg = replace(cfg, policy=cfg.policy.trajectory_instance())
    rho_s = ground_state()
    row = 0                  # rho_s's row of CANDIDATE_ROW
    tables = {}              # row -> _likelihood_table(cfg, rho_s)
    records = []
    for _ in range(n_collisions):
        psi = sampler.sample()
        if row not in tables:
            tables[row] = _likelihood_table(cfg, rho_s)
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
