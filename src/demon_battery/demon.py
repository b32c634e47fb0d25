"""Bayesian decision layer: ensembles, priors, gain arrays, action choice.

The demon chooses between the two Actions only: leave the ancilla, or
pulse it with sigma_x (the engine applies the pulse).  Two policies are
shipped.  ThresholdFlip is the operational rule used in all Monte Carlo
reproductions: pulse on outcome +1, do nothing on -1.  BayesGainPolicy is
the general machinery (posterior update + expected-gain argmax over a
discrete ensemble); it reduces to ThresholdFlip for the simple indicator
gain table.

An Ensemble is a discrete set of pure members: no posterior update over
a continuum is defined here.  The engine runs either policy on any
ancilla stream, Haar-uniform ones (experiments.HaarQubitSampler)
included; only the batched kernel is limited to ThresholdFlip.
"""

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import _checks
from .errors import DegenerateEvidence
from .states import PureQubit

#: Bayes denominator underflow threshold
EVIDENCE_FLOOR = 1e-14


class Action(IntEnum):
    """Demon actions, ordered so that argmax ties resolve to the cheaper
    choice (the pulse costs work)."""

    DO_NOTHING = 0
    APPLY_PULSE = 1


@dataclass(frozen=True)
class Ensemble:
    """Source of ancilla states: a discrete weighted set.

    Members are (PureQubit, q) pairs with q summing to 1: the trajectory
    loop collides pure ancillas only.
    """

    members: Tuple[Tuple[PureQubit, float], ...]

    def __post_init__(self):
        if not all(isinstance(state, PureQubit) for state, _ in self.members):
            raise TypeError(
                "trajectory sampling requires pure ensemble members")
        _checks.probabilities("weights", [q for _, q in self.members])

    @classmethod
    def discrete(cls,
                 pairs: Sequence[Tuple[PureQubit, float]]) -> "Ensemble":
        return cls(members=tuple(pairs))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class PriorState:
    """Probability vector over the members of a discrete ensemble, kept
    as its own float64 copy."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = _checks.probabilities("probs", self.probs)

    @classmethod
    def uniform(cls, n: int) -> "PriorState":
        n = _checks.count("n", n)
        return cls(np.full(n, 1.0 / n))


#: the gain array's row of an outcome
OUTCOME_ROW = {+1: 0, -1: 1}


def threshold_gain_table() -> np.ndarray:
    """The simple indicator table: doing nothing gains 1 on outcome -1,
    pulsing gains 1 on outcome +1, for every member.  Reproduces
    ThresholdFlip under bayes-gain argmax for any prior."""
    return np.array([[[0.0], [1.0]], [[1.0], [0.0]]])


@dataclass(frozen=True)
class ThresholdFlip:
    """Pulse if and only if the outcome is +1."""


@dataclass
class BayesGainPolicy:
    """Expected-gain maximizer over a discrete ensemble.

    When ``recycle_prior`` is set the posterior of each decision becomes
    the prior of the next; the instance then carries mutable per-trajectory
    state and must not be shared across trajectories (use
    :meth:`trajectory_instance`).  Recycling is meaningful only in the
    full-reset regime, where successive likelihoods are identically
    distributed.

    ``table`` is the gain lambda(action | outcome, member) as an array
    indexed [action, OUTCOME_ROW[outcome], member], of shape (2, 2, m)
    for the ensemble's m members or (2, 2, 1) for a gain the same for
    every member.  It is checked whenever it is set and kept as a
    read-only float64 copy.  NaN is rejected with the negatives: it would
    otherwise make ``decide``'s argmax pick an action silently.
    """

    table: np.ndarray
    prior: PriorState
    ensemble: Ensemble
    recycle_prior: bool = False

    def __post_init__(self):
        if len(self.prior.probs) != self.ensemble.size:
            raise ValueError("prior length does not match ensemble size")
        self.table = self.table    # checked now that the ensemble is set

    def __setattr__(self, name, value):
        if name == "table" and "ensemble" in self.__dict__:
            value = _checks.gains("table", value, self.ensemble.size)
        super().__setattr__(name, value)

    def trajectory_instance(self) -> "BayesGainPolicy":
        """Fresh copy with its own prior, for one trajectory worker."""
        return BayesGainPolicy(table=self.table,
                               prior=PriorState(self.prior.probs),
                               ensemble=self.ensemble,
                               recycle_prior=self.recycle_prior)


DecisionPolicy = Union[ThresholdFlip, BayesGainPolicy]


def posterior(prior: PriorState, likelihoods: np.ndarray) -> PriorState:
    """Bayes update: P(psi_i | x) proportional to P(x | psi_i) P(psi_i).

    ``likelihoods`` holds one finite number >= 0 per member of the prior,
    never a bool; anything else raises ValueError.
    """
    lk = _checks.numbers(likelihoods)
    if not (lk.shape == prior.probs.shape and np.isfinite(lk).all()
            and (lk >= 0.0).all()):
        raise ValueError(
            f"likelihoods must be a 1-D vector of {prior.probs.size} finite "
            f"numbers >= 0, one per prior entry, got {likelihoods!r}")
    weighted = lk * prior.probs
    z = weighted.sum()
    if z <= EVIDENCE_FLOOR:
        raise DegenerateEvidence(
            f"evidence {z:.3e} underflows; outcome impossible under prior")
    return PriorState(weighted / z)


def bayes_gain(table: np.ndarray, post: PriorState, x: int) -> np.ndarray:
    """Expected gain G(action | x) = sum_i lambda(action | x, i) P(i | x),
    one entry per Action in index order, for a gain array as
    BayesGainPolicy holds it.  cumsum adds the terms in member order for
    any m, where sum regroups them from 8 terms up."""
    return np.cumsum(table[:, OUTCOME_ROW[x]] * post.probs, axis=1)[:, -1]


def decide(policy: DecisionPolicy, x: int,
           likelihoods: Optional[np.ndarray] = None) -> Action:
    """Select the demon's action for outcome ``x``.

    ``x`` must be the int +1 or -1, never a bool or a float.
    ThresholdFlip ignores ``likelihoods``.  BayesGainPolicy requires the
    likelihood vector P(x | psi_i) over its ensemble; ties in the gain
    argmax resolve to the lowest action index (DO_NOTHING first).
    """
    x = _checks.outcome("x", x, (+1, -1))
    if isinstance(policy, ThresholdFlip):
        return Action.APPLY_PULSE if x == +1 else Action.DO_NOTHING
    if likelihoods is None:
        raise ValueError("Bayes-gain decision needs the likelihood vector")
    post = posterior(policy.prior, likelihoods)
    if policy.recycle_prior:
        policy.prior = post
    return Action(int(np.argmax(bayes_gain(policy.table, post, x))))


class EnsembleSampler:
    """Draws PureQubit members from a discrete ensemble.

    One uniform variate per draw, walked against the cumulative member
    weights (same convention as outcome sampling in the engine).
    """

    def __init__(self, ensemble: Ensemble, rng):
        self._states = [s for s, _ in ensemble.members]
        self._cum = np.cumsum([q for _, q in ensemble.members])
        self._rng = rng

    def sample(self) -> PureQubit:
        u = self._rng.random()
        idx = int(np.searchsorted(self._cum, u, side="right"))
        return self._states[min(idx, len(self._states) - 1)]
