"""Autonomous collision-model engine for charging qubit batteries.

A stream of randomly sampled qubit ancillas collides with a system qubit;
projective measurements on the system feed a Bayesian demon that decides
whether to pulse each outgoing ancilla, raising the ensemble's average
ergotropy.  A dissipative bath resets the system memory between
collisions.  Every simulated quantity is cross-checked against exact
closed forms.
"""

from .channels import (MeasuredBranch, apply_pulse, collide,
                       collision_unitary, measure, reset_closed_form)
from .demon import (Action, BayesGainPolicy, Ensemble, EnsembleSampler,
                    PriorState, ThresholdFlip, bayes_gain, decide, posterior,
                    threshold_gain_table)
from .engine import (CollisionRecord, EnergeticsClosedForm, EngineConfig,
                     energetics_oracle, run_cycle, run_trajectory)
from .errors import (DegenerateEvidence, DemonBatteryError, DimensionMismatch,
                     StateInvalid)
from .experiments import (HaarQubitSampler, HistogramResult, SummaryStats,
                          SweepSpec, VerifyReport, run_histogram_experiment,
                          run_sweep, verify_energetics)
from .kernels import StreamResult, simulate_stream
from .qmath import kron, ptrace, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import (DensityMatrix, PureQubit, ergotropy, ergotropy_pure,
                     ground_state, qubit_energy, to_density)

__version__ = "0.1.0"
