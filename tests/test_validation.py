"""Every scalar argument and probability vector of every public
constructor and entry point, held to the one validation vocabulary.

Each row names an argument, a call that puts a value there, the kind of
value it takes and values of that kind that must pass.  The kind fixes
the values that must raise ValueError or TypeError: bool, NaN, +-inf, an
int beyond the float range, str and None everywhere (None is valid only
for threads); -0.0 and 0 where > 0 is required; 1.5 where an int is
required; 2^64 and -1 for a seed; a float, even 1.0, and an int that
is not one of its outcomes for a measurement outcome.  A probability
vector must be 1-D and nonempty, of numbers that are finite, >= 0 and
sum to 1 within 1e-12.
A grid's values are tried as the one value of a one-point grid.  Valid
counts and thread counts stay <= 4, because some calls run.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from demon_battery import _checks
from demon_battery.channels import (CollisionParams, ResetParams,
                                    reset_closed_form)
from demon_battery.demon import (BayesGainPolicy, Ensemble, PriorState,
                                 ThresholdFlip, decide, threshold_gain_table)
from demon_battery.engine import EngineConfig, run_trajectory
from demon_battery.experiments import (HaarQubitSampler, SummaryStats,
                                       SweepSpec, run_histogram_experiment,
                                       run_sweep, verify_energetics)
from demon_battery.kernels import simulate_stream
from demon_battery.states import PureQubit, QubitHamiltonian, ergotropy_pure

BASE = EngineConfig.default()
FINITE = EngineConfig.default(reset_mode="finite")
SPEC = SweepSpec("g_tau", (0.1, 0.2), 4, BASE, 7)
BAYES = BayesGainPolicy(threshold_gain_table(), PriorState.uniform(2),
                        Ensemble.discrete([(PureQubit(0.5, 0.0), 0.5),
                                           (PureQubit(2.5, 0.0), 0.5)]))

#: an int no float can hold: a count, but not a number
HUGE = 10 ** 400
_ANY = [True, False, math.nan, math.inf, -math.inf, "1", None]
BAD = {
    "real": _ANY + [HUGE],
    "positive": _ANY + [HUGE, -0.0, 0, -1.0],
    "nonnegative": _ANY + [HUGE, -1.0],
    "theta": _ANY + [HUGE, -0.1, 3.2],
    "count": _ANY + [1.5, 2.0, 0, -1],
    "seed": _ANY + [1.5, 2 ** 64, -1],
    "workers": [v for v in _ANY if v is not None] + [1.5, 0, -1],
    "reset_mode": [True, math.nan, "sometimes", None],
    "variable": [True, math.nan, "coupling", None],
    "previous": _ANY + [HUGE, 0.0, 1.0, -1.0, np.float64(1.0), 2, -2],
    "start": _ANY + [HUGE, 1.0, -1.0, np.float64(-1.0), 0, 2],
    # each entry a vector of ensemble weights
    "weights": [[True], [True, 0.0], ["1"], [None], [math.nan],
                [math.inf], [-math.inf, 1.0], [1.1, -0.1], [],
                [1.0 + 2e-12], [HUGE]],
}
BAD["probabilities"] = BAD["weights"] + [
    True, "1", None, 1.0, np.array(1.0), [[1.0]], np.array([[0.5, 0.5]]),
    np.array([True]), np.array(["1"]), np.array([1.0 + 2e-12]),
    np.array([1.1, -0.1]), np.array([math.nan]), np.array([])]


def _trajectory(n):
    gen = np.random.default_rng(0)
    return run_trajectory(BASE, n, HaarQubitSampler(gen), gen)


def _sweep(variable, v):
    return SweepSpec(variable, (v,), 4, BASE, 7)


#: (argument, call, kind, values that pass)
ROWS = [
    ("CollisionParams.g_tau", CollisionParams, "real", [0.0, -0.3, 1]),
    # the first argument is gamma_tau_se; the row keeps the label, and so
    # the case ids, it had when the reset stored a rate gamma
    ("ResetParams.gamma", lambda v: ResetParams(v, 1.0, 1.0),
     "nonnegative", [0.0, -0.0, 2.5, 1]),
    ("ResetParams.tau_se", lambda v: ResetParams(1.0, v, 1.0),
     "nonnegative", [0.0, 1.0]),
    ("ResetParams.omega_s", lambda v: ResetParams(1.0, 1.0, v), "real",
     [-0.5, 0.0, 2]),
    ("EngineConfig.omega",
     lambda v: EngineConfig(v, BASE.collision, BASE.reset, ThresholdFlip()),
     "positive", [1.0, 2, np.float64(0.5)]),
    ("EngineConfig.reset_mode",
     lambda v: EngineConfig(1.0, BASE.collision, BASE.reset, ThresholdFlip(),
                            v),
     "reset_mode", ["full", "finite"]),
    ("EngineConfig.default.g_tau", lambda v: EngineConfig.default(g_tau=v),
     "real", [0.0, -1.0, 3]),
    ("EngineConfig.default.omega", lambda v: EngineConfig.default(omega=v),
     "positive", [1.0, 3]),
    ("EngineConfig.default.omega_s",
     lambda v: EngineConfig.default(omega_s=v), "nonnegative", [0.0, 1.5]),
    ("EngineConfig.default.gamma_tau_se",
     lambda v: EngineConfig.default(gamma_tau_se=v), "nonnegative",
     [0.0, 8.0, 2]),
    ("EngineConfig.default.tau_se", lambda v: EngineConfig.default(tau_se=v),
     "nonnegative", [1.0, 1e-3, 0, -0.0]),
    ("EngineConfig.default.reset_mode",
     lambda v: EngineConfig.default(reset_mode=v), "reset_mode",
     ["full", "finite"]),
    ("QubitHamiltonian.omega", QubitHamiltonian, "positive", [1.0, 2]),
    ("ergotropy_pure.omega", lambda v: ergotropy_pure(PureQubit(1.0, 0.0), v),
     "positive", [1.0, 2]),
    ("PureQubit.theta", lambda v: PureQubit(v, 0.0), "theta",
     [0.0, math.pi, 1, -1e-13]),
    ("PureQubit.phi", lambda v: PureQubit(1.0, v), "real", [0.0, -7.0, 20]),
    ("SweepSpec.variable", lambda v: SweepSpec(v, (0.1,), 4, BASE, 7),
     "variable", ["g_tau", "gamma_tau_se"]),
    ("SweepSpec.grid[g_tau]", lambda v: _sweep("g_tau", v), "real",
     [0.0, -0.5, 1]),
    ("SweepSpec.grid[gamma_tau_se]", lambda v: _sweep("gamma_tau_se", v),
     "nonnegative", [0.0, 8.0, 2]),
    ("SweepSpec.n_samples", lambda v: SweepSpec("g_tau", (0.1,), v, BASE, 7),
     "count", [1, 4, np.int64(3)]),
    ("SweepSpec.master_seed",
     lambda v: SweepSpec("g_tau", (0.1,), 4, BASE, v), "seed",
     [0, 2 ** 64 - 1, np.uint64(5)]),
    ("SweepSpec.base.reset.tau_se",
     lambda v: SweepSpec("gamma_tau_se", (0.1,), 4,
                         replace(BASE, reset=ResetParams(1.0, v, 1.0)), 7),
     "nonnegative", [1.0, 2, 0, -0.0]),
    ("run_histogram_experiment.n",
     lambda v: run_histogram_experiment(BASE, v, 7), "count", [1, 4]),
    ("run_histogram_experiment.seed",
     lambda v: run_histogram_experiment(BASE, 2, v), "seed", [0, 2 ** 64 - 1]),
    ("run_histogram_experiment.bins",
     lambda v: run_histogram_experiment(BASE, 2, 7, bins=v), "count", [1, 4]),
    ("run_histogram_experiment.threads",
     lambda v: run_histogram_experiment(BASE, 2, 7, threads=v), "workers",
     [None, 1, 2]),
    ("run_sweep.threads", lambda v: run_sweep(SPEC, threads=v), "workers",
     [None, 1, 2]),
    ("run_trajectory.n_collisions", _trajectory, "count", [1, 4]),
    ("SummaryStats.from_samples.omega",
     lambda v: SummaryStats.from_samples(np.array([0.1, 0.6]), v), "positive",
     [1.0, 2]),
    ("SummaryStats.from_samples.bins",
     lambda v: SummaryStats.from_samples(np.array([0.1, 0.6]), 1.0, v),
     "count", [1, 4]),
    ("verify_energetics.thetas",
     lambda v: verify_energetics(thetas=[v], g_taus=[0.3]), "theta",
     [0.0, 1.0, math.pi]),
    ("verify_energetics.g_taus",
     lambda v: verify_energetics(thetas=[1.0], g_taus=[v]), "real",
     [0.0, math.pi / 8, 1]),
    ("verify_energetics.omega",
     lambda v: verify_energetics(thetas=[1.0], g_taus=[0.3], omega=v),
     "positive", [1.0, 2]),
    ("Ensemble.weights",
     lambda v: Ensemble.discrete([(PureQubit(1.0, 0.0), q) for q in v]),
     "weights", [[1.0], [0.25, 0.75], [1], [0.5, np.float64(0.5)]]),
    ("PriorState.probs", PriorState, "probabilities",
     [[1.0], (0.25, 0.75), [0, 1], np.array([0.5, 0.5]), np.array([1])]),
    ("PriorState.uniform.n", PriorState.uniform, "count", [1, 4]),
    ("simulate_stream.previous",
     lambda v: simulate_stream(np.array([1.0]), np.array([0.0]),
                               np.array([0.5]), FINITE, v),
     "previous", [0, 1, -1, np.int64(1), np.int8(-1)]),
    ("reset_closed_form.start", lambda v: reset_closed_form(v, BASE.reset),
     "start", [1, -1, np.int64(-1)]),
    ("decide.x", lambda v: decide(ThresholdFlip(), v), "start",
     [1, -1, np.int64(1)]),
    ("decide.x[bayes]", lambda v: decide(BAYES, v, np.array([0.3, 0.6])),
     "start", [1, -1, np.int64(-1)]),
]


def _cases(valid):
    for name, call, kind, good in ROWS:
        for value in (good if valid else BAD[kind]):
            shown = repr(value).replace(repr(HUGE), "10**400")
            yield pytest.param(call, value, id=f"{name}={shown}")


@pytest.mark.parametrize("call, value", _cases(valid=False))
def test_invalid_value_raises(call, value):
    with pytest.raises((ValueError, TypeError)):
        call(value)


@pytest.mark.parametrize("call, value", _cases(valid=True))
def test_valid_value_passes(call, value):
    call(value)


@pytest.mark.parametrize("call", [
    # a bin width omega / bins below the least normal float
    lambda: run_histogram_experiment(EngineConfig.default(omega=1e-320), 2,
                                     7),
    lambda: SummaryStats.from_samples(np.array([0.0]), 1e-307, 1000),
    # more bins than a block summary may hold
    lambda: run_histogram_experiment(BASE, 2, 7, bins=_checks.MAX_BINS + 1),
], ids=["bin-width-run", "bin-width-summary", "bin-count-run"])
def test_derived_values_checked_up_front(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    # gamma_tau_se is stored as given: no rate gamma_tau_se / tau_se
    # exists to overflow, and a huge strength is a complete reset
    lambda: EngineConfig.default(gamma_tau_se=1e308, tau_se=1e-10),
    lambda: EngineConfig.default(gamma_tau_se=1.0, tau_se=1e-320),
    lambda: SweepSpec("gamma_tau_se", (0.0, 1e308), 4,
                      EngineConfig.default(tau_se=1e-10), 7),
], ids=["huge-strength", "subnormal-tau", "huge-grid-point"])
def test_complete_or_instant_reset_is_valid(call):
    call()


def test_most_bins_pass_without_a_run():
    _checks.bin_width(1.0, _checks.MAX_BINS)
    with pytest.raises(ValueError, match="bins must be an integer <= "):
        _checks.bin_width(1.0, _checks.MAX_BINS + 1)


@pytest.mark.parametrize("check, args, message", [
    (_checks.count, ("n", True), "n must be an integer >= 1, got True"),
    (_checks.count, ("steps", 50, 100),
     "steps must be an integer >= 100, got 50"),
    (_checks.seed, ("seed", 2 ** 64),
     "seed must be an integer in [0, 2^64), got 18446744073709551616"),
    (_checks.workers, ("threads", 1.5),
     "threads must be None or an integer >= 1, got 1.5"),
    (_checks.finite_real, ("g_tau", math.nan),
     "g_tau must be a finite number, got nan"),
    (_checks.positive_finite, ("omega", -0.0),
     "omega must be a finite number > 0, got -0.0"),
    (_checks.nonnegative_finite, ("gamma", "1"),
     "gamma must be a finite number >= 0, got '1'"),
    (_checks.within, ("theta", 4.0, 0.0, 3.5),
     "theta must be a number in [0.0, 3.5], got 4.0"),
    (_checks.bin_count, (2 ** 20 + 1,),
     "bins must be an integer <= 1048576, got 1048577"),
    (_checks.probabilities, ("probs", [0.5, 0.6]),
     "probs must be a 1-D vector of at least one finite number >= 0, "
     "summing to 1 within 1e-12, got [0.5, 0.6]"),
    (_checks.outcome, ("previous", True, (0, 1, -1)),
     "previous must be one of 0, 1, -1, got True"),
])
def test_one_message_style(check, args, message):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value) == message
