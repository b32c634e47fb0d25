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
sum to 1 within 1e-12.  A gain table must be a numeric array, not nested
lists, of shape (2, 2, 1) or (2, 2, m) for its ensemble's m members,
of numbers that are finite and >= 0, when built and when reassigned.
A grid's values are tried as the one value of a one-point grid.  Valid
counts and thread counts stay <= 4, because some calls run.
"""

import math
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest

from demon_battery import _checks
from demon_battery.channels import collision_unitary, reset_closed_form
from demon_battery.demon import (BayesGainPolicy, Ensemble, PriorState,
                                 ThresholdFlip, decide, threshold_gain_table)
from demon_battery.engine import (EngineConfig, energetics_oracle,
                                  run_trajectory)
from demon_battery.experiments import (HaarQubitSampler, SummaryStats,
                                       SweepSpec, run_histogram_experiment,
                                       run_sweep, verify_energetics)
from demon_battery.kernels import simulate_stream
from demon_battery.states import (PureQubit, ergotropy, ergotropy_pure,
                                  ground_state, to_density)

BASE = EngineConfig.default()
FINITE = EngineConfig.default(reset_mode="finite")
SPEC = SweepSpec("g_tau", (0.1, 0.2), 4, BASE, 7)
BAYES = BayesGainPolicy(threshold_gain_table(), PriorState.uniform(2),
                        Ensemble.discrete([(PureQubit(0.5, 0.0), 0.5),
                                           (PureQubit(2.5, 0.0), 0.5)]))

#: an int no float can hold: a count, but not a number
HUGE = 10 ** 400


def _shown(value) -> str:
    """repr(value) for a test id, with HUGE's 401 digits as 10**400."""
    return repr(value).replace(repr(HUGE), "10**400")


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
    # The next four rows keep the labels, and so the case ids, of the
    # removed parameter types whose checks moved: the collision strength
    # to collision_unitary, the reset strength (once a rate gamma) and the
    # phase (omega_s at tau_se = 1) to reset_closed_form, and tau_se to
    # the engine config, where omega_s alone is >= 0.
    ("CollisionParams.g_tau", collision_unitary, "real", [0.0, -0.3, 1]),
    ("ResetParams.gamma", lambda v: reset_closed_form(+1, v, 1.0),
     "nonnegative", [0.0, -0.0, 2.5, 1]),
    ("ResetParams.tau_se", lambda v: replace(BASE, tau_se=v),
     "nonnegative", [0.0, 1.0]),
    ("ResetParams.omega_s", lambda v: reset_closed_form(+1, 1.0, v), "real",
     [-0.5, 0.0, 2]),
    ("EngineConfig.omega", lambda v: replace(BASE, omega=v), "positive",
     [1.0, 2, np.float64(0.5)]),
    ("EngineConfig.reset_mode", lambda v: replace(BASE, reset_mode=v),
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
    # ergotropy takes the gap the removed QubitHamiltonian type held; the
    # row keeps that type's label, and so the case ids, as ResetParams.gamma
    ("QubitHamiltonian.omega", lambda v: ergotropy(ground_state(), v),
     "positive", [1.0, 2]),
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
    # the label, and so the case ids, of the nested reset it replaced
    ("SweepSpec.base.reset.tau_se",
     lambda v: SweepSpec("gamma_tau_se", (0.1,), 4,
                         replace(BASE, gamma_tau_se=1.0, tau_se=v), 7),
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
     [1.0, 2, 2 ** 64, np.float32(0.7)]),
    ("SummaryStats.from_samples.bins",
     lambda v: SummaryStats.from_samples(np.array([0.1, 0.6]), 1.0, v),
     "count", [1, 4]),
    ("verify_energetics.omega", lambda v: verify_energetics(omega=v),
     "positive", [1.0, 2, np.float32(2.0)]),
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
    ("reset_closed_form.start", lambda v: reset_closed_form(v, 1.0, 1.0),
     "start", [1, -1, np.int64(-1)]),
    ("decide.x", lambda v: decide(ThresholdFlip(), v), "start",
     [1, -1, np.int64(1)]),
    ("decide.x[bayes]", lambda v: decide(BAYES, v, np.array([0.3, 0.6])),
     "start", [1, -1, np.int64(-1)]),
]


def _cases(valid):
    for name, call, kind, good in ROWS:
        for value in (good if valid else BAD[kind]):
            yield pytest.param(call, value, id=f"{name}={_shown(value)}")


@pytest.mark.parametrize("call, value", _cases(valid=False))
def test_invalid_value_raises(call, value):
    with pytest.raises((ValueError, TypeError)):
        call(value)


@pytest.mark.parametrize("call, value", _cases(valid=True))
def test_valid_value_passes(call, value):
    call(value)


def _gains_with(entry, dtype=float):
    """The threshold table as an array of ``dtype``, one entry replaced."""
    table = threshold_gain_table().astype(dtype)
    table[1, 0, 0] = entry
    return table


BAD_GAINS = {
    **{f"entry={v!r}": _gains_with(v)
       for v in (-1.0, math.nan, math.inf, -math.inf)},
    "int-entry=-1": _gains_with(-1, np.int64),
    **{f"object-entry={_shown(v)}": _gains_with(v, object)
       for v in (1.0, True, "1", None, HUGE)},
    "bool-array": np.ones((2, 2, 1), dtype=bool),
    "str-array": np.full((2, 2, 1), "1"),
    "nested-list": threshold_gain_table().tolist(),
    "shape=(2, 2)": np.ones((2, 2)),
    "shape=(3, 2, 1)": np.ones((3, 2, 1)),
    "shape=(2, 2, 3)": np.ones((2, 2, 3)),
    "shape=()": np.array(1.0),
    "scalar": 1.0,
}
GOOD_GAINS = {
    "threshold": threshold_gain_table(),
    "per-member": np.array([[[0, 1], [0.5, 0]], [[2, 0], [0, 1]]]),
    "int-array": np.ones((2, 2, 2), dtype=np.int64),
    "float32-array": np.ones((2, 2, 1), dtype=np.float32),
    "zeros": np.zeros((2, 2, 1)),
}


@pytest.mark.parametrize("table", BAD_GAINS.values(), ids=BAD_GAINS.keys())
def test_invalid_gain_table_raises(table):
    with pytest.raises(ValueError, match="^table must be "):
        BayesGainPolicy(table, PriorState.uniform(2), BAYES.ensemble)


@pytest.mark.parametrize("table", GOOD_GAINS.values(), ids=GOOD_GAINS.keys())
def test_valid_gain_table_passes(table):
    policy = BayesGainPolicy(table, PriorState.uniform(2), BAYES.ensemble)
    assert policy.table.tolist() == np.asarray(table, dtype=float).tolist()


@pytest.mark.parametrize("table", BAD_GAINS.values(), ids=BAD_GAINS.keys())
def test_invalid_gain_table_assigned_later_raises(table):
    policy = BAYES.trajectory_instance()
    with pytest.raises(ValueError, match="^table must be "):
        policy.table = table
    assert policy.table.tolist() == threshold_gain_table().tolist()


@pytest.mark.parametrize("call", [
    # a bin width omega / bins below the least normal float
    lambda: run_histogram_experiment(EngineConfig.default(omega=1e-320), 2,
                                     7),
    lambda: SummaryStats.from_samples(np.array([0.0]), 1e-307, 1000),
    # more bins than a block summary may hold
    lambda: run_histogram_experiment(BASE, 2, 7, bins=_checks.MAX_BINS + 1),
    # n * omega**2 overflows, and with it a sample's M2
    lambda: run_histogram_experiment(EngineConfig.default(omega=1e160), 2, 7),
    lambda: SweepSpec("g_tau", (0.1,), 4, EngineConfig.default(omega=1e160),
                      7),
    lambda: SweepSpec("gamma_tau_se", (0.1,), 2,
                      EngineConfig.default(omega=1e308), 7),
    lambda: SweepSpec("g_tau", (0.1,), 10 ** 9,
                      EngineConfig.default(omega=1e150), 7),
    # the reset phase omega_s * tau_se overflows
    lambda: replace(BASE, tau_se=1e200, omega_s=1e200),
    # the product of a phase that overflowed, passed on its own
    lambda: reset_closed_form(+1, 1.0, 1e300 * -1e300),
    lambda: EngineConfig.default(tau_se=1e200, omega_s=1e200),
], ids=["bin-width-run", "bin-width-summary", "bin-count-run",
        "square-sum-run", "square-sum-g-sweep", "square-sum-reset-sweep",
        "square-sum-long-sweep", "reset-phase", "reset-phase-negative",
        "reset-phase-default"])
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


@pytest.mark.parametrize("call", [
    lambda: run_histogram_experiment(EngineConfig.default(omega=1e150), 4, 7),
    lambda: SweepSpec("g_tau", (0.1,), 10 ** 8,
                      EngineConfig.default(omega=1e150), 7),
    lambda: replace(BASE, tau_se=1e150, omega_s=1e150),
    lambda: replace(BASE, tau_se=1e308, omega_s=1.0),
], ids=["square-sum-run", "square-sum-sweep", "reset-phase",
        "reset-phase-long"])
def test_largest_finite_sums_are_valid(call):
    call()


@pytest.mark.parametrize("variable", ["g_tau", "gamma_tau_se"])
def test_repeated_grid_value_rejected(variable):
    # a point run twice is not a grid that strictly increases
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(variable, (0.5, 0.5), 4, BASE, 7)


@pytest.mark.parametrize("theta", [-1e-12, math.pi + 1e-12])
def test_theta_tolerance_ends_pass(theta):
    # the closed interval [-1e-12, pi + 1e-12], ends included
    assert PureQubit(theta, 0.0).theta in (0.0, math.pi)


#: calls of one number that numpy computed on in float32 for a float32,
#: each giving a tuple of the values it returns or stores
FLOAT32_CALLS = {
    "ergotropy": lambda v: (ergotropy(to_density(PureQubit(1.0, 0.3)), v),),
    "ergotropy_pure": lambda v: (ergotropy_pure(PureQubit(1.0, 0.3), v),),
    "energetics_oracle": lambda v: astuple(energetics_oracle(1.0, 0.3, v)),
    "PureQubit": lambda v: astuple(PureQubit(v, v)),
    "reset_closed_form": lambda v: tuple(
        reset_closed_form(1, 1.0, v).mat.ravel().tolist()),
}


@pytest.mark.parametrize("call", FLOAT32_CALLS.values(), ids=FLOAT32_CALLS)
def test_float32_is_read_as_its_float(call):
    got = call(np.float32(0.7))
    assert got == call(float(np.float32(0.7)))
    assert all(type(v) in (float, complex) for v in got)


def test_least_normal_bin_width_passes():
    least = sys.float_info.min
    _checks.bin_width(least, 1)
    stats = SummaryStats.from_samples(np.array([least, 0.0]), 4 * least, 4)
    assert stats.counts.tolist() == [1, 1, 0, 0]
    with pytest.raises(ValueError, match="normal float"):
        _checks.bin_width(least, 2)


def test_most_bins_pass_without_a_run():
    _checks.bin_width(1.0, _checks.MAX_BINS)
    with pytest.raises(ValueError, match="bins must be an integer <= "):
        _checks.bin_width(1.0, _checks.MAX_BINS + 1)


@pytest.mark.parametrize("check, args, message", [
    pytest.param(_checks.count, ("n", True),
                 "n must be an integer >= 1, got True", id="count-bool"),
    pytest.param(_checks.count, ("steps", 0),
                 "steps must be an integer >= 1, got 0", id="count-zero"),
    pytest.param(_checks.seed, ("seed", 2 ** 64),
                 "seed must be an integer in [0, 2^64), got "
                 "18446744073709551616", id="seed"),
    pytest.param(_checks.workers, ("threads", 1.5),
                 "threads must be None or an integer >= 1, got 1.5",
                 id="workers"),
    pytest.param(_checks.finite_real, ("g_tau", math.nan),
                 "g_tau must be a finite number, got nan", id="finite_real"),
    pytest.param(_checks.positive_finite, ("omega", -0.0),
                 "omega must be a finite number > 0, got -0.0",
                 id="positive_finite"),
    pytest.param(_checks.nonnegative_finite, ("gamma", "1"),
                 "gamma must be a finite number >= 0, got '1'",
                 id="nonnegative_finite"),
    pytest.param(_checks.within, ("theta", 4.0, 0.0, 3.5),
                 "theta must be a number in [0.0, 3.5], got 4.0",
                 id="within"),
    pytest.param(_checks.bin_count, (2 ** 20 + 1,),
                 "bins must be an integer <= 1048576, got 1048577",
                 id="bin_count"),
    pytest.param(_checks.probabilities, ("probs", [0.5, 0.6]),
                 "probs must be a 1-D vector of at least one finite number "
                 ">= 0, summing to 1 within 1e-12, got [0.5, 0.6]",
                 id="probabilities"),
    pytest.param(_checks.outcome, ("previous", True, (0, 1, -1)),
                 "previous must be one of 0, 1, -1, got True", id="outcome"),
    pytest.param(_checks.square_sum, ("n", 10000, 1e160),
                 "n * omega**2 must be finite, got n=10000, omega=1e+160",
                 id="square_sum"),
    pytest.param(_checks.finite_product,
                 ("omega_s", 1e200, "tau_se", -1e200),
                 "omega_s * tau_se must be finite, got omega_s=1e+200, "
                 "tau_se=-1e+200", id="finite_product"),
])
def test_one_message_style(check, args, message):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value) == message
