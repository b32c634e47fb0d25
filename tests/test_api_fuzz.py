"""The package's exported entry points that take a number, fed numbers
of every type Python and numpy make: ints beyond 2^64, bools, numpy
float16, float32, float64 and int64 scalars, 0-d arrays, NaN, +-inf and
subnormals.  Each call either raises ValueError or TypeError with a
one-line message, a ValueError's naming what the argument must be, and
no warning, or returns a result whose floats are Python floats and whose
arrays are float64, complex128 or integer arrays: a numpy scalar in a
result is a number read around its check.  Integer arguments (counts,
seeds, worker numbers) get small values of those types, as a count runs
that many cycles, and seeds also the ends of their range.

The examples are derandomized so the suite is deterministic, and few,
because verify_energetics runs for about 0.1 s on every valid omega.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demon_battery import (EngineConfig, HaarQubitSampler, PriorState,
                           PureQubit, SummaryStats, SweepSpec,
                           collision_unitary, energetics_oracle, ergotropy,
                           ergotropy_pure, reset_closed_form,
                           run_histogram_experiment, run_sweep,
                           run_trajectory, to_density, verify_energetics)

BASE = EngineConfig.default()
PSI = PureQubit(1.0, 0.3)
RHO = to_density(PSI)
SAMPLES = np.array([0.1, 0.6])

_FLOATS = st.floats(allow_nan=True, allow_infinity=True,
                    allow_subnormal=True)
_HUGE_INTS = st.integers(min_value=2 ** 64, max_value=10 ** 400)
NUMBERS = st.one_of(
    _HUGE_INTS, _HUGE_INTS.map(lambda n: -n), st.booleans(),
    st.integers(-4, 4), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    _FLOATS, _FLOATS.map(np.float64),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
    st.floats(width=16, allow_subnormal=True).map(np.float16),
    _FLOATS.map(np.array),
    st.floats(width=32).map(lambda x: np.array(x, dtype=np.float32)),
    st.sampled_from([math.nan, -math.inf, math.inf, 5e-324, -5e-324,
                     sys.float_info.min / 2, sys.float_info.max, -0.0,
                     np.float32(1e-45), np.float32(0.1)]),
)

_SMALL_INTS = st.integers(-4, 40)
INTEGERS = st.one_of(
    _SMALL_INTS, _SMALL_INTS.map(np.int64), _SMALL_INTS.map(np.int32),
    st.integers(0, 40).map(np.uint8), st.booleans(),
    _HUGE_INTS.map(lambda n: -n),
    st.sampled_from([4.0, np.float64(4.0), np.float32(4.0), np.array(4),
                     math.nan, math.inf]),
)
SEEDS = st.one_of(INTEGERS, st.sampled_from(
    [2 ** 64 - 1, 2 ** 64, np.uint64(2 ** 64 - 1), 10 ** 400]))
SPEC = SweepSpec("g_tau", (0.1,), 4, BASE, 7)

#: one call per numeric argument, the number in that argument's place
CALLS = {
    "PureQubit.theta": lambda v: PureQubit(v, 0.3),
    "PureQubit.phi": lambda v: PureQubit(1.0, v),
    "ergotropy.omega": lambda v: ergotropy(RHO, v),
    "ergotropy_pure.omega": lambda v: ergotropy_pure(PSI, v),
    "energetics_oracle.theta": lambda v: energetics_oracle(v, 0.3, 1.0),
    "energetics_oracle.g_tau": lambda v: energetics_oracle(1.0, v, 1.0),
    "energetics_oracle.omega": lambda v: energetics_oracle(1.0, 0.3, v),
    "reset_closed_form.gamma_tau_se":
        lambda v: reset_closed_form(+1, v, 0.5),
    "reset_closed_form.phase": lambda v: reset_closed_form(-1, 1.0, v),
    "collision_unitary.g_tau": collision_unitary,
    **{f"EngineConfig.default.{name}":
       lambda v, name=name: EngineConfig.default(**{name: v})
       for name in ("omega", "g_tau", "gamma_tau_se", "tau_se", "omega_s")},
    "SweepSpec.grid[g_tau]":
        lambda v: SweepSpec("g_tau", (v,), 4, BASE, 7),
    "SweepSpec.grid[gamma_tau_se]":
        lambda v: SweepSpec("gamma_tau_se", (v,), 4, BASE, 7),
    "SummaryStats.from_samples.omega":
        lambda v: SummaryStats.from_samples(SAMPLES, v),
}

#: one call per integer argument, with the strategy its values come from
INTEGER_CALLS = {
    "SweepSpec.n_samples":
        (INTEGERS, lambda v: SweepSpec("g_tau", (0.1,), v, BASE, 7)),
    "SweepSpec.master_seed":
        (SEEDS, lambda v: SweepSpec("g_tau", (0.1,), 4, BASE, v)),
    "run_histogram_experiment.n":
        (INTEGERS, lambda v: run_histogram_experiment(BASE, v, 7, threads=1)),
    "run_histogram_experiment.seed":
        (SEEDS, lambda v: run_histogram_experiment(BASE, 4, v, threads=1)),
    "run_histogram_experiment.threads":
        (INTEGERS, lambda v: run_histogram_experiment(BASE, 4, 7, threads=v)),
    "run_sweep.threads": (INTEGERS, lambda v: run_sweep(SPEC, threads=v)),
    "run_trajectory.n_collisions": (INTEGERS, lambda v: run_trajectory(
        BASE, v, HaarQubitSampler.from_seed(1), np.random.default_rng(1))),
    "PriorState.uniform.n": (INTEGERS, PriorState.uniform),
}


def _leaves(result):
    """Every value a result holds, through dataclasses, tuples, lists and
    dicts; an array is one leaf."""
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _leaves(getattr(result, field.name))
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _leaves(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from _leaves(item)
    else:
        yield result


def _rejected_or_read(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except (ValueError, TypeError) as exc:
            message = str(exc)
            assert message and "\n" not in message, repr(message)
            if isinstance(exc, ValueError):
                assert " must be " in message, repr(message)
            return
    for leaf in _leaves(result):
        if isinstance(leaf, np.ndarray):
            assert leaf.dtype in (np.float64, np.complex128) \
                or leaf.dtype.kind in "iu", leaf.dtype
        else:
            assert not isinstance(leaf, np.generic), repr(leaf)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(value=NUMBERS)
def test_number_is_rejected_or_read_as_a_float(call, value):
    _rejected_or_read(call, value)


@pytest.mark.parametrize("strategy, call", INTEGER_CALLS.values(),
                         ids=INTEGER_CALLS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_integer_is_rejected_or_read_as_an_int(strategy, call, data):
    _rejected_or_read(call, data.draw(strategy))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(value=NUMBERS)
@example(value=np.float32(2.0))
def test_verify_omega_is_rejected_or_read_as_a_float(value):
    _rejected_or_read(verify_energetics, value)
