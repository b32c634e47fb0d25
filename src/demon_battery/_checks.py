"""The one vocabulary for the package's arguments.  Each check raises
ValueError("<name> must be <requirement>, got <value!r>") or returns what
it accepted: a number as a Python float, so numpy never computes on a
float32 or an int beyond int64, a vector as a float64 array, a count, a
seed, a worker number or an outcome as a Python int.  Numbers are ints,
floats and their numpy types, never a bool; an int no float can hold is
not finite.
``numbers`` raises nothing.
"""

import math
import sys
from typing import Optional

import numpy as np

#: the most histogram bins: each block summary holds ``bins`` counts and
#: ``bins + 1`` edges, so its memory grows with the count
MAX_BINS = 2 ** 20
_MAX = sys.float_info.max


def _fail(name: str, requirement: str, value) -> None:
    raise ValueError(f"{name} must be {requirement}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(value) -> float:
    """``value`` as a float if it is a number, else NaN: no check passes it."""
    try:
        return float(value) if _is_int(value) \
            or isinstance(value, (float, np.floating)) else math.nan
    except OverflowError:    # an int beyond the float range
        return math.nan


def within(name: str, value, low: float, high: float,
           requirement: str = "") -> float:
    """``value`` as a float once it is a number in [low, high]."""
    if not low <= (x := _real(value)) <= high:
        _fail(name, requirement or f"a number in [{low!r}, {high!r}]", value)
    return x


def finite_real(name: str, value) -> float:
    return within(name, value, -_MAX, _MAX, "a finite number")


def positive_finite(name: str, value) -> float:
    return within(name, value, math.ulp(0.0), _MAX, "a finite number > 0")


def nonnegative_finite(name: str, value) -> float:
    return within(name, value, 0.0, _MAX, "a finite number >= 0")


def coupling(name: str, value) -> float:
    """A finite g_tau whose angle 2 * g_tau is finite too."""
    return within(name, value, -_MAX / 2, _MAX / 2,
                  "a finite number whose double is finite")


def count(name: str, value) -> int:
    if not (_is_int(value) and value >= 1):
        _fail(name, "an integer >= 1", value)
    return int(value)


def outcome(name: str, value, outcomes: tuple) -> int:
    """A measurement outcome: an int among ``outcomes``, never a float."""
    if not (_is_int(value) and value in outcomes):
        _fail(name, "one of " + ", ".join(map(str, outcomes)), value)
    return int(value)


def seed(name: str, value) -> int:
    if not (_is_int(value) and 0 <= value < 2 ** 64):
        _fail(name, "an integer in [0, 2^64)", value)
    return int(value)


def workers(name: str, value) -> Optional[int]:
    if not (value is None or _is_int(value) and value >= 1):
        _fail(name, "None or an integer >= 1", value)
    return None if value is None else int(value)


def bin_count(bins) -> None:
    count("bins", bins)
    if bins > MAX_BINS:
        _fail("bins", f"an integer <= {MAX_BINS}", bins)


def bin_width(omega, bins) -> float:
    """omega, once bins over [0, omega] have a normal float as their
    width: a subnormal width rounds the edges by more than one bin."""
    bin_count(bins)
    if not sys.float_info.min <= (x := _real(omega)) / bins < math.inf:
        _fail("omega", f"a finite number > 0 whose bin width omega / {bins} "
              "is a normal float", omega)
    return x


def square_sum(name: str, n, omega) -> None:
    """A sample count n and a float omega with n * omega**2 finite: every
    summarized field lies in [0, omega], so a sample's M2 is at most
    n * omega**2 / 4 and stays finite however the sum is grouped."""
    try:
        finite = math.isfinite(float(n) * omega ** 2)
    except OverflowError:    # the square or n beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} * omega**2 must be finite, got "
                         f"{name}={n!r}, omega={omega!r}")


def finite_product(name_a: str, a, name_b: str, b) -> None:
    """Two finite floats whose product is finite too."""
    if not math.isfinite(a * b):
        raise ValueError(f"{name_a} * {name_b} must be finite, got "
                         f"{name_a}={a!r}, {name_b}={b!r}")


def numbers(values) -> np.ndarray:
    """``values`` as a float64 array when it is a numeric array (no bool,
    str or object entries) or a list or tuple of finite numbers, else an
    empty array that fails any size check."""
    if isinstance(values, np.ndarray):
        numeric = values.dtype.kind in "fiu"
    else:
        numeric = isinstance(values, (list, tuple)) \
            and all(map(math.isfinite, map(_real, values)))
    return np.array(values, dtype=float) if numeric else np.empty(0)


def probabilities(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, once it is a probability vector: a
    1-D array or list of at least one finite number >= 0, summing to 1
    within 1e-12.  A numeric array is checked whole, a list entry by
    entry."""
    p = numbers(values)
    if not (p.ndim == 1 and p.size >= 1 and np.isfinite(p).all()
            and (p >= 0.0).all() and abs(p.sum() - 1.0) <= 1e-12):
        _fail(name, "a 1-D vector of at least one finite number >= 0, "
              "summing to 1 within 1e-12", values)
    return p


def gains(name: str, values, members: int) -> np.ndarray:
    """``values`` as a read-only float64 copy, once it is a gain table for
    ``members`` ensemble members: a numeric array of shape (2, 2, members)
    or (2, 2, 1), every entry finite and >= 0."""
    g = numbers(values)
    if not (g.shape in ((2, 2, 1), (2, 2, members)) and np.isfinite(g).all()
            and (g >= 0.0).all()):
        _fail(name, f"a (2, 2, 1) or (2, 2, {members}) array of finite "
              "numbers >= 0", values)
    g.setflags(write=False)
    return g
