"""The one vocabulary for the package's arguments: each check returns
None, or for a probability vector its float64 array, or raises
ValueError("<name> must be <requirement>, got <value!r>").  Numbers are
ints, floats and their numpy types, never a bool, and an int that no
float can hold is not finite.  ``numbers`` raises nothing: it reads a
vector under that rule for the checks that follow it.
"""

import math
import sys

import numpy as np

#: the most histogram bins: each block summary holds ``bins`` counts and
#: ``bins + 1`` edges, so its memory grows with the count
MAX_BINS = 2 ** 20


def _fail(name: str, requirement: str, value) -> None:
    raise ValueError(f"{name} must be {requirement}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return (_is_int(value) or isinstance(value, (float, np.floating))) \
            and math.isfinite(value)
    except OverflowError:    # an int beyond the float range
        return False


def finite_real(name: str, value) -> None:
    if not _is_finite(value):
        _fail(name, "a finite number", value)


def positive_finite(name: str, value) -> None:
    if not (_is_finite(value) and value > 0):
        _fail(name, "a finite number > 0", value)


def nonnegative_finite(name: str, value) -> None:
    if not (_is_finite(value) and value >= 0):
        _fail(name, "a finite number >= 0", value)


def within(name: str, value, low: float, high: float) -> None:
    if not (_is_finite(value) and low <= value <= high):
        _fail(name, f"a number in [{low!r}, {high!r}]", value)


def count(name: str, value, least: int = 1) -> None:
    if not (_is_int(value) and value >= least):
        _fail(name, f"an integer >= {least}", value)


def outcome(name: str, value, outcomes: tuple) -> None:
    """A measurement outcome: an int among ``outcomes``, never a float."""
    if not (_is_int(value) and value in outcomes):
        _fail(name, "one of " + ", ".join(map(str, outcomes)), value)


def seed(name: str, value) -> None:
    if not (_is_int(value) and 0 <= value < 2 ** 64):
        _fail(name, "an integer in [0, 2^64)", value)


def workers(name: str, value) -> None:
    if not (value is None or _is_int(value) and value >= 1):
        _fail(name, "None or an integer >= 1", value)


def bin_count(bins) -> None:
    count("bins", bins)
    if bins > MAX_BINS:
        _fail("bins", f"an integer <= {MAX_BINS}", bins)


def bin_width(omega, bins) -> None:
    """A count of bins over [0, omega] whose width is a normal float: a
    subnormal width rounds the edges by more than one bin."""
    bin_count(bins)
    if not (_is_finite(omega) and omega / bins >= sys.float_info.min):
        _fail("omega", f"a finite number > 0 whose bin width omega / {bins} "
              "is a normal float", omega)


def numbers(values) -> np.ndarray:
    """``values`` as a float64 array when it is a numeric array (no bool,
    str or object entries) or a list or tuple of finite numbers, else an
    empty array that fails any size check."""
    if isinstance(values, np.ndarray):
        numeric = values.dtype.kind in "fiu"
    else:
        numeric = isinstance(values, (list, tuple)) \
            and all(map(_is_finite, values))
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
