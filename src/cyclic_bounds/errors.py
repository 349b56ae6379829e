"""Exception types shared across the package, and its one integer- and one real-argument check."""

import math
from operator import index


class CyclicBoundsError(Exception):
    """Base class for every error raised by this library."""


class WindowError(CyclicBoundsError, ValueError):
    """Window length is outside the valid range 1..n."""


class DomainError(CyclicBoundsError, ValueError):
    """Input vector violates a positivity requirement.

    Messages report 1-based indices.
    """


class ShapeError(CyclicBoundsError, ValueError):
    """Vector length does not satisfy a required divisibility."""


class DegenerateFamilyError(CyclicBoundsError, ValueError):
    """Tangent construction requested for a family index without a common tangent."""


class NoBracketError(CyclicBoundsError, RuntimeError):
    """No tangency root resolvable in float: k is within 2^-23 of 1, or no sign change on the grid."""


class SolverError(CyclicBoundsError, RuntimeError):
    """A solver finished but its solution failed validation."""


class CapacityError(CyclicBoundsError, RuntimeError):
    """Requested construction exceeds a configured or physical size cap."""

    def __init__(self, message: str, required_n: int | None = None):
        super().__init__(message)
        self.required_n = required_n


class InvalidSpecError(CyclicBoundsError, ValueError):
    """Witness plan violates one of its invariants."""


def _integer(name: str, value, lo: int | None, hi: int | None = None, error: type = ValueError) -> int:
    """value as an int in lo..hi (no end where lo or hi is None), else raise error.

    Python and numpy integers and integral floats are accepted; anything
    else (2.5, inf, nan, a string) raises error naming the argument.  An
    int is returned as it is, never through a float, so it may be of any size.
    """
    try:
        ival = int(value) if isinstance(value, float) and value.is_integer() else index(value)
    except TypeError:
        ival = None
    if ival is None or lo is not None and ival < lo or hi is not None and ival > hi:
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return ival


def _real(name: str, value, lo: float, hi: float | None = None, error: type = ValueError) -> float:
    """value as a Python float in (lo, hi), or in (lo, inf] when hi is None, else raise error.

    Python and numpy reals, integers and 0-d arrays included, are taken through
    their __float__; anything else (the string "3", bytes, None, a complex),
    nan, an int beyond float range or a value out of range raises error
    naming the argument and its range.  The result is never a numpy scalar.
    """
    try:  # float() would also parse text, which has no __float__, and take a numpy complex
        x = (float(value) if isinstance(value, float) or isinstance(value, int)
             or hasattr(type(value), "__float__") and not isinstance(value, complex) else math.nan)
    except (TypeError, ValueError, OverflowError):  # a sized array, an int beyond float range
        x = math.nan
    if lo < x and (hi is None or x < hi):
        return x
    top = "inf]" if hi is None else f"{hi:g})"
    raise error(f"{name} must be a real number in ({lo:g}, {top}, got {value!r}")
