"""Exception types shared across the package, and its one integer-argument check."""

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


def _integer(name: str, value, lo: int, hi: int | None = None, error: type = ValueError) -> int:
    """value as an int in lo..hi (no upper end when hi is None), else raise error.

    Python and numpy integers and integral floats are accepted; anything
    else (2.5, inf, nan, a string) raises error naming the argument.  An
    int is returned as it is, never through a float, so it may be of any size.
    """
    try:
        ival = int(value) if isinstance(value, float) and value.is_integer() else index(value)
    except TypeError:
        ival = None
    if ival is None or ival < lo or (hi is not None and ival > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return ival
