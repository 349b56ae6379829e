"""Common tangent of y = exp(-x) and a decay kernel, and the ceiling gamma it defines.

For every family index k > 1 (or INFINITY) there is a unique line tangent to
both y = exp(-x) and y = eval_g(k, x).  Writing the left tangency abscissa a,
the slope lam = g'(a) determines the right abscissa b = -ln(-lam) and the
y-intercept gamma = -lam (1 + b).  Eliminating b turns tangency into a single
scalar equation in a,

    g(a) / g'(a) - a + 1 = ln(-g'(a)),

which is solved here by a bracketed scan plus bisection plus a secant polish.
The returned gamma is the ceiling constant of the large-n analysis; the
piecewise function (kernel, tangent line, exponential) is the convex minorant
of min(exp(-x), g_k(x)).  A solution is a frozen record; which of its fields
print, and with how many digits, is the CLI's choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    AmbiguousBracketError,
    DegenerateFamilyError,
    NoBracketError,
    SolverError,
)
from .funcs import eval_g, eval_g_derivative

__all__ = [
    "TangentSolution",
    "solve_tangent",
]

# Empirical search window for the left tangency abscissa; revisit if some
# family ever fails to bracket here.
_SCAN_LO = -30.0
_SCAN_HI = -1e-6
_SCAN_POINTS = 240
# Log-spaced the way np.linspace spaces points: log of point i is lo + i*step, the last is hi.
_STEP = (math.log(-_SCAN_HI) - math.log(-_SCAN_LO)) / (_SCAN_POINTS - 1)
_LOGS = [math.log(-_SCAN_LO) + i * _STEP for i in range(_SCAN_POINTS - 1)] + [math.log(-_SCAN_HI)]
_SCAN_GRID = tuple(-math.exp(t) for t in _LOGS)

_LN2 = math.log(2.0)

# Bound on each of the four tangency residuals of a solution.
_TOL = 1e-12


@dataclass(frozen=True)
class TangentSolution:
    """Common-tangent geometry for one family index, fixed by its left abscissa.

    Stored: idx and a < 0.  Derived: the shared slope lam = g'(a) < 0, the
    right abscissa b = -ln(-lam) > 0, the y-intercept gamma = -lam (1 + b),
    the weight mu = b / (b - a) making the origin a convex combination of a
    and b, and residuals, the four tangency defects |g(a)-(gamma+lam*a)|,
    |g'(a)-lam|, |e^-b-(gamma+lam*b)|, |-e^-b-lam|.  Construction raises
    SolverError when this geometry fails, as it does for an a off the tangency.
    """

    idx: float
    a: float
    b: float = field(init=False)
    gamma: float = field(init=False)
    lam: float = field(init=False)
    mu: float = field(init=False)
    residuals: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        idx, a = self.idx, self.a
        lam = eval_g_derivative(idx, a)
        if not lam < 0.0:
            raise SolverError(f"tangent slope lam={lam} is not negative")
        b = -math.log(-lam)
        if not (a < 0.0 < b):
            raise SolverError(f"tangency abscissas out of order: a={a}, b={b}")
        gamma = -lam * (1.0 + b)
        if not (_LN2 < gamma < 1.0):
            raise SolverError(f"intercept gamma={gamma} outside (ln 2, 1)")
        mu = b / (b - a)
        mix = _mixed_value(idx, mu, a, b)
        if abs(mix - gamma) > 1e-10:
            raise SolverError(f"mixed tangency value deviates from gamma by {mix - gamma}")
        residuals = (
            abs(eval_g(idx, a) - (gamma + lam * a)),
            abs(eval_g_derivative(idx, a) - lam),
            abs(math.exp(-b) - (gamma + lam * b)),
            abs(-math.exp(-b) - lam),
        )
        for name, value in dict(b=b, gamma=gamma, lam=lam, mu=mu, residuals=residuals).items():
            object.__setattr__(self, name, value)


def _mixed_value(idx: float, mu: float, a: float, b: float) -> float:
    """mu g(a) + (1 - mu) e^{-b}: gamma at the tangency, the witness certificate's core."""
    return mu * eval_g(idx, a) + (1.0 - mu) * math.exp(-b)


def _check_tangent_family(idx) -> float:
    k = float(idx)
    if math.isnan(k) or k <= 1.0:
        raise DegenerateFamilyError(
            f"family index {idx!r} is degenerate: the k = 1 kernel is exp(-x) itself, "
            "so no common tangent exists for k <= 1"
        )
    return k


def _comtan_residual(idx: float, a: float) -> float:
    g = eval_g(idx, a)
    gp = eval_g_derivative(idx, a)
    return g / gp - a + 1.0 - math.log(-gp)


def solve_tangent(idx) -> TangentSolution:
    """Solve the common-tangent system for family index idx (real > 1 or INFINITY).

    The scan asserts exactly one sign change of the tangency equation on
    [-30, -1e-6]; zero raises NoBracketError, several raise
    AmbiguousBracketError.  The bracket is bisected, polished with secant
    steps, and the four tangency residuals are required to stay below 1e-12.

    Solutions are memoized per float(idx), so 3 and 3.0 share one, and
    are shared between callers, which the frozen TangentSolution makes safe.
    A call that raises is not cached.
    """
    return _solve_tangent(_check_tangent_family(idx))


@lru_cache(maxsize=256)
def _solve_tangent(k: float) -> TangentSolution:
    grid = _SCAN_GRID
    up = [_comtan_residual(k, a) > 0.0 for a in grid]
    brackets = [(grid[i], grid[i + 1]) for i in range(_SCAN_POINTS - 1) if up[i] != up[i + 1]]
    if not brackets:
        raise NoBracketError(
            f"no sign change of the tangency equation for index {k!r} on "
            f"[{_SCAN_LO}, {_SCAN_HI}] ({_SCAN_POINTS} scan points)"
        )
    if len(brackets) > 1:
        raise AmbiguousBracketError(
            f"{len(brackets)} sign changes of the tangency equation for index {k!r}: "
            f"{brackets}; refusing to pick one"
        )

    lo, hi = brackets[0]
    flo = _comtan_residual(k, lo)
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
        mid = 0.5 * (lo + hi)
        fmid = _comtan_residual(k, mid)
        if (flo > 0.0) != (fmid > 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid

    # derivative-free secant polish; keep the best |residual| seen
    a0, a1 = lo, hi
    f0, f1 = _comtan_residual(k, a0), _comtan_residual(k, a1)
    best_a, best_f = (a0, f0) if abs(f0) <= abs(f1) else (a1, f1)
    for _ in range(8):
        if f1 == f0:
            break
        a2 = a1 - f1 * (a1 - a0) / (f1 - f0)
        if not (brackets[0][0] <= a2 <= brackets[0][1]):
            break
        f2 = _comtan_residual(k, a2)
        if abs(f2) < abs(best_f):
            best_a, best_f = a2, f2
        a0, f0, a1, f1 = a1, f1, a2, f2
        if f2 == 0.0:
            break

    sol = TangentSolution(idx=k, a=best_a)
    if max(sol.residuals) > _TOL:
        raise SolverError(f"tangency residual {max(sol.residuals)} exceeds tolerance {_TOL}")
    return sol
