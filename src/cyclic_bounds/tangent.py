"""Common tangent of y = exp(-x) and a decay kernel, and the convex minorant it defines.

For every family index k > 1 (or INFINITY) there is a unique line tangent to
both y = exp(-x) and y = eval_g(k, x).  Writing the left tangency abscissa a,
the slope lam = g'(a) determines the right abscissa b = -ln(-lam) and the
y-intercept gamma = -lam (1 + b).  Eliminating b turns tangency into a single
scalar equation in a,

    g(a) / g'(a) - a + 1 = ln(-g'(a)),

which is solved here by a bracketed scan plus bisection plus a secant polish.
The returned gamma is the ceiling constant of the large-n analysis; the
piecewise function (kernel, tangent line, exponential) is the convex minorant
of min(exp(-x), g_k(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._records import csv_table, json_text
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
    "eval_minorant",
    "gamma_table",
    "gamma_table_csv",
    "gamma_table_json",
]

# Empirical search window for the left tangency abscissa; revisit if some
# family ever fails to bracket here.
_SCAN_LO = -30.0
_SCAN_HI = -1e-6
_SCAN_POINTS = 240

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TangentSolution:
    """Solved common-tangent geometry for one family index.

    a < 0 < b are the tangency abscissas, lam < 0 the shared slope, gamma the
    y-intercept, and mu = b / (b - a) the weight making the origin a convex
    combination of the two abscissas.  residuals holds the four tangency
    defects |g(a)-(gamma+lam*a)|, |g'(a)-lam|, |e^-b-(gamma+lam*b)|,
    |-e^-b-lam|.
    """

    idx: float
    a: float
    b: float
    gamma: float
    lam: float
    mu: float
    residuals: tuple[float, float, float, float]

    def validate(self, tol: float) -> None:
        if not (self.a < 0.0 < self.b):
            raise SolverError(f"tangency abscissas out of order: a={self.a}, b={self.b}")
        if not (_LN2 < self.gamma < 1.0):
            raise SolverError(f"intercept gamma={self.gamma} outside (ln 2, 1)")
        if not self.lam < 0.0:
            raise SolverError(f"tangent slope lam={self.lam} is not negative")
        if not (0.0 < self.mu < 1.0):
            raise SolverError(f"mixing weight mu={self.mu} outside (0, 1)")
        comb = self.mu * self.a + (1.0 - self.mu) * self.b
        if abs(comb) > 1e-12:
            raise SolverError(f"mu*a + (1-mu)*b = {comb} exceeds 1e-12")
        mix = _mixed_value(self.idx, self.mu, self.a, self.b)
        if abs(mix - self.gamma) > 1e-10:
            raise SolverError(f"mixed tangency value deviates from gamma by {mix - self.gamma}")
        worst = max(self.residuals)
        if worst > tol:
            raise SolverError(f"tangency residual {worst} exceeds tolerance {tol}")


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


def solve_tangent(idx, tol: float = 1e-12) -> TangentSolution:
    """Solve the common-tangent system for family index idx (real > 1 or INFINITY).

    The scan asserts exactly one sign change of the tangency equation on
    [-30, -1e-6]; zero raises NoBracketError, several raise
    AmbiguousBracketError.  The bracket is bisected, polished with secant
    steps, and the four tangency residuals are required to stay below tol.

    Solutions are memoized per (float(idx), tol), so 3 and 3.0 share one, and
    are shared between callers, which the frozen TangentSolution makes safe.
    A call that raises is not cached.
    """
    k = _check_tangent_family(idx)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return _solve_tangent(k, float(tol))


@lru_cache(maxsize=256)
def _solve_tangent(k: float, tol: float) -> TangentSolution:
    grid = -np.exp(np.linspace(math.log(-_SCAN_LO), math.log(-_SCAN_HI), _SCAN_POINTS))
    vals = [_comtan_residual(k, float(a)) for a in grid]
    brackets = [
        (float(grid[i]), float(grid[i + 1]))
        for i in range(_SCAN_POINTS - 1)
        if (vals[i] > 0.0) != (vals[i + 1] > 0.0)
    ]
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

    a = best_a
    lam = eval_g_derivative(k, a)
    b = -math.log(-lam)
    gamma = -lam * (1.0 + b)
    mu = b / (b - a)
    residuals = (
        abs(eval_g(k, a) - (gamma + lam * a)),
        abs(eval_g_derivative(k, a) - lam),
        abs(math.exp(-b) - (gamma + lam * b)),
        abs(-math.exp(-b) - lam),
    )
    sol = TangentSolution(
        idx=k, a=a, b=b, gamma=gamma, lam=lam, mu=mu, residuals=residuals
    )
    sol.validate(tol)
    return sol


def eval_minorant(sol: TangentSolution, x: float) -> float:
    """Convex minorant of min(exp(-x), g(x)): kernel, tangent line, exponential."""
    x = float(x)
    if x <= sol.a:
        return eval_g(sol.idx, x)
    if x >= sol.b:
        return math.exp(-x)
    return sol.gamma + sol.lam * x


def gamma_table(k_values: Iterable) -> list[TangentSolution]:
    """Solve every family index in order; rows follow the input order."""
    return [solve_tangent(k) for k in k_values]


_COLUMNS = "k a b gamma lambda mu"


def _solution_fields(r: TangentSolution) -> dict:
    return dict(zip(_COLUMNS.split(), (r.idx, r.a, r.b, r.gamma, r.lam, r.mu)))


def gamma_table_csv(rows: Sequence[TangentSolution]) -> str:
    """CSV serialization, header k,a,b,gamma,lambda,mu; gamma carries 12 significant digits."""
    return csv_table(_COLUMNS, map(_solution_fields, rows))


def gamma_table_json(rows: Sequence[TangentSolution]) -> str:
    """JSON records mirroring the CSV columns."""
    return json_text([_solution_fields(r) for r in rows])
