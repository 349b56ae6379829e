"""Common tangent of y = exp(-x) and a decay kernel, and the ceiling gamma it defines.

For every family index k > 1 (or INFINITY) there is a unique line tangent to
both y = exp(-x) and y = eval_g(k, x).  Writing the left tangency abscissa a,
the slope lam = g'(a) determines the right abscissa b = -ln(-lam) and the
y-intercept gamma = -lam (1 + b).  Eliminating b turns tangency into a single
scalar equation in a,

    R(a) = g(a) / g'(a) - a + 1 - ln(-g'(a)) = 0.

R decreases strictly on a <= 0, so its root is unique.  Proof:

- Let p(x) = (1 - e^{-x})/x = int_0^1 e^{-xt} dt.  Then e^x g_k(x) =
  p(x/k)/p(x), and 1/p(x) for k = INFINITY.
- m(x) = -(ln p)'(x) = 1/x - 1/(e^x - 1) is the mean of t under the density
  proportional to e^{-xt} on [0, 1], so 0 < m < 1, and m decreases (m' is
  minus that density's variance).
- For x < 0 and k > 1, x < x/k gives m(x/k)/k < m(x/k) < m(x), so
  (ln(e^x g_k))'(x) = m(x) - m(x/k)/k > 0 (for k = INFINITY it is m(x) > 0).
  That is, g + g' > 0.
- R'(a) = -g''(a) (g + g')(a) / g'(a)^2, and g_k is convex, analytic and
  not affine, so R decreases strictly.
- At a = 0, R = 1 - 1/u - ln u < 0 with u = -g'(0) = (1 + 1/k)/2 in [1/2, 1).

It is solved by bisection over a fixed grid on [-30, 0] to the one cell where
R changes sign, then by float bisection and a secant polish.
The returned gamma is the ceiling constant of the large-n analysis; the
piecewise function (kernel, tangent line, exponential) is the convex minorant
of min(exp(-x), g_k(x)).  A solution is a frozen record; which of its fields
print, and with how many digits, is the CLI's choice.

gamma_k decreases to gamma_inf at the rate gamma_k = gamma_inf + c1/k + O(1/k^2),
with c1 = mu (-a) g(a) / 2 = 0.2260... at the limit's solution (the envelope
theorem applied to gamma = mu g(a) + (1 - mu) e^{-b}, with g_k = g_inf p(x/k) and
p'(0) = -1/2).  A float solve lands up to a few ulps either side of its true
gamma.  So a solve is kept only while c1/k exceeds that scatter: below
k = 2^49, c1/k is over 3.6 ulps.  From 2^49 on the geometry is the limit's,
under the index k, where gamma_k = gamma_inf.  Below 2^49, gamma_k >= gamma_inf
rests on a measured scatter, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DegenerateFamilyError, NoBracketError, SolverError, _real
from .funcs import INFINITY, eval_g, eval_g_derivative

__all__ = [
    "TangentSolution",
    "solve_tangent",
]

# Grid for the left tangency abscissa: 240 points log-spaced over [-30, -1e-6],
# then 0.0, whose cell holds the abscissa for k just above 1.
_SCAN_LO = -30.0
_SCAN_HI = -1e-6
_SCAN_POINTS = 240
# Log-spaced the way np.linspace spaces points: log of point i is lo + i*step, the last is hi.
_STEP = (math.log(-_SCAN_HI) - math.log(-_SCAN_LO)) / (_SCAN_POINTS - 1)
_LOGS = [math.log(-_SCAN_LO) + i * _STEP for i in range(_SCAN_POINTS - 1)] + [math.log(-_SCAN_HI)]
_SCAN_GRID = (*(-math.exp(t) for t in _LOGS), 0.0)

_LN2 = math.log(2.0)

# Bound on each of the four tangency residuals of a solution.
_TOL = 1e-12

# First index whose geometry is the limit's: c1/k under 3.6 ulps of gamma (module docstring).
_FAR = 2.0**49


def _kernel_index(idx: float) -> float:
    """The family index whose kernel the geometry of idx evaluates."""
    return INFINITY if idx >= _FAR else idx


@dataclass(frozen=True)
class TangentSolution:
    """Common-tangent geometry for one family index, fixed by its left abscissa.

    Stored as floats: idx in (1, inf] and a < 0; from idx = 2^49 on the
    kernel is the limit's (module docstring).  Derived: the shared slope
    lam = g'(a) < 0, the right abscissa b = -ln(-lam) > 0, the y-intercept
    gamma = -lam (1 + b), the weight mu = b / (b - a) making the origin a convex
    combination of a and b, and residuals, the four tangency defects
    |g(a)-(gamma+lam*a)|, |g'(a)-lam| = 0, |e^-b-(gamma+lam*b)|, |-e^-b-lam|.
    Construction raises DegenerateFamilyError for another idx, and SolverError
    for an a that is not a finite real or when this geometry fails, as it
    does for an a off the tangency.
    """

    idx: float
    a: float
    b: float = field(init=False)
    gamma: float = field(init=False)
    lam: float = field(init=False)
    mu: float = field(init=False)
    residuals: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        idx = _real("idx", self.idx, 1.0, None, DegenerateFamilyError)
        a = _real("a", self.a, -math.inf, math.inf, SolverError)
        kernel = _kernel_index(idx)
        lam = eval_g_derivative(kernel, a)
        if not lam < 0.0:
            raise SolverError(f"tangent slope lam={lam} is not negative")
        b = -math.log(-lam)
        if not (a < 0.0 < b):
            raise SolverError(f"tangency abscissas out of order: a={a}, b={b}")
        gamma = -lam * (1.0 + b)
        if not (_LN2 < gamma < 1.0):
            raise SolverError(f"intercept gamma={gamma} outside (ln 2, 1)")
        mu = b / (b - a)
        mix = _mixed_value(kernel, mu, a, b)
        if abs(mix - gamma) > 1e-10:
            raise SolverError(f"mixed tangency value deviates from gamma by {mix - gamma}")
        residuals = (abs(eval_g(kernel, a) - (gamma + lam * a)), 0.0,  # lam is g'(a)
                     abs(math.exp(-b) - (gamma + lam * b)), abs(-math.exp(-b) - lam))
        # one write to the instance dict sets every field past the frozen __setattr__
        vars(self).update(idx=idx, a=a, b=b, gamma=gamma, lam=lam, mu=mu, residuals=residuals)


def _mixed_value(idx: float, mu: float, a: float, b: float) -> float:
    """mu g(a) + (1 - mu) e^{-b}: gamma at the tangency, the witness certificate's core."""
    return mu * eval_g(idx, a) + (1.0 - mu) * math.exp(-b)


def _comtan_residual(idx: float, a: float) -> float:
    g = eval_g(idx, a)
    gp = eval_g_derivative(idx, a)
    return g / gp - a + 1.0 - math.log(-gp)


def solve_tangent(idx) -> TangentSolution:
    """Solve the common-tangent system for family index idx (real > 1 or INFINITY).

    R decreases strictly (module docstring), so its sign at both ends of the
    grid on [-30, 0] and a bisection over grid indices find the sign-change
    cell in at most ten evaluations.  The cell is bisected, polished with
    secant steps, and the four tangency residuals must stay below 1e-12.
    idx <= 1 raises DegenerateFamilyError (the k = 1 kernel is exp(-x) itself),
    and k < 1 + 2^-23 NoBracketError: 1 - gamma_k is below float resolution.
    From idx = 2^49 on the solve is the limit's, so gamma_k = gamma_inf there;
    below, gamma_k >= gamma_inf rests on a measured scatter (module docstring).

    Solutions are memoized per float(idx), so 3 and 3.0 share one, and
    are shared between callers, which the frozen TangentSolution makes safe.
    A call that raises is not cached.
    """
    return _solve_tangent(_real("idx", idx, 1.0, None, DegenerateFamilyError))


@lru_cache(maxsize=256)
def _solve_tangent(idx: float) -> TangentSolution:
    k = _kernel_index(idx)
    if k - 1.0 < 2.0**-23:  # there the rounded geometry (gamma < 1, b > 0) can fail
        raise NoBracketError(
            f"index {k!r} is too close to 1 for float resolution: 1 - gamma_k, "
            "about (k - 1)^2/32, is below 2^-51"
        )
    grid = _SCAN_GRID
    if not (_comtan_residual(k, grid[0]) > 0.0 >= _comtan_residual(k, grid[-1])):
        raise NoBracketError(
            f"no sign change of the tangency equation for index {k!r} on [{grid[0]}, 0.0]"
        )
    i, j = 0, len(grid) - 1  # R(grid[i]) > 0 >= R(grid[j])
    while j - i > 1:
        mid = (i + j) // 2
        if _comtan_residual(k, grid[mid]) > 0.0:
            i = mid
        else:
            j = mid

    lo, hi = grid[i], grid[j]
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
        mid = 0.5 * (lo + hi)
        if _comtan_residual(k, mid) > 0.0:
            lo = mid
        else:
            hi = mid

    # derivative-free secant polish; keep the best |residual| seen
    a0, a1 = lo, hi
    f0, f1 = _comtan_residual(k, a0), _comtan_residual(k, a1)
    best_a, best_f = (a0, f0) if abs(f0) <= abs(f1) else (a1, f1)
    for _ in range(8):
        if f1 == f0:
            break
        a2 = a1 - f1 * (a1 - a0) / (f1 - f0)
        if not (grid[i] <= a2 <= grid[j]):
            break
        f2 = _comtan_residual(k, a2)
        if abs(f2) < abs(best_f):
            best_a, best_f = a2, f2
        a0, f0, a1, f1 = a1, f1, a2, f2
        if f2 == 0.0:
            break

    sol = TangentSolution(idx=idx, a=best_a)
    if max(sol.residuals) > _TOL:
        raise SolverError(f"tangency residual {max(sol.residuals)} exceeds tolerance {_TOL}")
    return sol
