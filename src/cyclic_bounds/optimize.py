"""Numerical minimization of the normalized cyclic sum over the positive cone.

The objective (k/n) * diananda_sum(x, k) is homogeneous of degree zero, so
descent runs in log coordinates y = ln x restricted to the gauge sum(y) = 0.
All starts of one `minimize` call (the uniform vector, a witness-shaped
profile when k divides n, and seeded random draws) form one (R, n) array
that is descended together by limited-memory BFGS (Liu & Nocedal 1989): a
two-loop recursion over the last few step pairs and a per-row Armijo
backtracking search that accepts only a strict decrease.  Rows that reach
the gradient tolerance or can no longer decrease leave the active set.  The
best value found is an upper bound on the true infimum, never asserted to
equal it.  A brute-force grid oracle for n <= 5 provides an independent
cross-check on desk-scale instances.

The descent, `gradient` and the grid oracle share one slice-based kernel:
window sums (`sums._window_sums`, row-wise) and the gradient's k-fold
accumulation are slices of an extended copy of each row, never `np.roll`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._records import json_text, record
from .errors import DomainError, DegenerateFamilyError, NoBracketError
from .funcs import lower_bound_theorem2
from .sums import CyclicVector, as_cyclic_vector, _check_window, _window_sums
from .tangent import solve_tangent
from .witness import _log_profile

__all__ = [
    "MinimizeConfig",
    "MinimizationResult",
    "gradient",
    "minimize",
    "grid_oracle",
]

_MEMORY = 5  # L-BFGS step pairs kept per row
_ARMIJO = 1e-4  # sufficient-decrease constant
_BACKTRACKS = 40  # step halvings before a row gives up
_STEP_CAP = 2.0  # largest change of any log coordinate in one step
# Largest spread max(y) - min(y) of a point the descent evaluates.  Under the
# gauge sum(y) = 0 every entry then lies in [e^-300, e^300] and x_i / t_i^2 in
# the gradient stays below e^600, so no value, square or quotient overflows.
_LOG_SPREAD_CAP = 300.0


def _window_kernel(x: np.ndarray, k: int):
    """Window sums of each row of x and the gradient's k-fold accumulation.

    x has shape (..., n).  Returns (denom, acc): denom[..., j] is the sum
    t_{j+1,k} of the k entries after j (cyclically), and acc[..., m] is the
    sum over d = 1..k of w[..., m - d] with w = x / denom^2, so the gradient
    of diananda_sum is 1/denom - acc.  Both sums run over slices of an
    extended copy in the order d = 1..k, so each row is computed exactly as
    it would be alone.
    """
    n = x.shape[-1]
    denom = _window_sums(x, k, 1)
    w = x / (denom * denom)
    wext = np.concatenate((w[..., n - k :], w), axis=-1)
    acc = wext[..., k - 1 : k - 1 + n].copy()
    for d in range(2, k + 1):
        acc += wext[..., k - d : k - d + n]
    return denom, acc


def gradient(x: "CyclicVector | Sequence[float]", k: int) -> np.ndarray:
    """Analytic gradient of diananda_sum at a strictly positive point.

    Component m is 1/t_{m+1,k} minus the sum over the k windows containing
    x_m of x_i / t_{i+1,k}^2.  The degree-zero Euler identity
    sum_m x_m * grad_m = 0 holds at every point.
    """
    v = as_cyclic_vector(x)
    k = _check_window(k, v.n)
    a = v.entries
    if np.any(a == 0.0):
        bad = int(np.nonzero(a == 0.0)[0][0])
        raise DomainError(f"entry {bad + 1} is zero; the gradient needs x > 0")
    denom, acc = _window_kernel(a, k)
    return 1.0 / denom - acc


@dataclass(frozen=True)
class MinimizeConfig:
    restarts: int = 8
    seed: int = 0
    max_iters: int = 600
    grad_tol: float = 1e-10


@dataclass(frozen=True)
class MinimizationResult:
    """Best value found for (k/n) * diananda_sum together with its certificate floor.

    value is an upper bound on the normalized infimum; certified_floor is the
    unconditional k (2^{1/k} - 1) analytic floor.  restarts_used counts the
    starts actually descended (uniform, witness-shaped and random);
    converged_starts counts those that reached grad_tol; converged and
    gradient_norm describe the winning start.
    """

    n: int
    k: int
    value: float
    x_best: CyclicVector
    certified_floor: float
    restarts_used: int
    converged_starts: int
    converged: bool
    gradient_norm: float

    def to_json(self) -> str:
        fields = record(
            self, "n k value certified_floor converged restarts_used converged_starts gradient_norm"
        )
        return json_text({**fields, "x_best": list(self.x_best.entries)})


def _objective(y: np.ndarray, k: int):
    """Values and gauge-projected y-gradients of (k/n) * diananda_sum(exp(y), k), per row.

    y has shape (R, n); returns values of shape (R, 1) and gradients (R, n).
    """
    n = y.shape[-1]
    x = np.exp(y)
    denom, acc = _window_kernel(x, k)
    terms = x / denom
    scale = k / n
    grad = terms - x * acc  # x times the x-gradient
    grad *= scale
    grad -= grad.sum(axis=-1, keepdims=True) / n
    return scale * terms.sum(axis=-1, keepdims=True), grad


@dataclass(frozen=True)
class _Descent:
    """Per-row outcome of a batched descent."""

    value: np.ndarray
    y: np.ndarray
    gradient_norm: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, shape (R, 1)."""
    return np.vecdot(a, b, keepdims=True)


def _armijo(f_try: np.ndarray, f: np.ndarray, t: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """Rows whose trial value decreases strictly and by the Armijo margin."""
    return ((f_try < f) & (f_try <= f + _ARMIJO * t * gp))[:, 0]


def _descend(y0: np.ndarray, k: int, max_iters: int, grad_tol: float) -> _Descent:
    """Batched L-BFGS in log coordinates from the rows of y0, shape (R, n).

    Rows share nothing but the loop: each keeps its own step pairs, step
    length and stopping state, so a row descends as it would alone.  A row
    stops when its gradient inf-norm reaches grad_tol (converged), when no
    step of its backtracking search decreases the value strictly, or after
    max_iters iterations.  Each step moves every log coordinate by at most
    _STEP_CAP and keeps the spread of y within _LOG_SPREAD_CAP.
    """
    y = np.array(y0, dtype=float, ndmin=2)
    if not np.isfinite(y).all():
        raise DomainError("a start has a non-finite log coordinate")
    y -= y.mean(axis=1, keepdims=True)
    spread = y.max(axis=1, keepdims=True) - y.min(axis=1, keepdims=True)
    if np.any(spread > _LOG_SPREAD_CAP):
        raise DomainError(f"a start spreads over more than {_LOG_SPREAD_CAP} in log coordinates")
    val, g = _objective(y, k)
    iters = np.zeros(y.shape[0], dtype=int)
    tol = max(grad_tol, 0.0)  # a zero gradient always stops a row
    live = np.flatnonzero(np.abs(g).max(axis=1) > tol)  # row of y behind each active row

    ya, fa, ga, spread = y[live], val[live], g[live], spread[live]
    # the first step moves the largest coordinate by 1
    h0 = 1.0 / np.abs(ga).max(axis=1, keepdims=True)
    # per stored step, oldest first: (s, dg, rho * s, rho * dg) with rho = 1 / (s . dg)
    mem: deque = deque(maxlen=_MEMORY)
    for it in range(max_iters):
        if live.size == 0:
            break
        # two-loop recursion: p = -H g
        p = -ga
        alphas = []
        for s, dg, rs, rdg in reversed(mem):
            a = _dot(rs, p)
            p -= a * dg
            alphas.append(a)
        p *= h0
        for (s, dg, rs, rdg), a in zip(mem, reversed(alphas)):
            p += (a - _dot(rdg, p)) * s
        gp = _dot(ga, p)
        if not (gp < 0.0).all():  # forget the curvature pairs of uphill rows, fall back to -g
            up = ~(gp < 0.0)[:, 0]
            for _, _, rs, rdg in mem:
                rs[up] = 0.0
                rdg[up] = 0.0
            h0[up] = 1.0 / np.abs(ga[up]).max(axis=1, keepdims=True)
            p[up] = -h0[up] * ga[up]
            gp[up] = _dot(ga[up], p[up])

        # per-row Armijo backtracking that accepts only a strict decrease
        pmax = np.abs(p).max(axis=1, keepdims=True)
        t = np.minimum(1.0, np.minimum(_STEP_CAP, 0.5 * (_LOG_SPREAD_CAP - spread)) / pmax)
        y_new = ya + t * p
        f_new, g_new = _objective(y_new, k)
        ok = _armijo(f_new, fa, t, gp)
        if not ok.all():
            todo = np.flatnonzero(~ok)
            for _ in range(_BACKTRACKS):
                # give up where the predicted decrease is below the value's resolution
                todo = todo[(-t[todo] * gp[todo] >= np.spacing(fa[todo]))[:, 0]]
                if todo.size == 0:
                    break
                t[todo] *= 0.5
                y_try = ya[todo] + t[todo] * p[todo]
                f_try, g_try = _objective(y_try, k)
                hit = _armijo(f_try, fa[todo], t[todo], gp[todo])
                rows = todo[hit]
                y_new[rows], f_new[rows], g_new[rows] = y_try[hit], f_try[hit], g_try[hit]
                ok[rows] = True
                todo = todo[~hit]
            y_new[~ok], f_new[~ok], g_new[~ok] = ya[~ok], fa[~ok], ga[~ok]

        # store the step pair; a row failing the curvature test gets rho = 0
        s, dg = y_new - ya, g_new - ga
        sy, yy = _dot(s, dg), _dot(dg, dg)
        good = sy > 1e-12 * yy
        rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=good)
        mem.append((s, dg, rho * s, rho * dg))
        np.divide(sy, yy, out=h0, where=good)

        ya, fa, ga = y_new, f_new, g_new
        spread = ya.max(axis=1, keepdims=True) - ya.min(axis=1, keepdims=True)
        stay = ok & (np.abs(ga).max(axis=1) > tol)
        if not stay.all():
            done = live[~stay]
            y[done], val[done], g[done] = ya[~stay], fa[~stay], ga[~stay]
            iters[done] = it + ok[~stay]
            ya, fa, ga, h0, spread = ya[stay], fa[stay], ga[stay], h0[stay], spread[stay]
            mem = deque((tuple(v[stay] for v in m) for m in mem), maxlen=_MEMORY)
            live = live[stay]
    y[live], val[live], g[live] = ya, fa, ga
    iters[live] = max_iters
    gnorm = np.abs(g).max(axis=1)
    return _Descent(val[:, 0], y, gnorm, gnorm <= grad_tol, iters)


def _witness_shaped_log_start(n: int, k: int) -> Optional[np.ndarray]:
    """Log coordinates of a witness-like profile of length n, zeros floored.

    The profile's spread grows with n (about 70 at n = 1000); beyond
    _LOG_SPREAD_CAP its lowest entries are raised to the cap.
    """
    if k < 2 or n % k != 0 or n < 2 * k:
        return None
    try:
        sol = solve_tangent(k)
    except (DegenerateFamilyError, NoBracketError):
        return None
    m = int(round(sol.mu * n / k)) * k
    m = min(max(m, k), n - k)
    logx = _log_profile(n, k, n - m, sol.a, -sol.a * m / (n - m))
    floor = logx[np.isfinite(logx)].min() - 27.6  # zeros at ~1e-12 of the smallest
    logx = np.where(np.isfinite(logx), logx, floor)
    return np.maximum(logx, logx.max() - _LOG_SPREAD_CAP)  # a start the descent accepts


def minimize(n: int, k: int, config: MinimizeConfig | None = None) -> MinimizationResult:
    """Multi-start descent for the normalized cyclic sum at concrete (n, k).

    Starts: the uniform vector, a witness-shaped profile when k | n, and
    config.restarts random log-uniform draws seeded by config.seed, all
    descended as one batch.  Ties below 1e-12 resolve to the earliest start
    for determinism.  A start that exhausts max_iters reports
    converged=False but still competes on value.
    """
    n, k = int(n), int(k)
    if k < 1 or n < k:
        raise DomainError(f"need n >= k >= 1, got n={n}, k={k}")
    cfg = config or MinimizeConfig()
    rng = np.random.default_rng(cfg.seed)

    starts: list[np.ndarray] = [np.zeros(n)]
    wshape = _witness_shaped_log_start(n, k)
    if wshape is not None:
        starts.append(wshape)
    for _ in range(cfg.restarts):
        starts.append(rng.uniform(-3.0, 3.0, n))

    d = _descend(np.stack(starts), k, cfg.max_iters, cfg.grad_tol)
    best = 0
    for r in range(1, len(starts)):
        if d.value[r] < d.value[best] - 1e-12:
            best = r
    return MinimizationResult(
        n=n,
        k=k,
        value=float(d.value[best]),
        x_best=CyclicVector(np.exp(d.y[best])),
        certified_floor=lower_bound_theorem2(k),
        restarts_used=len(starts),
        converged_starts=int(np.count_nonzero(d.converged)),
        converged=bool(d.converged[best]),
        gradient_norm=float(d.gradient_norm[best]),
    )


def _default_levels(n: int) -> np.ndarray:
    """The fixed grid of 39 geometric values on [1e-3, 1e3], for every n <= 5.

    The count is odd so the grid contains 1.0 exactly and therefore the
    uniform vector.  At n = 5 the oracle visits 39^4 points, and even 39^5
    stays below 1e8, so no n the oracle accepts needs a budget check.
    """
    return np.geomspace(1e-3, 1e3, 39)


def grid_oracle(n: int, k: int) -> float:
    """Exhaustive minimum of (k/n) * diananda_sum over a grid, one coordinate pinned.

    Homogeneity lets the first coordinate stay at 1; the remaining n - 1
    coordinates range over the fixed grid of `_default_levels`.  Only for
    n <= 5, so at most 39^4 points are evaluated.
    """
    n, k = int(n), int(k)
    if n > 5:
        raise DomainError(f"grid oracle is restricted to n <= 5, got n={n}")
    k = _check_window(k, n)
    lv = _default_levels(n)
    count = lv.size
    if n == 1:
        return float(k / n)  # single entry, sum is n/k by homogeneity

    total = count ** (n - 1)
    powers = count ** np.arange(n - 1)
    best = math.inf
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = (idx[:, None] // powers[None, :]) % count
        block = np.empty((idx.size, n))
        block[:, 0] = 1.0
        block[:, 1:] = lv[digits]
        denom = _window_sums(block, k, 1)
        vals = (k / n) * np.sum(block / denom, axis=1)
        m = float(vals.min())
        if m < best:
            best = m
    return best
