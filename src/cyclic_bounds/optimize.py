"""Numerical minimization of the normalized cyclic sum over the positive cone.

The objective (k/n) * diananda_sum(x, k) is homogeneous of degree zero, so
descent runs in log coordinates y = ln x restricted to the gauge sum(y) = 0.
All starts of one `minimize` call (the uniform vector, a witness-shaped
profile when k divides n, and seeded random draws) form one (R, n) array
that is descended together by a quasi-Newton method with a per-row Armijo
backtracking search that accepts only a strict decrease.  A row stops, and
counts as converged, when its gradient is zero (as at the uniform start) or
when no step can decrease its value by one ulp; a row still descending after
max_iters iterations is not converged.

The inverse-Hessian approximation H has two representations, chosen by n.
Up to n = _DENSE_N = 16 each row keeps H as a dense n x n matrix, its
direction is one batched product -H g, and each curved step pair applies a
self-scaling BFGS update (Oren & Luenberger 1974) whose scaling only grows H
after the first pair.  Above 16 each row keeps its last _MEMORY step pairs
and takes the direction from the two-loop recursion of limited-memory BFGS
(Liu & Nocedal 1989).  The switch at 16 covers the anchors and the small
dips of Shapiro's problem, (14, 2), (16, 2), (11, 3) and (7, 4), which full
BFGS follows where L-BFGS crawls; above it the dense O(n^2) update stops
paying for itself, and rows keep the L-BFGS bits.

Only the (R, n) vector work is numpy; the per-row scalars of the loop
(values, step lengths, rho, h0, the scaling factors and the tests on them)
are Python floats, because on arrays this small each numpy call costs more
than its arithmetic.  The best value found is an upper bound on the true
infimum, never asserted to equal it.  A brute-force grid oracle for n <= 5
provides an independent cross-check on desk-scale instances.

The descent and `gradient` share one window kernel: the window sums and
the gradient's k-fold accumulation are both `sums._windows` of each row,
never `np.roll`.  The grid oracle broadcasts each term over the grid axes
it depends on and adds its window in the same order, so its sums are those
of `diananda_sum` too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, DomainError, WindowError, _integer
from .funcs import lower_bound_theorem2
from .sums import CyclicVector, as_cyclic_vector, _in_float64_range, _windows
from .tangent import solve_tangent
from .witness import _log_profile, _right_abscissa

__all__ = [
    "MinimizeConfig",
    "MinimizationResult",
    "gradient",
    "minimize",
    "grid_oracle",
]

_MEMORY = 5  # L-BFGS step pairs kept per row
_DENSE_N = 16  # largest n whose rows keep a dense inverse Hessian in place of step pairs
_ARMIJO = 1e-4  # sufficient-decrease constant
_STEP_CAP = 2.0  # largest change of any log coordinate in one step
# Largest spread max(y) - min(y) of a point the descent evaluates.  Under the
# gauge sum(y) = 0 every entry then lies in [e^-300, e^300] and x_i / t_i^2 in
# the gradient stays below e^600, so no value, square or quotient overflows.
_LOG_SPREAD_CAP = 300.0


def _window_kernel(x: np.ndarray, k: int, checked: bool = False):
    """Window sums of each row of x and the gradient's k-fold accumulation.

    x has shape (..., n).  Returns (denom, acc): denom[..., j] is the sum
    t_{j+1,k} of the k entries after j (cyclically), and acc[..., m] is the
    sum over d = 1..k of w[..., m - d] with w = x / denom^2, so the gradient
    of diananda_sum is 1/denom - acc.  denom is `sums._windows` of x, as
    `diananda_sum` sums them, and acc `_windows` of w reversed, read back in
    reverse; so each row is computed exactly as it would be alone.  When
    checked, a window sum below 2^-511, whose square would fall out of
    float64's normal range, raises CapacityError before any square is
    formed.
    """
    denom = _windows(x, k)
    if checked and denom.min() < 2.0**-511:
        start = (int(np.argmax(denom < 2.0**-511)) + 1) % x.shape[-1] + 1
        raise CapacityError(
            f"window sum t[{start},{k}] is below 2^-511; its square is beyond float64 range"
        )
    acc = _windows((x / (denom * denom))[..., ::-1], k)
    return denom, acc[..., ::-1]


@_in_float64_range
def gradient(x: "CyclicVector | Sequence[float]", k: int) -> np.ndarray:
    """Analytic gradient of diananda_sum at a strictly positive point.

    Component m is 1/t_{m+1,k} minus the sum over the k windows containing
    x_m of x_i / t_{i+1,k}^2.  The degree-zero Euler identity
    sum_m x_m * grad_m = 0 holds at every point.  Raises CapacityError where
    a window sum is below 2^-511, as its square leaves float64's normal
    range, or where a value overflows.
    """
    v = as_cyclic_vector(x)
    k = _integer("k", k, 1, v.n, error=WindowError)
    a = v.entries
    if (a == 0.0).any():
        bad = int(np.nonzero(a == 0.0)[0][0])
        raise DomainError(f"entry {bad + 1} is zero; the gradient needs x > 0")
    denom, acc = _window_kernel(a, k, checked=True)
    return 1.0 / denom - acc


@dataclass(frozen=True)
class MinimizeConfig:
    """Random starts, their generator's seed and each descent's iteration cap; integers >= 0."""

    restarts: int = 8
    seed: int = 0
    max_iters: int = 600

    def __post_init__(self) -> None:
        for name in ("restarts", "seed", "max_iters"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 0))


@dataclass(frozen=True)
class MinimizationResult:
    """Best value found for (k/n) * diananda_sum together with its certificate floor.

    value is an upper bound on the normalized infimum; certified_floor is the
    unconditional k (2^{1/k} - 1) analytic floor.  restarts_used counts the
    starts actually descended (uniform, witness-shaped and random);
    converged_starts counts those that stopped before max_iters, at a zero
    gradient or where no step lowers the value by one ulp; converged and
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


def _objective(y: np.ndarray, k: int):
    """Values and gauge-projected y-gradients of (k/n) * diananda_sum(exp(y), k), per row.

    y has shape (R, n); returns the R values as a list of floats and the
    gradients as an (R, n) array.
    """
    n = y.shape[-1]
    x = np.exp(y)
    denom, acc = _window_kernel(x, k)
    terms = x / denom
    scale = k / n
    grad = terms - x * acc  # x times the x-gradient
    grad *= scale
    grad -= np.add.reduce(grad, -1, keepdims=True) / n
    return [scale * v for v in np.add.reduce(terms, -1).tolist()], grad


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


# Row reductions here and in _objective call the ufuncs' reduce directly: on
# arrays this small the Python wrappers of ndarray.max and ndarray.sum cost
# about as much as the reduction, which they call unchanged.
def _inf_norms(a: np.ndarray) -> list:
    """max |a_i| of each row of a 2-d array, as floats."""
    return np.maximum.reduce(np.abs(a), 1).tolist()


def _spreads(a: np.ndarray) -> list:
    """max(a) - min(a) of each row of a 2-d array, as floats."""
    return (np.maximum.reduce(a, 1) - np.minimum.reduce(a, 1)).tolist()


def _column(values: list) -> np.ndarray:
    """Per-row floats as an (R, 1) array that scales the rows of an (R, n) one."""
    return np.array(values)[:, None]


def _armijo(f_try: float, f: float, t: float, gp: float) -> bool:
    """Whether a trial value decreases strictly and by the Armijo margin."""
    return f_try < f and f_try <= f + _ARMIJO * t * gp


def _bfgs_update(
    H: np.ndarray, s: np.ndarray, dg: np.ndarray, sy: list, good: list, fresh: list
) -> None:
    """Self-scaling BFGS update of each row's inverse Hessian H, shape (R, n, n), in place.

    s and dg are the rows' step pairs and sy their dot products.  A row that
    passed the curvature test (good) and has dg.H.dg > 0 first scales H by
    tau = s.dg / dg.H.dg (Oren & Luenberger), then takes the BFGS inverse
    update H + w s^T + s w^T with rho = 1 / s.dg and
    w = rho (1 + rho dg.H.dg) s / 2 - rho H dg, both for the scaled H.  At a
    row's first such pair (fresh, then cleared) tau H is (s.dg / dg.dg) I, as
    L-BFGS sets h0.  At later pairs tau is at least 1, so the scaling only
    grows H: a shrink after one long step leaves a row many tiny steps, while
    too long a step is what the backtracking search already handles.  Every
    other row gets tau = 1 and w = 0, which leaves its H bit for bit.
    w s^T + s w^T is added as one symmetric matrix, so H stays exactly
    symmetric.
    """
    hy = np.vecdot(H, dg[:, None, :])
    yhy = np.vecdot(dg, hy).tolist()
    tau, ws, wy = [], [], []
    for r, (a, q, curved) in enumerate(zip(sy, yhy, good)):
        if curved and q > 0.0:
            t = a / q if fresh[r] else max(1.0, a / q)
            rho = 1.0 / a
            tau.append(t)
            ws.append(0.5 * rho * (1.0 + rho * t * q))
            wy.append(rho * t)
            fresh[r] = False
        else:
            tau.append(1.0)
            ws.append(0.0)
            wy.append(0.0)
    w = _column(ws) * s - _column(wy) * hy
    u = w[:, :, None] * s[:, None, :]
    u += u.transpose(0, 2, 1)
    H *= _column(tau)[:, :, None]
    H += u


def _descend(y0: np.ndarray, k: int, max_iters: int) -> _Descent:
    """Batched quasi-Newton descent in log coordinates from the rows of y0, shape (R, n).

    Rows share nothing but the loop: each keeps its own inverse-Hessian
    approximation H, step length and stopping state, so a row descends as it
    would alone.  For n <= _DENSE_N, H is an (R, n, n) array: h0 I until a
    row's first curved step pair, then updated by `_bfgs_update` at each
    curved pair, and a retiring row drops its slice.  For larger n, H is
    implicit in each row's last _MEMORY step pairs and h0, and p = -H g is the
    two-loop recursion (L-BFGS).  The module docstring says why the switch
    sits at 16.

    A row leaves the active set, and counts as converged, in one of two cases:
    its gradient is zero, or its backtracking search finds no strict decrease
    whose predicted size -t g.p is at least ulp(value).  A zero gradient is
    an inf-norm of exactly 0, which the step length t = .../max|p| needs, or
    a constant start: the uniform point is stationary by cyclic symmetry,
    though rounding can leave its float gradient a few ulps from 0.  A row
    still active after max_iters iterations is not converged.

    The search ends for every row without a cap on its halvings: each halves
    t, so -t g.p halves too, and ulp(value) > 0 because every value exceeds
    ln 2.  A first trial that predicts a decrease D is followed by at most
    log2(D / ulp(value)) + 1 halvings.  Starts must be finite and spread over
    at most _LOG_SPREAD_CAP, as those of `minimize` are; each step moves every
    log coordinate by at most _STEP_CAP and keeps the spread of y within
    _LOG_SPREAD_CAP.

    The (R, n) vector work (directions, trial points, step pairs, objective)
    is numpy on the active rows.  The per-row scalars (values, g.p, step
    lengths, spread bounds, rho, h0, the dense update's factors and the
    stopping tests) are lists of Python floats: these are IEEE doubles, so
    they round as numpy's would, and the ulp of a positive value is
    np.spacing of it.

    Both start from h0 = 1 / max|g|, so the first step moves the largest
    coordinate by 1, and both take a pair only if it passes the same
    curvature test s.dg > 1e-12 dg.dg.  The direction p = -H g is downhill, as
    every stored pair has rho >= 0 and h0 > 0, and the dense H stays positive
    definite; should rounding give g.p >= 0, the backtracking filter stops
    the row.
    """
    y = np.array(y0, dtype=float, ndmin=2)
    y -= y.mean(axis=1, keepdims=True)
    val, g = _objective(y, k)
    iters = np.zeros(y.shape[0], dtype=int)
    gmax, spread = _inf_norms(g), _spreads(y)
    # row of y behind each active row; a constant row is the uniform point
    live = [r for r, (gm, sp) in enumerate(zip(gmax, spread)) if gm > 0.0 and sp > 0.0]

    ya, ga = y[live], g[live]
    fa, spread = [val[r] for r in live], [spread[r] for r in live]
    # the first step moves the largest coordinate by 1
    h0 = [1.0 / gmax[r] for r in live]
    dense = y.shape[1] <= _DENSE_N
    if dense:
        # one inverse-Hessian approximation per row, h0 I until its first curved
        # pair; none when no row is live, as at n = 1, where the gradient is 0
        H = np.eye(y.shape[1]) * _column(h0)[:, :, None] if live else None
        fresh = [True] * len(live)
    else:
        # per stored step, oldest first: (s, dg, rho * s, rho * dg) with rho = 1 / (s . dg)
        mem: deque = deque(maxlen=_MEMORY)
    for it in range(max_iters):
        if not live:
            break
        if dense:
            p = -np.vecdot(H, ga[:, None, :])
        else:
            # two-loop recursion: p = -H g
            p = -ga
            alphas = []
            for s, dg, rs, rdg in reversed(mem):
                a = _dot(rs, p)
                p -= a * dg
                alphas.append(a)
            p *= _column(h0)
            for (s, dg, rs, rdg), a in zip(mem, reversed(alphas)):
                p += (a - _dot(rdg, p)) * s
        gp = np.vecdot(ga, p).tolist()

        # per-row Armijo backtracking that accepts only a strict decrease
        pmax = _inf_norms(p)
        # spread holds an upper bound on each row's spread.  The cap below is
        # _STEP_CAP for every spread up to _LOG_SPREAD_CAP - 2 _STEP_CAP, so the
        # exact spreads are needed only once a bound passes that.
        if max(spread) > _LOG_SPREAD_CAP - 2.0 * _STEP_CAP:
            spread = _spreads(ya)
        t = [
            min(1.0, min(_STEP_CAP, 0.5 * (_LOG_SPREAD_CAP - sp)) / pm)
            for sp, pm in zip(spread, pmax)
        ]
        y_new = ya + _column(t) * p
        f_new, g_new = _objective(y_new, k)
        ok = list(map(_armijo, f_new, fa, t, gp))
        if not all(ok):
            todo = range(len(ok))
            # halve t until the value decreases, giving up where the predicted
            # decrease is below the value's resolution (see the docstring)
            while todo := [r for r in todo if not ok[r] and -t[r] * gp[r] >= math.ulp(fa[r])]:
                for r in todo:
                    t[r] *= 0.5
                y_try = ya[todo] + _column([t[r] for r in todo]) * p[todo]
                f_try, g_try = _objective(y_try, k)
                hit = [_armijo(f_try[i], fa[r], t[r], gp[r]) for i, r in enumerate(todo)]
                if any(hit):
                    rows = [r for r, h in zip(todo, hit) if h]
                    y_new[rows], g_new[rows] = y_try[hit], g_try[hit]
                    for r, f, h in zip(todo, f_try, hit):
                        if h:
                            f_new[r], ok[r] = f, True
            stuck = [r for r, passed in enumerate(ok) if not passed]
            if stuck:
                y_new[stuck], g_new[stuck] = ya[stuck], ga[stuck]
                for r in stuck:
                    f_new[r] = fa[r]

        # take the step pair; a row failing the curvature test keeps its dense
        # H, or stores the pair with rho = 0
        s, dg = y_new - ya, g_new - ga
        sy, yy = np.vecdot(s, dg).tolist(), np.vecdot(dg, dg).tolist()
        good = [a > 1e-12 * b for a, b in zip(sy, yy)]
        if dense:
            if any(good):
                _bfgs_update(H, s, dg, sy, good, fresh)
        else:
            rho = _column([1.0 / a if curved else 0.0 for a, curved in zip(sy, good)])
            mem.append((s, dg, rho * s, rho * dg))
            h0 = [a / b if curved else h for a, b, curved, h in zip(sy, yy, good, h0)]

        # no entry moved by more than t * pmax; 1e-9 covers the rounding of the
        # step and of the bound, under 1e-12 for the centred y, |y| <= 300
        spread = [sp + 2.0 * tt * pm + 1e-9 for sp, tt, pm in zip(spread, t, pmax)]
        ya, fa, ga = y_new, f_new, g_new
        gmax = _inf_norms(ga)
        stay = [passed and gm > 0.0 for passed, gm in zip(ok, gmax)]
        if not all(stay):
            keep = [i for i, st in enumerate(stay) if st]
            done = [i for i, st in enumerate(stay) if not st]
            rows = [live[i] for i in done]
            y[rows], g[rows] = ya[done], ga[done]
            for i, r in zip(done, rows):
                val[r], iters[r] = fa[i], it + ok[i]
            ya, ga = ya[keep], ga[keep]
            fa, h0, spread = ([v[i] for i in keep] for v in (fa, h0, spread))
            if dense:
                H = H[keep]
                fresh = [fresh[i] for i in keep]
            else:
                mem = deque((tuple(v[keep] for v in m) for m in mem), maxlen=_MEMORY)
            live = [live[i] for i in keep]
    y[live], g[live] = ya, ga
    converged = np.ones(y.shape[0], dtype=bool)
    converged[live] = False
    for i, r in enumerate(live):
        val[r], iters[r] = fa[i], max_iters
    return _Descent(np.array(val), y, np.abs(g).max(axis=1), converged, iters)


def _witness_shaped_log_start(n: int, k: int) -> Optional[np.ndarray]:
    """Log coordinates of a witness-like profile of length n, zeros floored.

    The profile's spread grows with n (about 70 at n = 1000); beyond
    _LOG_SPREAD_CAP its lowest entries are raised to the cap.
    """
    if k < 2 or n % k != 0 or n < 2 * k:
        return None
    sol = solve_tangent(k)
    m = int(round(sol.mu * n / k)) * k
    m = min(max(m, k), n - k)
    logx = _log_profile(n, k, n - m, sol.a, _right_abscissa(sol.a, m, n))
    floor = logx[np.isfinite(logx)].min() - 27.6  # zeros at ~1e-12 of the smallest
    logx = np.where(np.isfinite(logx), logx, floor)
    return np.maximum(logx, logx.max() - _LOG_SPREAD_CAP)  # a start the descent accepts


def minimize(n: int, k: int, config: MinimizeConfig | None = None) -> MinimizationResult:
    """Multi-start descent for the normalized cyclic sum at concrete (n, k).

    Starts: the uniform vector, a witness-shaped profile when k | n, and
    config.restarts random log-uniform draws seeded by config.seed, all
    descended as one batch.  Ties below 1e-12 resolve to the earliest start
    for determinism.  A start converges when it stops before max_iters, at a
    zero gradient or where no step lowers its value by one ulp; a start that
    exhausts max_iters reports converged=False but still competes on value.
    """
    k = _integer("k", k, 1, error=DomainError)
    n = _integer("n", n, k, error=DomainError)
    cfg = config or MinimizeConfig()
    rng = np.random.default_rng(cfg.seed)

    starts: list[np.ndarray] = [np.zeros(n)]
    wshape = _witness_shaped_log_start(n, k)
    if wshape is not None:
        starts.append(wshape)
    for _ in range(cfg.restarts):
        starts.append(rng.uniform(-3.0, 3.0, n))

    d = _descend(np.stack(starts), k, cfg.max_iters)
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

    Coordinates 1..n-2 each vary along their own broadcast axis and the last
    one is looped over: one slab of at most 39^(n-2) <= 59319 points (about
    475 KB) per grid value, and no array is larger than one slab.  Term i,
    x_i / (0.0 + x_{i+1} + ... + x_{i+k}), is built only on the axes it
    depends on, its denominator added in the order d = 1..k.  What does not
    involve x_{n-1} (each denominator up to where x_{n-1} enters, and the
    whole terms i < n-1-k) is computed once; the rest is written into output
    buffers, one per broadcast shape, that every slab reuses.  The terms are
    added over i = 0..n-1 from 0.0, so each point's sum is bit for bit
    `diananda_sum` at that point.

    A coordinate retires once no later term reads it: x_j for k <= j < n-1
    is last read by term j, and right after that term is added the running
    sum is replaced by its minimum over x_j's axis.  Axes are laid out in the
    order their coordinates retire, the first outermost, where numpy reduces
    fastest.  This is exact.  Rounding to nearest is monotone, a <= b implies
    fl(a + c) <= fl(b + c), so a minimum over x_j commutes with every later
    addition of a term that does not read x_j, and the result has the same
    bits as one minimum taken at the end.  The once-computed prefix always
    retires; a slab retires only while its sum has more than 39^2 entries,
    below which the reduction costs more than the smaller additions save.
    Scalar denominators stay Python floats, whose additions round the same
    way.  The factor k/n scales the minimum once, which by the same
    monotonicity is the minimum of the scaled sums.
    """
    n = _integer("n", n, 1, 5, error=DomainError)
    k = _integer("k", k, 1, n, error=WindowError)
    lv = _default_levels(n)
    if n == 1:
        return float(k / n)  # single entry, sum is n/k by homogeneity

    last = n - 1
    # Term i reads x_i..x_{i+k}, so x_j is read last by term j when k <= j < last
    # and by the last term otherwise.  x[j] varies along axis[j], in the order
    # the coordinates retire; x[last] is set per slab.
    axis = {j: a for a, j in enumerate([*range(k, last), *range(1, min(k, last))])}
    x = [1.0] + [lv.reshape((-1,) + (1,) * (n - 3 - axis[j])) for j in range(1, last)] + [1.0]
    bufs: dict = {}  # one output buffer per broadcast shape for the terms,
    sums: dict = {}  # and one per shape of the running sum; a scalar needs none

    def buffer(shape: tuple, pool: dict = bufs) -> Optional[np.ndarray]:
        if shape and shape not in pool:
            pool[shape] = np.empty(shape)
        return pool.get(shape)

    base = 0.0  # sum of the terms i < n - 1 - k, which never involve x_{n-1}
    summed = ()  # shape of the running sum
    terms = []  # (i, head, (j, buffer) per later entry, quotient, sum, retired axis, its minimum)
    for i in range(n):
        window = [(i + d) % n for d in range(1, k + 1)]
        cut = window.index(last) if last in window else k
        head = 0.0
        for j in window[:cut]:
            head = head + x[j]
        retire = axis[i] if k <= i < last else None
        if i < last - k:
            base = base + x[i] / head
            if retire is not None:
                base = np.minimum.reduce(base, axis=retire, keepdims=True)
            summed = base.shape
            continue
        steps, partial = [], np.shape(head)
        for j in window[cut:]:
            partial = np.broadcast_shapes(partial, np.shape(x[j]))
            steps.append((j, buffer(partial)))
        quotient = np.broadcast_shapes(partial, np.shape(x[i]))
        summed = np.broadcast_shapes(summed, quotient)
        out, low = buffer(summed, sums), None
        if retire is not None and math.prod(summed) > lv.size**2:
            summed = summed[:retire] + (1,) + summed[retire + 1 :]
            low = buffer(summed, sums)
        terms.append((i, head, steps, buffer(quotient), out, retire, low))

    best = math.inf
    for value in lv.tolist():
        x[last] = value
        total = base
        for i, denom, steps, quotient, out, retire, low in terms:
            for j, buf in steps:
                denom = denom + x[j] if buf is None else np.add(denom, x[j], out=buf)
            total = np.add(total, np.divide(x[i], denom, out=quotient), out=out)
            if low is not None:
                total = np.minimum.reduce(total, retire, None, low, True)
        best = min(best, float(total.min()))
    return (k / n) * best
