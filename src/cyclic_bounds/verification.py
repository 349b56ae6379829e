"""Randomized invariant suites, seed-reproducible and machine-readable.

Each group draws its own cases from a seeded generator, counts failures, and
reports the worst margin it saw.  The "fast" suite covers the kernel-family
and transform invariants; "all" adds the gradient/Euler checks and the
floor sweep over random vectors.  Identical seeds give byte-identical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._records import json_text, record
from .errors import _integer
from .funcs import (
    INFINITY,
    eval_f,
    eval_f_derivative,
    eval_g,
    eval_g_derivative,
    eval_p,
    lower_bound_theorem2,
)
from .optimize import gradient
from .sums import (
    CyclicVector,
    block_diagnostics,
    diananda_sum,
    replicate,
    zero_insert,
    _window_sums,
)
from .tangent import solve_tangent

__all__ = ["GroupResult", "VerificationReport", "run_verification", "report_to_json"]


@dataclass(frozen=True)
class GroupResult:
    name: str
    cases: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    groups: tuple[GroupResult, ...]

    @property
    def total_cases(self) -> int:
        return sum(g.cases for g in self.groups)

    @property
    def failed_groups(self) -> int:
        return sum(0 if g.passed else 1 for g in self.groups)

    @property
    def passed(self) -> bool:
        return self.failed_groups == 0


def report_to_json(report: VerificationReport) -> str:
    groups = [record(g, "name cases failures worst passed") for g in report.groups]
    fields = record(report, "suite seed total_cases failed_groups passed")
    return json_text({**fields, "groups": groups})


class _Tally:
    """Cases and failures of one group, and the worst margin seen.

    pick (min or max) folds each margin into the running worst, which starts
    at `start`; the running worst is always the first argument, so a NaN
    margin is kept or dropped exactly as min(worst, v) / max(worst, v) do.
    """

    def __init__(self, pick, start: float):
        self.cases = self.failures = 0
        self.pick = pick
        self.worst = start

    def check(self, ok, value=None) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
        if value is not None:
            self.worst = self.pick(self.worst, value)

    def result(self, name: str) -> GroupResult:
        return GroupResult(name, self.cases, self.failures, self.worst)


def _row_sums(rows: np.ndarray, k: int) -> np.ndarray:
    """diananda_sum of each row of positive entries, shape (..., n), bit for bit.

    The window sums and quotients are those of `diananda_sum`, and the sum
    along the last axis of a contiguous array adds each row in numpy's
    pairwise order, as the sum of that row alone would.  It skips the
    `CyclicVector` copy and checks, which cost more than the sum at small n.
    """
    return (rows / _window_sums(rows, k, 1)).sum(axis=-1)


def _sample_indices(rng, count):
    """Family indices: positive reals across several decades plus INFINITY."""
    ks = list(np.exp(rng.uniform(math.log(0.2), math.log(200.0), count - 1)))
    ks.append(INFINITY)
    return ks


def _kernel_shape(rng, scale: int) -> GroupResult:
    """Positivity and monotone decrease of the kernels and of p on [-30, 30]."""
    tally = _Tally(min, math.inf)
    for k in _sample_indices(rng, 3 * scale):
        xs = np.sort(rng.uniform(-30.0, 30.0, 8))
        vals = [eval_g(k, x) for x in xs]
        for v in vals:
            tally.check(v > 0.0, v)
        for lo, hi in zip(vals, vals[1:]):
            tally.check(hi < lo, lo - hi)
    xs = np.sort(rng.uniform(-30.0, 30.0, 4 * scale))
    pv = [eval_p(x) for x in xs]
    for v in pv:
        tally.check(v > 0.0)
    for lo, hi in zip(pv, pv[1:]):
        tally.check(hi < lo)
    return tally.result("kernel_shape")


def _check_midpoint(tally: _Tally, f, x, z) -> None:
    """f at the midpoint of x and z against the mean of f(x) and f(z)."""
    fm = f(0.5 * (x + z))
    avg = 0.5 * (f(x) + f(z))
    slack = 1e-12 + 1e-13 * (abs(f(x)) + abs(f(z)))
    tally.check(fm <= avg + slack, fm - avg)


def _kernel_convexity(rng, scale: int) -> GroupResult:
    """Midpoint convexity of the kernels, p, and the block bound f.

    Slack is 1e-12 plus an ulp-aware term, since kernel values reach 1e13 at
    the left end of the test interval.
    """
    tally = _Tally(max, -math.inf)
    for k in _sample_indices(rng, 2 * scale):
        for _ in range(4):
            x, z = rng.uniform(-30.0, 30.0, 2)
            _check_midpoint(tally, partial(eval_g, k), x, z)
    for _ in range(3 * scale):
        x, z = rng.uniform(-30.0, 30.0, 2)
        _check_midpoint(tally, eval_p, x, z)
    for _ in range(3 * scale):
        kf = int(rng.integers(1, 9))
        t, u = rng.uniform(-20.0, 20.0, 2)
        _check_midpoint(tally, partial(eval_f, kf), t, u)
    return tally.result("kernel_convexity")


def _kernel_growth_in_k(rng, scale: int) -> GroupResult:
    """k(1 - e^{-x/k}), evaluated as eval_g(k,x) * (e^x - 1), grows with k for x != 0."""
    tally = _Tally(min, math.inf)
    for _ in range(6 * scale):
        k1, k2 = np.sort(np.exp(rng.uniform(math.log(0.2), math.log(500.0), 2)))
        if k2 <= k1:
            continue
        x = rng.uniform(-30.0, 30.0)
        if x == 0.0:
            continue
        e = math.expm1(x)
        lhs = eval_g(k1, x) * e
        rhs = eval_g(k2, x) * e
        tally.check(lhs < rhs, rhs - lhs)
    return tally.result("kernel_growth_in_k")


def _kernel_ordering_in_k(rng, scale: int) -> GroupResult:
    """g_{k2}(x) > g_{k1}(x) > e^{-x} for x > 0, k2 > k1 > 1; reversed for x < 0."""
    tally = _Tally(min, math.inf)
    for _ in range(6 * scale):
        k1, k2 = np.sort(1.0 + np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 2)))
        if k2 <= k1:
            continue
        x = rng.uniform(0.01, 30.0)
        hi, lo, ex = eval_g(k2, x), eval_g(k1, x), math.exp(-x)
        tally.check(hi > lo > ex, min(hi - lo, lo - ex))
        x = rng.uniform(-30.0, -0.01)
        hi, lo, ex = eval_g(k2, x), eval_g(k1, x), math.exp(-x)
        tally.check(hi < lo < ex, min(lo - hi, ex - lo))
    return tally.result("kernel_ordering_in_k")


def _kernel_limit(rng, scale: int) -> GroupResult:
    """eval_g(1e6, x) approaches the limit kernel within 1e-5 relative on |x| <= 10."""
    tally = _Tally(max, 0.0)
    xs = rng.uniform(-10.0, 10.0, 4 * scale)
    for x in xs:
        lim = eval_g(INFINITY, x)
        rel = abs(eval_g(1e6, x) - lim) / abs(lim)
        tally.check(rel <= 1e-5, rel)
    return tally.result("kernel_limit")


def _check_slope(tally: _Tally, f, df, x, sign: float) -> None:
    """df(x) against the central difference of f at x, to 1e-6 relative, and sign * df(x) > 0."""
    h = 1e-6 * max(1.0, abs(x))
    fd = (f(x + h) - f(x - h)) / (2.0 * h)
    an = df(x)
    rel = abs(fd - an) / max(abs(an), 1e-30)
    tally.check(rel <= 1e-6, rel)
    tally.check(sign * an > 0.0)


def _derivative_consistency(rng, scale: int) -> GroupResult:
    """Analytic derivatives match central differences to 1e-6 relative."""
    tally = _Tally(max, 0.0)
    for k in _sample_indices(rng, 2 * scale):
        for _ in range(3):
            _check_slope(tally, partial(eval_g, k), partial(eval_g_derivative, k),
                         rng.uniform(-20.0, 20.0), -1.0)
    for _ in range(3 * scale):
        kf = int(rng.integers(1, 9))
        _check_slope(tally, partial(eval_f, kf), partial(eval_f_derivative, kf),
                     rng.uniform(-20.0, 20.0), 1.0)
    return tally.result("derivative_consistency")


def _block_diagnostics_group(rng, scale: int) -> GroupResult:
    """Telescoping product, per-block floor, and term accounting on random blocks."""
    tally = _Tally(max, 0.0)
    for _ in range(2 * scale):
        k = int(rng.integers(1, 9))
        nu = int(rng.integers(1, 17))
        x = CyclicVector(np.exp(rng.uniform(-3.0, 3.0, k * nu)))
        diag = block_diagnostics(x, k)
        prod = float(np.prod(diag.ratios))
        err = abs(prod - 1.0)
        tally.check(err <= 1e-12, err)
        for r, s in zip(diag.ratios, diag.partials):
            floor = eval_f(k, math.log(r))
            tally.check(s >= floor - 1e-12, floor - s)
        total = float(np.sum(diag.partials))
        ref = diananda_sum(x, k)
        rel = abs(total - ref) / ref
        tally.check(rel <= 1e-12, rel)
    return tally.result("block_diagnostics")


def _transform_identities(rng, scale: int) -> GroupResult:
    """Replication and zero-insertion preserve the (normalized) cyclic sum."""
    tally = _Tally(max, 0.0)
    for _ in range(2 * scale):
        k = int(rng.integers(1, 7))
        nu = int(rng.integers(1, 9))
        n = k * nu
        x = CyclicVector(np.exp(rng.uniform(-3.0, 3.0, n)))
        base = diananda_sum(x, k)
        copies = int(rng.integers(2, 5))
        rep = replicate(x, copies)
        rel = abs(diananda_sum(rep, k) / len(rep) - base / n) / (base / n)
        tally.check(rel <= 1e-12, rel)
        ins = zero_insert(x, k)
        rel = abs(diananda_sum(ins, k + 1) - base) / base
        tally.check(rel <= 1e-12, rel)
    return tally.result("transform_identities")


def _invariance(rng, scale: int) -> GroupResult:
    """Degree-zero scaling and rotation invariance of the cyclic sum.

    x, c * x and a rotation of x are summed as the rows of one batch.
    """
    tally = _Tally(max, 0.0)
    for _ in range(2 * scale):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        x = np.exp(rng.uniform(-3.0, 3.0, n))
        c = math.exp(rng.uniform(-8.0, 8.0))
        shift = int(rng.integers(0, n))
        base, scaled, rolled = _row_sums(np.stack((x, c * x, np.roll(x, shift))), k).tolist()
        rel = abs(scaled - base) / base
        tally.check(rel <= 1e-10, rel)
        rel = abs(rolled - base) / base
        tally.check(rel <= 1e-12, rel)
    return tally.result("invariance")


def _gradient_euler(rng, scale: int) -> GroupResult:
    """Finite-difference agreement of the gradient and the Euler identity.

    The 2n perturbed vectors x +- h_m e_m (h_m = 1e-6 x_m) are the rows of two
    (n, n) arrays, each summed by one `_row_sums` call; every central
    difference is bit for bit the one computed from 2n `diananda_sum` calls.
    """
    tally = _Tally(max, 0.0)
    for _ in range(scale):
        n = int(rng.integers(3, 21))
        k = int(rng.integers(1, n + 1))
        x = np.exp(rng.uniform(-2.0, 2.0, n))
        g = gradient(x, k)
        scale_g = max(1.0, float(np.abs(g).max()))
        h = 1e-6 * x
        diag = np.arange(n)
        xp = np.tile(x, (n, 1))
        xm = xp.copy()
        xp[diag, diag] += h
        xm[diag, diag] -= h
        fd = (_row_sums(xp, k) - _row_sums(xm, k)) / (2.0 * h)
        for err in np.abs(fd - g) / scale_g:
            tally.check(err <= 1e-6, err)
        euler = abs(float(np.dot(x, g))) / max(1.0, float(np.abs(x * g).sum()))
        tally.check(euler <= 1e-10, euler)
    return tally.result("gradient_euler")


def _floor_sweep(rng, scale: int) -> GroupResult:
    """Every evaluated positive vector respects the k (2^{1/k} - 1) floor."""
    tally = _Tally(min, math.inf)
    for _ in range(6 * scale):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, n + 1))
        x = np.exp(rng.uniform(-4.0, 4.0, n))
        val = (k / n) * float(_row_sums(x, k))
        floor = lower_bound_theorem2(k)
        margin = val - floor
        tally.check(margin >= -1e-9, margin)
    return tally.result("floor_sweep")


def _bracket_consistency(rng, scale: int) -> GroupResult:
    """Floor below ceiling for every k tested, both strictly decreasing."""
    tally = _Tally(min, math.inf)
    ks = [2, 3, 4, 5, 6, 7, 8, 10, 16, 32, 100]
    prev_lower = prev_gamma = math.inf
    for k in ks:
        lower = lower_bound_theorem2(k)
        gamma = solve_tangent(k).gamma
        tally.check(math.log(2.0) < lower < gamma < 1.0, gamma - lower)
        tally.check(lower < prev_lower and gamma < prev_gamma)
        prev_lower, prev_gamma = lower, gamma
    return tally.result("bracket_consistency")


_FAST_GROUPS = (
    _kernel_shape,
    _kernel_convexity,
    _kernel_growth_in_k,
    _kernel_ordering_in_k,
    _kernel_limit,
    _derivative_consistency,
    _block_diagnostics_group,
    _transform_identities,
    _invariance,
    _bracket_consistency,
)

_ALL_GROUPS = _FAST_GROUPS + (_gradient_euler, _floor_sweep)


def run_verification(suite: str = "fast", seed: int = 0) -> VerificationReport:
    """Run the named suite ("fast" or "all"); all randomness flows from seed."""
    if suite not in ("fast", "all"):
        raise ValueError(f"unknown suite {suite!r}; expected 'fast' or 'all'")
    seed = _integer("seed", seed, 0)
    groups = _ALL_GROUPS if suite == "all" else _FAST_GROUPS
    scale = 260 if suite == "all" else 60
    rng = np.random.default_rng(seed)
    results = tuple(fn(rng, scale) for fn in groups)
    return VerificationReport(suite=suite, seed=seed, groups=results)
