"""Randomized invariant suites, seed-reproducible and machine-readable.

One generator, seeded once, is shared by the groups in their listed order:
each group takes its draws where the one before it stopped, counts
failures, and reports the worst margin it saw.  The "fast" suite covers the
kernel-family and transform invariants; "all" adds the gradient/Euler checks
and the floor sweep over random vectors.  Identical seeds give
byte-identical JSON.

The groups that sum cyclic vectors draw all their cases before they
evaluate any.  The reference sums of a group are computed together by
`sums._ragged_sums`, and the 2n perturbed sums of each gradient case as one
stack by `sums._row_sums`, all bit for bit those of `diananda_sum`.  No
evaluation draws, so the stream, and with it every report, depends only on
the order of the draws.  Runs of same-range uniforms with no other draw
between them are taken in one call, which yields the same stream as one
call per value.  The functions a group exists to check (the scalar
kernels, `block_diagnostics`, `replicate`, `zero_insert`, `gradient`) are
called once per case, and the kernels are never evaluated through numpy,
whose SIMD exp and expm1 can differ from libm in the last bit.
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
from .sums import CyclicVector, _ragged_sums, _row_sums, block_diagnostics, replicate, zero_insert
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


def _sample_indices(rng, count):
    """Family indices: positive reals across several decades plus INFINITY."""
    return np.exp(rng.uniform(math.log(0.2), math.log(200.0), count - 1)).tolist() + [INFINITY]


def _kernel_shape(rng, scale: int) -> GroupResult:
    """Positivity and monotone decrease of the kernels and of p on [-30, 30]."""
    tally = _Tally(min, math.inf)
    ks = _sample_indices(rng, 3 * scale)
    points = np.sort(rng.uniform(-30.0, 30.0, (len(ks), 8)), axis=1)
    for k, xs in zip(ks, points):
        vals = [eval_g(k, x) for x in xs.tolist()]
        for v in vals:
            tally.check(v > 0.0, v)
        for lo, hi in zip(vals, vals[1:]):
            tally.check(hi < lo, lo - hi)
    xs = np.sort(rng.uniform(-30.0, 30.0, 4 * scale)).tolist()
    pv = [eval_p(x) for x in xs]
    for v in pv:
        tally.check(v > 0.0)
    for lo, hi in zip(pv, pv[1:]):
        tally.check(hi < lo)
    return tally.result("kernel_shape")


def _check_midpoint(tally: _Tally, f, x, z) -> None:
    """f at the midpoint of x and z against the mean of f(x) and f(z)."""
    fm, fx, fz = f(0.5 * (x + z)), f(x), f(z)
    avg = 0.5 * (fx + fz)
    slack = 1e-12 + 1e-13 * (abs(fx) + abs(fz))
    tally.check(fm <= avg + slack, fm - avg)


def _kernel_convexity(rng, scale: int) -> GroupResult:
    """Midpoint convexity of the kernels, p, and the block bound f.

    Slack is 1e-12 plus an ulp-aware term, since kernel values reach 1e13 at
    the left end of the test interval.
    """
    tally = _Tally(max, -math.inf)
    ks = _sample_indices(rng, 2 * scale)
    g_pairs = rng.uniform(-30.0, 30.0, (len(ks), 4, 2))
    p_pairs = rng.uniform(-30.0, 30.0, (3 * scale, 2))
    for k, pairs in zip(ks, g_pairs):
        for x, z in pairs.tolist():
            _check_midpoint(tally, partial(eval_g, k), x, z)
    for x, z in p_pairs.tolist():
        _check_midpoint(tally, eval_p, x, z)
    for _ in range(3 * scale):
        kf = int(rng.integers(1, 9))
        t, u = rng.uniform(-20.0, 20.0, 2).tolist()
        _check_midpoint(tally, partial(eval_f, kf), t, u)
    return tally.result("kernel_convexity")


def _kernel_growth_in_k(rng, scale: int) -> GroupResult:
    """k(1 - e^{-x/k}), evaluated as eval_g(k,x) * (e^x - 1), grows with k for x != 0."""
    tally = _Tally(min, math.inf)
    for _ in range(6 * scale):
        k1, k2 = sorted(np.exp(rng.uniform(math.log(0.2), math.log(500.0), 2)).tolist())
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
        k1, k2 = sorted((1.0 + np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 2))).tolist())
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
    for x in rng.uniform(-10.0, 10.0, 4 * scale).tolist():
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
    ks = _sample_indices(rng, 2 * scale)
    g_points = rng.uniform(-20.0, 20.0, (len(ks), 3))
    for k, xs in zip(ks, g_points):
        for x in xs.tolist():
            _check_slope(tally, partial(eval_g, k), partial(eval_g_derivative, k), x, -1.0)
    for _ in range(3 * scale):
        kf = int(rng.integers(1, 9))
        _check_slope(tally, partial(eval_f, kf), partial(eval_f_derivative, kf),
                     rng.uniform(-20.0, 20.0), 1.0)
    return tally.result("derivative_consistency")


def _block_diagnostics_group(rng, scale: int) -> GroupResult:
    """Telescoping product, per-block floor, and term accounting on random blocks."""
    tally = _Tally(max, 0.0)

    def draw():
        k = int(rng.integers(1, 9))
        nu = int(rng.integers(1, 17))
        return np.exp(rng.uniform(-3.0, 3.0, k * nu)), k

    cases = [draw() for _ in range(2 * scale)]
    for (x, k), ref in zip(cases, _ragged_sums(cases).tolist()):
        diag = block_diagnostics(x, k)
        err = abs(float(diag.ratios.prod()) - 1.0)
        tally.check(err <= 1e-12, err)
        for r, s in zip(diag.ratios.tolist(), diag.partials.tolist()):
            floor = eval_f(k, math.log(r))
            tally.check(s >= floor - 1e-12, floor - s)
        rel = abs(float(diag.partials.sum()) - ref) / ref
        tally.check(rel <= 1e-12, rel)
    return tally.result("block_diagnostics")


def _transform_identities(rng, scale: int) -> GroupResult:
    """Replication and zero-insertion preserve the (normalized) cyclic sum.

    The reference sums of x, its replication and its zero-insertion are the
    rows of one batch.
    """
    tally = _Tally(max, 0.0)

    def draw():
        k = int(rng.integers(1, 7))
        nu = int(rng.integers(1, 9))
        x = CyclicVector(np.exp(rng.uniform(-3.0, 3.0, k * nu)))
        rep = replicate(x, int(rng.integers(2, 5)))
        return (x.entries, k), (rep.entries, k), (zero_insert(x, k).entries, k + 1)

    cases = [draw() for _ in range(2 * scale)]
    sums = iter(_ragged_sums([row for case in cases for row in case]).tolist())
    for ((x, _), (rep, _), _), base, rep_sum, ins_sum in zip(cases, sums, sums, sums):
        n = x.size
        rel = abs(rep_sum / rep.size - base / n) / (base / n)
        tally.check(rel <= 1e-12, rel)
        rel = abs(ins_sum - base) / base
        tally.check(rel <= 1e-12, rel)
    return tally.result("transform_identities")


def _invariance(rng, scale: int) -> GroupResult:
    """Degree-zero scaling and rotation invariance of the cyclic sum.

    x, c * x and a rotation of x are summed as rows of one batch.
    """
    tally = _Tally(max, 0.0)

    def draw():
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        x = np.exp(rng.uniform(-3.0, 3.0, n))
        c = math.exp(rng.uniform(-8.0, 8.0))
        shift = int(rng.integers(0, n))
        return (x, k), (c * x, k), (np.concatenate((x[n - shift :], x[: n - shift])), k)

    cases = [draw() for _ in range(2 * scale)]
    sums = iter(_ragged_sums([row for case in cases for row in case]).tolist())
    for base, scaled, rolled in zip(sums, sums, sums):
        rel = abs(scaled - base) / base
        tally.check(rel <= 1e-10, rel)
        rel = abs(rolled - base) / base
        tally.check(rel <= 1e-12, rel)
    return tally.result("invariance")


def _central_differences(x: np.ndarray, k: int) -> np.ndarray:
    """Central differences of diananda_sum(., k) at x with steps h = 1e-6 x.

    The 2n perturbed vectors x +- h_m e_m are the rows of one stack summed
    by `sums._row_sums`, so every difference is bit for bit the one computed
    from 2n `diananda_sum` calls.
    """
    h = 1e-6 * x
    steps = np.diag(h)
    pm = _row_sums(np.concatenate((x + steps, x - steps)), k)
    return (pm[: x.size] - pm[x.size :]) / (2.0 * h)


def _gradient_euler(rng, scale: int) -> GroupResult:
    """Finite-difference agreement of the gradient and the Euler identity."""
    tally = _Tally(max, 0.0)

    def draw():
        n = int(rng.integers(3, 21))
        k = int(rng.integers(1, n + 1))
        return np.exp(rng.uniform(-2.0, 2.0, n)), k

    for x, k in [draw() for _ in range(scale)]:
        fd = _central_differences(x, k)
        g = gradient(x, k)
        scale_g = max(1.0, float(np.abs(g).max()))
        for err in np.abs(fd - g) / scale_g:
            tally.check(err <= 1e-6, err)
        euler = abs(float(np.dot(x, g))) / max(1.0, float(np.abs(x * g).sum()))
        tally.check(euler <= 1e-10, euler)
    return tally.result("gradient_euler")


def _floor_sweep(rng, scale: int) -> GroupResult:
    """Every evaluated positive vector respects the k (2^{1/k} - 1) floor."""
    tally = _Tally(min, math.inf)

    def draw():
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, n + 1))
        return np.exp(rng.uniform(-4.0, 4.0, n)), k

    cases = [draw() for _ in range(6 * scale)]
    for (x, k), s in zip(cases, _ragged_sums(cases).tolist()):
        margin = (k / x.size) * s - lower_bound_theorem2(k)
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
