"""Each real parameter either yields a result in its documented range or raises its stated class.

One derandomized hypothesis strategy per real parameter spans floats (nan,
+-inf, subnormals), integers, short number-like text and None, with values
near the edges of its domain added.  A value that is not a real in the
parameter's range must raise the site's class with the one-format message that names the
argument; any other value must return a result in its documented range or
raise one of the site's stated reasons:

- solve_tangent: NoBracketError within 2^-23 of 1; a gamma never below gamma_inf;
- TangentSolution: SolverError when the geometry fails;
- plan_witness: CapacityError when the needed n exceeds n_cap or float range,
  SolverError when eps is within a few ulps of gamma;
- WitnessSpec: InvalidSpecError when the mid-certificate or a_star < 0 < b_star fails,
  or when a_star / k underflows to 0.

minimize gets a strategy over its integer arguments (n <= 24, every k <= n, a
seed, up to two random starts and up to 80 iterations): its result must be
finite, lie between the analytic floor and the uniform point's 1, and count
its converged starts within the starts it descended.

The integer parameters k and n_cap of plan_witness get the same treatment
against the integer check's message; an integer k that has no tangent
solution in float range (10**400) is planned with another k's solution and
must be refused as a mismatch.  So does the k of eval_f, eval_f_derivative
and lower_bound_theorem2, whose values must match a 60-digit mpmath
evaluation to a few ulps for every integer k, also past float range, and
never fall below the softplus log(1 + e^t) that f_k(t) bounds.

The sums and transforms get one strategy of cyclic vectors: n up to twice
the tile width, k on both sides of the 64 at which windows switch to
power-of-two blocks and k = n, entries log-uniform between two magnitudes
from subnormal to 1e300, and a share of zeros.  diananda_sum, baston_sum and
block_diagnostics must return finite values in their documented ranges (the
normalized Diananda sum at or above its floor), or raise DomainError naming
the first zero window (or entry) by its 1-based start, or CapacityError,
which needs entries more than float64's range apart.  replicate must keep
the normalized sum and zero_insert (with k + 1) the sum within 1e-12, or
leave the transformed vector refused as the original is, and the
constructor's entry scan, which the transforms skip, must accept every
transform output.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclic_bounds import (
    CapacityError, CyclicVector, DegenerateFamilyError, DomainError, InvalidSpecError,
    MinimizeConfig, NoBracketError, ShapeError, SolverError, TangentSolution, WitnessSpec,
    baston_sum, block_diagnostics, diananda_sum, eval_f, eval_f_derivative, eval_g,
    eval_g_derivative, lower_bound_theorem2, minimize, plan_witness, replicate, solve_tangent,
    witness_value_and_bound, zero_insert,
)
from cyclic_bounds.sums import _TILE
from cyclic_bounds.funcs import _softplus
from cyclic_bounds.witness import DEFAULT_N_CAP

LN2 = math.log(2.0)
GAMMA_INF = solve_tangent(math.inf).gamma
SOL3 = solve_tangent(3)
SPEC3 = dict(k=3, n=1266, m=633, a_star=SOL3.a, eps=0.01)  # plan_witness(3, 0.01, SOL3)

ANY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(),
    st.text(alphabet="0123456789.+-eEinfa ", max_size=4),  # text float() would parse, or not
    st.none(),
)


def contract(*edges):
    """The test over ANY and the given edge strategies, with "3" and nan always tried."""
    def wrap(test):
        test = given(st.one_of(ANY, *edges))(test)
        test = example(math.nan)(example("3")(test))
        return settings(derandomize=True, database=None, max_examples=40, deadline=None)(test)
    return wrap


def inside(v, lo, hi=None) -> bool:
    """Whether v is a Python real in (lo, hi), or in (lo, inf] when hi is None."""
    if not isinstance(v, (int, float)):
        return False
    try:
        x = float(v)
    except OverflowError:  # an int beyond float range
        return False
    return lo < x and (hi is None or x < hi)


def integral(v):
    """v as the int an integer parameter takes (an int or an integral float), else None."""
    if isinstance(v, float):
        return int(v) if v.is_integer() else None
    return int(v) if isinstance(v, int) else None


def call_integer(f, v, error, name, lo):
    """f(v), or None after checking that a v that is no integer >= lo raised error naming it."""
    i = integral(v)
    if i is not None and i >= lo:
        return f(v)
    with pytest.raises(error) as err:
        f(v)
    assert type(err.value) is error
    assert str(err.value) == f"{name} must be an integer >= {lo}, got {v!r}"
    return None


def call(f, v, error, name, interval):
    """f(v), or None after checking that a v outside interval raised error naming it."""
    lo, hi = {"(0, inf]": (0.0, None), "(1, inf]": (1.0, None),
              "(0, inf)": (0.0, math.inf), "(-inf, inf)": (-math.inf, math.inf)}[interval]
    if inside(v, lo, hi):
        return f(v)
    with pytest.raises(error) as err:
        f(v)
    assert type(err.value) is error
    assert str(err.value) == f"{name} must be a real number in {interval}, got {v!r}"
    return None


@contract()
@example(5e-324)
def test_eval_g(v):
    r = call(lambda k: eval_g(k, 0.3), v, ValueError, "idx", "(0, inf]")
    assert r is None or 0.0 <= r < 1.0
    r = call(lambda k: eval_g(k, -0.3), v, ValueError, "idx", "(0, inf]")
    assert r is None or 1.0 < r  # inf where k e^{0.3/k} overflows


@contract()
@example(5e-324)  # p'(x/k) was nan once x/k overflowed to inf
@example(1e-310)
def test_eval_g_derivative(v):
    # strictly negative, but -0.0 where k e^x / (e^x - 1)^2 underflows
    r = call(lambda k: eval_g_derivative(k, 0.3), v, ValueError, "idx", "(0, inf]")
    assert r is None or -math.inf < r <= 0.0
    r = call(lambda k: eval_g_derivative(k, -0.3), v, ValueError, "idx", "(0, inf]")
    assert r is None or r < 0.0  # -inf where e^{0.3/k} overflows


@contract(st.floats(1.0, 1.0 + 1e-5), st.floats(1e15, 1e308))
@example(1.0 + 2.0**-23)
@example(True)
@example(1e300)  # its gamma was two ulps below the limit's
def test_solve_tangent(v):
    try:
        sol = call(solve_tangent, v, DegenerateFamilyError, "idx", "(1, inf]")
    except NoBracketError:
        assert float(v) - 1.0 < 2.0**-23
        return
    assert sol is None or GAMMA_INF <= sol.gamma < 1.0


@contract(st.floats(2.9, 3.1))
@example(3)
def test_tangent_solution_idx(v):
    try:
        sol = call(lambda k: TangentSolution(k, SOL3.a), v, DegenerateFamilyError, "idx",
                   "(1, inf]")
    except SolverError:
        assert inside(v, 1.0)
        return
    assert sol is None or (LN2 < sol.gamma < 1.0 and type(sol.idx) is float)


@contract(st.floats(-1.0, 0.0), st.sampled_from([SOL3.a]))
def test_tangent_solution_a(v):
    try:
        sol = call(lambda a: TangentSolution(3.0, a), v, SolverError, "a", "(-inf, inf)")
    except SolverError as err:
        assert inside(v, -math.inf, math.inf), str(err)
        return
    assert sol is None or (LN2 < sol.gamma < 1.0 and sol.a == v)


@contract(st.floats(1e-12, 1.0), st.floats(0.0, 1e-300))
@example(1e-307)
@example(5e-324)
def test_plan_witness_eps(v):
    try:
        spec = call(lambda eps: plan_witness(3, eps, SOL3), v, InvalidSpecError, "eps",
                    "(0, inf)")
    except CapacityError as err:
        assert err.required_n is None or err.required_n > DEFAULT_N_CAP
        return
    assert spec is None or witness_value_and_bound(spec).certified


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(2, 12), st.floats(1e-18, 1e-14))
@example(5, 1e-16)  # no convergent meets the mid-certificate, whatever n_cap is
@example(2, 1e-16)  # the mid-certificate holds, and the default cap refuses n
def test_plan_witness_eps_within_ulps_of_gamma(k, eps):
    sol = solve_tangent(k)
    try:
        plan_witness(k, eps, sol)
    except CapacityError as err:
        assert err.required_n > DEFAULT_N_CAP
        assert plan_witness(k, eps, sol, n_cap=err.required_n).n == err.required_n
        return
    except SolverError as err:
        assert eps < 4 * math.ulp(sol.gamma), str(err)
        assert "no continued-fraction convergent" in str(err)
        with pytest.raises(SolverError):
            plan_witness(k, eps, sol, n_cap=10**400)
        return
    raise AssertionError(f"planned k={k}, eps={eps} within the default cap")


@contract(st.floats(0.0, 0.1))
def test_witness_spec_eps(v):
    try:
        spec = call(lambda eps: WitnessSpec(**{**SPEC3, "eps": eps}), v, InvalidSpecError,
                    "eps", "(0, inf)")
    except InvalidSpecError as err:
        assert inside(v, 0.0, math.inf) and "mixed value" in str(err)
        return
    if spec is not None:
        report = witness_value_and_bound(spec)
        assert spec.eps == v and report.value <= report.analytic_bound


# 2**1024 - 2**970 is the least int that float() refuses
INTEGER_EDGES = (0, 1, 2, 2.5, 2**53, 2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400)


def integer_contract(*edges):
    """contract() with the integer edges added as examples."""
    def wrap(test):
        for v in INTEGER_EDGES:
            test = example(v)(test)
        return contract(*edges)(test)
    return wrap


@integer_contract(st.integers(2, 40), st.sampled_from([2.0**53, 10**6, 10**9]))
def test_plan_witness_k(v):
    k = integral(v)
    sol = solve_tangent(k) if k is not None and 2 <= k <= sys.float_info.max else SOL3
    try:
        spec = call_integer(lambda k: plan_witness(k, 0.01, sol), v, InvalidSpecError, "k", 2)
    except CapacityError as err:
        assert err.required_n > DEFAULT_N_CAP
        return
    except InvalidSpecError as err:  # an index beyond float range has no solution of its own
        assert sol is SOL3 and k > sys.float_info.max and f"not for k = {k}" in str(err)
        return
    assert spec is None or witness_value_and_bound(spec).certified


@integer_contract(st.integers(1, 2000), st.integers(10**7, 10**400))
def test_plan_witness_n_cap(v):
    try:
        spec = call_integer(lambda cap: plan_witness(3, 0.01, SOL3, n_cap=cap), v,
                            InvalidSpecError, "n_cap", 1)
    except CapacityError as err:
        assert err.required_n == SPEC3["n"] > integral(v)
        return
    assert spec is None or (spec.n == SPEC3["n"] and witness_value_and_bound(spec).certified)


def block_bound(k: int, t: float) -> tuple[float, float]:
    """f_k(t) and f_k'(t) at 60 digits, rounded to floats."""
    with mpmath.workdps(60):
        kk, tt = mpmath.mpf(k), mpmath.mpf(t)
        sp = mpmath.log1p(mpmath.exp(tt))
        f = kk * mpmath.expm1(sp / kk)
        return float(f), float(mpmath.exp(sp / kk) / (1 + mpmath.exp(-tt)))


def near(r: float, ref: float) -> bool:
    """Whether r is within 8 ulps of ref; an index near float max costs f_k up to 8.5 ulps."""
    return abs(r - ref) <= 8 * math.ulp(ref)


@integer_contract(st.integers(1, 10**6), st.integers(10**300, 10**400))
@example(10**20)  # f_k(0) rounded one ulp below ln 2
def test_eval_f_k(v):
    for t in (-1.0, 0.0, 1.0):
        r = call_integer(lambda k: eval_f(k, t), v, ValueError, "k", 1)
        assert r is None or (r >= _softplus(t) and near(r, block_bound(integral(v), t)[0]))


@integer_contract(st.integers(1, 10**6), st.integers(10**300, 10**400))
def test_eval_f_derivative_k(v):
    for t in (-1.0, 0.0, 1.0):
        r = call_integer(lambda k: eval_f_derivative(k, t), v, ValueError, "k", 1)
        assert r is None or near(r, block_bound(integral(v), t)[1])


@integer_contract(st.integers(1, 10**6), st.integers(10**300, 10**400))
@example(10**20)
def test_lower_bound_theorem2_k(v):
    r = call_integer(lower_bound_theorem2, v, ValueError, "k", 1)
    assert r is None or (LN2 <= r <= 1.0 and near(r, block_bound(integral(v), 0.0)[0]))


@contract(st.floats(-1.0, 0.0), st.floats(-0.34, -0.32))
@example(SOL3.a)
def test_witness_spec_a_star(v):
    try:
        spec = call(lambda a: WitnessSpec(**{**SPEC3, "a_star": a}), v, InvalidSpecError,
                    "a_star", "(-inf, inf)")
    except InvalidSpecError as err:
        assert inside(v, -math.inf, math.inf), str(err)
        return
    if spec is not None:
        report = witness_value_and_bound(spec)
        assert spec.a_star == v and report.value <= report.analytic_bound


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.floats(-1e-300, 0.0))
@example(2, -5e-324)  # a_star / k underflowed to 0: a bare ZeroDivisionError in the evaluation
@example(3, -5e-324)
def test_witness_spec_tiny_a_star(k, v):
    try:
        spec = WitnessSpec(k, 2 * k, k, v, 0.5)
    except InvalidSpecError as err:
        assert "a_star" in str(err) or "mixed value" in str(err), str(err)
        return
    report = witness_value_and_bound(spec)
    assert spec.a_star / k < 0.0 and report.value <= report.analytic_bound


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
    st.integers(0, 80),
)
@example((1, 1), 0, 0, 0)
@example((7, 7), 0, 2, 80)  # every window reads the whole vector
@example((24, 3), 3, 2, 80)
def test_minimize(nk, seed, restarts, max_iters):
    n, k = nk
    res = minimize(n, k, MinimizeConfig(restarts=restarts, seed=seed, max_iters=max_iters))
    assert math.isfinite(res.value) and math.isfinite(res.gradient_norm)
    assert res.certified_floor <= res.value <= 1.0 + 1e-12
    assert 0 <= res.converged_starts <= res.restarts_used
    assert res.x_best.n == n


MAGNITUDES = (5e-324, 1e-310, 1e-300, 1e-10, 1.0, 1e10, 1e300)


@st.composite
def cyclic_vectors(draw):
    """(x, k): log-uniform entries between two magnitudes, a share of them zero."""
    n = draw(st.one_of(
        st.integers(1, 130), st.sampled_from([_TILE - 1, _TILE + 1, 2 * _TILE - 63, 2 * _TILE])
    ))
    k = draw(st.one_of(
        st.integers(1, 63), st.sampled_from([64, 65, 100, 127, 128, 1000, 2000]), st.just(n)
    ))
    k = min(k, n)
    lo, hi = sorted(draw(st.tuples(st.sampled_from(MAGNITUDES), st.sampled_from(MAGNITUDES))))
    zeros = draw(st.sampled_from([0.0, 0.001, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    x[rng.random(n) < zeros] = 0.0
    return x, k


SUMS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def zero_window(x, k, shift):
    """1-based start of the window of the first term whose k entries are all zero, else None."""
    n = x.size
    nonzero = np.concatenate(([0], np.cumsum(np.concatenate((x, x[:k])) != 0.0)))
    counts = nonzero[shift + k : shift + k + n] - nonzero[shift : shift + n]
    hits = np.flatnonzero(counts == 0)
    return None if hits.size == 0 else (int(hits[0]) + shift) % n + 1


def beyond_range(x) -> bool:
    """Whether two nonzero entries of x are more than float64's range apart."""
    nonzero = x[x > 0.0]
    return math.log(nonzero.max()) - math.log(nonzero.min()) > math.log(sys.float_info.max)


def checked_sum(fn, x, k, shift):
    """fn(x, k), or None after checking that it failed for a stated reason."""
    try:
        s = fn(x, k)
    except DomainError as err:
        assert f"window sum t[{zero_window(x, k, shift)},{k}] is zero" in str(err)
        return None
    except CapacityError as err:
        assert beyond_range(x) and "float64 range" in str(err)
        return None
    assert zero_window(x, k, shift) is None and math.isfinite(s)
    return s


@SUMS
@given(cyclic_vectors())
@example((np.ones(64), 64))
@example((np.array([5e-324, 1e300] * 40), 70))  # 1e300 over a subnormal window overflows
def test_diananda_sum(case):
    x, k = case
    s = checked_sum(diananda_sum, x, k, 1)
    assert s is None or k / x.size * s >= lower_bound_theorem2(k)


@SUMS
@given(cyclic_vectors())
def test_baston_sum(case):
    x, k = case
    s = checked_sum(baston_sum, x, k, 0)
    assert s is None or 0.0 < s <= x.size


@SUMS
@given(cyclic_vectors())
@example((np.array([1e-300, 1e300] * 64), 64))  # block ratios of 1e600
def test_block_diagnostics(case):
    x, k = case
    if x.size % k:
        with pytest.raises(ShapeError, match="not divisible"):
            block_diagnostics(x, k)
        x = x[: x.size - x.size % k]
    try:
        diag = block_diagnostics(x, k)
    except DomainError as err:
        assert f"entry {int(np.flatnonzero(x == 0.0)[0]) + 1} is zero" in str(err)
        return
    except CapacityError as err:
        assert beyond_range(x) and "float64 range" in str(err)
        return
    assert np.isfinite(diag.ratios).all() and (diag.ratios > 0.0).all()
    assert np.isfinite(diag.partials).all() and diag.nu * k == x.size
    assert k / x.size * float(diag.partials.sum()) >= lower_bound_theorem2(k)


def same_sum(x, k, y, j, scale):
    """scale * diananda_sum(x, k) and diananda_sum(y, j) agree, or both are refused."""
    sums = []
    for v, w in ((x, k), (y, j)):
        try:
            sums.append(diananda_sum(v, w))
        except (DomainError, CapacityError):
            sums.append(None)
    a, b = sums
    assert (a is None) == (b is None)
    assert a is None or abs(scale * a - b) <= 1e-12 * b


@SUMS
@given(cyclic_vectors(), st.integers(1, 3))
def test_replicate(case, copies):
    x, k = case
    y = replicate(x, copies)
    assert y.n == copies * x.size
    assert CyclicVector(y.entries).entries.tobytes() == y.entries.tobytes()
    same_sum(x, k, y, k, copies)


@SUMS
@given(cyclic_vectors())
@example((np.ones(63), 63))  # the k + 1 = 64 windows of the result are blocks
def test_zero_insert(case):
    x, k = case
    if x.size % k:
        with pytest.raises(ShapeError, match="not divisible"):
            zero_insert(x, k)
        x = x[: x.size - x.size % k]
    z = zero_insert(x, k)
    assert z.n == x.size // k * (k + 1)
    assert CyclicVector(z.entries).entries.tobytes() == z.entries.tobytes()
    same_sum(x, k, z, k + 1, 1)
