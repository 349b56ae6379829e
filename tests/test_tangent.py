"""Tests for the common-tangent solver, the convex minorant it defines, and its tables.

Independent oracle: mpmath findroot at 60 digits on the full two-unknown
tangency system (no elimination), frozen reference values below.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from mpmath import mp, mpf, diff, exp, findroot

from cyclic_bounds import (
    DegenerateFamilyError,
    INFINITY,
    NoBracketError,
    SolverError,
    TangentSolution,
    eval_g,
    lower_bound_theorem2,
    plan_witness,
    solve_tangent,
    witness_value_and_bound,
)
from cyclic_bounds import tangent
from cyclic_bounds.cli import main

mp.dps = 60

# gamma to 20 digits, frozen from the mpmath 2-unknown tangency oracle at
# 80 digits (system residuals < 1e-60); regenerate with oracle_gamma(k).
ORACLE_GAMMA = {
    2: "0.98913363444699305224",
    3: "0.97792779817739836052",
    4: "0.96994110482033973336",
    10: "0.94983174736475615797",
    100: "0.93272065046607884105",
    1000: "0.93072369798790156696",
    "inf": "0.93049806171925462913",
}

# sha256 over float.hex of idx, a, b, gamma, lam, mu and the four residuals of
# solve_tangent(k) for every k in TANGENT_BITS_KS, in order: the scan grid, the
# bracket and every polish step must reproduce these bits
TANGENT_BITS_KS = (1.5, *range(2, 41), 1e3, 1e8, 1e308, INFINITY)
TANGENT_BITS_DIGEST = "85f582b286df9f4acf430fd5275db77430b2d5e1d9fe8bb5af65d251882ad2cb"


def mp_g(k, x):
    x = mpf(x)
    if x == 0:
        return mpf(1)
    if k is None:
        return x / mp.expm1(x)
    k = mpf(k)
    return -k * mp.expm1(-x / k) / mp.expm1(x)


def oracle_gamma(k, a0=-0.5, b0=0.3):
    gp = lambda t: diff(lambda u: mp_g(k, u), t)
    system = lambda a, b: (gp(a) + exp(-b), mp_g(k, a) - exp(-b) * (1 + b - a))
    a, b = findroot(system, (mpf(a0), mpf(b0)))
    return -gp(a) * (1 + b)


class TestSolveTangent:
    def test_drinfeld_constant(self):
        sol = solve_tangent(2)
        assert sol.gamma == pytest.approx(0.98913, abs=5e-6)
        assert sol.gamma == pytest.approx(float(mpf(ORACLE_GAMMA[2])), rel=1e-13)

    def test_gamma3_ten_digits_against_oracle(self):
        got = solve_tangent(3).gamma
        assert got == pytest.approx(float(mpf(ORACLE_GAMMA[3])), abs=1e-12)

    def test_oracle_reproduces_frozen_values(self):
        # the frozen digits, and the ten-digit gamma_3 anchor of acceptance
        # criterion 3, come from this solve rather than from the solver under test
        with mp.workdps(60):
            got = {k: oracle_gamma(k) for k in (2, 3)}
            for k, g in got.items():
                assert abs(g - mpf(ORACLE_GAMMA[k])) <= mpf("1e-20"), k
            assert mp.nstr(got[3], 10) == "0.9779277982"

    def test_limit_family(self):
        sol = solve_tangent(INFINITY)
        assert sol.gamma == pytest.approx(0.930498, abs=1e-6)
        assert sol.gamma == pytest.approx(float(mpf(ORACLE_GAMMA["inf"])), rel=1e-13)

    def test_table_against_oracle(self):
        for k, want in ORACLE_GAMMA.items():
            idx = INFINITY if k == "inf" else k
            assert solve_tangent(idx).gamma == pytest.approx(
                float(mpf(want)), rel=1e-12
            ), k

    def test_residuals_below_tolerance(self):
        for idx in (2, 3, 4, 10, 100, 1000, INFINITY):
            sol = solve_tangent(idx)
            assert max(sol.residuals) <= 1e-12
            assert max(sol.residuals) <= 1e-11  # the type-level invariant

    def test_geometry_invariants(self):
        for idx in (2, 3.7, 12, INFINITY):
            sol = solve_tangent(idx)
            assert sol.a < 0.0 < sol.b
            assert math.log(2) < sol.gamma < 1.0
            assert sol.lam < 0.0
            assert 0.0 < sol.mu < 1.0
            assert abs(sol.mu * sol.a + (1 - sol.mu) * sol.b) <= 1e-12
            mixed = sol.mu * eval_g(sol.idx, sol.a) + (1 - sol.mu) * math.exp(-sol.b)
            assert abs(mixed - sol.gamma) <= 1e-10

    def test_root_satisfies_scalar_equation(self):
        from cyclic_bounds.tangent import _comtan_residual

        for idx in (2.0, 5.0, 50.0):
            sol = solve_tangent(idx)
            assert abs(_comtan_residual(idx, sol.a)) <= 1e-12

    def test_degenerate_family_rejected(self):
        with pytest.raises(DegenerateFamilyError):
            solve_tangent(1)
        with pytest.raises(DegenerateFamilyError):
            solve_tangent(0.5)

    def test_memoized_solution_is_shared(self):
        assert solve_tangent(3) is solve_tangent(3.0)

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(DegenerateFamilyError):
                solve_tangent(1)
        solve_tangent(3)

    def test_solution_is_rebuilt_from_its_left_abscissa(self):
        init = [f.name for f in dataclasses.fields(TangentSolution) if f.init]
        assert init == ["idx", "a"]
        assert TangentSolution(3.0, solve_tangent(3).a) == solve_tangent(3)

    @pytest.mark.parametrize(
        "a, reason",  # a_3 = -0.3307...; each check of the construction fires once
        [
            pytest.param(-1.0, "out of order", id="-1.0"),  # b < 0
            pytest.param(-0.3, "mixed tangency value", id="-0.3"),
            pytest.param(0.1, "out of order", id="0.1"),  # a > 0
            pytest.param(1000.0, "slope", id="1000.0"),  # g'(a) underflows to -0.0
            pytest.param(-0.774867964691, "intercept", id="-0.774867964691"),  # gamma rounds to 1
        ],
    )
    def test_off_tangency_abscissa_rejected(self, a, reason):
        with pytest.raises(SolverError, match=reason):
            TangentSolution(3.0, a)

    def test_real_k_between_one_and_two_solves(self):
        sol = solve_tangent(1.5)
        assert sol.gamma > solve_tangent(2).gamma

    def test_solution_bits_pinned(self):
        h = hashlib.sha256()
        for k in TANGENT_BITS_KS:
            s = solve_tangent(k)
            for v in (s.idx, s.a, s.b, s.gamma, s.lam, s.mu, *s.residuals):
                h.update(v.hex().encode())
        assert h.hexdigest() == TANGENT_BITS_DIGEST

    def test_floor_sits_below_ceiling(self):
        for k in range(2, 30):
            assert lower_bound_theorem2(k) < solve_tangent(k).gamma


# indices whose tangency root sits near either end of the grid, or far out in k
SPECIAL_KS = (1.00001, 1.0001, 1.01, 1.5, 2.5, 1e3, 1e6, 1e8, 1e12, 1e16, 1e100, 1e308, INFINITY)


def scan_cells(k):
    """Reference: every grid cell where the tangency equation changes sign, from all its points."""
    grid = tangent._SCAN_GRID
    up = [tangent._comtan_residual(k, a) > 0.0 for a in grid]
    return [(grid[i], grid[i + 1]) for i in range(len(grid) - 1) if up[i] != up[i + 1]]


def mp_mean(x):
    """m(x) = 1/x - 1/(e^x - 1), the mean of t under the density ~ e^{-xt} on [0, 1]."""
    return 1 / x - 1 / mp.expm1(x)


class TestMonotoneResidual:
    """The tangency equation decreases strictly, so bisecting the grid finds the one root."""

    @pytest.mark.parametrize("k", [1.00001, 1.5, 2, 3, 50, 1e6])
    def test_lemma_at_60_digits(self, k):
        # m(x) > m(x/k)/k, that is g + g' > 0, which makes R' < 0 (module docstring)
        with mp.workdps(60):
            k = mpf(k)
            xs = [-mp.exp(t) for t in mp.linspace(mp.log(30), mp.log(mpf("1e-6")), 600)]
            for x in xs:
                m = mp_mean(x)
                assert 0 < m < 1
                assert m > mp_mean(x / k) / k, x
            ms = [mp_mean(x) for x in xs]
            assert all(b < a for a, b in zip(ms, ms[1:]))  # m decreases as x rises

    @pytest.mark.parametrize("ks", [range(2, 301), SPECIAL_KS], ids=["2..300", "special"])
    def test_one_sign_change_holding_the_root(self, ks):
        for k in ks:
            cells = scan_cells(k)
            assert len(cells) == 1, k
            (lo, hi), = cells
            assert tangent._comtan_residual(k, lo) > 0.0, k
            assert lo <= solve_tangent(k).a <= hi, k

    @pytest.mark.parametrize("k", [1.000002, 1.01, 2.0, 3.0, 1e3, 1e308, INFINITY])
    def test_cell_search_takes_ten_evaluations(self, k, monkeypatch):
        grid = set(tangent._SCAN_GRID)
        residual, args = tangent._comtan_residual, []

        def counted(idx, a):
            args.append(a)
            return residual(idx, a)

        monkeypatch.setattr(tangent, "_comtan_residual", counted)
        tangent._solve_tangent.__wrapped__(k)  # uncached
        # the cell search is the leading run of evaluations at grid points
        search = next(i for i, a in enumerate(args) if a not in grid)
        assert search <= 10

    def test_gamma_decreases_in_k_above_the_limit(self):
        gammas = [solve_tangent(k).gamma for k in range(2, 2001)]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] > solve_tangent(INFINITY).gamma


class TestLimitEdge:
    """gamma_k decreases to gamma_inf like c1/k, and never lands below it."""

    # both sides of 2^49, where c1/k falls to 3.6 ulps of gamma, and the band up to 2^53
    @pytest.mark.parametrize("k", [1e12, 1e14, 5e14, math.nextafter(2.0**49, 0.0), 2.0**49,
                                   2e15, 1e16, 2.0**53, 1e100, 1e300, 1e308])
    def test_far_index_not_below_the_limit(self, k):
        # g_k > g_inf for x < 0, so gamma_k > gamma_inf; 1e300 once landed two ulps below
        sol, limit = solve_tangent(k), solve_tangent(INFINITY)
        assert sol.gamma >= limit.gamma
        assert sol.idx == k and TangentSolution(k, sol.a) == sol
        if k >= 2.0**49:  # c1/k is under the solve's scatter: the limit's geometry, under index k
            assert dataclasses.replace(limit, idx=k) == sol
        else:  # a solve of its own, above the limit by about c1/k
            assert sol.gamma - limit.gamma >= 0.2260 / k - 3 * math.ulp(limit.gamma)

    def test_first_order_rate(self):
        # c1 = mu (-a) g(a) / 2 at the limit's solution (envelope theorem with
        # p'(0) = -1/2), computed, not fitted
        limit = solve_tangent(INFINITY)
        c1 = limit.mu * -limit.a * eval_g(INFINITY, limit.a) / 2.0
        assert c1 == pytest.approx(0.22601836872755374, rel=1e-15)
        for k in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7):
            assert abs(k * (solve_tangent(k).gamma - limit.gamma) - c1) <= 0.5 / k, k

    def test_smallest_k_below_the_paper_ceiling(self):
        assert solve_tangent(116_606).gamma < 0.9305 <= solve_tangent(116_605).gamma


class TestNearOne:
    def test_solves_just_above_one(self):
        k = 1.000002
        sol = solve_tangent(k)
        assert sol.a == pytest.approx(-(k - 1) / 4, rel=1e-3)
        assert 1.0 - sol.gamma == pytest.approx((k - 1) ** 2 / 32, rel=1e-2)
        assert max(sol.residuals) <= 1e-15
        assert tangent._SCAN_GRID[-2] < sol.a < 0.0  # in the cell the grid's 0.0 end closes

    def test_smallest_accepted_index_solves(self):
        k = 1.0 + 2.0**-23
        assert solve_tangent(k).gamma < 1.0

    # k - 1 = 1e-8: the tangency equation already rounds positive at a = 0;
    # 2e-8, 3e-8 and 9.57e-8, the largest failure seen in random draws: the
    # rounded geometry fails (b <= 0 or gamma = 1.0), as it does not for every k there
    @pytest.mark.parametrize("k", [1.00000001, 1.00000002, 1.00000003, 1.0000000957568902])
    def test_below_float_resolution_refused_with_reason(self, k):
        with pytest.raises(NoBracketError, match="too close to 1 for float resolution"):
            solve_tangent(k)


def test_plan_uses_the_gamma_the_spec_retests():
    # a hand-built solution one ulp right of the tangency has a gamma one ulp
    # higher; the 1/2 convergent passes against it but not against gamma_3,
    # so the plan moves on to 2/5
    sol = TangentSolution(idx=3.0, a=math.nextafter(solve_tangent(3).a, 0.0))
    assert sol.gamma > solve_tangent(3).gamma
    spec = plan_witness(3, float.fromhex("0x1.1273df7b96880p-8"), sol)
    assert (spec.m, spec.n, str(spec.mu_star)) == (1212, 3030, "2/5")
    assert witness_value_and_bound(spec).certified


def minorant(sol, x):
    """Convex minorant of min(exp(-x), g(x)) a solution defines: kernel, tangent, exponential."""
    if x <= sol.a:
        return eval_g(sol.idx, x)
    return math.exp(-x) if x >= sol.b else sol.gamma + sol.lam * x


class TestMinorant:
    """The tangent line joins kernel and exponential into one convex lower envelope."""

    def test_knot_continuity_and_smoothness(self):
        for idx in (2, 5, INFINITY):
            sol = solve_tangent(idx)
            for knot in (sol.a, sol.b):
                h = 1e-7
                left = minorant(sol, knot - h)
                right = minorant(sol, knot + h)
                assert abs(left - right) <= 1e-6  # continuity at first order in h
                dl = (minorant(sol, knot) - minorant(sol, knot - h)) / h
                dr = (minorant(sol, knot + h) - minorant(sol, knot)) / h
                assert abs(dl - dr) <= 1e-5  # derivative match across the knot
            # direct value agreement at the knots themselves
            assert abs(eval_g(sol.idx, sol.a) - (sol.gamma + sol.lam * sol.a)) <= 1e-9
            assert abs(math.exp(-sol.b) - (sol.gamma + sol.lam * sol.b)) <= 1e-9

    def test_below_both_envelopes(self):
        rng = np.random.default_rng(20)
        for idx in (2, 7, INFINITY):
            sol = solve_tangent(idx)
            for x in rng.uniform(-10, 10, 300):
                h = minorant(sol, x)
                assert h <= min(math.exp(-x), eval_g(sol.idx, x)) + 1e-12

    def test_midpoint_convexity_across_knots(self):
        rng = np.random.default_rng(21)
        for idx in (2, 4, INFINITY):
            sol = solve_tangent(idx)
            lo, hi = sol.a - 3.0, sol.b + 3.0
            for _ in range(300):
                x, z = rng.uniform(lo, hi, 2)
                mid = 0.5 * (x + z)
                lhs = minorant(sol, mid)
                rhs = 0.5 * (minorant(sol, x) + minorant(sol, z))
                assert lhs <= rhs + 1e-10


class TestGammaTable:
    def test_paper_style_row_values(self):
        rows = [solve_tangent(k) for k in [2, 3, 4, 10, 100, 1000]]
        got = [r.gamma for r in rows]
        want = [0.98913, 0.97793, 0.96994, 0.94983, 0.93272, 0.93072]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=5e-6)

    def test_strictly_decreasing_and_limit_smallest(self):
        rows = [solve_tangent(k) for k in [2, 3, 4, 10, 100, 1000, INFINITY]]
        gammas = [r.gamma for r in rows]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == pytest.approx(0.930498, abs=1e-6)
        assert all(g > gammas[-1] for g in gammas[:-1])

    def test_rows_follow_input_order(self):
        rows = [solve_tangent(k) for k in [10, 2, INFINITY]]
        assert [r.idx for r in rows] == [10.0, 2.0, math.inf]

    def test_abs_slope_decreasing(self):
        rows = [solve_tangent(k) for k in [2, 3, 4, 10, 100]]
        lams = [abs(r.lam) for r in rows]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_csv_serialization(self, capsys):
        lines = []
        for k in ("2", "inf"):
            assert main(["tangent", "--k", k, "--format", "csv"]) == 0
            lines.append(capsys.readouterr().out.strip().split("\n"))
        assert [header for header, _ in lines] == ["k,a,b,gamma,lambda,mu"] * 2
        assert lines[0][1].startswith("2,")
        assert lines[1][1].startswith("inf,")
        gamma_field = lines[0][1].split(",")[3]
        assert gamma_field == "0.989133634447"  # 12 significant digits

    def test_json_serialization(self, capsys):
        import json

        rows = [solve_tangent(3)]
        assert main(["tangent", "--k", "3", "--format", "json"]) == 0
        recs = json.loads(capsys.readouterr().out)
        assert recs[0]["k"] == 3
        assert recs[0]["lambda"] == pytest.approx(rows[0].lam, rel=1e-15)
        assert recs[0]["gamma"] == pytest.approx(rows[0].gamma, rel=1e-11)
