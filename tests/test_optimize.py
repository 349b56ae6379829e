"""Tests for the gradient, the multi-start minimizer, and the grid oracle.

Independent oracles: central finite differences of the direct per-term sum
for the gradient, and the exhaustive grid itself for the minimizer.
"""

import json
import math
import warnings

import numpy as np
import pytest

from cyclic_bounds import (
    CapacityError,
    DomainError,
    MinimizeConfig,
    diananda_sum,
    grid_oracle,
    gradient,
    lower_bound_theorem2,
    minimize,
)
from cyclic_bounds.optimize import _descend, descend_from


def _roll_gradient(a, k):
    """Reference gradient: window sums and shifts by np.roll, each summed from zeros over d = 1..k."""
    n = a.size
    denom = np.zeros(n)
    for d in range(1, k + 1):
        denom += np.roll(a, -d)
    w = a / (denom * denom)
    acc = np.zeros(n)
    for d in range(1, k + 1):
        acc += np.roll(w, d)
    return 1.0 / denom - acc


class TestGradient:
    def test_uniform_point_is_stationary(self):
        for n, k in [(4, 2), (9, 3), (7, 1)]:
            g = gradient([2.0] * n, k)
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(3, 16))
            k = int(rng.integers(1, n + 1))
            x = np.exp(rng.uniform(-2, 2, n))
            g = gradient(x, k)
            scale = max(1.0, float(np.max(np.abs(g))))
            for m in range(n):
                h = 1e-6 * x[m]
                xp, xm = x.copy(), x.copy()
                xp[m] += h
                xm[m] -= h
                fd = (diananda_sum(xp, k) - diananda_sum(xm, k)) / (2 * h)
                assert abs(fd - g[m]) <= 1e-6 * scale

    def test_euler_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            x = np.exp(rng.uniform(-3, 3, n))
            g = gradient(x, k)
            euler = float(np.dot(x, g))
            assert abs(euler) <= 1e-10 * max(1.0, float(np.sum(np.abs(x * g))))

    def test_component_formula(self):
        # component m: 1/t_{m+1,k} - sum_{i=m-k}^{m-1} x_i / t_{i+1,k}^2
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        k, n = 2, 5

        def t(i):  # 1-based window start
            return math.fsum(xs[(i - 1 + d) % n] for d in range(k))

        g = gradient(xs, k)
        for m in range(1, n + 1):
            direct = 1.0 / t(m + 1) - math.fsum(
                xs[(i - 1) % n] / t(i + 1) ** 2 for i in range(m - k, m)
            )
            assert g[m - 1] == pytest.approx(direct, rel=1e-13)

    def test_bitwise_equal_to_roll_formula(self):
        # the verify suite's golden bytes depend on every bit of the gradient
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, n + 1))
            x = np.exp(rng.uniform(-4, 4, n))
            assert np.array_equal(gradient(x, k), _roll_gradient(x, k)), (n, k)

    def test_rejects_zero_entries(self):
        with pytest.raises(DomainError):
            gradient([1.0, 0.0, 1.0], 2)


class TestMinimize:
    def test_nesbitt(self):
        res = minimize(3, 2, MinimizeConfig(restarts=6, seed=7))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_k1_am_gm(self):
        res = minimize(5, 1, MinimizeConfig(restarts=6, seed=0))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_shapiro_holds_at_12(self):
        res = minimize(12, 2, MinimizeConfig(restarts=20, seed=3))
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_floor_and_ceiling_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            res = minimize(n, k, MinimizeConfig(restarts=3, seed=5))
            assert res.value >= res.certified_floor - 1e-9
            assert res.value <= 1.0 + 1e-12
            assert res.certified_floor == pytest.approx(
                lower_bound_theorem2(k), rel=1e-15
            )

    def test_deterministic_for_fixed_seed(self):
        cfg = MinimizeConfig(restarts=5, seed=11)
        a = minimize(6, 2, cfg)
        b = minimize(6, 2, cfg)
        assert a.value == b.value
        assert np.array_equal(a.x_best.entries, b.x_best.entries)

    def test_non_convergence_reports_best_so_far(self):
        res = minimize(10, 2, MinimizeConfig(restarts=0, max_iters=0, seed=0))
        assert res.converged in (True, False)
        assert math.isfinite(res.value)

    def test_shift_equivariance_of_descent(self):
        rng = np.random.default_rng(9)
        y0 = rng.uniform(-2, 2, 8)
        v1, _, _, _ = descend_from(y0, 2)
        v2, _, _, _ = descend_from(np.roll(y0, 3), 2)
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_batched_rows_descend_as_alone(self):
        rng = np.random.default_rng(12)
        for n, k in [(5, 2), (9, 3), (14, 2), (30, 4)]:
            stack = rng.uniform(-3, 3, (5, n))
            batch = _descend(stack, k, 600, 1e-10)
            for r in range(stack.shape[0]):
                val, x, gnorm, conv = descend_from(stack[r], k)
                assert abs(batch.value[r] - val) <= 1e-12, (n, k, r)
                assert np.allclose(np.exp(batch.y[r]), x, rtol=1e-12, atol=0.0), (n, k, r)
                assert bool(batch.converged[r]) == conv

    def test_uniform_row_stops_at_once(self):
        rng = np.random.default_rng(13)
        stack = np.vstack([rng.uniform(-3, 3, 12), np.zeros(12), rng.uniform(-3, 3, 12)])
        d = _descend(stack, 2, 600, 1e-10)
        assert d.value[1] == 1.0
        assert d.converged[1] and d.iterations[1] == 0
        assert np.all(d.y[1] == 0.0)
        assert np.all(d.iterations[[0, 2]] > 0)

    def test_bad_shape_rejected(self):
        with pytest.raises(DomainError):
            minimize(2, 3)
        with pytest.raises(DomainError):
            minimize(3, 0)

    def test_json_serialization(self):
        res = minimize(4, 2, MinimizeConfig(restarts=2, seed=0))
        rec = json.loads(res.to_json())
        assert rec["n"] == 4 and rec["k"] == 2
        assert rec["value"] == pytest.approx(res.value, rel=1e-15)
        assert rec["certified_floor"] == pytest.approx(res.certified_floor, rel=1e-15)
        assert isinstance(rec["converged"], bool)
        assert rec["restarts_used"] == res.restarts_used
        assert rec["converged_starts"] == res.converged_starts
        assert len(rec["x_best"]) == 4

    @pytest.mark.parametrize("n, k, witness", [(7, 2, False), (9, 2, False), (8, 2, True), (9, 3, True)])
    def test_start_counts(self, n, k, witness):
        # uniform start, the witness-shaped start when k | n, then the random draws
        starts = 1 + witness + 3
        res = minimize(n, k, MinimizeConfig(restarts=3, seed=1))
        assert res.restarts_used == starts
        assert 1 <= res.converged_starts <= starts  # the uniform start is stationary
        # with no iterations only the stationary uniform start meets grad_tol
        frozen = minimize(n, k, MinimizeConfig(restarts=3, seed=1, max_iters=0))
        assert (frozen.restarts_used, frozen.converged_starts) == (starts, 1)
        loose = minimize(n, k, MinimizeConfig(restarts=3, seed=1, grad_tol=10.0))
        assert loose.converged_starts == starts

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [60, 96, 120, 240])
    def test_large_n_leaks_no_warning(self, n, k):
        for seed in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = minimize(n, k, MinimizeConfig(restarts=2, seed=seed))
            assert math.isfinite(res.value) and math.isfinite(res.gradient_norm)
            assert res.value >= lower_bound_theorem2(k)


class TestGridOracle:
    def test_nesbitt_scale(self):
        # 40-level geometric grid on [1e-3, 1e3]; the uniform point sits on it
        levels = np.geomspace(1e-3, 1e3, 39)
        assert grid_oracle(3, 2, levels) == pytest.approx(1.0, abs=1e-9)

    def test_k1_equality_case(self):
        assert grid_oracle(3, 1) == pytest.approx(1.0, abs=1e-9)

    def test_shapiro_n4(self):
        assert grid_oracle(4, 2) == pytest.approx(1.0, abs=1e-9)

    def test_budget_enforced(self):
        with pytest.raises(CapacityError):
            grid_oracle(5, 2, np.geomspace(1e-3, 1e3, 60))

    def test_n_cap_enforced(self):
        with pytest.raises(DomainError):
            grid_oracle(6, 2)

    def test_agrees_with_minimize_small_cases(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                grid = grid_oracle(n, k)
                res = minimize(n, k, MinimizeConfig(restarts=6, seed=2))
                assert abs(grid - res.value) <= 1e-3, (n, k)
