"""Tests for the gradient, the multi-start minimizer, and the grid oracle.

Independent oracles: central finite differences of the direct per-term sum
for the gradient, and the exhaustive grid itself for the minimizer.
"""

import hashlib
import json
import math
import tracemalloc
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
from cyclic_bounds import optimize
from cyclic_bounds.optimize import _default_levels, _descend, _witness_shaped_log_start

# sha256 of _witness_shaped_log_start(n, k).tobytes(): minimize's output bytes
# depend on every bit of this start; from n = 6000 on it is clipped to the
# descent's log-spread cap
START_DIGESTS = [
    (4, 2, "0c990a7ff7e704f6c2caa1a10113b2de688b067b7ca620f2fe9a348f1564dcf3"),
    (6, 3, "92241ebf5d77de688160be3b5db0534959e4092561cd0a9ce31bd3dabf50fcc2"),
    (8, 2, "745fbdf687db2312acdfdbaf80d58f3134fba96d8c3804355c3ced43bd9092be"),
    (9, 3, "a3edbd1a0b09058737232f88bf84db14c423242a73e3ff67643e6085f289d3f5"),
    (12, 2, "7de0a0b62cf4490055da0c61ea310afba1a0c2966f6ac313c87d108d69bcaacc"),
    (12, 3, "0e9c8d6ce96068032a22a2a1086fdf42789883df8954e5e7a8adea442feabd9a"),
    (12, 4, "a06606b1f365e1e7dd09f036f81ccbf2ed8605aeda3137fbf4d58f0a5fa248ba"),
    (20, 5, "eb0bf6014b04fc1798c7414f6525c46ee3af4fd9f1eea84b24239d584518fccf"),
    (30, 6, "ba213b03a6ba5065a24ec18411ed9ec17ff6f8ad9be6519361f3c0236003424e"),
    (60, 2, "2bc56243050d65d591987383b2a5723e7ea37b94d280c8b9d8491415a7092a3a"),
    (96, 3, "61a6002b4e76db26b3a60d18f14876337f7d3d6abf9be3f563bb7b93c0b6fe95"),
    (120, 4, "bd23da02a31d1e84d7115d4db997bd9f0511ae3c837af7b9879da80b3afa5804"),
    (240, 2, "930bfa6cce1af690284cd11bd3fc574ceee0134db40c06cb0328aeabe471f749"),
    (1000, 2, "9194515162b1560b84d9690ea1422d7371f7cadf91c0ba69f10319a1a57584e9"),
    (1026, 3, "76b0e641fec966122768d6edab8287fcffa0c4cd49831a9fa2462e6d6a749a15"),
    (4096, 2, "e9a2f13b2cef3995af99d5de994c7040c0dfca023650c192bbcdbd7246cd361a"),
    (6000, 2, "93c3ed531ad4b5e364d3f8a39e20b0237b4c2a75c71bb8425d0076b27981412e"),
    (12000, 2, "0329fef27183e6bd4812a25f50d7c618c2f8eff6a251cdd3efb497e60d556a80"),
    (12000, 3, "5fd1a0b09e375b1d939bba507f275a238ca447f43f3d77971723853938a72293"),
]


# sha256 of the bytes of _descend's value, y, gradient_norm and iterations, and
# its _objective call count, for seeded batches of uniform(-amp, amp) starts; a
# 4-row batch has its second row set to the stationary uniform start, which
# never enters the loop.  Together the batches backtrack, give up on the ulp
# test, reject pairs by the curvature test on rows that stay, start within 4 of
# the log-spread cap or cross into that band mid-run, retire rows mid-run on
# the ulp give-up and run rows to max_iters, at k = 1, 2, 3 and 5.  Rows with
# n <= 16 descend with a dense inverse Hessian: the (0, 7, 3) batch rejects
# pairs by the curvature test before a row's first curved pair, retires a row
# mid-run and runs two rows to max_iters, and the (3, 16, 2) batch retires
# three rows mid-run.  The (3, 17, 2) batch is the same batch one entry
# longer: it takes the two-loop recursion.
DESCENT_PINS = [
    # seed, n, k, rows, amp, max_iters, _objective calls, digest
    (0, 14, 2, 5, 3.0, 600, 151, "816464fdac58873922a6e4e37c03b4956d01313d74a4f808ed0d3debf8905d56"),
    (0, 20, 5, 3, 8.0, 200, 274, "00b264dfbd98559b18d0e6faec9c7ce7dd9bde209c061053f7c9cc9c262867f2"),
    (1, 7, 1, 2, 3.0, 600, 23, "215deea13087fee7a23e945004e0f9e7a2947077f27c20bbcc2fae1eba88d66c"),
    (0, 7, 3, 3, 20.0, 60, 72, "faeb791c72204d9edd1d8a10168eeb84eadda795b936e9b4404afa8d63ad29e5"),
    (3, 16, 2, 4, 3.0, 300, 161, "c777974b0e5e97ccf865d3011a732ff65ef89c2310a6c13a32e9dcf8a036791b"),
    (3, 17, 2, 4, 3.0, 300, 150, "0e2b68e8e70407a11f5d380c869b4ed55a46d5df55ec986015fcc5326db5cc4f"),
    (2, 60, 3, 4, 3.0, 60, 66, "abe1b080ff729d0692dd1eb4f054d5c6e1fd053e054b5938f8728a80e67edf58"),
    (3, 240, 2, 2, 149.0, 25, 26, "2795427dfa9c65dceee011be776eec4fb5e397738eb381cf2315583167f8ba59"),
    (4, 24, 3, 3, 2.0, 300, 333, "ae219cd63ae9b722f9cc4d152b09e0fb9f5400eb2ee95cef8b81ff33531b32e9"),
    (5, 30, 3, 2, 146.5, 60, 61, "aad710a6c8493f77c22081407916e4d80b7d7e9b9a7f0dffa0f4c26e9c8c6ea9"),
]


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

    def test_overflow_raises_capacity_error(self):
        with pytest.raises(CapacityError, match="float64 range"):
            gradient([1e200, 1e-200, 1.0], 2)  # denom * denom overflows

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

    def test_small_n_dips_found(self):
        # Dips below 1 that the minimizer must find: the (11, 3) and (7, 4)
        # minima, reached from every seed, and Shapiro's n = 14 counterexample
        # at k = 2, whose narrow dip a few seeds miss.
        for seed in range(10):
            cfg = MinimizeConfig(restarts=6, seed=seed)
            assert minimize(11, 3, cfg).value <= 0.9974160 + 1e-7, seed
            assert minimize(7, 4, cfg).value <= 0.9916802 + 1e-7, seed
        hits = sum(
            minimize(14, 2, MinimizeConfig(restarts=8, seed=seed)).value < 1.0 - 1e-6
            for seed in range(10)
        )
        assert hits >= 8

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
        v1 = _descend(y0[None, :], 2, 600).value[0]
        v2 = _descend(np.roll(y0, 3)[None, :], 2, 600).value[0]
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_batched_rows_descend_as_alone(self):
        rng = np.random.default_rng(12)
        for n, k in [(5, 2), (9, 3), (14, 2), (30, 4)]:
            stack = rng.uniform(-3, 3, (5, n))
            batch = _descend(stack, k, 600)
            for r in range(stack.shape[0]):
                alone = _descend(stack[r : r + 1], k, 600)
                assert abs(batch.value[r] - alone.value[0]) <= 1e-12, (n, k, r)
                assert np.allclose(
                    np.exp(batch.y[r]), np.exp(alone.y[0]), rtol=1e-12, atol=0.0
                ), (n, k, r)
                assert batch.converged[r] == alone.converged[0]

    @pytest.mark.parametrize(
        "seed, n, k, rows, amp, max_iters, calls, digest", DESCENT_PINS,
        ids=[f"{p[0]}-{p[1]}-{p[2]}" for p in DESCENT_PINS],
    )
    def test_descent_bits_pinned(self, monkeypatch, seed, n, k, rows, amp, max_iters, calls, digest):
        count = [0]
        objective = optimize._objective

        def counted(*args):
            count[0] += 1
            return objective(*args)

        monkeypatch.setattr(optimize, "_objective", counted)
        y0 = np.random.default_rng([seed, n, k]).uniform(-amp, amp, (rows, n))
        if rows >= 4:
            y0[1] = 0.0
        d = _descend(y0, k, max_iters)
        got = b"".join(a.tobytes() for a in (d.value, d.y, d.gradient_norm, d.iterations))
        assert (count[0], hashlib.sha256(got).hexdigest()) == (calls, digest)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [14, 30])
    def test_backtracking_ends_without_a_cap(self, monkeypatch, n, seed):
        # No trial value ever decreases, so every row gives up in its first
        # iteration once the predicted decrease -t g.p falls below one ulp of
        # its value; t halves each pass, which ends the search within about
        # 56 halvings here, with no fixed cap on their number.
        count = [0]
        objective = optimize._objective

        def rising(*args):
            count[0] += 1
            values, grad = objective(*args)
            return (values if count[0] == 1 else [v + 1e6 for v in values]), grad

        monkeypatch.setattr(optimize, "_objective", rising)
        y0 = np.random.default_rng([seed, n]).uniform(-3.0, 3.0, (3, n))
        d = _descend(y0, 2, 600)
        assert d.y.tobytes() == (y0 - y0.mean(axis=1, keepdims=True)).tobytes()
        assert np.all(d.iterations == 0) and d.converged.all()
        assert count[0] < 2 + 64

    def test_uniform_row_stops_at_once(self):
        rng = np.random.default_rng(13)
        stack = np.vstack([rng.uniform(-3, 3, 12), np.zeros(12), rng.uniform(-3, 3, 12)])
        d = _descend(stack, 2, 600)
        assert d.value[1] == 1.0
        assert d.converged[1] and d.iterations[1] == 0
        assert np.all(d.y[1] == 0.0)
        assert np.all(d.iterations[[0, 2]] > 0)
        # Rounding leaves these uniform points' float gradients a few ulps from
        # 0, yet the uniform point is stationary, so its row stops unmoved and
        # counts as converged even with no iterations.
        for n, k in [(7, 6), (18, 13), (22, 21)]:
            y0 = np.zeros((1, n))
            assert 0.0 < np.abs(optimize._objective(y0, k)[1]).max() < 1e-14
            d = _descend(y0, k, 600)
            assert d.converged[0] and d.iterations[0] == 0 and np.all(d.y == 0.0)
            frozen = minimize(n, k, MinimizeConfig(restarts=1, seed=0, max_iters=0))
            assert frozen.converged_starts == 1

    @pytest.mark.parametrize(
        "k, nu, seed", [(1, 2, 0), (2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 3, 9)]
    )
    def test_minimum_does_not_rise_from_k_to_k_plus_1(self, k, nu, seed):
        # zero insertion takes (k nu, k) to ((k+1) nu, k+1) at the same sum, so
        # the minimized value may not rise beyond the optimizer's tolerance
        cfg = MinimizeConfig(restarts=6, seed=seed)
        small = minimize(k * nu, k, cfg).value
        big = minimize((k + 1) * nu, k + 1, cfg).value
        assert big <= small + 1e-3
        assert small >= lower_bound_theorem2(k) - 1e-9
        assert big >= lower_bound_theorem2(k + 1) - 1e-9

    def test_uniform_minimum_before_and_after_zero_insertion(self):
        cfg = MinimizeConfig(restarts=6, seed=9)
        assert minimize(6, 2, cfg).value == pytest.approx(1.0, abs=1e-4)
        assert minimize(9, 3, cfg).value == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("field", ["restarts", "seed", "max_iters"])
    def test_negative_config_field_rejected(self, field):
        # restarts=-1 ran 2 starts, max_iters=-5 ran 0 iterations, seed=-1 leaked numpy's error
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got -1$"):
            MinimizeConfig(**{field: -1})

    def test_bad_shape_rejected(self):
        with pytest.raises(DomainError):
            minimize(2, 3)
        with pytest.raises(DomainError):
            minimize(3, 0)

    def test_json_serialization(self, capsys):
        from cyclic_bounds.cli import main

        res = minimize(4, 2, MinimizeConfig(restarts=2, seed=0))
        assert main(["minimize", "--n", "4", "--k", "2", "--restarts", "2", "--seed", "0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert list(rec) == [
            "n", "k", "value", "certified_floor", "converged", "restarts_used",
            "converged_starts", "gradient_norm", "x_best",
        ]
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
        # with no iterations only the uniform start, whose gradient is zero, stops
        frozen = minimize(n, k, MinimizeConfig(restarts=3, seed=1, max_iters=0))
        assert (frozen.restarts_used, frozen.converged_starts) == (starts, 1)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [60, 96, 120, 240])
    def test_large_n_leaks_no_warning(self, n, k):
        for seed in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = minimize(n, k, MinimizeConfig(restarts=2, seed=seed))
            assert math.isfinite(res.value) and math.isfinite(res.gradient_norm)
            assert res.value >= lower_bound_theorem2(k)


class TestWitnessShapedStart:
    @pytest.mark.parametrize("n, k, digest", START_DIGESTS)
    def test_start_bytes_pinned(self, n, k, digest):
        y = _witness_shaped_log_start(n, k)
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, k", [(7, 2), (3, 3), (5, 1)])
    def test_no_start_for_unfit_shapes(self, n, k):
        assert _witness_shaped_log_start(n, k) is None


GRID_PAIRS = [(n, k) for n in range(1, 6) for k in range(1, n + 1)]


def _chunked_grid_oracle(n, k):
    """Reference: decode each grid index into its n - 1 digits, 2^16 points per chunk."""
    lv = _default_levels(n)
    count = lv.size
    if n == 1:
        return float(k / n)
    total = count ** (n - 1)
    powers = count ** np.arange(n - 1)
    best = math.inf
    for start in range(0, total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), total))
        block = np.empty((idx.size, n))
        block[:, 0] = 1.0
        block[:, 1:] = lv[(idx[:, None] // powers[None, :]) % count]
        denom = np.zeros(block.shape)
        for d in range(1, k + 1):
            denom += np.roll(block, -d, axis=1)
        best = min(best, float(((k / n) * np.sum(block / denom, axis=1)).min()))
    return best


class TestGridOracle:
    @pytest.mark.parametrize("n,k", GRID_PAIRS, ids=[f"n{n}-k{k}" for n, k in GRID_PAIRS])
    def test_bits_match_chunked_reference(self, n, k):
        assert grid_oracle(n, k).hex() == _chunked_grid_oracle(n, k).hex()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_chunked_reference_off_the_uniform_point(self, monkeypatch, seed):
        # On the default grid every minimum is the uniform point's 1.0 or a few
        # ulps below it.  Nine log-uniform levels on [e^-7, e^7], none of them
        # 1.0, move most minima well off 1, so the order in which the oracle
        # adds terms and takes minima decides the bits it returns.
        levels = np.sort(np.exp(np.random.default_rng(seed).uniform(-7.0, 7.0, 9)))
        assert not (levels == 1.0).any()
        monkeypatch.setattr(optimize, "_default_levels", lambda n: levels)
        monkeypatch.setitem(globals(), "_default_levels", lambda n: levels)
        got = [grid_oracle(n, k).hex() for n, k in GRID_PAIRS]
        assert got == [_chunked_grid_oracle(n, k).hex() for n, k in GRID_PAIRS]
        assert sum(float.fromhex(h) > 1.0 + 1e-6 for h in got) >= 9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_peak_memory_is_a_few_slabs(self, k):
        # One 39^3 float64 slab is 475 KB; a 39^4 array would be 18.5 MB.
        grid_oracle(5, k)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            grid_oracle(5, k)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.2e6

    def test_nesbitt_scale(self):
        # the fixed 39-value geometric grid on [1e-3, 1e3] holds the uniform point
        assert grid_oracle(3, 2) == pytest.approx(1.0, abs=1e-9)

    def test_k1_equality_case(self):
        assert grid_oracle(3, 1) == pytest.approx(1.0, abs=1e-9)

    def test_shapiro_n4(self):
        assert grid_oracle(4, 2) == pytest.approx(1.0, abs=1e-9)

    def test_n_cap_enforced(self):
        with pytest.raises(DomainError):
            grid_oracle(6, 2)

    def test_agrees_with_minimize_small_cases(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                grid = grid_oracle(n, k)
                res = minimize(n, k, MinimizeConfig(restarts=6, seed=2))
                assert abs(grid - res.value) <= 1e-3, (n, k)
