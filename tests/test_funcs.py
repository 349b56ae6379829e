"""Tests for the kernel family, its derivatives, and the closed-form floors.

High-precision oracle: mpmath at 50 digits evaluating the defining formulas
directly (independent of the library's expm1/series kernels).
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from cyclic_bounds import (
    INFINITY,
    eval_f,
    eval_f_derivative,
    eval_g,
    eval_g_derivative,
    eval_p,
    lower_bound_theorem2,
)
from cyclic_bounds import funcs

mp.dps = 50


def mp_g(k, x):
    x = mpf(x)
    if x == 0:
        return mpf(1)
    if k is None:
        return x / mp.expm1(x)
    k = mpf(k)
    return -k * mp.expm1(-x / k) / mp.expm1(x)


def mp_g_prime(k, x):
    h = mpf("1e-20")
    return (mp_g(k, mpf(x) + h) - mp_g(k, mpf(x) - h)) / (2 * h)


class TestEvalG:
    def test_family_one_is_exponential(self):
        assert eval_g(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_value_one_at_origin(self):
        for idx in (1, 2, 3.5, 100, INFINITY):
            assert eval_g(idx, 0.0) == 1.0

    def test_limit_kernel_at_ln2(self):
        assert eval_g(INFINITY, math.log(2)) == pytest.approx(math.log(2), rel=1e-15)

    def test_accuracy_1e14_against_mpmath(self):
        # |x| <= 50 at several family indices, including awkward small x
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [
                rng.uniform(-50, 50, 40),
                [1e-300, -1e-300, 1e-17, -1e-17, 1e-9, -1e-9, 0.1, -0.1],
            ]
        )
        for k in (1.0, 2.0, 3.0, 7.5, 40.0, 1e6, None):
            for x in xs:
                want = float(mp_g(k, x))
                got = eval_g(INFINITY if k is None else k, float(x))
                assert got == pytest.approx(want, rel=1e-14), (k, x)
        # x/k subnormal, or 0.0 though x is not: -x/k rounded before expm1 saw it
        for k, x in [(2, 5e-324), (1e6, 3.3e-320), (2, 3.3e-322), (1e300, 1.2345e-20),
                     (1e15, 1e-300), (1e200, 1e-110)]:
            got = eval_g(k, x)
            assert got > 0.0 and got == pytest.approx(float(mp_g(k, x)), rel=1e-14), (k, x)

    def test_factorization_through_limit_kernel(self):
        # exact identity: g_k(x) = g_inf(x) * p(x/k); the k = 4, x = 2 instance
        lhs = eval_g(4, 2.0)
        rhs = eval_g(INFINITY, 2.0) * eval_p(0.5)
        assert lhs == pytest.approx(rhs, rel=1e-13)
        rng = np.random.default_rng(8)
        for _ in range(80):
            k = math.exp(rng.uniform(math.log(0.3), math.log(300)))
            x = rng.uniform(-40, 40)
            lhs = eval_g(k, x)
            rhs = eval_g(INFINITY, x) * eval_p(x / k)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_extreme_arguments_do_not_trap(self):
        assert eval_g(2, 800.0) >= 0.0
        assert eval_g(2, 5000.0) >= 0.0
        assert math.isinf(eval_g(1, -800.0))  # true value e^800 overflows
        assert eval_g(1000.0, -2000.0) == pytest.approx(
            float(mp_g(1000.0, -2000.0)), rel=1e-12
        )

    def test_rejects_bad_family_index(self):
        for bad in (0, -1, math.nan, -math.inf):
            with pytest.raises(ValueError):
                eval_g(bad, 1.0)


class TestEvalGDerivative:
    def test_family_one_at_origin(self):
        assert eval_g_derivative(1, 0.0) == pytest.approx(-1.0, rel=1e-14)

    def test_limit_family_at_origin(self):
        # Taylor expansion x/(e^x - 1) = 1 - x/2 + O(x^2); frozen from the
        # mpmath high-order difference oracle
        assert float(mp_g_prime(None, 0.0)) == pytest.approx(-0.5, abs=1e-20)
        assert eval_g_derivative(INFINITY, 0.0) == pytest.approx(-0.5, rel=1e-15)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(9)
        for k in (1.0, 2.0, 3.0, 11.0, 250.0, None):
            for _ in range(25):
                x = rng.uniform(-20, 20)
                want = float(mp_g_prime(k, x))
                got = eval_g_derivative(INFINITY if k is None else k, x)
                assert got == pytest.approx(want, rel=1e-12), (k, x)

    def test_finite_difference_agreement_1e7(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            k = math.exp(rng.uniform(math.log(1.0), math.log(100)))
            x = rng.uniform(-20, 20)
            h = 1e-6 * max(1.0, abs(x))
            fd = (eval_g(k, x + h) - eval_g(k, x - h)) / (2 * h)
            an = eval_g_derivative(k, x)
            assert an == pytest.approx(fd, rel=1e-7)

    def test_strictly_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = math.exp(rng.uniform(math.log(0.3), math.log(1000)))
            x = rng.uniform(-30, 30)
            assert eval_g_derivative(k, x) < 0.0
            assert eval_g_derivative(INFINITY, x) < 0.0

    def test_series_crossover_continuity(self):
        # derivative path switches between series and direct form near 0.35/0.5
        for u in (0.349, 0.351, -0.349, -0.351, 0.499, 0.501, -0.499, -0.501):
            want = float(mp_g_prime(None, u))
            assert eval_g_derivative(INFINITY, u) == pytest.approx(want, rel=1e-13)


class TestEvalP:
    def test_removable_singularity(self):
        assert eval_p(0.0) == 1.0
        assert eval_p(1e-18) == pytest.approx(1.0, rel=1e-15)

    def test_matches_definition(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            x = rng.uniform(-40, 40)
            if x == 0:
                continue
            want = float((1 - mp.e ** mpf(-x)) / mpf(x))
            assert eval_p(x) == pytest.approx(want, rel=1e-14)

    def test_decreasing_toward_zero(self):
        assert eval_p(10.0) < eval_p(5.0)
        assert eval_p(100.0) < eval_p(10.0)
        assert eval_p(100.0) > 0.0


class TestEvalF:
    def test_value_at_zero_k1(self):
        assert eval_f(1, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_value_at_zero_k2(self):
        assert eval_f(2, 0.0) == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-14)

    def test_value_at_ln3_k2(self):
        assert eval_f(2, math.log(3)) == pytest.approx(2.0, rel=1e-14)

    def test_derivative_at_zero(self):
        assert eval_f_derivative(1, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert eval_f_derivative(2, 0.0) == pytest.approx(
            math.sqrt(2) / 2, rel=1e-14
        )

    def test_derivative_factors_move_oppositely(self):
        # numerator (1+e^t)^{1/k} grows, denominator 1+e^{-t} shrinks
        for k in (2, 5):
            num0, num1 = (1 + math.exp(0)) ** (1 / k), (1 + math.exp(1)) ** (1 / k)
            den0, den1 = 1 + math.exp(0), 1 + math.exp(-1)
            assert num1 > num0
            assert den1 < den0

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            k = int(rng.integers(1, 10))
            t = rng.uniform(-25, 25)
            h = 1e-6 * max(1.0, abs(t))
            fd = (eval_f(k, t + h) - eval_f(k, t - h)) / (2 * h)
            assert eval_f_derivative(k, t) == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("k, t, ulps", [(10**300, 1e300, 1), (2, 30.0, 5)],
                             ids=["k=1e300", "k=2"])
    def test_derivative_where_t_dwarfs_the_exponent(self, k, t, ulps):
        # sp / k + t - sp lost sp / k to the rounding of t: 1.0 in place of e at
        # (10**300, 1e300), about 20 ulps off at (2, 30)
        with mp.workdps(60):
            tt = mpf(t)
            want = mp.exp(mp.log1p(mp.exp(tt)) / k) / (1 + mp.exp(-tt))
            got = eval_f_derivative(k, t)
            assert abs(mpf(got) - want) <= ulps * math.ulp(float(want))

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError):
            eval_f(2.5, 0.0)
        with pytest.raises(ValueError):
            eval_f(0, 0.0)


class TestFloors:
    def test_small_k_values(self):
        assert lower_bound_theorem2(1) == pytest.approx(1.0, rel=1e-15)
        table = {
            2: 0.82843,
            3: 0.77976,
            4: 0.75683,
            5: 0.74349,
            6: 0.73477,
            7: 0.72863,
        }
        for k, want in table.items():
            assert lower_bound_theorem2(k) == pytest.approx(want, abs=5e-6)

    def test_above_ln2_up_to_1e6(self):
        ks = np.arange(1, 1_000_001, dtype=float)
        vals = ks * np.expm1(math.log(2.0) / ks)
        assert np.all(vals > math.log(2.0))

    def test_never_below_ln2_for_any_power_of_ten(self):
        # k = 10**20, 10**35, 10**38, 10**106, ... once rounded one ulp below ln 2
        low = [e for e in range(1, 309) if lower_bound_theorem2(10**e) < math.log(2.0)]
        assert low == []

    def test_decreasing_in_k(self):
        vals = [lower_bound_theorem2(k) for k in range(1, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestIndexPastFloatRange:
    """Integer k that float() refuses; the values still match the defining formulas."""

    KS = [2**1024 - 2**970, 10**400, 10**5000]
    TS = [-745.0, -700.0, -30.0, -1.0, 0.0, 1e-17, 1.0, 30.0, 700.0, 1e5, 1e300, 1.7e308]

    @pytest.mark.parametrize("k", KS, ids=["2^1024", "1e400", "1e5000"])
    def test_block_bound_and_derivative_within_an_ulp(self, k):
        with mp.workdps(60):
            kk = mpf(k)
            for t in self.TS:
                sp = mp.log1p(mp.exp(mpf(t)))
                f = kk * mp.expm1(sp / kk)
                df = mp.exp(sp / kk) / (1 + mp.exp(-mpf(t)))
                for got, want in ((eval_f(k, t), f), (eval_f_derivative(k, t), df)):
                    if want > mpf(np.finfo(float).max):
                        assert got == math.inf
                    else:
                        assert abs(mpf(got) - want) <= math.ulp(float(want)), (k, t)

    @pytest.mark.parametrize("k", KS, ids=["2^1024", "1e400", "1e5000"])
    def test_infinite_t_and_the_floor(self, k):
        assert eval_f(k, math.inf) == eval_f_derivative(k, math.inf) == math.inf
        assert eval_f(k, -math.inf) == eval_f_derivative(k, -math.inf) == 0.0
        assert lower_bound_theorem2(k) == math.log(2.0)


class TestLogSpaceBranches:
    """Arguments beyond +-700, where the kernels switch to log-space arithmetic."""

    @staticmethod
    def close(got, want):
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("x", [701.0, 704.5, 708.0])
    def test_limit_kernel_and_its_derivative(self, x):
        with mp.workdps(40):
            e = mp.exp(mpf(x))
            self.close(eval_g(INFINITY, x), x / (e - 1))
            self.close(funcs._g_inf_prime(x), (e - 1 - x * e) / (e - 1) ** 2)

    @pytest.mark.parametrize("x", [-701.0, -704.5, -708.0])
    def test_p_and_its_derivative(self, x):
        with mp.workdps(40):
            e = mp.exp(-mpf(x))
            self.close(eval_p(x), (1 - e) / x)
            self.close(funcs._p_prime(x), ((1 + x) * e - 1) / mpf(x) ** 2)

    def test_block_bound_overflows_to_inf(self):
        # true values e^800 and e^750 lie beyond float64 range
        assert eval_f(1, 800.0) == math.inf
        assert eval_f(2, 1500.0) == math.inf
        assert eval_f_derivative(1, 800.0) == math.inf
        assert eval_f_derivative(2, math.inf) == math.inf

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    @pytest.mark.parametrize("k", [3, INFINITY])
    def test_limits_at_infinite_x(self, k, x):
        # as x -> -inf, g_k grows like k e^{-x/k} (finite k) or -x (k = inf)
        right = x > 0.0
        assert eval_g(k, x) == (0.0 if right else math.inf)
        assert eval_g_derivative(k, x) == (0.0 if right else -1.0 if k == INFINITY else -math.inf)
        assert eval_p(x) == (0.0 if right else math.inf)


class TestFamilyMonotonicity:
    def test_growth_in_k_of_scaled_kernel(self):
        # k (1 - e^{-x/k}), via eval_g(k,x) * (e^x - 1), increases in k
        rng = np.random.default_rng(14)
        for _ in range(100):
            k1, k2 = sorted(math.exp(v) for v in rng.uniform(-1.0, 6.0, 2))
            if k2 <= k1:
                continue
            x = rng.uniform(-30, 30)
            if x == 0.0:
                continue
            e = math.expm1(x)
            assert eval_g(k1, x) * e < eval_g(k2, x) * e

    def test_ordering_in_k_both_signs(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            k1, k2 = sorted(1.0 + math.exp(v) for v in rng.uniform(-6.0, 4.0, 2))
            if k2 <= k1:
                continue
            x = rng.uniform(0.01, 30)
            assert eval_g(k2, x) > eval_g(k1, x) > math.exp(-x)
            x = -x
            assert eval_g(k2, x) < eval_g(k1, x) < math.exp(-x)

    def test_limit_approach_relative(self):
        rng = np.random.default_rng(16)
        for x in rng.uniform(-10, 10, 200):
            lim = eval_g(INFINITY, x)
            assert abs(eval_g(1e6, x) - lim) <= 1e-5 * abs(lim)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = math.exp(rng.uniform(math.log(0.5), math.log(200)))
            x, z = rng.uniform(-30, 30, 2)
            mid = 0.5 * (x + z)
            gx, gz = eval_g(k, x), eval_g(k, z)
            slack = 1e-12 + 1e-13 * (abs(gx) + abs(gz))
            assert eval_g(k, mid) <= 0.5 * (gx + gz) + slack
            px, pz = eval_p(x), eval_p(z)
            slack = 1e-12 + 1e-13 * (abs(px) + abs(pz))
            assert eval_p(mid) <= 0.5 * (px + pz) + slack
