"""Tests for witness planning, construction, and certification.

Independent oracle: direct per-term summation of the cyclic sum with
math.fsum (never the vectorized library path), plus hand evaluation of the
closed forms from the spec fields.
"""

import dataclasses
import hashlib
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from cyclic_bounds import (
    CapacityError,
    InvalidSpecError,
    build_witness,
    diananda_sum,
    eval_g,
    plan_witness,
    solve_tangent,
    witness_value_and_bound,
)
from cyclic_bounds.tangent import TangentSolution
from cyclic_bounds.witness import (
    WitnessReport,
    WitnessSpec,
    _convergents,
    _exact_partials,
    _kernel_constants,
    _plan,
    _wrap_partials,
)

# the bounded caches behind planning and evaluation
MEMOS = (_plan, _kernel_constants, _wrap_partials)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def oracle_cyclic_sum(xs, k):
    n = len(xs)
    total = []
    for i in range(n):
        t = math.fsum(xs[(i + 1 + d) % n] for d in range(k))
        total.append(xs[i] / t)
    return math.fsum(total)


class TestConvergents:
    def test_known_expansion(self):
        # 0.4375 = 7/16 = [0; 2, 3, 2]; convergents 0/1, 1/2, 3/7, 7/16
        got = list(_convergents(0.4375))
        assert got[:4] == [(0, 1), (1, 2), (3, 7), (7, 16)]

    def test_terminates_exactly(self):
        convs = list(_convergents(0.3926990816987241))
        p, q = convs[-1]
        assert Fraction(p, q) == Fraction(0.3926990816987241)


class TestPlanWitness:
    def test_k2_spec_satisfies_certificate(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.01, sol)
        # evaluate the three-term analytic bound directly from the spec fields
        mu = spec.m / spec.n
        bound = (
            (1 - mu) * math.exp(-spec.b_star)
            + mu * eval_g(2, spec.a_star)
            + spec.delta / spec.n
        )
        assert bound < sol.gamma + 0.01

    def test_divisibility_and_weight(self):
        sol = solve_tangent(3)
        spec = plan_witness(3, 0.01, sol)
        assert spec.n % 3 == 0
        assert spec.m % 3 == 0
        assert 0 < spec.m < spec.n
        assert spec.m_prime == spec.n - spec.m
        assert spec.mu_star == Fraction(spec.m, spec.n)
        lin = float(spec.mu_star) * spec.a_star + (1 - float(spec.mu_star)) * spec.b_star
        assert abs(lin) <= 1e-12

    def test_smaller_eps_needs_larger_n(self):
        sol = solve_tangent(3)
        n_big_eps = plan_witness(3, 0.01, sol).n
        n_small_eps = plan_witness(3, 0.001, sol).n
        assert n_small_eps > n_big_eps
        # delta fixed, n scales like 1/eps
        assert n_small_eps == pytest.approx(10 * n_big_eps, rel=0.25)

    def test_mid_certificate_holds_for_each_plan(self):
        cases = [(k, eps) for k in (2, 3, 4) for eps in (0.1, 0.01)]
        cases += [(2, 0.001), (3, 0.001), (4, 0.001)]
        for k, eps in cases:
            sol = solve_tangent(k)
            spec = plan_witness(k, eps, sol)
            mu = spec.m / spec.n
            mid = mu * eval_g(k, spec.a_star) + (1 - mu) * math.exp(-spec.b_star)
            assert mid < sol.gamma + eps / 2

    def test_float_range_guard(self):
        # the k = 4, eps = 1e-3 witness plans; only its entries, near
        # exp(1061), are beyond float64 range
        spec = plan_witness(4, 1e-3, solve_tangent(4))
        with pytest.raises(CapacityError, match=r"exp\(1061\.0\), beyond float64 range"):
            build_witness(spec)

    def test_delta_and_slack_sizing(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.01, sol)
        want_delta = 4 * math.exp(-spec.a_star / 2) - 2 * eval_g(2, spec.a_star)
        assert spec.delta == pytest.approx(want_delta, rel=1e-14)
        assert spec.delta / spec.n < 0.01 / 2

    def test_built_spec_beyond_float64_range_is_refused(self):
        # a valid spec whose peak entry is exp(1807.9): it cannot be built,
        # but its closed-form value still certifies
        spec = WitnessSpec(2, 42014, 18006, solve_tangent(2).a, 1e-4)
        with pytest.raises(CapacityError, match=r"exp\(1807\.9\), beyond float64 range") as err:
            build_witness(spec)
        assert err.value.required_n == 42014
        assert witness_value_and_bound(spec).certified

    def test_every_certify_grid_pair_plans_and_certifies(self):
        # the benchmark's certify grid; 13 of these 20 cannot be built
        for k in (2, 3, 4, 5, 6):
            for eps in (1e-2, 1e-3, 1e-4, 1e-5):
                spec = plan_witness(k, eps, solve_tangent(k))
                assert witness_value_and_bound(spec).certified, (k, eps)

    def test_capacity_error_reports_needed_n(self):
        sol = solve_tangent(2)
        with pytest.raises(CapacityError) as err:
            plan_witness(2, 1e-9, sol)
        assert err.value.required_n is not None
        assert err.value.required_n > 10_000_000

    @pytest.mark.parametrize("eps", [1e-320, 5e-324])
    def test_subnormal_eps_is_capacity_error(self, eps):
        # 2 delta / eps overflows to inf; the refusal comes before int() sees it
        with pytest.raises(CapacityError, match="beyond float range"):
            plan_witness(2, eps, solve_tangent(2))

    def test_n_beyond_float_range_is_capacity_error(self):
        # eps just above the smallest normal float: 2 delta / eps stays finite,
        # but n = k q s does not fit a float, which delta / n needs
        with pytest.raises(CapacityError, match="needs n beyond float range") as err:
            plan_witness(2, 2.3e-308, solve_tangent(2), n_cap=10**400)
        assert err.value.required_n > 10**308

    def test_n_cap_refusal_reports_needed_n(self):
        with pytest.raises(CapacityError) as err:
            plan_witness(2, 0.01, solve_tangent(2), n_cap=100)
        assert err.value.required_n == 424

    def test_mismatched_solution_rejected(self):
        sol = solve_tangent(3)
        with pytest.raises(InvalidSpecError):
            plan_witness(2, 0.01, sol)

    @pytest.mark.parametrize("k", [2**53 + 1, 10**17 + 1, 10**30])
    def test_solution_for_the_float_of_k_is_accepted(self, k):
        # solve_tangent memoizes k under float(k); the plan then reaches its
        # own refusal, an n far beyond the cap
        with pytest.raises(CapacityError, match=f"witness for k={k}, eps=0.1 needs n = "):
            plan_witness(k, 0.1, solve_tangent(k))

    @pytest.mark.parametrize("idx", [3, 2**60, math.inf])
    def test_k_beyond_float_range_rejected(self, idx):
        with pytest.raises(InvalidSpecError):
            plan_witness(2**1024, 0.1, solve_tangent(idx))

    def test_k1_rejected(self):
        sol = solve_tangent(2)
        with pytest.raises(InvalidSpecError):
            plan_witness(1, 0.1, sol)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf, 0.0, -0.1])
    def test_eps_must_be_positive_and_finite(self, eps):
        # an infinite slack would "certify" any vector against gamma + inf
        with pytest.raises(InvalidSpecError):
            plan_witness(2, eps, solve_tangent(2))

    def test_spec_with_infinite_eps_rejected(self):
        spec = plan_witness(2, 0.05, solve_tangent(2))
        with pytest.raises(InvalidSpecError):
            dataclasses.replace(spec, eps=math.inf)

    def test_spec_stores_only_its_inputs(self):
        init = [f.name for f in dataclasses.fields(WitnessSpec) if f.init]
        assert init == ["k", "n", "m", "a_star", "eps"]
        spec = plan_witness(3, 0.003, solve_tangent(3))
        assert WitnessSpec(spec.k, spec.n, spec.m, spec.a_star, spec.eps) == spec

    # (k, eps, n, m, a_star, m_prime, mu_star, b_star, delta, analytic_bound,
    # gamma_plus_eps), floats as float.hex, captured before the derived
    # fields moved into the constructor
    DERIVED = [
        (2, 0.01, 424, 212, "-0x1.9b42d50469534p-3", 212, "1/2", "0x1.9b42d50469534p-3",
         "0x1.0cd753c791175p+1", "0x1.fd32817018e08p-1", "0x1.ff8e71989120fp-1"),
        (3, 0.003, 4230, 1692, "-0x1.529e75c41d964p-2", 2538, "2/5", "0x1.c37df25ad21dbp-3",
         "0x1.94bbba9ef1f5dp+2", "0x1.f578061355032p-1", "0x1.f63c2b19d1849p-1"),
        (5, 0.01, 4185, 1395, "-0x1.f2899c096bb8bp-2", 2790, "1/3", "0x1.f2899c096bb8bp-3",
         "0x1.4ec6b7d9e2b02p+4", "0x1.f08e9c5906fe5p-1", "0x1.f2c5f5f9c58a2p-1"),
    ]

    @pytest.mark.parametrize("row", DERIVED, ids=lambda row: f"k{row[0]}-eps{row[1]}")
    def test_derived_fields_pinned(self, row):
        k, eps, n, m, a_star, m_prime, mu_star, b_star, delta, bound, target = row
        spec = WitnessSpec(k, n, m, float.fromhex(a_star), eps)
        assert spec == plan_witness(k, eps, solve_tangent(k))
        assert (spec.m_prime, spec.mu_star) == (m_prime, Fraction(mu_star))
        got = (spec.b_star, spec.delta, spec.analytic_bound, spec.gamma_plus_eps)
        assert [v.hex() for v in got] == [b_star, delta, bound, target]

    # (k, eps, n_cap, n, m, mu_star, a_star, b_star, delta, analytic_bound,
    # gamma_plus_eps, value), floats as float.hex, value from
    # witness_value_and_bound: the benchmark's certify grid, then k = 7, 8, 12
    # at tiny eps; captured before planning was memoized
    GRID_PINS = [
        (2, 0.01, 10**7, 424, 212, "1/2",
         "-0x1.9b42d50469534p-3", "0x1.9b42d50469534p-3", "0x1.0cd753c791175p+1",
         "0x1.fd32817018e08p-1", "0x1.ff8e71989120fp-1", "0x1.fbedde0619668p-1"),
        (2, 0.001, 10**7, 4204, 2102, "1/2",
         "-0x1.9b42d50469534p-3", "0x1.9b42d50469534p-3", "0x1.0cd753c791175p+1",
         "0x1.faeab66d47daap-1", "0x1.faf2cbb53d292p-1", "0x1.fac9f884b0e38p-1"),
        (2, 0.0001, 10**7, 42014, 18006, "3/7",
         "-0x1.9b42d50469534p-3", "0x1.34721fc34efe7p-3", "0x1.0cd753c791175p+1",
         "0x1.fa76f3a74deabp-1", "0x1.fa7cd4b81b29fp-1", "0x1.fa73acf1a8075p-1"),
        (2, 1e-05, 10**7, 420096, 183792, "7/16",
         "-0x1.9b42d50469534p-3", "0x1.3fdea5ae1907ep-3", "0x1.0cd753c791175p+1",
         "0x1.fa7068f9a44c3p-1", "0x1.fa7108d1fe2a0p-1", "0x1.fa7015186d9c2p-1"),
        (3, 0.01, 10**7, 1266, 633, "1/2",
         "-0x1.529e75c41d964p-2", "0x1.529e75c41d964p-2", "0x1.94bbba9ef1f5dp+2",
         "0x1.f85423b361f6ap-1", "0x1.f9d1ac1ff661cp-1", "0x1.f6d60bade627bp-1"),
        (3, 0.001, 10**7, 12660, 5064, "2/5",
         "-0x1.529e75c41d964p-2", "0x1.c37df25ad21dbp-3", "0x1.94bbba9ef1f5dp+2",
         "0x1.f4f58a8b726f2p-1", "0x1.f536063ca269fp-1", "0x1.f4cf54f14c742p-1"),
        (3, 0.0001, 10**7, 126480, 50592, "2/5",
         "-0x1.529e75c41d964p-2", "0x1.c37df25ad21dbp-3", "0x1.94bbba9ef1f5dp+2",
         "0x1.f4ba9f0d8b04cp-1", "0x1.f4c00f3f806acp-1", "0x1.f4b6cbf6f2d09p-1"),
        (3, 1e-05, 10**7, 1264815, 515295, "11/27",
         "-0x1.529e75c41d964p-2", "0x1.d199e1eda8aeap-3", "0x1.94bbba9ef1f5dp+2",
         "0x1.f4b3a270c794bp-1", "0x1.f4b44359636adp-1", "0x1.f4b340886adb7p-1"),
        (4, 0.01, 10**7, 2528, 1264, "1/2",
         "-0x1.aecd2086e2f0cp-2", "0x1.aecd2086e2f0cp-2", "0x1.936ef7d70b10ap+3",
         "0x1.f5570720d5c4cp-1", "0x1.f5bad72a6b3f5p-1", "0x1.f3b5134ab808dp-1"),
        (4, 0.001, 10**7, 25220, 10088, "2/5",
         "-0x1.aecd2086e2f0cp-2", "0x1.1f336b04974b3p-2", "0x1.936ef7d70b10ap+3",
         "0x1.f0e270a90e63bp-1", "0x1.f11f314717478p-1", "0x1.f0b88b9f2a592p-1"),
        (4, 0.0001, 10**7, 252160, 100864, "2/5",
         "-0x1.aecd2086e2f0cp-2", "0x1.1f336b04974b3p-2", "0x1.936ef7d70b10ap+3",
         "0x1.f0a778ab8452dp-1", "0x1.f0a93a49f5485p-1", "0x1.f0a347fef96f4p-1"),
        (4, 1e-05, 10**7, 2521512, 980588, "7/18",
         "-0x1.aecd2086e2f0cp-2", "0x1.122571ca33536p-2", "0x1.936ef7d70b10ap+3",
         "0x1.f09cc6aecd388p-1", "0x1.f09d6e63d8486p-1", "0x1.f09c5b6963977p-1"),
        (5, 0.01, 10**7, 4185, 1395, "1/3",
         "-0x1.f2899c096bb8bp-2", "0x1.f2899c096bb8bp-3", "0x1.4ec6b7d9e2b02p+4",
         "0x1.f08e9c5906fe5p-1", "0x1.f2c5f5f9c58a2p-1", "0x1.eed1150473504p-1"),
        (5, 0.001, 10**7, 41850, 16740, "2/5",
         "-0x1.f2899c096bb8bp-2", "0x1.4c5bbd5b9d25dp-2", "0x1.4ec6b7d9e2b02p+4",
         "0x1.ee021a8ceea7cp-1", "0x1.ee2a501671925p-1", "0x1.edd58d04797ccp-1"),
        (5, 0.0001, 10**7, 418480, 156930, "3/8",
         "-0x1.f2899c096bb8bp-2", "0x1.2b1f5d9f40a20p-2", "0x1.4ec6b7d9e2b02p+4",
         "0x1.edae0ce66ab01p-1", "0x1.edb459194f932p-1", "0x1.eda9984ad10c2p-1"),
        (5, 1e-05, 10**7, 4184720, 1569270, "3/8",
         "-0x1.f2899c096bb8bp-2", "0x1.2b1f5d9f40a20p-2", "0x1.4ec6b7d9e2b02p+4",
         "0x1.eda826fd23408p-1", "0x1.eda88d3332933p-1", "0x1.eda7b4ed04fc5p-1"),
        (6, 0.01, 10**7, 6264, 2088, "1/3",
         "-0x1.134021a663796p-1", "0x1.134021a663796p-2", "0x1.f4281abd32a31p+4",
         "0x1.ee40f46200960p-1", "0x1.f08e8f48e2cb3p-1", "0x1.ec6ffedb74dc0p-1"),
        (6, 0.001, 10**7, 62544, 23454, "3/8",
         "-0x1.134021a663796p-1", "0x1.4a4cf52e10f81p-2", "0x1.f4281abd32a31p+4",
         "0x1.ebb36508eab9ap-1", "0x1.ebf2e9658ed36p-1", "0x1.eb84d3cfec72dp-1"),
        (6, 0.0001, 10**7, 625200, 234450, "3/8",
         "-0x1.134021a663796p-1", "0x1.4a4cf52e10f81p-2", "0x1.f4281abd32a31p+4",
         "0x1.eb78701446708p-1", "0x1.eb7cf2686cd43p-1", "0x1.eb73c77fd2ab8p-1"),
        (6, 1e-05, 10**7, 6251988, 2303364, "7/19",
         "-0x1.134021a663796p-1", "0x1.412027421eb84p-2", "0x1.f4281abd32a31p+4",
         "0x1.eb7082541bc37p-1", "0x1.eb7126824fd44p-1", "0x1.eb700b12012f6p-1"),
        (7, 1e-07, 10**18, 872184880, 316167019, "29/80",
         "-0x1.27d72f563276ap-1", "0x1.507235d57aa50p-2", "0x1.5cdfb79f3327fp+5",
         "0x1.e9b83a7ce19d4p-1", "0x1.e9b83c12ba59ap-1", "0x1.e9b8394102232p-1"),
        (7, 1e-09, 10**18, 87218474931, 31623072782, "62/171",
         "-0x1.27d72f563276ap-1", "0x1.508d754386e9ap-2", "0x1.5cdfb79f3327fp+5",
         "0x1.e9b838bc17540p-1", "0x1.e9b838c0530c4p-1", "0x1.e9b838b8eeb18p-1"),
        (8, 1e-07, 10**18, 1159357464, 414604656, "54/151",
         "-0x1.389366b5d2cc0p-1", "0x1.5c05c42c17915p-2", "0x1.cfbe16c563fc6p+5",
         "0x1.e85a250567a09p-1", "0x1.e85a26b0c3bf5p-1", "0x1.e85a23c0e3ae2p-1"),
        (8, 1e-09, 10**18, 115935634056, 41460425424, "54/151",
         "-0x1.389366b5d2cc0p-1", "0x1.5c05c42c17915p-2", "0x1.cfbe16c563fc6p+5",
         "0x1.e85a235c34154p-1", "0x1.e85a235e5c71fp-1", "0x1.e85a2358f552bp-1"),
        (12, 1e-07, 10**18, 2709079428, 934165320, "10/29",
         "-0x1.64d2e8d8d7e28p-1", "0x1.779aa4429267bp-2", "0x1.0ee86cd234821p+7",
         "0x1.e4de6f558cfa4p-1", "0x1.e4de6f8916704p-1", "0x1.e4de6df9bb5cap-1"),
        (12, 1e-09, 10**18, 270907910820, 93489788832, "88/255",
         "-0x1.64d2e8d8d7e28p-1", "0x1.780dcc01a7bc2p-2", "0x1.0ee86cd234821p+7",
         "0x1.e4de6c32642c2p-1", "0x1.e4de6c36af22ep-1", "0x1.e4de6c2ee9c19p-1"),
    ]

    @staticmethod
    def pin(k, eps, n_cap, sol=None):
        spec = plan_witness(k, eps, sol or solve_tangent(k), n_cap=n_cap)
        report = witness_value_and_bound(spec)
        assert spec.eps.hex() == eps.hex()
        assert (report.analytic_bound, report.gamma_plus_eps) == (
            spec.analytic_bound, spec.gamma_plus_eps)
        floats = (spec.a_star, spec.b_star, spec.delta, spec.analytic_bound,
                  spec.gamma_plus_eps, report.value)
        return (k, eps, n_cap, spec.n, spec.m, str(spec.mu_star), *(v.hex() for v in floats))

    def test_grid_bits_hold_in_either_eps_order(self):
        clear_memos()
        rows = sorted(self.GRID_PINS, key=lambda row: row[1], reverse=True)
        for row in rows + rows[::-1]:
            assert self.pin(*row[:3]) == row

    # the plan at eps = 1e-3 for a hand-built k = 3 solution one ulp right of
    # the tangency abscissa, in the layout of GRID_PINS; captured before
    # planning was memoized
    OFF_PIN = (3, 0.001, 10**7, 12660, 5064, "2/5",
               "-0x1.529e75c41d963p-2", "0x1.c37df25ad21d9p-3", "0x1.94bbba9ef1f5ep+2",
               "0x1.f4f58a8b726f2p-1", "0x1.f536063ca269fp-1", "0x1.f4cf54f14c740p-1")

    def test_memo_is_keyed_by_the_solution_not_k(self):
        canon = solve_tangent(3)
        off = TangentSolution(idx=3.0, a=math.nextafter(canon.a, 0.0))
        pins = {canon: next(row for row in self.GRID_PINS if row[:2] == (3, 0.001)),
                off: self.OFF_PIN}
        for order in ((off, canon), (canon, off)):
            clear_memos()
            for sol in order:
                # the solution one ulp off gets its own entry, keyed by its a* and mu_k
                misses = _plan.cache_info().misses
                assert self.pin(3, 0.001, 10**7, sol) == pins[sol]
                assert _plan.cache_info().misses == misses + 1
                assert _plan(3, 0.001, sol.a, sol.mu, 10**7) == plan_witness(3, 0.001, sol)
            assert _plan.cache_info().currsize == 2

    def test_repeated_plan_is_the_identical_spec(self):
        clear_memos()
        sol = solve_tangent(5)
        first = plan_witness(5, 1e-4, sol)
        assert all(plan_witness(5, 1e-4, sol) is first for _ in range(3))
        info = _plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    def test_refusal_at_n_cap_raises_again_and_caches_nothing(self):
        clear_memos()
        sol = solve_tangent(3)
        for _ in range(2):
            with pytest.raises(CapacityError, match="cap 1000000") as err:
                plan_witness(3, 1e-05, sol, n_cap=10**6)
            assert err.value.required_n == 1264815  # the n GRID_PINS plans under 10**7
        info = _plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_warm_certify_pass_only_hits_the_plan_memo(self):
        # a work count, free of timing noise: the chains a warm certify pass repeats
        rows = self.GRID_PINS[:20]  # the benchmark's certify grid

        def chains():
            for k, eps, n_cap, *_ in rows:
                witness_value_and_bound(plan_witness(k, eps, solve_tangent(k), n_cap=n_cap))

        clear_memos()
        chains()
        cold = [memo.cache_info() for memo in MEMOS]
        chains()
        warm = [memo.cache_info() for memo in MEMOS]
        assert [w.misses - c.misses for w, c in zip(warm, cold)] == [0, 0, 0]
        assert warm[0].hits - cold[0].hits == 20

    def test_concurrent_chains_keep_their_bits(self):
        rows = self.GRID_PINS[:20]  # the benchmark's certify grid
        orders = (rows, rows[::-1])
        got = [[], []]
        start = threading.Barrier(2, timeout=60)

        def run(i):
            start.wait()
            got[i].extend(self.pin(*row[:3]) for row in orders[i])

        clear_memos()
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the scans too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [list(order) for order in orders]


class TestBuildWitness:
    def test_sparse_region_structure(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.05, sol)
        x = build_witness(spec)
        arr = x.entries
        for i in range(1, spec.m_prime):  # 1-based indices below m'
            if i % spec.k == 0:
                assert arr[i - 1] > 0.0
            else:
                assert arr[i - 1] == 0.0

    def test_sparse_entries_grow_geometrically(self):
        sol = solve_tangent(3)
        spec = plan_witness(3, 0.05, sol)
        arr = build_witness(spec).entries
        ks = spec.k
        nonzero_sparse = [arr[j * ks - 1] for j in range(1, spec.m_prime // ks)]
        ratios = np.diff(np.log(nonzero_sparse))
        assert np.allclose(ratios, spec.b_star, rtol=1e-12)

    def test_dense_region_decays_geometrically(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.05, sol)
        arr = build_witness(spec).entries
        dense = arr[spec.m_prime - 1 : spec.n]
        ratios = np.diff(np.log(dense))
        assert np.allclose(ratios, spec.a_star / spec.k, rtol=1e-10)
        assert np.all(np.diff(dense) < 0)  # decreasing, ratio e^{a*/k} < 1

    def test_boundary_formulas_agree(self):
        for k in (2, 3, 4):
            sol = solve_tangent(k)
            spec = plan_witness(k, 0.02, sol)
            sparse_form = math.exp((spec.m_prime / k) * spec.b_star)
            dense_form = math.exp(-spec.a_star * spec.m / k)
            assert abs(sparse_form - dense_form) <= 1e-10 * dense_form
            arr = build_witness(spec).entries
            assert arr[spec.m_prime - 1] == pytest.approx(dense_form, rel=1e-12)

    # sha256 of build_witness(plan_witness(k, eps)).entries.tobytes(); the
    # witness stdout and --out bytes depend on every bit of the entries
    ENTRY_DIGESTS = [
        (2, 0.1, "93c5f185b5ebe799d7fc44ac4af8ac38352f847bedb52b72d9763284dbfebe72"),
        (2, 0.03, "491dfbffc67f542e00d85bfe332e47ce8be81078d3d0739ec55f266fc46a4400"),
        (2, 0.01, "bbda58060e90c899744af7458331779b8d310a072a170666c00a2f5a42a5f709"),
        (2, 0.001, "19b5f284d5a376595320138738a937b7bb1ffd5ac95aa72b8e9cb710690e5357"),
        (3, 0.1, "a2ba6a4d87a1a8feb2912117c46835855442dc7c9c5184917f3187e8cfd982d5"),
        (3, 0.01, "85bd7b598dab13f3505a8b9b90712929ace0da8fbd48eda1dad09ff843c0c264"),
        (3, 0.001, "7bde1722ec91e1b3394be5504fc68c908d1d9ad5aff8ec3dd940e6e76bb6afe5"),
        (4, 0.1, "a2fe703eed59e496663cc58a41a24a0d90b2299966c938298a3d9a6b5e5e5364"),
        (4, 0.01, "7ead78bda904018871202645c668599f124fcb953b03917a3a8c7f94b710e8a3"),
        (5, 0.03, "3561a5de8f65fdcaea3b012de6c19a86bf0fe6e1816e316ed7bdfed28b398594"),
        (5, 0.01, "9bac4396cc745113d9be1a327ecc9143606418cd556e59e1f8fbde3f3ebf4f7b"),
        (6, 0.1, "58ec4b05b63a82b902b3f1a6dbf92a5d4c297774af8105fc6db1f59f0f32e397"),
        (6, 0.01, "6afede5aa2d720c7d459ebc8a3c519b43ed2a3330dd78e2461152eeb3a304032"),
    ]

    @pytest.mark.parametrize("k, eps, digest", ENTRY_DIGESTS)
    def test_entry_bytes_pinned(self, k, eps, digest):
        x = build_witness(plan_witness(k, eps, solve_tangent(k))).entries
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    def test_window_positivity(self):
        for k in (2, 3, 5):
            sol = solve_tangent(k)
            spec = plan_witness(k, 0.05, sol)
            diananda_sum(build_witness(spec), k)  # raises DomainError on a zero window

    def test_invalid_spec_rejected(self):
        good = plan_witness(2, 0.05, solve_tangent(2))
        with pytest.raises(InvalidSpecError, match="divisible"):
            WitnessSpec(good.k, good.n, good.m + 1, good.a_star, good.eps)

    def test_a_star_stored_as_float(self):
        # a 0-d array cannot key a cache; as a float it plans and validates as before
        sol = solve_tangent(3)
        good = plan_witness(3, 1e-3, sol)
        for a in (np.float64(sol.a), np.array(sol.a)):
            spec = WitnessSpec(3, good.n, good.m, a, 1e-3)
            assert spec == good and type(spec.a_star) is float
        assert plan_witness(3, 1e-3, TangentSolution(3.0, np.array(sol.a))) == good
        for bad in (None, "a", [sol.a]):
            with pytest.raises(InvalidSpecError, match="a_star must be a real number"):
                WitnessSpec(3, good.n, good.m, bad, 1e-3)

    def test_flipped_abscissas_rejected(self):
        good = plan_witness(2, 0.05, solve_tangent(2))
        with pytest.raises(InvalidSpecError, match="a_star < 0 < b_star"):
            WitnessSpec(good.k, good.n, good.m, -good.a_star, good.eps)


class TestPerTermIdentities:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_closed_form_terms(self, k, eps):
        sol = solve_tangent(k)
        spec = plan_witness(k, eps, sol)
        arr = build_witness(spec).entries
        n = spec.n

        def term(i):  # 1-based
            t = math.fsum(arr[(i + d) % n] for d in range(k))
            return arr[i - 1] / t

        # sparse nonzero indices i = jk < m' give exactly e^{-b*}
        e_b = math.exp(-spec.b_star)
        for j in range(1, spec.m_prime // k):
            assert abs(term(j * k) - e_b) <= 1e-12 * e_b
        # dense indices m' <= i <= n - k - 1 give exactly g_k(a*) / k
        g_term = eval_g(k, spec.a_star) / k
        dense = [term(i) for i in range(spec.m_prime, n - k)]
        assert len(dense) == spec.m - k
        for value in dense:
            assert abs(value - g_term) <= 1e-12 * g_term
        # each of the k tail terms stays at or below the rough ceiling
        # e^{-a*/k} (the very last one attains it exactly since its window
        # holds a single nonzero entry), and their sum stays strictly below
        # k times the ceiling
        ceil = math.exp(-spec.a_star / k)
        tail = [term(i) for i in range(n - k, n)]
        assert all(t <= ceil * (1 + 1e-14) for t in tail)
        assert math.fsum(tail) < k * ceil

    def test_sparse_term_count(self):
        sol = solve_tangent(3)
        spec = plan_witness(3, 0.02, sol)
        arr = build_witness(spec).entries
        sparse_nonzero = np.count_nonzero(arr[: spec.m_prime - 1])
        assert sparse_nonzero == spec.m_prime // 3 - 1


class TestValueAndBound:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_certification_chain(self, k, eps):
        sol = solve_tangent(k)
        spec = plan_witness(k, eps, sol)
        report = witness_value_and_bound(spec)
        assert report.value <= report.analytic_bound
        assert report.analytic_bound < report.gamma_plus_eps
        assert report.gamma_plus_eps == pytest.approx(sol.gamma + eps, rel=1e-14)

    def test_certified_is_the_whole_chain(self):
        assert witness_value_and_bound(plan_witness(2, 0.05, solve_tangent(2))).certified
        assert WitnessReport(0.9, 0.9, 0.95).certified
        assert not WitnessReport(0.91, 0.9, 0.95).certified  # value above its bound
        assert not WitnessReport(0.9, 0.95, 0.95).certified  # bound not below target
        assert not WitnessReport(math.nan, 0.9, 0.95).certified

    def test_value_matches_direct_summation_oracle(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.01, sol)
        report = witness_value_and_bound(spec)
        xs = build_witness(spec).entries.tolist()
        want = (2 / spec.n) * oracle_cyclic_sum(xs, 2)
        assert report.value == pytest.approx(want, rel=1e-12)
        assert report.value < 0.98913363 + 0.01

    def test_k3_value_beats_target(self):
        sol = solve_tangent(3)
        spec = plan_witness(3, 0.005, sol)
        report = witness_value_and_bound(spec)
        assert report.value < sol.gamma + 0.005

    # every spec of this grid that build_witness can materialize; the other
    # seven, (4..8, 0.001) and (7..8, 0.003), leave float64 range
    BUILDABLE = [
        (k, eps)
        for k in range(2, 9)
        for eps in (0.1, 0.03, 0.01, 0.003, 0.001)
        if not (eps == 0.001 and k >= 4 or eps == 0.003 and k >= 7)
    ]

    @pytest.mark.parametrize("k, eps", BUILDABLE)
    def test_closed_form_matches_built_vector(self, k, eps):
        spec = plan_witness(k, eps, solve_tangent(k))
        built = k / spec.n * diananda_sum(build_witness(spec), k)
        assert witness_value_and_bound(spec).value == pytest.approx(built, rel=1e-15, abs=0)

    def test_unbuildable_specs_are_the_listed_ones(self):
        for k in range(2, 9):
            for eps in (0.1, 0.03, 0.01, 0.003, 0.001):
                if (k, eps) not in self.BUILDABLE:
                    with pytest.raises(CapacityError, match="beyond float64 range"):
                        build_witness(plan_witness(k, eps, solve_tangent(k)))

    def test_monotone_certification(self):
        for k in (2, 3):
            sol = solve_tangent(k)
            for eps in (0.1, 0.01, 0.001):
                report = witness_value_and_bound(plan_witness(k, eps, sol))
                assert report.value < sol.gamma + eps

    def test_spec_json_fields(self, capsys):
        import json

        from cyclic_bounds.cli import main

        sol = solve_tangent(2)
        spec = plan_witness(2, 0.05, sol)
        assert main(["witness", "--k", "2", "--eps", "0.05", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert list(rec)[:8] == ["k", "n", "m", "a_star", "b_star", "eps", "delta", "m_prime"]
        assert list(rec)[8:] == ["value", "analytic_bound", "gamma_plus_eps", "certified"]
        assert rec["k"] == 2
        assert rec["n"] == spec.n
        assert rec["delta"] == pytest.approx(spec.delta, rel=1e-15)


def same_spec(planned):
    """Check planned against the spec WitnessSpec(...) re-derives from its five inputs."""
    public = WitnessSpec(planned.k, planned.n, planned.m, planned.a_star, planned.eps)
    assert planned == public and hash(planned) == hash(public)
    assert repr(planned) == repr(public)
    assert pickle.dumps(planned) == pickle.dumps(public)
    for f in dataclasses.fields(WitnessSpec):
        x, y = getattr(planned, f.name), getattr(public, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, float):
            assert x.hex() == y.hex(), f.name
        elif isinstance(x, Fraction):
            assert (x.numerator, x.denominator) == (y.numerator, y.denominator), f.name
        else:
            assert x == y, f.name


class TestPlannedSpec:
    """plan_witness builds its spec from the scan's numbers instead of re-deriving them."""

    CERTIFY_GRID = [(k, eps) for k in (2, 3, 4, 5, 6) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]

    @pytest.mark.parametrize("k, eps", CERTIFY_GRID)
    def test_certify_grid_plan_equals_public_spec(self, k, eps):
        same_spec(plan_witness(k, eps, solve_tangent(k)))

    def test_one_ulp_off_solution_plan_equals_public_spec(self):
        sol = TangentSolution(idx=3.0, a=math.nextafter(solve_tangent(3).a, 0.0))
        for eps in (1e-3, float.fromhex("0x1.1273df7b96880p-8")):
            same_spec(plan_witness(3, eps, sol))

    def test_headline_plan_equals_public_spec(self):
        same_spec(plan_witness(230_000, 9e-7, solve_tangent(230_000), n_cap=10**18))

    def test_public_spec_refusals_keep_their_order(self):
        # n beyond float range is refused before gamma_k is solved for a k beyond it,
        # and a* < 0 < b* before the mid-certificate
        with pytest.raises(CapacityError, match="needs n beyond float range"):
            WitnessSpec(10**400, 2 * 10**400, 10**400, -0.3, 0.01)
        with pytest.raises(InvalidSpecError, match="a_star < 0 < b_star"):
            WitnessSpec(2, 4, 2, 0.5, 0.01)

    def test_repeated_plan_equals_the_first_spec(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.01, sol)
        assert plan_witness(2.0, 0.01, sol) == spec
        # from warm caches, the same plan under a smaller cap is still refused
        with pytest.raises(CapacityError):
            plan_witness(2, 0.01, sol, n_cap=100)

    @pytest.mark.parametrize("eps", [1e-320, 5e-324])
    def test_subnormal_eps_with_unbounded_cap_is_capacity_error(self, eps):
        with pytest.raises(CapacityError, match="beyond float range"):
            plan_witness(3, eps, solve_tangent(3), n_cap=10**400)


class TestWrapMemo:
    """The k - 1 wrap terms are summed once per (k, a*), as exact partials in their own cache."""

    @staticmethod
    def wrap_terms(k, a):
        return [math.expm1(-a / k) / -math.expm1(a * s / k) for s in range(1, k)]

    @pytest.mark.parametrize("k", [2, 3, 6, 1000, 230_000])
    def test_partials_keep_the_exact_sum(self, k):
        terms = self.wrap_terms(k, solve_tangent(k).a)
        parts = _exact_partials(list(terms))
        assert 1 <= len(parts) <= 3
        # non-overlapping: each partial is below half an ulp of the one before
        assert all(abs(lo) <= math.ulp(hi) / 2 for hi, lo in zip(parts, parts[1:]))
        rng = np.random.default_rng(k)
        for x, y in zip(rng.uniform(0.0, 1e6, 50), rng.uniform(-1.0, 1.0, 50)):
            assert math.fsum([x, y, *parts]) == math.fsum([x, y, *terms])

    def test_exact_partials_of_cancelling_terms(self):
        assert _exact_partials([1e16, 1.0, -1e16]) == (1.0,)
        assert _exact_partials([1.0, 2.0**-60]) == (1.0, 2.0**-60)
        assert _exact_partials([]) == ()

    def test_first_evaluation_fills_the_entry(self):
        clear_memos()
        sol = solve_tangent(4)
        spec = plan_witness(4, 1e-3, sol)
        assert _wrap_partials.cache_info().currsize == 0  # the plan never sums the wrap
        assert _plan.cache_info().currsize == 1  # but keeps its plan
        value = witness_value_and_bound(spec).value
        parts = _wrap_partials(4, sol.a)
        info = _wrap_partials.cache_info()
        assert (info.misses, info.currsize) == (1, 1)  # the evaluation's entry, reused
        assert parts == _exact_partials(self.wrap_terms(4, sol.a))
        assert witness_value_and_bound(spec).value.hex() == value.hex()

    def test_refusing_a_huge_k_sums_no_wrap(self):
        # 10^9 wrap terms would take minutes and gigabytes; the plan needs only delta
        clear_memos()
        k = 10**9
        sol = solve_tangent(k)
        with pytest.raises(CapacityError):
            plan_witness(k, 1e-3, sol)
        assert _wrap_partials.cache_info().misses == 0
