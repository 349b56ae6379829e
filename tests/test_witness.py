"""Tests for witness planning, construction, and certification.

Independent oracle: direct per-term summation of the cyclic sum with
math.fsum (never the vectorized library path), plus hand evaluation of the
closed forms from the spec fields.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from cyclic_bounds import (
    CapacityError,
    InvalidSpecError,
    build_witness,
    eval_g,
    plan_witness,
    solve_tangent,
    witness_value_and_bound,
)
from cyclic_bounds.witness import WitnessSpec, _convergents


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
        got = _convergents(0.4375)
        assert got[:4] == [(0, 1), (1, 2), (3, 7), (7, 16)]

    def test_terminates_exactly(self):
        convs = _convergents(0.3926990816987241)
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
        # k = 4 at eps = 0.001 would need entries beyond exp(700); skip it
        cases = [(k, eps) for k in (2, 3, 4) for eps in (0.1, 0.01)]
        cases += [(2, 0.001), (3, 0.001)]
        for k, eps in cases:
            sol = solve_tangent(k)
            spec = plan_witness(k, eps, sol)
            mu = spec.m / spec.n
            mid = mu * eval_g(k, spec.a_star) + (1 - mu) * math.exp(-spec.b_star)
            assert mid < sol.gamma + eps / 2

    def test_float_range_guard(self):
        # the k = 4, eps = 1e-3 witness would need entries near exp(1061)
        sol = solve_tangent(4)
        with pytest.raises(CapacityError):
            plan_witness(4, 1e-3, sol)

    def test_delta_and_slack_sizing(self):
        sol = solve_tangent(2)
        spec = plan_witness(2, 0.01, sol)
        want_delta = 4 * math.exp(-spec.a_star / 2) - 2 * eval_g(2, spec.a_star)
        assert spec.delta == pytest.approx(want_delta, rel=1e-14)
        assert spec.delta / spec.n < 0.01 / 2

    def test_capacity_error_reports_needed_n(self):
        sol = solve_tangent(2)
        with pytest.raises(CapacityError) as err:
            plan_witness(2, 1e-9, sol)
        assert err.value.required_n is not None
        assert err.value.required_n > 10_000_000

    def test_n_cap_refusal_reports_needed_n(self):
        with pytest.raises(CapacityError) as err:
            plan_witness(2, 0.01, solve_tangent(2), n_cap=100)
        assert err.value.required_n == 424

    def test_mismatched_solution_rejected(self):
        sol = solve_tangent(3)
        with pytest.raises(InvalidSpecError):
            plan_witness(2, 0.01, sol)

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
        spec = dataclasses.replace(plan_witness(2, 0.05, solve_tangent(2)), eps=math.inf)
        with pytest.raises(InvalidSpecError):
            spec.validate()
        with pytest.raises(InvalidSpecError):
            build_witness(spec)


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
            build_witness(spec).require_window_positivity(k)

    def test_invalid_spec_rejected(self):
        sol = solve_tangent(2)
        good = plan_witness(2, 0.05, sol)
        bad = WitnessSpec(
            k=good.k,
            n=good.n,
            m=good.m + 1,  # breaks divisibility by k
            m_prime=good.n - good.m - 1,
            a_star=good.a_star,
            b_star=good.b_star,
            mu_star=Fraction(good.m + 1, good.n),
            eps=good.eps,
            delta=good.delta,
        )
        with pytest.raises(InvalidSpecError):
            build_witness(bad)
        with pytest.raises(InvalidSpecError):
            witness_value_and_bound(bad)

    def test_flipped_abscissas_rejected(self):
        sol = solve_tangent(2)
        good = plan_witness(2, 0.05, sol)
        bad = WitnessSpec(
            k=good.k,
            n=good.n,
            m=good.m,
            m_prime=good.m_prime,
            a_star=-good.a_star,
            b_star=-good.b_star,
            mu_star=good.mu_star,
            eps=good.eps,
            delta=good.delta,
        )
        with pytest.raises(InvalidSpecError):
            build_witness(bad)
        with pytest.raises(InvalidSpecError):
            witness_value_and_bound(bad)


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

    def test_monotone_certification(self):
        for k in (2, 3):
            sol = solve_tangent(k)
            for eps in (0.1, 0.01, 0.001):
                report = witness_value_and_bound(plan_witness(k, eps, sol))
                assert report.value < sol.gamma + eps

    def test_spec_json_fields(self):
        import json

        sol = solve_tangent(2)
        spec = plan_witness(2, 0.05, sol)
        rec = json.loads(spec.to_json())
        assert set(rec) == {"k", "n", "m", "a_star", "b_star", "eps", "delta"}
        assert rec["k"] == 2
        assert rec["n"] == spec.n
        assert rec["delta"] == pytest.approx(spec.delta, rel=1e-15)
