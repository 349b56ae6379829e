"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.

Criterion 3 pins the k = 3 tangent intercept to ten digits at 0.9779277982.
The value as first quoted, 0.9779277986, had a misprinted tenth digit: it lies
4.2e-10 from the true intercept 0.97792779817739836052..., so no solver of the
tangency system could meet it within 1e-10.  The corrected anchor is the
20-digit `ORACLE_GAMMA[3]` of `tests/test_tangent.py` rounded to ten digits;
that value comes from an mpmath solve of the two-unknown tangency system,
which the unit tests rerun at 60 digits.
"""

import decimal
import math
import time

import mpmath
import numpy as np

from cyclic_bounds import (
    INFINITY,
    MinimizeConfig,
    build_witness,
    eval_g,
    grid_oracle,
    lower_bound_theorem2,
    minimize,
    plan_witness,
    solve_tangent,
    witness_value_and_bound,
)
from cyclic_bounds.cli import main as cli_main
from cyclic_bounds.verification import report_to_json, run_verification


def _line(num, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_lower_bound_table(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bounds", "--k-max", "7", "--format", "csv"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    want = {2: 0.82843, 3: 0.77976, 4: 0.75683, 5: 0.74349, 6: 0.73477, 7: 0.72863}
    rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
    ok = all(abs(float(f[1]) - want[int(f[0])]) <= 5e-6 for f in rows)
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _line(1, ok, f"floor table to 5e-6, runtime {elapsed:.3f}s < 1s")
    assert ok


def test_criterion_2_upper_bound_table():
    t0 = time.perf_counter()
    want = {2: 0.98913, 3: 0.97793, 4: 0.96994, 10: 0.94983, 100: 0.93272, 1000: 0.93072}
    got = {k: solve_tangent(k).gamma for k in want}
    gamma_inf = solve_tangent(INFINITY).gamma
    elapsed = time.perf_counter() - t0
    ok = all(abs(got[k] - want[k]) <= 5e-6 for k in want)
    ok = ok and abs(gamma_inf - 0.930498) <= 1e-6
    ok = ok and elapsed < 5.0
    _line(2, ok, f"ceiling table to 5e-6, limit to 1e-6, runtime {elapsed:.3f}s < 5s")
    assert ok


def test_criterion_3_high_precision_anchor():
    gamma3 = solve_tangent(3).gamma
    third_ok = gamma3 / 3.0 > 0.32598 - 0.5e-5
    residual_ok = all(
        max(solve_tangent(k).residuals) <= 1e-11
        for k in (2, 3, 4, 10, 100, 1000, INFINITY)
    )
    anchor_err = abs(gamma3 - 0.9779277982)
    anchor_ok = anchor_err <= 1e-10
    ok = anchor_ok and third_ok and residual_ok
    _line(
        3,
        ok,
        f"gamma_3 anchor 0.9779277982 |err|={anchor_err:.3e} (<=1e-10 required), "
        f"gamma_3/3 check {'ok' if third_ok else 'BAD'}, residuals "
        f"{'<=1e-11' if residual_ok else 'BAD'}",
    )
    assert third_ok
    assert residual_ok
    assert anchor_ok, (
        f"gamma_3 = {gamma3!r} differs from the anchor 0.9779277982 (the mpmath "
        f"oracle value, not the misprinted 0.9779277986) by {anchor_err:.3e} > 1e-10"
    )


def test_criterion_4_witness_certification():
    overall = True
    details = []
    for k in (2, 3, 4):
        sol = solve_tangent(k)
        for eps in (0.1, 0.01):
            t0 = time.perf_counter()
            spec = plan_witness(k, eps, sol)
            report = witness_value_and_bound(spec)
            arr = build_witness(spec).entries
            n = spec.n
            denom = np.zeros(n)
            for d in range(1, k + 1):
                denom += np.roll(arr, -(d))
            terms = arr / denom
            # sparse nonzero terms are exactly e^{-b*}
            e_b = math.exp(-spec.b_star)
            sparse_idx = np.arange(1, spec.m_prime // k) * k - 1
            sparse_ok = bool(
                np.all(np.abs(terms[sparse_idx] - e_b) <= 1e-12 * e_b)
            ) if sparse_idx.size else True
            # dense closed-form terms are exactly g_k(a*) / k
            g_term = eval_g(k, spec.a_star) / k
            dense_idx = np.arange(spec.m_prime, n - k) - 1
            dense_ok = bool(np.all(np.abs(terms[dense_idx] - g_term) <= 1e-12 * g_term))
            chain_ok = report.value <= report.analytic_bound < report.gamma_plus_eps
            elapsed = time.perf_counter() - t0
            case_ok = sparse_ok and dense_ok and chain_ok and elapsed < 30.0
            overall = overall and case_ok
            details.append(f"k={k} eps={eps}: n={n} {elapsed:.2f}s {'ok' if case_ok else 'BAD'}")
    _line(4, overall, "; ".join(details))
    assert overall


def test_criterion_5_exact_value_oracles():
    t0 = time.perf_counter()
    ok = True
    cfg = MinimizeConfig(restarts=8, seed=7)
    for n, k in [(3, 2), (4, 2), (12, 2)] + [(n, 1) for n in range(1, 11)]:
        val = minimize(n, k, cfg).value
        if abs(val - 1.0) > 1e-4:
            ok = False
    pairs_checked = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            grid = grid_oracle(n, k)
            val = minimize(n, k, MinimizeConfig(restarts=6, seed=2)).value
            pairs_checked += 1
            if abs(grid - val) > 1e-3:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _line(
        5,
        ok,
        f"unit values at 13 anchor cases, grid agreement on {pairs_checked} pairs, "
        f"runtime {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_6_shapiro_dip_stretch():
    # stretch goal, logged but never failing: global search is heuristic
    res = minimize(14, 2, MinimizeConfig(restarts=200, seed=7))
    found = res.value < 1.0 - 1e-9
    _line(
        6,
        True,
        f"stretch: minimize(14,2,restarts=200) value={res.value:.10f} "
        f"{'dips below 1 (failure of the n<=12 pattern found)' if found else 'no dip found (logged, non-blocking)'}",
    )


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    report = run_verification(suite="all", seed=2026)
    elapsed = time.perf_counter() - t0
    replay = run_verification(suite="all", seed=2026)
    reproducible = report_to_json(report) == report_to_json(replay)
    ok = (
        report.passed
        and report.total_cases >= 10_000
        and reproducible
        and elapsed < 60.0
    )
    _line(
        7,
        ok,
        f"{report.total_cases} randomized cases, {report.failed_groups} failing groups, "
        f"seed-reproducible={reproducible}, runtime {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_8_bracket_consistency():
    ks = list(range(2, 33)) + [100, 1000]
    ok = True
    for k in ks:
        lower = lower_bound_theorem2(k)
        gamma = solve_tangent(k).gamma
        if not lower < gamma:
            ok = False
    _line(
        8,
        ok,
        f"floor < ceiling for every tested k ({len(ks)} values); the exact "
        "constants between them stay open by design",
    )
    assert ok


def test_headline_witness_below_09305():
    """One explicit witness puts the normalized sum below the paper's ceiling 0.9305.

    This is a float-level check: value <= analytic_bound < gamma_plus_eps <
    0.9305 compares rounded floats, cross-checked against a 40-digit
    evaluation of the same closed form.  The outward-rounded proof, with
    every rounding error counted, is still open.
    """
    k, eps = 230_000, 9e-7
    spec = plan_witness(k, eps, solve_tangent(k), n_cap=10**18)
    assert (spec.n, spec.m) == (117_555_246_345_600_000, 37_008_133_108_800_000)
    t0 = time.perf_counter()
    report = witness_value_and_bound(spec)
    elapsed = time.perf_counter() - t0
    ok = report.value <= report.analytic_bound < report.gamma_plus_eps < 0.9305
    _line(
        "headline",
        ok,
        f"k={k} n={spec.n}: value {report.value:.8f} <= bound {report.analytic_bound:.8f} "
        f"< gamma+eps {report.gamma_plus_eps:.8f} < 0.9305 in {elapsed * 1e3:.0f} ms",
    )
    assert ok

    # The closed form from exact n and m and the float a*: mpmath for the
    # transcendental values, and the k - 1 wrap terms summed in decimal at
    # the same 40 digits, which runs six times faster than mpf arithmetic.
    n, m = spec.n, spec.m
    with mpmath.workdps(40), decimal.localcontext() as ctx:
        ctx.prec = 40
        a = mpmath.mpf(spec.a_star)
        b = -a * m / (n - m)
        g = -k * mpmath.expm1(-a / k) / mpmath.expm1(a)
        ratio = decimal.Decimal(mpmath.nstr(mpmath.exp(a / k), 45))
        power, wrap = decimal.Decimal(1), decimal.Decimal(0)
        for _ in range(1, k):
            power *= ratio
            wrap += 1 / (1 - power)
        wrap = mpmath.expm1(-a / k) * mpmath.mpf(str(wrap))
        want = mpmath.mpf(k) / n * ((n - m) // k * mpmath.exp(-b) + (m - k + 1) * g / k + wrap)
    assert abs(report.value - want) <= 1e-12 * want
