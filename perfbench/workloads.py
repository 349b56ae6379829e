"""The three benchmark workloads: inputs drawn from the workload seed, operations, checks.

An operation is a zero-argument call that the harness times, plus a check of
its result that returns a failure reason or None.  Calls look package
functions up through their module at call time, so that the traced run sees
the wrappers it installs.  Checks never call into the package.

Workloads
  search   `minimize` on the exact anchors, the Shapiro (14, 2) instance and a
           mid-n scan.
  certify  `bounds_table`, the tangent -> plan -> evaluate witness chain, and
           the bulk `sums` calls on n = 1e6 vectors.
  audit    the five CLI subcommands, plus in-process `run_verification` and
           `grid_oracle`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from cyclic_bounds import bounds, cli, funcs, optimize, sums, tangent, verification, witness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ".perfbench_tmp"  # relative to the checkout root, which is the working directory
GOLDEN_PATH = HERE / "golden.json"
CHILD_TIMEOUT_S = 150.0

# References fixed in the benchmark, not computed by the program under test.
GAMMA = {2: 0.9891336344469931, 3: 0.9779277981773984}
FLOOR_REF = {2: 0.82843, 3: 0.77976, 4: 0.75683, 5: 0.74349, 6: 0.73477, 7: 0.72863}
CEILING_REF = {2: 0.98913, 3: 0.97793, 4: 0.96994, 10: 0.94983}
GAMMA_INF_REF = 0.930498
TABLE_TOL = 5e-6
LIMIT_TOL = 1e-6
ANCHOR_TOL = 1e-4
IDENTITY_TOL = 1e-12
VERIFY_SEEDS = 16  # verify seeds are reduced modulo this, so every one has golden bytes

ANCHORS = [(3, 2), (4, 2), (12, 2)] + [(n, 1) for n in range(1, 11)]
SHAPIRO = [(14, 2)]
SCAN = [(n, k) for n in (24, 48, 60, 96, 120, 240) for k in (2, 3)]
WITNESS_GRID = [(k, eps) for k in (2, 3, 4, 5, 6) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
SUMS_KS = (2, 10, 100)
GRID_PAIRS = [(n, k) for n in range(1, 6) for k in range(1, n + 1)]


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; `tiny` is the smoke-test size."""

    search_instances: tuple
    restarts: int
    bounds_k_max: int
    witness_grid: tuple
    sums_n: int
    grid_pairs: tuple
    setup_repeats: int


FULL = Sizes(
    search_instances=tuple(ANCHORS + SHAPIRO + SCAN),
    restarts=2,
    bounds_k_max=32,
    witness_grid=tuple(WITNESS_GRID),
    sums_n=1_000_000,
    grid_pairs=tuple(GRID_PAIRS),
    setup_repeats=9,
)
TINY = Sizes(
    search_instances=((3, 2), (5, 1), (14, 2), (60, 2)),
    restarts=0,
    bounds_k_max=8,
    witness_grid=((2, 1e-2), (4, 1e-4)),
    sums_n=1_200,
    grid_pairs=tuple(p for p in GRID_PAIRS if p[0] <= 4),
    setup_repeats=1,
)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    ref: Optional[float] = None  # minimize only: the value reference of value_excess


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def thread_pinned_env() -> dict:
    """Environment for child processes: the package on the path, BLAS/OpenMP at one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list, env: dict) -> tuple[float, CliResult]:
    """Run one child process to completion; return its wall time and result.

    os.wait4 reaps the child so its peak resident memory can be read.  A
    timer kills a child that outlives CHILD_TIMEOUT_S.
    """
    scratch = ROOT / SCRATCH
    scratch.mkdir(exist_ok=True)
    with open(scratch / "child.out", "w+b") as out, open(scratch / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, CliResult(
            proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss
        )


def cli_subprocess(argv: list) -> Callable[[], CliResult]:
    cmd = [sys.executable, "-m", "cyclic_bounds.cli", *argv]
    env = thread_pinned_env()
    return lambda: run_child(cmd, env)[1]


def cli_in_process(argv: list) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_of(path: str) -> str:
    with open(ROOT / path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _minimize_check(floor: float, anchor: bool):
    def check(r) -> Optional[str]:
        if not _finite(r.value, r.gradient_norm):
            return f"non-finite result value={r.value} gradient_norm={r.gradient_norm}"
        if r.value < floor:
            return f"value {r.value!r} below the floor {floor!r}"
        if anchor and abs(r.value - 1.0) > ANCHOR_TOL:
            return f"anchor value {r.value!r} not within {ANCHOR_TOL} of 1"
        return None

    return check


class Search:
    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.floors = {k: funcs.lower_bound_theorem2(k) for _, k in sizes.search_instances}
        self.anchors = set(ANCHORS)

    def warm_up(self) -> None:
        optimize.minimize(4, 2, optimize.MinimizeConfig(restarts=1, seed=0))

    def ops(self, pass_index: int) -> list:
        """One pass: every instance once, each with a MinimizeConfig.seed drawn for this pass."""
        rng = np.random.default_rng([self.seed, 1, pass_index])
        out = []
        for n, k in self.sizes.search_instances:
            cfg = optimize.MinimizeConfig(
                restarts=self.sizes.restarts, seed=int(rng.integers(2**31))
            )
            ref = GAMMA[k] if (n, k) in SCAN else 1.0
            out.append(
                Op(
                    f"minimize n={n} k={k}",
                    lambda n=n, k=k, cfg=cfg: optimize.minimize(n, k, cfg),
                    _minimize_check(self.floors[k], (n, k) in self.anchors),
                    ref=ref,
                )
            )
        return out


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _check_bounds_table(rows) -> Optional[str]:
    for r in rows:
        if not _finite(r.lower, r.upper, r.gap):
            return f"non-finite row for k={r.k}"
    by_k = {r.k: r for r in rows}
    for k, want in FLOOR_REF.items():
        if k in by_k and abs(by_k[k].lower - want) > TABLE_TOL:
            return f"floor k={k} is {by_k[k].lower!r}, reference {want}"
    for k, want in CEILING_REF.items():
        if k in by_k and abs(by_k[k].upper - want) > TABLE_TOL:
            return f"ceiling k={k} is {by_k[k].upper!r}, reference {want}"
    if abs(by_k[math.inf].upper - GAMMA_INF_REF) > LIMIT_TOL:
        return f"limit ceiling is {by_k[math.inf].upper!r}, reference {GAMMA_INF_REF}"
    return None


def _witness_chain(k: int, eps: float):
    def call():
        sol = tangent.solve_tangent(k)
        spec = witness.plan_witness(k, eps, sol)
        return witness.witness_value_and_bound(spec)

    return call


def _check_witness(rep) -> Optional[str]:
    if not _finite(rep.value, rep.analytic_bound, rep.gamma_plus_eps):
        return "non-finite witness report"
    if not rep.value <= rep.analytic_bound < rep.gamma_plus_eps:
        return (
            f"chain value <= bound < gamma+eps fails: {rep.value!r}, "
            f"{rep.analytic_bound!r}, {rep.gamma_plus_eps!r}"
        )
    return None


class Certify:
    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        rng = np.random.default_rng([seed, 2])
        # Log-uniform entries over six e-folds, one vector per window length.
        self.vectors = {
            k: sums.CyclicVector(np.exp(rng.uniform(-3.0, 3.0, sizes.sums_n))) for k in SUMS_KS
        }
        self.floors = {k: funcs.lower_bound_theorem2(k) for k in SUMS_KS}

    def warm_up(self) -> None:
        bounds.bounds_table(2)
        _witness_chain(2, 1e-2)()
        small = sums.CyclicVector(np.linspace(1.0, 2.0, 200))
        sums.diananda_sum(small, 2)
        sums.block_diagnostics(small, 2)

    def ops(self, pass_index: int) -> list:
        out = [
            Op(
                f"bounds_table({self.sizes.bounds_k_max})",
                lambda: bounds.bounds_table(self.sizes.bounds_k_max),
                _check_bounds_table,
            )
        ]
        for k, eps in self.sizes.witness_grid:
            out.append(Op(f"witness chain k={k} eps={eps:g}", _witness_chain(k, eps), _check_witness))
        for k in SUMS_KS:
            out.extend(self._sums_ops(k))
        return out

    def _sums_ops(self, k: int) -> list:
        x, n, floor = self.vectors[k], self.sizes.sums_n, self.floors[k]
        seen = {}  # this pass's diananda_sum, the reference of the identities

        def check_diananda(d):
            if not _finite(d):
                return "non-finite sum"
            if k / n * d < floor:
                return f"normalized sum {k / n * d!r} below the floor {floor!r}"
            seen["d"] = d
            return None

        def against(label, scale=1.0):
            def check(value):
                if "d" not in seen:
                    return "no diananda_sum reference in this pass"
                if not _finite(value) or _rel(value, scale * seen["d"]) > IDENTITY_TOL:
                    return f"{label} {value!r} differs from {scale:g} x {seen['d']!r}"
                return None

            return check

        def check_baston(b):
            return None if _finite(b) and 0.0 < b <= n else f"baston sum {b!r} outside (0, n]"

        def check_blocks(diag):
            if not (np.all(np.isfinite(diag.partials)) and np.all(np.isfinite(diag.ratios))):
                return "non-finite block diagnostics"
            return against("sum of block partials")(float(np.sum(diag.partials)))

        return [
            Op(f"diananda_sum n={n} k={k}", lambda: sums.diananda_sum(x, k), check_diananda),
            Op(f"baston_sum n={n} k={k}", lambda: sums.baston_sum(x, k), check_baston),
            Op(f"block_diagnostics n={n} k={k}", lambda: sums.block_diagnostics(x, k), check_blocks),
            Op(
                f"replicate identity n={n} k={k}",
                lambda: sums.diananda_sum(sums.replicate(x, 2), k),
                against("sum of the doubled vector", 2.0),
            ),
            Op(
                f"zero_insert identity n={n} k={k}",
                lambda: sums.diananda_sum(sums.zero_insert(x, k), k + 1),
                against("sum after zero insertion"),
            ),
        ]


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

WITNESS_OUT = f"{SCRATCH}/witness.txt"
GOLDEN_CLI = {  # golden key -> argv whose stdout bytes are fixed
    "bounds": ["bounds", "--k-max", "32", "--format", "csv"],
    "tangent_3": ["tangent", "--k", "3"],
    "tangent_inf": ["tangent", "--k", "inf"],
    "witness_json": ["witness", "--k", "3", "--eps", "0.01", "--format", "json"],
    "witness_out": ["witness", "--k", "2", "--eps", "0.001", "--out", WITNESS_OUT],
}


def verify_argv(seed: int) -> list:
    return ["verify", "--suite", "all", "--seed", str(seed)]


def _cli_check(want: str, extra: Optional[Callable[[CliResult], Optional[str]]] = None):
    def check(r: CliResult) -> Optional[str]:
        if r.code != 0:
            return f"exit code {r.code}: {r.stderr.strip()[:200]}"
        if r.stdout != want:
            return "stdout differs from the golden bytes"
        return extra(r) if extra else None

    return check


def _check_minimize_json(r: CliResult) -> Optional[str]:
    if r.code != 0:
        return f"exit code {r.code}: {r.stderr.strip()[:200]}"
    try:
        rec = json.loads(r.stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON record"
    if not _finite(rec["value"], rec["certified_floor"], rec["gradient_norm"]):
        return "non-finite minimize record"
    if rec["value"] < rec["certified_floor"]:
        return f"value {rec['value']!r} below the floor {rec['certified_floor']!r}"
    if abs(rec["value"] - 1.0) > ANCHOR_TOL:
        return f"anchor value {rec['value']!r} not within {ANCHOR_TOL} of 1"
    return None


def _check_grid(v: float) -> Optional[str]:
    # The uniform vector lies on the grid and attains the n <= 5 minimum, 1.
    return None if _finite(v) and abs(v - 1.0) <= IDENTITY_TOL else f"grid minimum {v!r} is not 1"


class Audit:
    def __init__(self, seed: int, sizes: Sizes, in_process_cli: bool = False):
        self.seed = seed
        self.sizes = sizes
        self.golden = load_golden()
        self.cli = cli_in_process if in_process_cli else cli_subprocess

    def warm_up(self) -> None:
        optimize.grid_oracle(3, 2)
        cli_in_process(GOLDEN_CLI["tangent_3"])()
        run_child([sys.executable, "-c", "import cyclic_bounds.cli"], thread_pinned_env())

    def ops(self, pass_index: int) -> list:
        vseed = (self.seed + pass_index) % VERIFY_SEEDS
        want_verify = self.golden["verify"][str(vseed)]
        out_sha = self.golden["witness_out_sha256"]

        def check_out_file(r):
            return None if sha256_of(WITNESS_OUT) == out_sha else "witness --out file differs"

        def check_report(rep):
            if not rep.passed:
                return "run_verification reports a failed group"
            if verification.report_to_json(rep) + "\n" != want_verify:
                return "report differs from the golden bytes"
            return None

        def with_seed(check):  # the verify ops keep one name over passes; reasons name the seed
            def tagged(r):
                why = check(r)
                return why and f"{why} (verify seed {vseed})"

            return tagged

        mseed = int(np.random.default_rng([self.seed, 3, pass_index]).integers(2**31))
        ops = []
        for key, argv in GOLDEN_CLI.items():
            extra = check_out_file if key == "witness_out" else None
            ops.append(Op(f"cli {' '.join(argv)}", self.cli(argv), _cli_check(self.golden[key], extra)))
        min_argv = ["minimize", "--n", "12", "--k", "2", "--restarts", "2", "--seed", str(mseed)]
        ops.append(Op("cli minimize --n 12 --k 2", self.cli(min_argv), _check_minimize_json))
        ops.append(Op("cli verify --suite all", self.cli(verify_argv(vseed)), with_seed(_cli_check(want_verify))))
        ops.append(
            Op(
                "run_verification all",
                lambda: verification.run_verification("all", vseed),
                with_seed(check_report),
            )
        )
        for n, k in self.sizes.grid_pairs:
            ops.append(Op(f"grid_oracle n={n} k={k}", lambda n=n, k=k: optimize.grid_oracle(n, k), _check_grid))
        return ops


WORKLOADS = {"search": Search, "certify": Certify, "audit": Audit}
