"""Benchmark of the cyclic_bounds package: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload {search,certify,audit,all} --seed N --seconds S --trace {0,1}

With --trace 0 the workload runs untraced: set-up is timed in fresh
processes, then whole passes over the workload's operations run back to back
for about S seconds, each operation timed and checked.  The end-to-end
metrics follow.  With --trace 1 one pass runs untraced and the same pass
runs again with spans around every public function of the package; the
per-layer metrics follow, and the spans are written to .perfbench_out/.
--workload all runs the three workloads one after another, each in a fresh
process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation fails if it raises, if a
RuntimeWarning, inf or NaN leaks out of it, or if its output check does not
hold; only the last kind makes `correct` false.  A failed operation enters
the latency percentiles as its own latency plus FAIL_PENALTY_MS, so it ranks
above every success and turning it into a success can never raise a
percentile.  peak_rss_mb is read after set-up and the first pass, so that it
does not grow with the number of passes a run fits.

Runs from the root of a checkout and reads and writes only inside it.  BLAS
and OpenMP are pinned to one thread in this process and in every child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cyclic_bounds  # noqa: E402

if not Path(cyclic_bounds.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"cyclic_bounds was imported from {cyclic_bounds.__file__}, not from this checkout")

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    TINY,
    WORKLOADS,
    Audit,
    run_child,
    thread_pinned_env,
)

FAIL_PENALTY_MS = 1e6  # above the whole run's 180 s limit, so above any success
TAIL_BEYOND = 10
CLI_STARTUP_REPEATS = 3
OUT_DIR = ".perfbench_out"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_share": "ratio",
    "value_excess": "1",
    "converged_share": "ratio",
}
# The end-to-end metrics BENCHMARK.json bounds; the other three are 0 or do not
# apply on some workload, so they are printed and reported by the traced run.
BOUNDED = ("setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
SEARCH_ONLY = ("value_excess", "converged_share")

PER_LAYER = {
    "funcs.calls": "count",
    "funcs.self_s": "s",
    "funcs.ns_per_call": "ns",
    "sums.calls": "count",
    "sums.self_s": "s",
    "sums.us_per_call": "us",
    "sums.entries": "count",
    "sums.bytes_computed": "B",
    "sums.entries_per_s": "1/s",
    "tangent.solves": "count",
    "tangent.self_s": "s",
    "tangent.ms_per_solve": "ms",
    "witness.plans": "count",
    "witness.refusals": "count",
    "witness.certified_share": "ratio",
    "witness.entries_built": "count",
    "witness.plan_self_s": "s",
    "witness.build_self_s": "s",
    "witness.evaluate_self_s": "s",
    "optimize.minimize_calls": "count",
    "optimize.descents": "count",
    "optimize.descent_self_s": "s",
    "optimize.ms_per_descent": "ms",
    "optimize.start_converged_share": "ratio",
    "optimize.gradient_calls": "count",
    "optimize.minimize_self_s": "s",
    "optimize.grid_calls": "count",
    "optimize.grid_points": "count",
    "optimize.grid_self_s": "s",
    "optimize.grid_points_per_s": "1/s",
    "bounds.rows": "count",
    "bounds.self_s": "s",
    "verification.cases": "count",
    "verification.self_s": "s",
    "verification.cases_per_s": "1/s",
    "cli.startup_s": "s",
    "cli.process_ms": "ms",
    "cli.main_self_s": "s",
    "trace.overhead_share": "ratio",
    "fail_share": "ratio",
    "value_excess": "1",
    "converged_share": "ratio",
}


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    name: str
    ms: float
    kind: "str | None"  # None for a success, else raised, leaked or wrong
    reason: "str | None"
    out: object
    ref: "float | None"

    @property
    def failed(self) -> bool:
        return self.kind is not None


def run_op(op, tracer: "Tracer | None" = None, op_id: int = 0) -> Sample:
    """Time one operation, then check it."""
    if tracer is not None:
        tracer.op, tracer.recording = op_id, True
    out, kind, reason = None, None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, never fatal
            kind, reason = "raised", f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.recording = False
    if kind is None:
        leaks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        stderr = getattr(out, "stderr", "")
        if leaks:
            kind, reason = "leaked", f"{leaks[0].category.__name__}: {leaks[0].message}"
        elif "Warning" in stderr:
            kind, reason = "leaked", stderr.strip().splitlines()[-1]
        else:
            reason = op.check(out)
            kind = "wrong" if reason else None
    return Sample(op.name, ms, kind, reason, out, op.ref)


def run_pass(ctx, pass_index: int, tracer: "Tracer | None" = None) -> list:
    return [run_op(op, tracer, i) for i, op in enumerate(ctx.ops(pass_index))]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latency_metrics(samples: list) -> dict:
    """Median and tail latency, failures ranked above every success.

    op_p50_ms is the median over the workload's operations of each
    operation's mean latency over the run's passes.  A workload mixes
    operations whose latencies differ by orders of magnitude, so a median
    pooled over all samples falls in a gap between two of them and jumps
    across it from run to run; a median over operations lands on one
    operation's typical latency.  The per-operation mean uses every pass,
    which averages the host's second-to-second speed changes better than a
    median of a few passes does.  op_tail_ms pools every sample.
    """
    by_op = {}
    for s in samples:
        by_op.setdefault(s.name, []).append(s.ms + (FAIL_PENALTY_MS if s.failed else 0.0))
    keys = sorted(ms for times in by_op.values() for ms in times)
    n = len(keys)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "op_p50_ms": statistics.median(statistics.fmean(times) for times in by_op.values()),
        "op_tail_ms": keys[tail_index],
        "operations": len(by_op),
        "samples": n,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_beyond": n - 1 - tail_index,
    }


def quality_metrics(samples: list) -> dict:
    """fail_share for every workload; value_excess and converged_share from minimize results."""
    out = {"fail_share": sum(s.failed for s in samples) / len(samples)}
    minimized = [(s, s.out) for s in samples if s.ref is not None and s.out is not None]
    if minimized:
        out["value_excess"] = statistics.fmean(r.value - s.ref for s, r in minimized)
        out["converged_share"] = sum(r.converged for _, r in minimized) / len(minimized)
    return out


def peak_rss_mb(samples: list) -> float:
    """This process's peak resident set so far, or a CLI child's if that was larger."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = max((getattr(s.out, "maxrss_kb", 0) for s in samples), default=0)
    return max(own_kb, child_kb) / 1024.0


def layer_metrics(tracer: Tracer, summary: dict, startup_s: float, process_ms: float, overhead: float) -> dict:
    own = Counter(summary["self_layer"])
    fn_self = Counter(summary["self_fn"])
    fn_incl = Counter(summary["incl_fn"])
    c = tracer.counts

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    descents = c["optimize.descend_from"]
    plans = c["witness.plan_witness"]
    return {
        "funcs.calls": c["funcs.calls"],
        "funcs.self_s": own["funcs"],
        "funcs.ns_per_call": per(own["funcs"], c["funcs.calls"], 1e9),
        "sums.calls": c["sums.calls"],
        "sums.self_s": own["sums"],
        "sums.us_per_call": per(own["sums"], c["sums.calls"], 1e6),
        "sums.entries": c["sums.entries"],
        "sums.bytes_computed": c["sums.bytes_computed"],
        "sums.entries_per_s": per(c["sums.entries"], own["sums"]),
        "tangent.solves": c["tangent.solve_tangent"],
        "tangent.self_s": own["tangent"],
        "tangent.ms_per_solve": per(fn_incl["tangent.solve_tangent"], c["tangent.solve_tangent"], 1e3),
        "witness.plans": plans,
        "witness.refusals": c["witness.refusals"],
        "witness.certified_share": per(c["witness.certified"], plans),
        "witness.entries_built": c["witness.entries_built"],
        "witness.plan_self_s": fn_self["witness.plan_witness"],
        "witness.build_self_s": fn_self["witness.build_witness"],
        "witness.evaluate_self_s": fn_self["witness.witness_value_and_bound"],
        "optimize.minimize_calls": c["optimize.minimize"],
        "optimize.descents": descents,
        "optimize.descent_self_s": fn_self["optimize.descend_from"],
        "optimize.ms_per_descent": per(fn_incl["optimize.descend_from"], descents, 1e3),
        "optimize.start_converged_share": per(c["optimize.start_converged"], descents),
        "optimize.gradient_calls": c["optimize.gradient_calls"],
        "optimize.minimize_self_s": fn_self["optimize.minimize"],
        "optimize.grid_calls": c["optimize.grid_oracle"],
        "optimize.grid_points": c["optimize.grid_points"],
        "optimize.grid_self_s": fn_self["optimize.grid_oracle"],
        "optimize.grid_points_per_s": per(c["optimize.grid_points"], fn_incl["optimize.grid_oracle"]),
        "bounds.rows": c["bounds.rows"],
        "bounds.self_s": own["bounds"],
        "verification.cases": c["verification.cases"],
        "verification.self_s": own["verification"],
        "verification.cases_per_s": per(c["verification.cases"], fn_incl["verification.run_verification"]),
        "cli.startup_s": startup_s,
        "cli.process_ms": process_ms,
        "cli.main_self_s": fn_self["cli.main"],
        "trace.overhead_share": overhead,
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def run_record(workload: str, seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines() if l.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = _read(f"{index}/size")
    mem_kb = next((int(l.split()[1]) for l in _read("/proc/meminfo").splitlines() if l.startswith("MemTotal")), 0)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    l3 = caches.get("L3", "0K")
    l3_mb = int(l3[:-1]) / 1024 if l3.endswith("K") else 0.0
    array_mb = FULL.sums_n * 8 / 1e6
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "mem_total_mb": mem_kb // 1024,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": (
            f"the n = {FULL.sums_n} sums arrays ({array_mb:g} MB of float64) fit inside the {l3} L3; "
            f"a bandwidth figure needs arrays of four times the L3 ({4 * l3_mb:g} MiB each), and the "
            f"sums path holds five or more arrays of its input's size at once, about the whole "
            f"{mem_kb // 1024} MB of RAM, so sums.bytes_computed is computed from array sizes, "
            "not measured bandwidth"
        ),
    }


# ---------------------------------------------------------------------------
# the two runs
# ---------------------------------------------------------------------------

def make_context(workload: str, seed: int, sizes, in_process_cli: bool = False):
    cls = WORKLOADS[workload]
    ctx = cls(seed, sizes, in_process_cli) if cls is Audit else cls(seed, sizes)
    ctx.warm_up()
    return ctx


def setup_times(args, sizes) -> list:
    """Wall time of fresh processes that import the package, build the inputs and warm up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(sizes.setup_repeats):
        wall, res = run_child(cmd, thread_pinned_env())
        if res.code != 0:
            raise RuntimeError(f"set-up process failed with exit code {res.code}: {res.stderr.strip()}")
        times.append(wall)
    return times


def untraced_run(args, sizes) -> tuple[dict, list]:
    setups = setup_times(args, sizes)
    ctx = make_context(args.workload, args.seed, sizes)
    samples, passes = [], 0
    start = time.perf_counter()
    while True:
        samples.extend(run_pass(ctx, passes))
        passes += 1
        if passes == 1:  # later passes only add allocator fragmentation that varies run to run
            rss_mb = peak_rss_mb(samples)
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > args.seconds:
            break
    lat = latency_metrics(samples)
    metrics = {"setup_s": statistics.median(setups), **lat, "peak_rss_mb": rss_mb}
    metrics.update(quality_metrics(samples))
    print(f"{args.workload}: {passes} passes, {len(samples)} operations in {elapsed:.2f} s, "
          f"set-up median of {len(setups)} fresh processes")
    print(f"  op_p50_ms is the median over {lat['operations']} operations of each one's mean "
          f"over {passes} passes; op_tail_ms is p{lat['tail_percentile']:.2f} of {lat['samples']} samples, "
          f"{lat['tail_beyond']} beyond it; a failure counts {FAIL_PENALTY_MS:g} ms over its latency")
    for name, unit in END_TO_END.items():
        shown = "n/a" if name not in metrics else f"{metrics[name]:.6g}"
        print(f"  {name:<16} {shown:>14} {unit}")
    return metrics, samples


def traced_run(args, sizes) -> tuple[dict, list]:
    ctx = make_context(args.workload, args.seed, sizes, in_process_cli=True)
    env = thread_pinned_env()
    startup = statistics.median(
        run_child([sys.executable, "-c", "import cyclic_bounds.cli"], env)[0]
        for _ in range(CLI_STARTUP_REPEATS)
    )
    process_ms = 0.0
    if args.workload == "audit":
        cli_ops = [op for op in Audit(args.seed, sizes).ops(0) if op.name.startswith("cli ")]
        process_ms = statistics.median(run_op(op).ms for op in cli_ops)

    plain = run_pass(ctx, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(ctx, 0, tracer)
    finally:
        tracer.uninstall()
    plain_s = sum(s.ms for s in plain) / 1e3
    traced_s = sum(s.ms for s in traced) / 1e3
    overhead = (traced_s - plain_s) / plain_s
    summary = tracer.summary()
    metrics = layer_metrics(tracer, summary, startup, process_ms, overhead)
    metrics.update({"value_excess": 0.0, "converged_share": 0.0})  # n/a outside search
    metrics.update(quality_metrics(traced))
    self_sum = sum(summary["self_layer"].values())
    selfcheck = {"traced_wall_s": traced_s, "self_sum_s": self_sum, "untraced_wall_s": plain_s}
    print(f"{args.workload} traced: {len(tracer.spans)} spans over {len(traced)} operations; "
          f"untraced {plain_s:.4f} s, traced {traced_s:.4f} s, layer self times sum to {self_sum:.4f} s")
    for name, unit in PER_LAYER.items():
        shown = f"{metrics[name]:.6g}"
        if name in SEARCH_ONLY and args.workload != "search":
            shown += " (n/a)"
        print(f"  {name:<32} {shown:>16} {unit}")
    write_spans(args, tracer, metrics, selfcheck)
    return metrics, traced


def write_spans(args, tracer: Tracer, metrics: dict, selfcheck: dict) -> None:
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    doc = {
        "record": run_record(args.workload, args.seed),
        "metrics": metrics,
        "selfcheck": selfcheck,
        "span_fields": ["op", "span", "parent", "layer", "name", "start_s", "end_s", "error"],
        "spans": [[s.op, s.span, s.parent, s.layer, s.name, s.start - t0, s.end - t0, s.error] for s in tracer.spans],
    }
    with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def report_failures(samples: list) -> None:
    groups = Counter((s.name, s.kind, s.reason) for s in samples if s.failed)
    if groups:
        print("failed operations:")
    for (name, kind, reason), count in sorted(groups.items()):
        print(f"  {count:4d} x {name} [{kind}] {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help="set up, warm up and exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rest += ["--tiny"] if args.tiny else []
        for name in WORKLOADS:
            code = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, *rest]).returncode
            if code:
                return code
        return 0
    sizes = TINY if args.tiny else FULL
    if args.setup_only:
        make_context(args.workload, args.seed, sizes)
        return 0

    record = run_record(args.workload, args.seed)
    print("run record: " + json.dumps(record))
    if args.trace:
        metrics, samples = traced_run(args, sizes)
        names = PER_LAYER
    else:
        metrics, samples = untraced_run(args, sizes)
        names = {n: END_TO_END[n] for n in BOUNDED}
    report_failures(samples)
    result = {
        "correct": not any(s.kind == "wrong" for s in samples),
        "attempted": len(samples),
        "failed": sum(s.failed for s in samples),
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
