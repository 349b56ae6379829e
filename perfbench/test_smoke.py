"""Smoke test of the benchmark: every workload, untraced and traced, at tiny sizes.

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py

Checks that the last output line is the result object, that it carries every
metric BENCHMARK.json names, that the untraced run prints every end-to-end
metric and the traced run every per-layer metric, that a second traced run
with the same seed repeats every count exactly, and that the layer self
times of the traced pass sum to its traced wall time within
trace.overhead_share.  Takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT_DIR, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Below this share the measured overhead is timer noise; the self-time sum may
# still miss the traced wall by the harness's own per-operation bookkeeping.
SELF_SUM_FLOOR = 0.01


def _run(workload: str, trace: int) -> tuple[str, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return proc.stdout, result


def _printed(stdout: str, names) -> None:
    shown = {line.split()[0] for line in stdout.splitlines() if line.startswith("  ") and line.split()}
    missing = [n for n in names if n not in shown]
    assert not missing, f"not printed: {missing}"


def check_workload(workload: str) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    stdout, result = _run(workload, 0)
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    _printed(stdout, END_TO_END)

    stdout, result = _run(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    _printed(stdout, PER_LAYER)
    with open(ROOT / OUT_DIR / f"trace-{workload}-seed0.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    check = doc["selfcheck"]
    tolerance = max(doc["metrics"]["trace.overhead_share"], SELF_SUM_FLOOR)
    gap = abs(check["traced_wall_s"] - check["self_sum_s"])
    assert gap <= tolerance * check["traced_wall_s"], (workload, check, tolerance)
    assert doc["spans"], "the traced pass recorded no spans"

    _, again = _run(workload, 1)
    for name, metric in result["metrics"].items():
        if metric["unit"] in ("count", "B"):
            assert again["metrics"][name] == metric, (workload, name)


def test_search():
    check_workload("search")


def test_certify():
    check_workload("certify")


def test_audit():
    check_workload("audit")


if __name__ == "__main__":
    for name in WORKLOADS:
        check_workload(name)
        print(f"{name}: ok")
