"""Spans and counts at the boundaries of the package's layers, recorded from outside.

`Tracer.install` wraps every public function (the functions in each layer
module's `__all__`) and rebinds each wrapper under every name the package
binds the original to, for example both `cyclic_bounds.tangent.eval_g` and
`cyclic_bounds.funcs.eval_g`.  Nested calls therefore get spans with a parent.
Spans of one operation share its identifier; they are kept in memory and
written out by the harness once the run ends.  Nothing is recorded while
`recording` is false, so the harness's own checks stay out of the trace.

Counts are made at the same boundaries from the arguments and results, so
for a fixed seed they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

from cyclic_bounds import optimize

PACKAGE = "cyclic_bounds"
LAYERS = ("funcs", "sums", "tangent", "witness", "optimize", "bounds", "verification", "cli")
WINDOW_FUNCS = ("diananda_sum", "baston_sum", "block_diagnostics")
FLOAT_BYTES = 8


class Span(NamedTuple):
    op: int
    span: int
    parent: "int | None"
    layer: str
    name: str
    start: float
    end: float
    error: "str | None"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sums(counts, name, args, kwargs, result):
    """sums.entries: window adds (n per window position times k); bytes from array sizes."""
    x = _arg(args, kwargs, 0, "x")
    n = len(x)
    entries = 0
    if name in WINDOW_FUNCS:
        entries = n * int(_arg(args, kwargs, 1, "k"))
    elif name == "interval_sum":
        entries = int(_arg(args, kwargs, 2, "k"))
    produced = 0
    if name in ("replicate", "zero_insert"):
        produced = len(result)
    elif name == "block_diagnostics":
        produced = 2 * result.nu
    counts["sums.entries"] += entries
    counts["sums.bytes_computed"] += FLOAT_BYTES * (entries + produced)


def _count_optimize(counts, name, args, kwargs, result):
    if name == "descend_from":
        counts["optimize.start_converged"] += bool(result[3])
    elif name == "gradient":
        counts["optimize.gradient_calls"] += 1
    elif name == "grid_oracle":
        n = int(_arg(args, kwargs, 0, "n"))
        levels = kwargs.get("levels", args[2] if len(args) > 2 else None)
        count = len(levels) if levels is not None else optimize._default_levels(n).size
        counts["optimize.grid_points"] += count ** (n - 1)


def _count_witness(counts, name, args, kwargs, result):
    if name == "build_witness":
        counts["witness.entries_built"] += result.n
    elif name == "witness_value_and_bound":
        counts["witness.certified"] += result.value <= result.analytic_bound < result.gamma_plus_eps


def _count_other(counts, name, args, kwargs, result):
    if name == "bounds_table":
        counts["bounds.rows"] += len(result)
    elif name == "run_verification":
        counts["verification.cases"] += result.total_cases


COUNTERS = {"sums": _count_sums, "optimize": _count_optimize, "witness": _count_witness}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list = []

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get(layer, _count_other)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(tracer.op, span_id, parent, layer, name, start, end, error))
                tracer.counts[f"{layer}.calls"] += 1
                tracer.counts[f"{layer}.{name}"] += 1
                if error == "CapacityError" and name == "plan_witness":
                    tracer.counts["witness.refusals"] += 1
            count(tracer.counts, name, args, kwargs, result)
            return result

        return traced

    def _count_only(self, key: str, fn):
        """Counter without a span, for a private kernel too hot and too small to span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        objective = getattr(optimize, "_objective", None)
        if objective is not None:  # each call evaluates the objective and its gradient
            wrappers[id(objective)] = (objective, self._count_only("optimize.gradient_calls", objective))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def summary(self) -> dict:
        """Self time per layer and per function, inclusive time per function, root total."""
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        self_layer = defaultdict(float)
        self_fn = defaultdict(float)
        incl_fn = defaultdict(float)
        roots = 0.0
        for s in self.spans:
            dur = s.end - s.start
            own = dur - children.get(s.span, 0.0)
            self_layer[s.layer] += own
            self_fn[f"{s.layer}.{s.name}"] += own
            incl_fn[f"{s.layer}.{s.name}"] += dur
            if s.parent is None:
                roots += dur
        return {
            "self_layer": dict(self_layer),
            "self_fn": dict(self_fn),
            "incl_fn": dict(incl_fn),
            "roots_s": roots,
        }
