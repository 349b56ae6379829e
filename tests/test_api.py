"""The public names of every layer resolve, and the package exports a fixed set.

Every integer argument of the library goes through one check, so 2.5, inf,
nan and "3" fail alike, naming the argument, and 2.0 or np.int64(2) act as 2.
Every real parameter (a family index, eps, an abscissa) goes through one
other check, so "3", None and nan fail alike, naming the argument and its
range, and 3, np.float64(3.0) or np.int64(3) act as 3.0.

A name left in a layer's `__all__` after its object was deleted breaks
`from cyclic_bounds.<layer> import *` and any tool that wraps each listed
name, so every listed name must resolve in its module.  The package and the
scalar commands load no numpy; only the array layer does.
"""

import ast
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclic_bounds
from cyclic_bounds import (
    DegenerateFamilyError, DomainError, InvalidSpecError, MinimizeConfig, SolverError,
    TangentSolution, WindowError, WitnessSpec, baston_sum, block_diagnostics, bounds_table,
    diananda_sum, eval_f, eval_f_derivative, eval_g, eval_g_derivative, gradient, grid_oracle,
    lower_bound_theorem2, minimize, plan_witness, replicate, solve_tangent, zero_insert,
)
from cyclic_bounds.verification import run_verification

LAYERS = ("funcs", "sums", "tangent", "witness", "optimize", "bounds", "verification", "cli")

# Everything `import cyclic_bounds` binds that is neither private nor a submodule.
PACKAGE_API = {
    "CapacityError", "CyclicBoundsError", "DegenerateFamilyError", "DomainError",
    "InvalidSpecError", "NoBracketError", "ShapeError", "SolverError", "WindowError",
    "INFINITY", "eval_f", "eval_f_derivative", "eval_g", "eval_g_derivative", "eval_p",
    "lower_bound_theorem2",
    "BlockDiagnostics", "CyclicVector", "as_cyclic_vector", "baston_sum", "block_diagnostics",
    "diananda_sum", "replicate", "zero_insert",
    "TangentSolution", "solve_tangent",
    "WitnessReport", "WitnessSpec", "build_witness", "plan_witness", "witness_value_and_bound",
    "MinimizationResult", "MinimizeConfig", "grid_oracle", "gradient", "minimize",
    "BoundsRow", "bounds_table",
}

# (statement run in a fresh interpreter, whether numpy is loaded after it)
NUMPY_LOADS = [
    ("import cyclic_bounds", False),
    ("import cyclic_bounds.cli", False),
    ("from cyclic_bounds import cli; cli.main(['bounds', '--k-max', '3'])", False),
    ("from cyclic_bounds import cli; cli.main(['tangent', '--k', '3'])", False),
    ("from cyclic_bounds import plan_witness, solve_tangent; plan_witness(3, 0.01, solve_tangent(3))", False),
    ("from cyclic_bounds import plan_witness, solve_tangent, witness_value_and_bound; "
     "witness_value_and_bound(plan_witness(4, 1e-4, solve_tangent(4)))", False),
    ("import cyclic_bounds; cyclic_bounds.minimize", True),
]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_listed_name_resolves(layer):
    mod = importlib.import_module(f"cyclic_bounds.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_exactly_the_public_api():
    # The array names are resolved on first use, so vars() alone may not hold them yet.
    assert set(cyclic_bounds.__all__) == PACKAGE_API
    assert len(cyclic_bounds.__all__) == len(PACKAGE_API)
    assert {name for name in dir(cyclic_bounds) if not name.startswith("_")} == PACKAGE_API
    missing = [name for name in PACKAGE_API if not hasattr(cyclic_bounds, name)]
    assert missing == []
    bound = {
        name
        for name, value in vars(cyclic_bounds).items()
        if not name.startswith("_") and type(value) is not type(cyclic_bounds)
    }
    assert bound <= PACKAGE_API


def test_bounds_and_optimize_list_only_their_current_api():
    from cyclic_bounds import bounds, optimize

    assert set(bounds.__all__) == {"BoundsRow", "bounds_table"}
    assert set(optimize.__all__) == {
        "MinimizeConfig", "MinimizationResult", "gradient", "minimize", "grid_oracle"
    }


def test_numpy_loads_only_with_the_array_layer():
    src = str(Path(cyclic_bounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for statement, loads in NUMPY_LOADS:
        child = subprocess.run(
            [sys.executable, "-c", f"{statement}\nimport sys; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == str(loads), statement
    namespace = {}
    exec("from cyclic_bounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == PACKAGE_API


def test_every_memo_is_bounded():
    names = [info.name for info in pkgutil.iter_modules(cyclic_bounds.__path__)]
    memos = {
        f"{name}.{attr}": value
        for name in names
        for attr, value in vars(importlib.import_module(f"cyclic_bounds.{name}")).items()
        if callable(getattr(value, "cache_info", None))
    }
    assert {"tangent._solve_tangent", "witness._kernel_constants"} <= set(memos)
    unbounded = [name for name, memo in memos.items()
                 if not isinstance(memo.cache_info().maxsize, int)]
    assert unbounded == []


def test_numeric_layers_know_no_output_format():
    # the fields, their order and their digits are the CLI's choice
    for layer in ("funcs", "sums", "tangent", "witness", "optimize", "bounds"):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"cyclic_bounds.{layer}")))
        imported = [
            name
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (getattr(node, "module", None) or "", *(a.name for a in node.names))
        ]
        assert not any(name.endswith("_records") for name in imported), layer


X6 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
SPEC3 = dict(k=3, n=1266, m=633, a_star=solve_tangent(3).a, eps=0.01)  # plan_witness(3, 0.01, ...)
FAST = MinimizeConfig(restarts=0)

# (site, call with the argument v, a valid v, exception class, argument name)
INTEGER_SITES = [
    ("eval_f", lambda v: eval_f(v, 0.3), 2, ValueError, "k"),
    ("eval_f_derivative", lambda v: eval_f_derivative(v, 0.3), 2, ValueError, "k"),
    ("lower_bound_theorem2", lower_bound_theorem2, 2, ValueError, "k"),
    ("bounds_table", bounds_table, 2, ValueError, "k_max"),
    ("plan_witness.k", lambda v: plan_witness(v, 0.01, solve_tangent(2)), 2, InvalidSpecError, "k"),
    ("plan_witness.n_cap", lambda v: plan_witness(2, 0.01, solve_tangent(2), n_cap=v), 10**6,
     InvalidSpecError, "n_cap"),
    ("WitnessSpec.k", lambda v: WitnessSpec(**{**SPEC3, "k": v}), 3, InvalidSpecError, "k"),
    ("WitnessSpec.n", lambda v: WitnessSpec(**{**SPEC3, "n": v}), 1266, InvalidSpecError, "n"),
    ("WitnessSpec.m", lambda v: WitnessSpec(**{**SPEC3, "m": v}), 633, InvalidSpecError, "m"),
    ("diananda_sum", lambda v: diananda_sum(X6, v), 2, WindowError, "k"),
    ("baston_sum", lambda v: baston_sum(X6, v), 2, WindowError, "k"),
    ("zero_insert", lambda v: zero_insert(X6, v), 2, WindowError, "k"),
    ("block_diagnostics", lambda v: block_diagnostics(X6, v), 2, WindowError, "k"),
    ("gradient", lambda v: gradient(X6, v), 2, WindowError, "k"),
    ("replicate", lambda v: replicate(X6, v), 2, ValueError, "copies"),
    ("minimize.n", lambda v: minimize(v, 2, FAST), 6, DomainError, "n"),
    ("minimize.k", lambda v: minimize(6, v, FAST), 2, DomainError, "k"),
    ("grid_oracle.n", lambda v: grid_oracle(v, 2), 3, DomainError, "n"),
    ("grid_oracle.k", lambda v: grid_oracle(4, v), 2, WindowError, "k"),
    ("MinimizeConfig.restarts", lambda v: MinimizeConfig(restarts=v), 2, ValueError, "restarts"),
    ("MinimizeConfig.seed", lambda v: MinimizeConfig(seed=v), 2, ValueError, "seed"),
    ("MinimizeConfig.max_iters", lambda v: MinimizeConfig(max_iters=v), 2, ValueError, "max_iters"),
    ("run_verification", lambda v: run_verification("fast", v), 1, ValueError, "seed"),
]


@pytest.mark.parametrize("call, good, error, name", [row[1:] for row in INTEGER_SITES],
                         ids=[row[0] for row in INTEGER_SITES])
def test_one_integer_check_for_every_site(call, good, error, name):
    # before the shared check these truncated 2.5, raised OverflowError on inf,
    # accepted nan or raised a TypeError that named no argument
    for bad in (2.5, math.inf, math.nan, "3"):
        with pytest.raises(error) as err:
            call(bad)
        assert type(err.value) is error
        assert re.fullmatch(rf"{name} must be an integer (>= \d+|in \d+\.\.\d+), got "
                            + re.escape(repr(bad)), str(err.value)), str(err.value)
    same = pickle.dumps(call(good))
    assert pickle.dumps(call(float(good))) == same
    assert pickle.dumps(call(np.int64(good))) == same


def test_nan_cap_is_refused_and_integral_floats_are_stored_as_ints():
    # n_cap=nan dropped the cap; n=1266.0 raised a TypeError from Fraction
    with pytest.raises(InvalidSpecError, match=r"^n_cap must be an integer >= 1, got nan$"):
        plan_witness(2, 1e-9, solve_tangent(2), n_cap=math.nan)
    spec = WitnessSpec(**{**SPEC3, "k": 3.0, "n": 1266.0, "m": np.int64(633)})
    assert spec == plan_witness(3, 0.01, solve_tangent(3))
    assert (type(spec.k), type(spec.n), type(spec.m)) == (int, int, int)


A3 = SPEC3["a_star"]

# (site, call with the argument v, a valid v, exception class, argument name,
#  its range, values outside that range)
REAL_SITES = [
    ("eval_g", lambda v: eval_g(v, 0.3), 3, ValueError, "idx", "(0, inf]", (0.0, -1.0)),
    ("eval_g_derivative", lambda v: eval_g_derivative(v, 0.3), 3, ValueError, "idx",
     "(0, inf]", (0.0, -math.inf)),
    ("solve_tangent", solve_tangent, 3, DegenerateFamilyError, "idx", "(1, inf]", (1.0,)),
    ("TangentSolution.idx", lambda v: TangentSolution(v, A3), 3, DegenerateFamilyError, "idx",
     "(1, inf]", (1.0,)),
    ("TangentSolution.a", lambda v: TangentSolution(3.0, v), A3, SolverError, "a",
     "(-inf, inf)", (math.inf, -math.inf)),
    ("plan_witness.eps", lambda v: plan_witness(3, v, solve_tangent(3)), 1, InvalidSpecError,
     "eps", "(0, inf)", (0.0, math.inf)),
    ("WitnessSpec.eps", lambda v: WitnessSpec(**{**SPEC3, "eps": v}), 1, InvalidSpecError, "eps",
     "(0, inf)", (0.0, math.inf)),
    ("WitnessSpec.a_star", lambda v: WitnessSpec(**{**SPEC3, "a_star": v}), A3,
     InvalidSpecError, "a_star", "(-inf, inf)", (math.inf, -math.inf)),
]


@pytest.mark.parametrize("call, good, error, name, interval, outside",
                         [row[1:] for row in REAL_SITES], ids=[row[0] for row in REAL_SITES])
def test_one_real_check_for_every_site(call, good, error, name, interval, outside):
    # before the shared check "3" was parsed as 3.0, nan was called degenerate,
    # None raised a TypeError that named no argument, and TangentSolution kept
    # its idx as it was given; an int past float range and a sized array
    # make float() itself raise
    for bad in ("3", None, math.nan, 10**400, np.array([1.0, 2.0]), *outside):
        with pytest.raises(error) as err:
            call(bad)
        assert type(err.value) is error
        assert str(err.value) == f"{name} must be a real number in {interval}, got {bad!r}"
    same = pickle.dumps(call(float(good)))
    forms = [np.float64(good)]
    if float(good).is_integer():
        forms += [int(good), np.int64(good)]
    for form in forms:
        assert pickle.dumps(call(form)) == same, repr(form)
