"""The public names of every layer resolve, and the package exports a fixed set.

A name left in a layer's `__all__` after its object was deleted breaks
`from cyclic_bounds.<layer> import *` and any tool that wraps each listed
name, so every listed name must resolve in its module.  The package and the
scalar commands load no numpy; only the array layer does.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclic_bounds

LAYERS = ("funcs", "sums", "tangent", "witness", "optimize", "bounds", "verification", "cli")

# Everything `import cyclic_bounds` binds that is neither private nor a submodule.
PACKAGE_API = {
    "AmbiguousBracketError", "CapacityError", "CyclicBoundsError", "DegenerateFamilyError",
    "DomainError", "InvalidSpecError", "NoBracketError", "ShapeError", "SolverError",
    "WindowError",
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
