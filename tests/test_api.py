"""The public names of every layer resolve, and the package exports a fixed set.

A name left in a layer's `__all__` after its object was deleted breaks
`from cyclic_bounds.<layer> import *` and any tool that wraps each listed
name, so every listed name must resolve in its module.
"""

import importlib

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
    "diananda_sum", "replicate", "vector_to_lines", "zero_insert",
    "TangentSolution", "solve_tangent",
    "WitnessReport", "WitnessSpec", "build_witness", "plan_witness", "witness_value_and_bound",
    "MinimizationResult", "MinimizeConfig", "grid_oracle", "gradient", "minimize",
    "BoundsRow", "bounds_table",
}


@pytest.mark.parametrize("layer", LAYERS)
def test_every_listed_name_resolves(layer):
    mod = importlib.import_module(f"cyclic_bounds.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_exactly_the_public_api():
    public = {
        name
        for name, value in vars(cyclic_bounds).items()
        if not name.startswith("_") and type(value) is not type(cyclic_bounds)
    }
    assert public == PACKAGE_API


def test_bounds_and_optimize_list_only_their_current_api():
    from cyclic_bounds import bounds, optimize

    assert set(bounds.__all__) == {"BoundsRow", "bounds_table", "bounds_table_csv", "bounds_table_json"}
    assert set(optimize.__all__) == {
        "MinimizeConfig", "MinimizationResult", "gradient", "minimize", "grid_oracle"
    }
