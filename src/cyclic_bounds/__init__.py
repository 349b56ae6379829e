"""Cyclic sums of Diananda type: values, floors, ceilings, witnesses, minimizers.

The package evaluates the normalized cyclic sums (k/n) * sum_i x_i / (x_{i+1}
+ ... + x_{i+k}) on the nonnegative cone, reproduces their closed-form floor
k (2^{1/k} - 1), solves the common-tangent system whose y-intercept gamma_k
caps the large-n infimum, builds sparse-geometric witness vectors driving the
normalized sum below gamma_k + eps, and cross-checks a log-coordinate
minimizer against a brute-force grid oracle.

The scalar layers import no numpy, so `import cyclic_bounds` does not either:
the array names below (from `sums` and `optimize`) are resolved on first use.
"""

import importlib

from .errors import (
    CapacityError,
    CyclicBoundsError,
    DegenerateFamilyError,
    DomainError,
    InvalidSpecError,
    NoBracketError,
    ShapeError,
    SolverError,
    WindowError,
)
from .funcs import (
    INFINITY,
    eval_f,
    eval_f_derivative,
    eval_g,
    eval_g_derivative,
    eval_p,
    lower_bound_theorem2,
)
from .tangent import TangentSolution, solve_tangent
from .witness import (
    WitnessReport,
    WitnessSpec,
    build_witness,
    plan_witness,
    witness_value_and_bound,
)
from .bounds import BoundsRow, bounds_table

__version__ = "0.1.0"

# Public name -> the numpy-backed submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("BlockDiagnostics", "CyclicVector", "as_cyclic_vector", "baston_sum",
         "block_diagnostics", "diananda_sum", "replicate", "zero_insert"),
        "sums",
    ),
    **dict.fromkeys(
        ("MinimizationResult", "MinimizeConfig", "grid_oracle", "gradient", "minimize"),
        "optimize",
    ),
}

__all__ = [
    "CapacityError", "CyclicBoundsError", "DegenerateFamilyError", "DomainError",
    "InvalidSpecError", "NoBracketError", "ShapeError", "SolverError", "WindowError",
    "INFINITY", "eval_f", "eval_f_derivative", "eval_g", "eval_g_derivative", "eval_p",
    "lower_bound_theorem2",
    "TangentSolution", "solve_tangent",
    "WitnessReport", "WitnessSpec", "build_witness", "plan_witness", "witness_value_and_bound",
    "BoundsRow", "bounds_table",
    *_LAZY,
]


def __getattr__(name: str):
    # Looked up afresh on every access rather than cached here, so the name
    # always reads the submodule's current binding.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return list(__all__)
