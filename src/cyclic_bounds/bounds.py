"""Headline table: the floor and ceiling of each family index.

Each row brackets the large-n infimum constant for one k between the
closed-form floor k (2^{1/k} - 1) and the common-tangent ceiling gamma_k.
The limit row pairs ln 2 (the k -> infinity limit of the floors) with the
limit-family ceiling; the bracket for the overall constant is
ln 2 <= C <= gamma_inf = 0.93049806... < 0.9305.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _integer
from .funcs import INFINITY, lower_bound_theorem2
from .tangent import solve_tangent

__all__ = ["BoundsRow", "bounds_table"]


@dataclass(frozen=True)
class BoundsRow:
    """Floor/ceiling bracket for one family index (math.inf marks the limit row)."""

    k: float
    lower: float
    upper: float
    gap: float


def bounds_table(k_max: int) -> list[BoundsRow]:
    """Rows for k = 2..k_max plus the limit row (inf, ln 2, gamma_inf)."""
    ki = _integer("k_max", k_max, 2)
    rows = []
    for k in range(2, ki + 1):
        lower = lower_bound_theorem2(k)
        upper = solve_tangent(k).gamma
        rows.append(BoundsRow(k=float(k), lower=lower, upper=upper, gap=upper - lower))
    lim_lower = math.log(2.0)
    lim_upper = solve_tangent(INFINITY).gamma
    rows.append(
        BoundsRow(k=math.inf, lower=lim_lower, upper=lim_upper, gap=lim_upper - lim_lower)
    )
    return rows
