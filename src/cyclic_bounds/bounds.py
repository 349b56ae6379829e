"""Headline tables and consistency checks: floors, ceilings, and limit identities.

Each row brackets the large-n infimum constant for one k between the
closed-form floor k (2^{1/k} - 1) and the common-tangent ceiling gamma_k.
The limit row pairs ln 2 (the k -> infinity limit of the floors) with the
limit-family ceiling; the bracket for the overall constant is
ln 2 <= C <= 0.930498.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._records import csv_table, json_text, record
from .funcs import INFINITY, lower_bound_theorem2
from .optimize import MinimizeConfig, minimize
from .sums import CyclicVector, diananda_sum, replicate, zero_insert
from .tangent import solve_tangent

__all__ = [
    "BoundsRow",
    "BoarderDaykinReport",
    "LimitIdentityRecord",
    "bounds_table",
    "bounds_table_csv",
    "bounds_table_json",
    "boarder_daykin_check",
    "limit_identity_demo",
]


@dataclass(frozen=True)
class BoundsRow:
    """Floor/ceiling bracket for one family index (math.inf marks the limit row)."""

    k: float
    lower: float
    upper: float
    gap: float


def bounds_table(k_max: int, tol: float = 1e-12) -> list[BoundsRow]:
    """Rows for k = 2..k_max plus the limit row (inf, ln 2, gamma_inf)."""
    k_max = int(k_max)
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    rows = []
    for k in range(2, k_max + 1):
        lower = lower_bound_theorem2(k)
        upper = solve_tangent(k, tol).gamma
        rows.append(BoundsRow(k=float(k), lower=lower, upper=upper, gap=upper - lower))
    lim_lower = math.log(2.0)
    lim_upper = solve_tangent(INFINITY, tol).gamma
    rows.append(
        BoundsRow(k=math.inf, lower=lim_lower, upper=lim_upper, gap=lim_upper - lim_lower)
    )
    return rows


_FIELDS = "k lower upper gap"


def bounds_table_csv(rows: Sequence[BoundsRow]) -> str:
    return csv_table(_FIELDS, [record(r, _FIELDS) for r in rows])


def bounds_table_json(rows: Sequence[BoundsRow]) -> str:
    return json_text([record(r, _FIELDS) for r in rows])


@dataclass(frozen=True)
class BoarderDaykinReport:
    """Ceiling for k = 3 against the historical numerical bound 0.32598."""

    gamma3: float
    gamma3_over_3: float
    gamma3_over_3_10sig: str
    reference: float
    margin: float
    threshold: float
    holds: bool
    table_value_5dp: float
    matches_table: bool


def boarder_daykin_check(tol: float = 1e-12) -> BoarderDaykinReport:
    """Verify gamma_3 / 3 > 0.32598 - 0.5e-5 and report gamma_3 / 3 to 10 digits."""
    gamma3 = solve_tangent(3, tol).gamma
    third = gamma3 / 3.0
    reference = 0.32598
    margin = 0.5e-5
    threshold = reference - margin
    return BoarderDaykinReport(
        gamma3=gamma3,
        gamma3_over_3=third,
        gamma3_over_3_10sig=format(third, ".10g"),
        reference=reference,
        margin=margin,
        threshold=threshold,
        holds=third > threshold,
        table_value_5dp=round(gamma3, 5),
        matches_table=round(gamma3, 5) == 0.97793,
    )


@dataclass(frozen=True)
class LimitIdentityRecord:
    """One nu in the zero-insertion/replication demonstration."""

    nu: int
    n_small: int
    n_big: int
    sum_small: float
    sum_big: float
    insert_rel_error: float
    replicate_rel_error: float
    min_small: float
    min_big: float
    inequality_ok: bool


def limit_identity_demo(
    k: int,
    nu_list: Sequence[int],
    seed: int = 0,
    minimize_tol: float = 1e-3,
) -> list[LimitIdentityRecord]:
    """Exercise the identities behind the monotonicity of the bracket in k.

    For each nu: draws a random positive vector of length k*nu, checks that
    appending one zero per block preserves the cyclic sum exactly (window
    k -> k+1), that replication preserves the normalized sum, and that the
    minimized value at ((k+1)*nu, k+1) does not exceed the one at (k*nu, k)
    beyond optimizer tolerance.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    records = []
    for nu in nu_list:
        nu = int(nu)
        if nu < 1:
            raise ValueError(f"each nu must be >= 1, got {nu}")
        n_small = k * nu
        n_big = (k + 1) * nu
        x = CyclicVector(np.exp(rng.uniform(-2.0, 2.0, n_small)))
        s_small = diananda_sum(x, k)
        s_big = diananda_sum(zero_insert(x, k), k + 1)
        insert_err = abs(s_big - s_small) / abs(s_small)
        rep = replicate(x, 3)
        rep_err = abs(
            diananda_sum(rep, k) / len(rep) - s_small / n_small
        ) / (s_small / n_small)
        cfg = MinimizeConfig(restarts=6, seed=seed)
        m_small = minimize(n_small, k, cfg).value
        m_big = minimize(n_big, k + 1, cfg).value
        records.append(
            LimitIdentityRecord(
                nu=nu,
                n_small=n_small,
                n_big=n_big,
                sum_small=s_small,
                sum_big=s_big,
                insert_rel_error=insert_err,
                replicate_rel_error=rep_err,
                min_small=m_small,
                min_big=m_big,
                inequality_ok=m_big <= m_small + minimize_tol,
            )
        )
    return records
