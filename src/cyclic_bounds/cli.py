"""Command-line surface: bounds, tangent, witness, minimize, verify.

Exit codes: 0 success, 1 computational or file failure (diagnostic on
stderr), 2 usage error.  All randomness flows from --seed, so identical
invocations produce identical output.  Floats print with 17 significant digits
in csv and json modes and 6 in text mode (the tangent intercept gamma keeps 12).
"""

from __future__ import annotations

import argparse
import math
import sys

from ._records import cell, json_text, record
from .bounds import bounds_table, bounds_table_csv, bounds_table_json
from .errors import CapacityError, CyclicBoundsError
from .optimize import MinimizeConfig, minimize
from .sums import vector_to_lines
from .tangent import _solution_fields, gamma_table_csv, gamma_table_json, solve_tangent
from .verification import report_to_json, run_verification
from .witness import DEFAULT_N_CAP, _value_and_bound, build_witness, plan_witness

__all__ = ["main", "entry_point"]

def _fmt6(v: float) -> str:
    return format(v, ".6g")


def _write_text(fields: dict, width: int) -> None:
    """One `label  value` line per field, labels padded to width; floats take 6 digits."""
    for label, value in fields.items():
        text = _fmt6(value) if isinstance(value, float) else value
        sys.stdout.write(f"{label:<{width}}  {text}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-bounds",
        description="Floors, ceilings, witnesses and minimizers for normalized cyclic sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="floor/ceiling table for k = 2..k-max")
    p_bounds.add_argument("--k-max", type=int, required=True, help="largest k (>= 2)")
    p_bounds.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )

    p_tan = sub.add_parser("tangent", help="common-tangent solution for one k")
    p_tan.add_argument(
        "--k", required=True, help="family index: a real >= 2, or the literal 'inf'"
    )
    p_tan.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_wit = sub.add_parser("witness", help="near-optimal witness vector for one k")
    p_wit.add_argument("--k", type=int, required=True, help="integer k >= 2")
    p_wit.add_argument("--eps", type=float, required=True, help="target slack > 0")
    p_wit.add_argument(
        "--out", default=None, help="stream the vector here, one value per line"
    )
    p_wit.add_argument(
        "--n-cap",
        type=int,
        default=DEFAULT_N_CAP,
        help=f"largest allowed witness length (default {DEFAULT_N_CAP})",
    )
    p_wit.add_argument("--format", choices=("text", "json"), default="text")

    p_min = sub.add_parser("minimize", help="multi-start descent at concrete (n, k)")
    p_min.add_argument("--n", type=int, required=True)
    p_min.add_argument("--k", type=int, required=True)
    p_min.add_argument("--restarts", type=int, default=8)
    p_min.add_argument("--seed", type=int, default=0)
    p_min.add_argument("--max-iters", type=int, default=600)

    p_ver = sub.add_parser("verify", help="run the randomized invariant suites")
    p_ver.add_argument("--suite", choices=("all", "fast"), default="fast")
    p_ver.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_bounds(parser, args) -> int:
    if args.k_max < 2:
        parser.error(f"--k-max must be >= 2, got {args.k_max}")
    rows = bounds_table(args.k_max)
    if args.format == "csv":
        sys.stdout.write(bounds_table_csv(rows))
    elif args.format == "json":
        sys.stdout.write(bounds_table_json(rows) + "\n")
    else:
        sys.stdout.write(f"{'k':>6}  {'lower':>10}  {'upper':>10}  {'gap':>10}\n")
        for r in rows:
            k = cell("k", r.k)
            sys.stdout.write(
                f"{k:>6}  {_fmt6(r.lower):>10}  {_fmt6(r.upper):>10}  {_fmt6(r.gap):>10}\n"
            )
    return 0


def _cmd_tangent(parser, args) -> int:
    try:
        idx = float(args.k)
    except ValueError:
        parser.error(f"--k must be a real number or 'inf', got {args.k!r}")
    if not idx >= 2.0:
        parser.error(f"--k must be >= 2 or 'inf', got {args.k}")
    sol = solve_tangent(idx)
    if args.format == "csv":
        sys.stdout.write(gamma_table_csv([sol]))
    elif args.format == "json":
        sys.stdout.write(gamma_table_json([sol]) + "\n")
    else:
        fields = _solution_fields(sol)
        fields["gamma"] = cell("gamma", sol.gamma)  # 12 digits in every format
        fields["residuals"] = "  ".join(format(r, ".3g") for r in sol.residuals)
        _write_text(fields, 6)
    return 0


def _cmd_witness(parser, args) -> int:
    if args.k < 2:
        parser.error(f"--k must be an integer >= 2, got {args.k}")
    if not 0.0 < args.eps < math.inf:
        parser.error(f"--eps must be positive and finite, got {args.eps}")
    sol = solve_tangent(args.k)
    spec = plan_witness(args.k, args.eps, sol, n_cap=args.n_cap)
    x = build_witness(spec)
    report = _value_and_bound(spec, x)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(vector_to_lines(x))
    ok = report.value <= report.analytic_bound < report.gamma_plus_eps
    if args.format == "json":
        fields = {**spec.json_fields(), "m_prime": spec.m_prime}
        fields.update(record(report, "value analytic_bound gamma_plus_eps"), certified=ok)
        sys.stdout.write(json_text(fields) + "\n")
    else:
        fields = record(spec, "k n m m_prime mu_star a_star b_star delta")
        fields.update(record(report, "analytic_bound value gamma_plus_eps"))
        if args.out:
            fields["vector"] = args.out
        _write_text(fields, 14)
    if not ok:
        sys.stderr.write(
            f"witness certification failed: value={report.value!r}, "
            f"bound={report.analytic_bound!r}, target={report.gamma_plus_eps!r}\n"
        )
        return 1
    return 0


def _cmd_minimize(parser, args) -> int:
    if args.k < 1 or args.n < args.k:
        parser.error(f"need n >= k >= 1, got n={args.n}, k={args.k}")
    for flag in ("restarts", "seed", "max_iters"):
        value = getattr(args, flag)
        if value < 0:
            parser.error(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    cfg = MinimizeConfig(
        restarts=args.restarts, seed=args.seed, max_iters=args.max_iters
    )
    result = minimize(args.n, args.k, cfg)
    sys.stdout.write(result.to_json() + "\n")
    return 0


def _cmd_verify(parser, args) -> int:
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    report = run_verification(suite=args.suite, seed=args.seed)
    sys.stdout.write(report_to_json(report) + "\n")
    return 0 if report.passed else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bounds": _cmd_bounds,
        "tangent": _cmd_tangent,
        "witness": _cmd_witness,
        "minimize": _cmd_minimize,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](parser, args)
    except CapacityError as exc:
        needed = f" (needed n = {exc.required_n})" if exc.required_n else ""
        sys.stderr.write(f"capacity error: {exc}{needed}\n")
        return 1
    except (CyclicBoundsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
