"""Command-line front end.

Every command writes a single machine-readable document (JSON object or
CSV table) to stdout; diagnostics go to stderr.  Reals are serialized
with 17 significant digits so values round-trip exactly.

Exit codes: 0 success, 1 domain/numerical error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import DomainError
from . import power_engine as pe
from .normal_math import std_normal_cdf, std_normal_quantile
from .simulate import SimConfig, run_campaign

__all__ = ["main", "build_parser"]


_MAX_CURVE_POINTS = 100_001


def _fmt(key: str, value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError(f"{key} is {value}, which has no JSON or CSV form")
        return format(value, ".17g")
    return str(value)


def _json_value(key: str, value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(key, v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{k}": {_json_value(k, v)}' for k, v in value.items()) + "}"
    if isinstance(value, str):
        return f'"{value}"'
    return _fmt(key, value)


def _csv_line(items) -> str:
    return ",".join(_fmt(k, v) for k, v in items) + "\n"


def _emit(doc: dict, fmt: str, rows_key: "str | None" = None) -> None:
    """Write the result document to stdout, all at once.

    JSON: the dict as a single object. CSV: one header + one data row for
    scalar documents; if ``rows_key`` names a list of row dicts, those
    become the table and the remaining scalar entries repeat per row.
    A non-finite number raises ArithmeticError before anything is written.
    """
    if fmt == "json":
        text = _json_value("", doc) + "\n"
    elif rows_key is None:
        text = ",".join(doc) + "\n" + _csv_line(doc.items())
    else:
        rows = doc[rows_key]
        scalars = {k: v for k, v in doc.items() if k != rows_key}
        text = ",".join(list(rows[0]) + list(scalars)) + "\n"
        text += "".join(_csv_line([*row.items(), *scalars.items()]) for row in rows)
    sys.stdout.write(text)


def _even_int(text: str) -> int:
    if int(text) % 2 != 0:
        raise argparse.ArgumentTypeError(f"must be even for an exact 1:1 split, got {text}")
    return int(text)


def _add_output(sub: argparse.ArgumentParser, handler, rows_key=None) -> None:
    """The --format flag, and the handler that maps parsed args to the result
    document; ``rows_key`` names its list of rows that CSV tabulates."""
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(handler=handler, rows_key=rows_key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ancova-power",
        description="Power analysis for covariate-adjusted 1:1 randomized trials.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("power", help="power of the adjusted analysis at a given design")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=float, required=True, help="total sample size, both arms")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--exact", action="store_true",
                   help="also report the two-term power and the dropped tail term")
    _add_output(p, _cmd_power)

    p = commands.add_parser("sample-size", help="total N for a target unadjusted power")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--power", type=float, default=0.80)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--round-even", action="store_true",
                   help="also report the smallest even integer >= N")
    _add_output(p, _cmd_sample_size)

    p = commands.add_parser("ratio", help="adjusted/unadjusted power ratio at one r")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--power", type=float, default=0.80)
    p.add_argument("--r", type=float, required=True)
    _add_output(p, _cmd_ratio)

    p = commands.add_parser("curve", help="power-ratio table over a grid of r")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--power", type=float, default=0.80)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_output(p, _cmd_curve, rows_key="rows")

    p = commands.add_parser("expand", help="series expansion parameters and coefficients")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--power", type=float, default=0.80)
    _add_output(p, _cmd_expand)

    p = commands.add_parser("simulate", help="Monte Carlo campaign vs analytic power")
    p.add_argument("--n", type=_even_int, required=True, help="total sample size, must be even")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test", choices=("z", "t"), default="t")
    p.add_argument("--adjust", choices=("true", "false"), default="true")
    _add_output(p, _cmd_simulate)

    return parser


def _cmd_power(args) -> dict:
    design = pe.TrialDesign(alpha=args.alpha, tau=args.tau, sigma=args.sigma,
                            n_total=args.n, r=args.r)
    doc = {
        "alpha": args.alpha, "tau": args.tau, "sigma": args.sigma,
        "n": args.n, "r": args.r,
        "power": pe.approx_power_one_term(design),
    }
    if args.exact:
        nu = math.sqrt(pe.asymptotic_variance(design))
        a = std_normal_quantile(args.alpha / 2.0)
        doc["power_exact"] = pe.exact_power_two_term(design)
        doc["dropped_tail_term"] = std_normal_cdf(a - abs(args.tau) / nu)
    return doc


def _cmd_sample_size(args) -> dict:
    n = pe.required_sample_size(args.alpha, args.power, args.tau, args.sigma)
    doc = {
        "alpha": args.alpha, "power": args.power,
        "tau": args.tau, "sigma": args.sigma, "n": n,
    }
    if args.round_even:
        doc["n_round_even"] = 2 * math.ceil(n / 2.0)
    return doc


def _cmd_ratio(args) -> dict:
    return {
        "alpha": args.alpha, "power": args.power, "r": args.r,
        "exact": pe.power_ratio_exact(args.alpha, args.power, args.r),
        "series": pe.power_ratio_series(args.alpha, args.power, args.r),
        "thumb": pe.rule_of_thumb(args.r),
    }


def _cmd_curve(args) -> dict:
    if not (0.0 < args.step < math.inf):
        raise DomainError(f"--step must be positive and finite, got {args.step}")
    if not (0.0 <= args.r_max < 1.0):
        raise DomainError(f"--r-max must lie in [0, 1), got {args.r_max}")
    last = args.r_max / args.step + 1e-9
    if not last < _MAX_CURVE_POINTS:
        raise DomainError(f"--step {args.step} gives more than {_MAX_CURVE_POINTS} grid "
                          f"points up to --r-max {args.r_max}; use a larger --step")
    grid = [i * args.step for i in range(int(math.floor(last)) + 1)]
    report = pe.ratio_report(args.alpha, args.power, grid)
    rows = [
        {"r": r, "exact_ratio": e, "series_ratio": s, "thumb_ratio": t}
        for r, e, s, t in zip(report.r_grid, report.exact_ratio,
                              report.series_ratio, report.thumb_ratio)
    ]
    return {
        "alpha": args.alpha, "power": args.power,
        "rows": rows,
        "max_abs_err_series": report.max_abs_err_series,
        "max_abs_err_thumb": report.max_abs_err_thumb,
    }


def _cmd_expand(args) -> dict:
    params = pe.expansion_params(args.alpha, args.power)
    c0, c2 = pe.series_coefficients(params)
    return {
        "alpha": args.alpha, "power": args.power,
        "a": params.a, "b": params.b,
        "c0": c0, "c2": c2,
        "c2_finite_difference": pe.ratio_curvature_fd(args.alpha, args.power),
    }


def _cmd_simulate(args) -> dict:
    config = SimConfig(
        n_subjects=args.n, tau=args.tau, sigma=args.sigma, rho=args.rho,
        alpha=args.alpha, n_reps=args.reps, seed=args.seed,
        test_kind="wald_z" if args.test == "z" else "student_t",
        adjust=args.adjust == "true",
    )
    result = run_campaign(config)
    return {
        "n": args.n, "tau": args.tau, "sigma": args.sigma, "rho": args.rho,
        "alpha": args.alpha, "reps": args.reps, "seed": args.seed,
        "test": args.test, "adjust": args.adjust == "true",
        "rejection_rate": result.rejection_rate,
        "mc_stderr": result.mc_stderr,
        "mean_tau_hat": result.mean_tau_hat,
        "empirical_se_tau_hat": result.empirical_se_tau_hat,
        "analytic_se": result.analytic_se,
        "analytic_power": result.analytic_power,
        "n_reps_completed": result.n_reps_completed,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.handler(args), args.format, rows_key=args.rows_key)
    except (DomainError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
