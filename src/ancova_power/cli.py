"""Command-line front end.

Every command writes a single machine-readable document (JSON object or
CSV table) to stdout; diagnostics go to stderr.  Reals are serialized
with 17 significant digits so values round-trip exactly.  A document
holds the command's leading inputs, in flag order, then its results.

Exit codes: 0 success, 1 domain/numerical error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys

import numpy as np

from .errors import DomainError
from . import power_engine as pe
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


def _emit(doc: dict, fmt: str, rows_key: "str | None" = None) -> None:
    """Write the result document to stdout, all at once: JSON, the dict as one
    object; CSV, a header and a line per row, the rows being the document itself
    or, if ``rows_key`` names its list of row dicts, those, each followed by the
    other entries. A non-finite number raises ArithmeticError before any output."""
    if fmt == "json":
        text = _json_value("", doc) + "\n"
    else:
        rows = doc[rows_key] if rows_key else [doc]
        scalars = {k: v for k, v in doc.items() if k != rows_key} if rows_key else {}
        # a row at a time: all rows' items alive at once set the garbage collector off
        text = ",".join([*rows[0], *scalars]) + "\n" + "".join(
            ",".join(_fmt(k, v) for k, v in [*row.items(), *scalars.items()]) + "\n"
            for row in rows)
    sys.stdout.write(text)


def _even_int(text: str) -> int:
    if int(text) % 2 != 0:
        raise argparse.ArgumentTypeError(f"must be even for an exact 1:1 split, got {text}")
    return int(text)


def _true_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"must be true or false, got {text!r}")
    return text == "true"


def _cmd_power(args) -> dict:
    design = pe.TrialDesign(args.alpha, args.tau, args.sigma, n_total=args.n, r=args.r)
    power, tail = pe.power_terms(design)
    exact = {"power_exact": tail + power, "dropped_tail_term": tail} if args.exact else {}
    return {"power": power, **exact}


def _cmd_sample_size(args) -> dict:
    n = pe.required_sample_size(args.alpha, args.power, args.tau, args.sigma)
    return {"n": n, "n_round_even": 2 * math.ceil(n / 2.0)} if args.round_even else {"n": n}


def _cmd_ratio(args) -> dict:
    return {"exact": pe.power_ratio_exact(args.alpha, args.power, args.r),
            "series": pe.power_ratio_series(args.alpha, args.power, args.r),
            "thumb": pe.rule_of_thumb(args.r)}


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
    rows = [{"r": r, "exact_ratio": e, "series_ratio": s, "thumb_ratio": t} for r, e, s, t
            in zip(report.r_grid, report.exact_ratio, report.series_ratio, report.thumb_ratio)]
    return {"rows": rows, "max_abs_err_series": report.max_abs_err_series,
            "max_abs_err_thumb": report.max_abs_err_thumb}


def _cmd_expand(args) -> dict:
    params = pe.expansion_params(args.alpha, args.power)
    c0, c2 = pe.series_coefficients(params)
    return {"a": params.a, "b": params.b, "c0": c0, "c2": c2,
            "c2_finite_difference": pe.ratio_curvature_fd(args.alpha, args.power)}


def _cmd_simulate(args) -> dict:
    config = SimConfig(n_subjects=args.n, tau=args.tau, sigma=args.sigma, rho=args.rho,
                       alpha=args.alpha, n_reps=args.reps, seed=args.seed, adjust=args.adjust,
                       test_kind="wald_z" if args.test == "z" else "student_t")
    return dataclasses.asdict(run_campaign(config))


# every flag, declared once: its name as the document spells it -> argparse keywords
_FLAGS = {
    "alpha": dict(type=float, default=0.05),
    "power": dict(type=float, default=0.80),
    **dict.fromkeys(("tau", "sigma", "r_max", "step"), dict(type=float, required=True)),
    **dict.fromkeys(("r", "rho"), dict(type=float, default=0.0)),
    "n": dict(type=float, required=True, help="total sample size, both arms"),
    "exact": dict(action="store_true",
                  help="also report the two-term power and the dropped tail term"),
    "round_even": dict(action="store_true", help="also report the smallest even integer >= N"),
    "reps": dict(type=int, required=True),
    "seed": dict(type=int, default=0),
    "test": dict(choices=("z", "t"), default="t"),
    "adjust": dict(type=_true_false, default=True, metavar="{true,false}"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _flags(*names, **replaced) -> dict:
    """Name -> argparse keywords of the named flags and of --format; ``replaced``
    maps a name to keywords that replace some of its own."""
    return {name: {**_FLAGS[name], **replaced.get(name, {})} for name in (*names, "format")}


# command -> help, handler, flags, how many leading flags the document starts with,
# and the key of the list of row dicts that CSV tabulates
_COMMANDS = {
    "power": ("power of the adjusted analysis at a given design", _cmd_power,
              _flags("alpha", "tau", "sigma", "n", "r", "exact"), 5, None),
    "sample-size": ("total N for a target unadjusted power", _cmd_sample_size,
                    _flags("alpha", "power", "tau", "sigma", "round_even"), 4, None),
    "ratio": ("adjusted/unadjusted power ratio at one r", _cmd_ratio,
              _flags("alpha", "power", "r", r=dict(required=True)), 3, None),
    "curve": ("power-ratio table over a grid of r", _cmd_curve,
              _flags("alpha", "power", "r_max", "step"), 2, "rows"),
    "expand": ("series expansion parameters and coefficients", _cmd_expand,
               _flags("alpha", "power"), 2, None),
    "simulate": ("Monte Carlo campaign vs analytic power", _cmd_simulate,
                 _flags("n", "tau", "sigma", "rho", "alpha", "reps", "seed", "test", "adjust",
                        n=dict(type=_even_int, help="total sample size, must be even")),
                 9, None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared by every
    ``main`` call (argparse keeps no state from one parse to the next)."""
    parser = argparse.ArgumentParser(prog="ancova-power", description=(
        "Power analysis for covariate-adjusted 1:1 randomized trials."))
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, flags, echo, rows_key) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        # argparse's own pattern takes "-1e-05" for an option, not a negative value
        sub._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")
        for name, keywords in flags.items():
            sub.add_argument("--" + name.replace("_", "-"), **keywords)
        sub.set_defaults(handler=handler, echo=list(flags)[:echo], rows_key=rows_key)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    doc = {name: getattr(args, name) for name in args.echo}
    try:
        doc.update(args.handler(args))
        _emit(doc, args.format, rows_key=args.rows_key)
    except (DomainError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
