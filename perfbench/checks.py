"""Checks of every operation's output against ``oracle`` or a property the
method must have. Nothing here compares with a stored copy of an output.

Monte Carlo results are compared with the finite-sample oracle within
``Z`` Monte Carlo standard errors. Closed-form outputs are compared with
the scipy forms within a tolerance propagated from the package's stated
kernel contracts (see ``normal_math``): normal CDF absolute error
<= 1e-12, quantile round trip <= 1e-12, erfc relative error <= 1e-12.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import stats

import oracle

__all__ = ["Z", "check_campaign", "check_ratio", "check_pooled", "check_command"]

# Width of the Monte Carlo checks, in standard errors. A correct program
# trips one check with probability ~2e-9; a run makes a few hundred.
Z = 6.0

CDF_ABS = 1e-12
QUANTILE_ROUND_TRIP = 1e-12
ERFC_REL = 1e-12
ULP = 2.0 ** -52
# first-order propagation of the contracts, widened for rounding
SAFETY = 4.0
# step of power_engine.ratio_curvature_fd, as documented there
FD_STEP = 1e-5


def _close(name, got, want, tol) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{name}={got!r}, reference {want!r}, |diff| {abs(got - want):.3g} > tol {tol:.3g}"]


# --- simulator campaigns ---

def _power_of(spec: dict) -> float:
    return oracle.finite_sample_power(spec["alpha"], spec["tau"], spec["sigma"], spec["rho"],
                                      spec["n_subjects"], spec["adjust"])


def check_campaign(spec: dict, res: dict) -> list:
    """One SimResult against the finite-sample oracle and its own definitions."""
    n, reps, adjust = spec["n_subjects"], spec["n_reps"], spec["adjust"]
    p = _power_of(spec)
    sd = oracle.finite_sample_se(spec["sigma"], spec["rho"], n, adjust)
    kurt = oracle.tau_hat_kurtosis(n, adjust)
    rate = res["rejection_rate"]
    problems = []
    if res["n_reps_completed"] != reps:
        problems.append(f"n_reps_completed={res['n_reps_completed']}, requested {reps}")
    problems += _close("rejection_rate", rate, p, Z * math.sqrt(p * (1 - p) / reps))
    problems += _close("mean_tau_hat", res["mean_tau_hat"], spec["tau"], Z * sd / math.sqrt(reps))
    problems += _close("empirical_se_tau_hat", res["empirical_se_tau_hat"], sd,
                       Z * sd * math.sqrt((kurt - 1.0) / (4.0 * reps)))
    problems += _close("mc_stderr", res["mc_stderr"], math.sqrt(rate * (1 - rate) / reps),
                       1e-14)
    r = spec["rho"] if adjust else 0.0
    nu = oracle.asymptotic_se(spec["sigma"], n, r)
    problems += _close("analytic_se", res["analytic_se"], nu, 8 * ULP * nu)
    want, tol = _two_term(spec["alpha"], spec["tau"], spec["sigma"], n, r)
    problems += _close("analytic_power", res["analytic_power"], want, tol)
    return problems


def check_ratio(adj_spec, adj_res, unadj_spec, unadj_res) -> list:
    """Adjusted over unadjusted rejection rate of two independent campaigns."""
    pa, pu = _power_of(adj_spec), _power_of(unadj_spec)
    ra, ru = adj_spec["n_reps"], unadj_spec["n_reps"]
    want = pa / pu
    se = want * math.sqrt((1 - pa) / (pa * ra) + (1 - pu) / (pu * ru))
    return _close("power ratio", adj_res["rejection_rate"] / unadj_res["rejection_rate"],
                  want, Z * se)


def check_pooled(spec: dict, results: list) -> list:
    """All campaigns of one design in a run, pooled: tighter checks of the
    power, the mean of tau_hat and its SD than one campaign allows."""
    n, adjust = spec["n_subjects"], spec["adjust"]
    p = _power_of(spec)
    sd = oracle.finite_sample_se(spec["sigma"], spec["rho"], n, adjust)
    kurt = oracle.tau_hat_kurtosis(n, adjust)
    reps = sum(res["n_reps_completed"] for res in results)
    rejections = sum(round(res["rejection_rate"] * res["n_reps_completed"]) for res in results)
    mean = sum(res["mean_tau_hat"] * res["n_reps_completed"] for res in results) / reps
    within = sum(res["empirical_se_tau_hat"] ** 2 * (res["n_reps_completed"] - 1) for res in results)
    pooled_sd = math.sqrt(within / (reps - len(results)))
    where = f" over {len(results)} campaigns, {reps} reps"
    return (_close("pooled rejection rate" + where, rejections / reps, p,
                   Z * math.sqrt(p * (1 - p) / reps))
            + _close("pooled mean_tau_hat" + where, mean, spec["tau"], Z * sd / math.sqrt(reps))
            + _close("pooled empirical SE" + where, pooled_sd, sd,
                     Z * sd * math.sqrt((kurt - 1.0) / (4.0 * reps))))


# --- closed-form CLI documents ---

def _q_err(p: float) -> float:
    """Error bound of the package's quantile at p, from its round-trip contract."""
    return QUANTILE_ROUND_TRIP / stats.norm.pdf(stats.norm.ppf(p))


def _cdf_tol(x, x_err):
    """Bound on |Phi_hat(x_hat) - Phi(x)| given |x_hat - x| <= x_err."""
    return SAFETY * (CDF_ABS + stats.norm.pdf(x) * x_err)


def _power_terms(alpha, tau, sigma, n, r) -> tuple:
    """Tolerances of Phi(a + |tau|/nu) and Phi(a - |tau|/nu)."""
    a = stats.norm.ppf(alpha / 2.0)
    s = abs(tau) / oracle.asymptotic_se(sigma, n, r)
    x_err = _q_err(alpha / 2.0) + 8 * ULP * s
    return _cdf_tol(a + s, x_err), _cdf_tol(a - s, x_err)


def _two_term(alpha, tau, sigma, n, r) -> tuple:
    return oracle.two_term_power(alpha, tau, sigma, n, r), sum(_power_terms(alpha, tau, sigma, n, r))


def _c2_with_tol(alpha, power) -> tuple:
    a, b = oracle.expansion_params(alpha, power)
    c2 = oracle.series_c2(alpha, power)
    s = a + b
    b_err = _q_err(alpha / 2.0) + _q_err(power)
    s_err = _q_err(power) + 4 * ULP * abs(s)
    rel = b_err / abs(b) + abs(s) * s_err + ERFC_REL + 8 * ULP
    return c2, SAFETY * abs(c2) * rel


def _c0_tol(power) -> float:
    # (2 - erfc(s/sqrt2)) / erfc(-s/sqrt2) with both erfc within ERFC_REL
    s = stats.norm.ppf(power)
    upper = math.erfc(s / math.sqrt(2.0))
    return SAFETY * (ERFC_REL * upper / (2.0 * power) + ERFC_REL + 4 * ULP)


def _ratio_exact_tol(alpha, power, r):
    a, b = oracle.expansion_params(alpha, power)
    k = np.sqrt(1.0 - r * r)
    x = a + b / k
    x_err = _q_err(alpha / 2.0) + (_q_err(alpha / 2.0) + _q_err(power)) / k + 8 * ULP * np.abs(x)
    return oracle.ratio_exact(alpha, power, r), _cdf_tol(x, x_err) / power


def _ratio_series_tol(alpha, power, r):
    c2, c2_tol = _c2_with_tol(alpha, power)
    return 1.0 + c2 * r * r, _c0_tol(power) + r * r * c2_tol


def _finite(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"not finite: {value!r}")
    return value


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _parse(text: str, fmt: str, rows_key: "str | None") -> dict:
    """The document as {key: number} plus ``rows_key`` -> list of row dicts."""
    if fmt == "json":
        lines = text.splitlines()
        if len(lines) != 1:
            raise ValueError(f"expected one JSON line, got {len(lines)}")
        doc = json.loads(lines[0], parse_constant=_reject_constant)
        if rows_key is not None:
            doc[rows_key] = [{k: _finite(v) for k, v in row.items()} for row in doc[rows_key]]
        return {k: (v if k == rows_key else _finite(v)) for k, v in doc.items()}

    table = list(csv.reader(io.StringIO(text)))
    header, body = table[0], table[1:]
    if not body or any(len(row) != len(header) for row in body):
        raise ValueError("ragged or empty CSV table")
    records = [{k: _finite(float(v)) for k, v in zip(header, row)} for row in body]
    if rows_key is None:
        if len(records) != 1:
            raise ValueError(f"expected one CSV data row, got {len(records)}")
        return records[0]
    row_keys = ("r", "exact_ratio", "series_ratio", "thumb_ratio")
    scalars = {k: v for k, v in records[0].items() if k not in row_keys}
    if any({k: rec[k] for k in scalars} != scalars for rec in records):
        raise ValueError("per-document CSV columns differ between rows")
    return dict(scalars, **{rows_key: [{k: rec[k] for k in row_keys} for rec in records]})


def _keys(doc: dict, want: tuple) -> list:
    if set(doc) != set(want):
        return [f"keys {sorted(doc)}, expected {sorted(want)}"]
    return []


def _echo(doc: dict, args: dict, names: tuple) -> list:
    return [f"{k}={doc[k]!r} does not echo the input {args[k]!r}"
            for k in names if doc[k] != args[k]]


def _check_power(doc, args) -> list:
    alpha, tau, sigma, n, r = (args[k] for k in ("alpha", "tau", "sigma", "n", "r"))
    problems = _keys(doc, ("alpha", "tau", "sigma", "n", "r",
                           "power", "power_exact", "dropped_tail_term"))
    if problems:
        return problems
    problems += _echo(doc, args, ("alpha", "tau", "sigma", "n", "r"))
    one_tol, tail_tol = _power_terms(alpha, tau, sigma, n, r)
    problems += _close("power", doc["power"], oracle.one_term_power(alpha, tau, sigma, n, r),
                       one_tol)
    problems += _close("dropped_tail_term", doc["dropped_tail_term"],
                       oracle.dropped_tail(alpha, tau, sigma, n, r), tail_tol)
    want, tol = _two_term(alpha, tau, sigma, n, r)
    problems += _close("power_exact", doc["power_exact"], want, tol)
    return problems


def _check_sample_size(doc, args) -> list:
    alpha, power, tau, sigma = (args[k] for k in ("alpha", "power", "tau", "sigma"))
    problems = _keys(doc, ("alpha", "power", "tau", "sigma", "n", "n_round_even"))
    if problems:
        return problems
    problems += _echo(doc, args, ("alpha", "power", "tau", "sigma"))
    _, b = oracle.expansion_params(alpha, power)
    want = oracle.required_n(alpha, power, tau, sigma)
    tol = SAFETY * want * (2.0 * (_q_err(alpha / 2.0) + _q_err(power)) / b + 8 * ULP)
    problems += _close("n", doc["n"], want, tol)
    even = doc["n_round_even"]
    if even != math.floor(even) or even % 2 != 0 or not (doc["n"] <= even < doc["n"] + 2):
        problems.append(f"n_round_even={even!r} is not the least even integer >= n={doc['n']!r}")
    boundary = 2.0 * round(want / 2.0)
    if abs(want - boundary) > tol and even != 2 * math.ceil(want / 2.0):
        problems.append(f"n_round_even={even!r}, reference {2 * math.ceil(want / 2.0)}")
    return problems


def _check_ratio_doc(doc, args) -> list:
    alpha, power, r = args["alpha"], args["power"], args["r"]
    problems = _keys(doc, ("alpha", "power", "r", "exact", "series", "thumb"))
    if problems:
        return problems
    problems += _echo(doc, args, ("alpha", "power", "r"))
    want, tol = _ratio_exact_tol(alpha, power, r)
    problems += _close("exact", doc["exact"], float(want), float(tol))
    want, tol = _ratio_series_tol(alpha, power, r)
    problems += _close("series", doc["series"], want, tol)
    problems += _close("thumb", doc["thumb"], 1.0 + 0.5 * r * r, 4 * ULP)
    return problems


def _check_expand(doc, args) -> list:
    alpha, power = args["alpha"], args["power"]
    problems = _keys(doc, ("alpha", "power", "a", "b", "c0", "c2", "c2_finite_difference"))
    if problems:
        return problems
    problems += _echo(doc, args, ("alpha", "power"))
    a, b = oracle.expansion_params(alpha, power)
    problems += _close("a", doc["a"], a, SAFETY * _q_err(alpha / 2.0))
    problems += _close("b", doc["b"], b, SAFETY * (_q_err(alpha / 2.0) + _q_err(power)))
    problems += _close("c0", doc["c0"], 1.0, _c0_tol(power))
    c2, c2_tol = _c2_with_tol(alpha, power)
    problems += _close("c2", doc["c2"], c2, c2_tol)
    # the same central difference in r^2, evaluated with scipy; the kernels'
    # CDF error enters divided by the step
    fd = (_ratio_at_r2(a, b, power, FD_STEP) - _ratio_at_r2(a, b, power, -FD_STEP)) / (2.0 * FD_STEP)
    fd_tol = SAFETY * 2.0 * (CDF_ABS / power + 4 * ULP) / (2.0 * FD_STEP) + c2_tol
    problems += _close("c2_finite_difference", doc["c2_finite_difference"], float(fd), fd_tol)
    problems += _close("c2_finite_difference vs c2", doc["c2_finite_difference"], c2, 1e-6)
    return problems


def _ratio_at_r2(a, b, power, r2) -> float:
    """The exact ratio as a function of r^2, continued to r^2 < 0."""
    return float(stats.norm.cdf(a + b / math.sqrt(1.0 - r2)) / power)


def _check_curve(doc, args) -> list:
    alpha, power, r_max, step = (args[k] for k in ("alpha", "power", "r_max", "step"))
    problems = _keys(doc, ("alpha", "power", "rows", "max_abs_err_series", "max_abs_err_thumb"))
    if problems:
        return problems
    problems += _echo(doc, args, ("alpha", "power"))
    rows = doc["rows"]
    if not rows:
        return problems + ["curve has no rows"]
    r = np.array([row["r"] for row in rows])
    index = np.arange(len(rows))
    if np.any(np.abs(r - index * step) > ULP * index * step):
        problems.append("r column is not the grid 0, step, 2 step, ...")
    slack = 1e-9 * step
    if r[-1] > r_max + slack or len(rows) * step <= r_max - slack:
        problems.append(f"{len(rows)} rows do not end at the last grid point <= r_max={r_max}")
    exact, exact_tol = _ratio_exact_tol(alpha, power, r)
    series, series_tol = _ratio_series_tol(alpha, power, r)
    thumb = 1.0 + 0.5 * r * r
    for name, want, tol in (("exact_ratio", exact, exact_tol),
                            ("series_ratio", series, series_tol),
                            ("thumb_ratio", thumb, 4 * ULP)):
        got = np.array([row[name] for row in rows])
        bad = np.flatnonzero(np.abs(got - want) > tol)
        if bad.size:
            i = bad[0]
            problems += _close(f"{name}[r={r[i]!r}]", got[i], want[i], np.broadcast_to(tol, r.shape)[i])
    problems += _close("max_abs_err_series", doc["max_abs_err_series"],
                       float(np.max(np.abs(exact - series))), float(np.max(exact_tol + series_tol)))
    problems += _close("max_abs_err_thumb", doc["max_abs_err_thumb"],
                       float(np.max(np.abs(exact - thumb))), float(np.max(exact_tol) + 4 * ULP))
    return problems


_COMMANDS = {
    "power": (None, _check_power),
    "sample-size": (None, _check_sample_size),
    "ratio": (None, _check_ratio_doc),
    "expand": (None, _check_expand),
    "curve": ("rows", _check_curve),
}


def check_command(spec: dict, text: str) -> tuple:
    """(items, problems): output rows (1 per scalar document) and what is wrong."""
    rows_key, check = _COMMANDS[spec["command"]]
    try:
        doc = _parse(text, spec["format"], rows_key)
    except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
        return 0, [f"unparseable {spec['format']} document: {exc}"]
    items = len(doc[rows_key]) if rows_key else 1
    return items, check(doc, spec["args"])
