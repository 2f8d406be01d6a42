"""Closed-form power analysis for covariate-adjusted 1:1 trials.

Conventions:

* ``n_total`` is the TOTAL sample size across both arms.  The treatment
  effect estimate then has asymptotic variance (4*sigma^2/N)*(1 - R^2),
  which is the usual two-sample variance sigma^2*(1/n1 + 1/n2) at
  n1 = n2 = N/2, shrunk by the covariate adjustment factor.
* Sample sizes stay continuous here; rounding to an even integer is a
  CLI/simulator concern so that algebraic round trips hold exactly.
* The covariate-outcome correlation ``r`` may be signed; only r^2 enters
  any formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .normal_math import erfc, std_normal_cdf, std_normal_quantile

__all__ = [
    "TrialDesign",
    "ExpansionParams",
    "PowerRatioReport",
    "asymptotic_variance",
    "power_terms",
    "exact_power_two_term",
    "approx_power_one_term",
    "required_sample_size",
    "adjusted_power_at_fixed_n",
    "power_ratio_exact",
    "expansion_params",
    "power_ratio_series",
    "series_coefficients",
    "ratio_curvature_fd",
    "rule_of_thumb",
    "ratio_report",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# step in r^2 of the central difference in ratio_curvature_fd
_FD_STEP = 1e-5


def _check_probability(value: float, name: str) -> float:
    if not (0.0 < value < 1.0):
        raise DomainError(f"{name} must lie strictly in (0, 1), got {value}")
    return float(value)


def _check_alpha(alpha: float) -> float:
    """A two-sided level whose half, each side's tail area, is a positive float:
    the critical value is -Phi^-1(alpha/2)."""
    _check_probability(alpha, "alpha")
    if alpha / 2.0 == 0.0:
        raise DomainError(f"alpha must be at least 1e-323, so that alpha/2 is a positive "
                          f"float, got {alpha}")
    return float(alpha)


def _check_correlation(r: float) -> float:
    if not math.isfinite(r) or r * r >= 1.0:
        raise DomainError(
            f"correlation must satisfy r^2 < 1, got {r} (r^2 >= 1 means the "
            "outcome is fully determined by the covariate)"
        )
    return float(r)


@dataclass(frozen=True)
class TrialDesign:
    """Design of a 1:1 randomized trial with a continuous outcome.

    alpha    two-sided significance level
    tau      constant treatment effect, outcome units
    sigma    outcome standard deviation within arm, outcome units
    n_total  total sample size across both arms (may be non-integer)
    r        correlation between the baseline covariate and the outcome
    """

    alpha: float
    tau: float
    sigma: float
    n_total: float
    r: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not math.isfinite(self.tau):
            raise DomainError(f"tau must be finite, got {self.tau}")
        if not (0.0 < self.sigma < math.inf):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0.0 < self.n_total < math.inf):
            raise DomainError(f"n_total must be positive and finite, got {self.n_total}")
        _check_correlation(self.r)
        try:
            variance = asymptotic_variance(self)
        except OverflowError:  # sigma**2 overflows
            variance = math.inf
        if not (0.0 < variance < math.inf):
            raise DomainError(
                f"sigma = {self.sigma} and n_total = {self.n_total} give the variance "
                f"4*sigma^2*(1 - r^2)/n_total = {variance}, which is not a positive finite float")


@dataclass(frozen=True)
class ExpansionParams:
    """Reparameterization used by the series expansion of the power ratio.

    a = Phi^-1(alpha/2), b = Phi^-1(target_power) - a, so a + b is the
    quantile of the target power.
    """

    a: float
    b: float
    target_power: float


@dataclass(frozen=True)
class PowerRatioReport:
    """Exact, series, and rule-of-thumb power ratios on a grid of r."""

    r_grid: list
    exact_ratio: list
    series_ratio: list
    thumb_ratio: list
    max_abs_err_series: float
    max_abs_err_thumb: float


def asymptotic_variance(design: TrialDesign) -> float:
    """Variance of the treatment effect estimate, (4*sigma^2/N)*(1 - r^2)."""
    return 4.0 * design.sigma**2 / design.n_total * (1.0 - design.r**2)


def power_terms(design: TrialDesign) -> tuple:
    """The two rejection probabilities of the two-sided test,
    (Phi(a + |tau|/nu), Phi(a - |tau|/nu)): the dominant term, on the side
    of the effect, and the far tail, with a = Phi^-1(alpha/2) and nu the
    standard error, sqrt(asymptotic_variance)."""
    nu = math.sqrt(asymptotic_variance(design))
    a = std_normal_quantile(design.alpha / 2.0)
    shift = abs(design.tau) / nu
    return std_normal_cdf(a + shift), std_normal_cdf(a - shift)


def exact_power_two_term(design: TrialDesign) -> float:
    """Two-sided rejection probability, Phi(a - |tau|/nu) + Phi(a + |tau|/nu).

    Exact under the asymptotic normal model; reduces to alpha at tau = 0
    and is invariant under tau -> -tau.
    """
    main, tail = power_terms(design)
    return tail + main


def approx_power_one_term(design: TrialDesign) -> float:
    """Dominant-term power approximation, Phi(a + |tau|/nu).

    Drops the far-tail rejection probability Phi(a - |tau|/nu); the gap
    vanishes as tau/nu grows but is material near tau = 0.
    """
    return power_terms(design)[0]


def required_sample_size(alpha: float, target_power: float,
                         tau: float, sigma: float) -> float:
    """Total N such that the unadjusted one-term power equals target_power.

    N = (4*sigma^2/tau^2) * (Phi^-1(p) - Phi^-1(alpha/2))^2, continuous.
    """
    if tau == 0.0 or not math.isfinite(tau):
        raise DomainError("tau must be nonzero and finite; no finite N exists for tau = 0")
    if not (0.0 < sigma < math.inf):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    params = _reachable_params(alpha, target_power)
    try:
        n = 4.0 * sigma**2 / tau**2 * params.b**2
    except ArithmeticError:  # sigma**2 overflows or tau**2 underflows to 0
        n = math.inf
    if not (0.0 < n < math.inf):
        raise DomainError(f"tau = {tau} and sigma = {sigma} give N = {n}, "
                          "which is not a positive finite number")
    return n


def expansion_params(alpha: float, target_power: float) -> ExpansionParams:
    """Compute a = Phi^-1(alpha/2) and b = Phi^-1(target_power) - a."""
    _check_alpha(alpha)
    _check_probability(target_power, "target_power")
    a = std_normal_quantile(alpha / 2.0)
    b = std_normal_quantile(target_power) - a
    return ExpansionParams(a=a, b=b, target_power=target_power)


def _reachable_params(alpha: float, target_power: float) -> ExpansionParams:
    """expansion_params, for a target power that some finite N reaches."""
    params = expansion_params(alpha, target_power)
    if params.b <= 0.0:
        raise DomainError(
            f"target_power must exceed alpha/2 (got power {target_power}, alpha {alpha})"
        )
    return params


def adjusted_power_at_fixed_n(alpha: float, target_power: float, r: float) -> float:
    """Power of the adjusted analysis at the N that gives the unadjusted
    analysis power ``target_power``: Phi(a + b/sqrt(1 - r^2))."""
    _check_correlation(r)
    params = _reachable_params(alpha, target_power)
    return std_normal_cdf(params.a + params.b / math.sqrt(1.0 - r * r))


def power_ratio_exact(alpha: float, target_power: float, r: float) -> float:
    """Adjusted over unadjusted power at fixed N."""
    return adjusted_power_at_fixed_n(alpha, target_power, r) / target_power


def power_ratio_series(alpha: float, target_power: float, r: float) -> float:
    """Second-order expansion of the power ratio about r = 0.

    Returns c0 + c2*r^2 with

        c0 = (2 - erfc((a+b)/sqrt(2))) / erfc((-a-b)/sqrt(2))
        c2 = b * exp(-(a+b)^2/2) / (sqrt(2*pi) * erfc((-a-b)/sqrt(2)))

    c0 is computed from the erfc form as printed rather than simplified;
    it equals 1 identically (both numerator and denominator are
    2*Phi(a+b)), and tests assert that redundancy.
    """
    _check_correlation(r)
    params = expansion_params(alpha, target_power)
    c0, c2 = series_coefficients(params)
    return c0 + c2 * r * r


def series_coefficients(params: ExpansionParams) -> tuple:
    """Constant and r^2 coefficients (c0, c2) of the ratio expansion,
    evaluated from the erfc form as printed (see power_ratio_series)."""
    s = params.a + params.b
    denom = erfc(-s / _SQRT2)
    c0 = (2.0 - erfc(s / _SQRT2)) / denom
    c2 = params.b * math.exp(-0.5 * s * s) / (_SQRT_2PI * denom)
    return c0, c2


def ratio_curvature_fd(alpha: float, target_power: float) -> float:
    """Central-difference derivative of the exact power ratio in r^2 at 0.

    Independent numerical check of the series coefficient c2; evaluates
    the ratio at r^2 = +-1e-5, which is well defined for negative r^2.
    """
    params = expansion_params(alpha, target_power)

    def ratio_at(r_sq: float) -> float:
        return std_normal_cdf(params.a + params.b / math.sqrt(1.0 - r_sq)) / target_power

    return (ratio_at(_FD_STEP) - ratio_at(-_FD_STEP)) / (2.0 * _FD_STEP)


def rule_of_thumb(r: float) -> float:
    """The 1 + r^2/2 approximation to the power ratio."""
    _check_correlation(r)
    return 1.0 + 0.5 * r * r


def ratio_report(alpha: float, target_power: float, r_grid) -> PowerRatioReport:
    """Tabulate exact, series, and thumb ratios over a grid of r values."""
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("r_grid must be nonempty")
    exact = [power_ratio_exact(alpha, target_power, r) for r in grid]
    series = [power_ratio_series(alpha, target_power, r) for r in grid]
    thumb = [rule_of_thumb(r) for r in grid]
    return PowerRatioReport(
        r_grid=grid,
        exact_ratio=exact,
        series_ratio=series,
        thumb_ratio=thumb,
        max_abs_err_series=max(abs(e - s) for e, s in zip(exact, series)),
        max_abs_err_thumb=max(abs(e - t) for e, t in zip(exact, thumb)),
    )
