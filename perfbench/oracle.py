"""Reference values computed apart from the program, with scipy.

Finite-sample power of a 1:1 trial with one normal baseline covariate
(Shieh 2020, Psychometrika 85:101-120):

* unadjusted pooled t test: P(|T'_{N-2}(lam)| > c), lam = tau/(sigma*sqrt(4/N))
* ANCOVA t test: the same with lam*sqrt(b)/sqrt(1-rho^2) and df N-3,
  mixed over b ~ Beta((N-2)/2, 1/2), where b = 1 - r_tx^2 and r_tx is the
  sample correlation of treatment and covariate.

The asymptotic closed forms the CLI prints are recomputed here from
``scipy.stats.norm``. Nothing in this module imports the package under test.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy import integrate, special, stats

__all__ = [
    "unadjusted_power",
    "adjusted_power",
    "finite_sample_power",
    "finite_sample_se",
    "tau_hat_kurtosis",
    "expansion_params",
    "asymptotic_se",
    "one_term_power",
    "dropped_tail",
    "two_term_power",
    "required_n",
    "ratio_exact",
    "series_c2",
    "ratio_series",
]


def _two_sided_reject(c: float, df: float, lam):
    """P(|T'_df(lam)| > c) for a noncentral t."""
    return stats.nct.sf(c, df, lam) + stats.nct.cdf(-c, df, lam)


def unadjusted_power(alpha: float, tau: float, sigma: float, n: int) -> float:
    """Power of the pooled two-sample t test with n/2 subjects per arm."""
    df = n - 2
    c = stats.t.ppf(1.0 - alpha / 2.0, df)
    lam = tau / (sigma * math.sqrt(4.0 / n))
    if lam == 0.0:
        return alpha
    return float(_two_sided_reject(c, df, lam))


def _beta_shape(n: int) -> float:
    return (n - 2) / 2.0


def adjusted_power(alpha: float, tau: float, sigma: float, rho: float, n: int) -> float:
    """Power of the ANCOVA t test with a random N(0, 1) covariate.

    Integrates over u with b = 1 - u^2, which removes the (1 - b)^(-1/2)
    singularity of the Beta((N-2)/2, 1/2) density: the weight becomes
    2 (1 - u^2)^((N-4)/2) / B((N-2)/2, 1/2) on u in [0, 1].
    """
    df = n - 3
    c = stats.t.ppf(1.0 - alpha / 2.0, df)
    lam0 = tau / (sigma * math.sqrt(1.0 - rho * rho) * math.sqrt(4.0 / n))
    if lam0 == 0.0:
        return alpha
    log_norm = math.log(2.0) - special.betaln(_beta_shape(n), 0.5)

    def integrand(u: float) -> float:
        weight = math.exp(log_norm + 0.5 * (n - 4) * math.log1p(-u * u))
        return weight * float(_two_sided_reject(c, df, lam0 * math.sqrt(1.0 - u * u)))

    # the weight is concentrated on u < ~10/sqrt(N); tell quad where
    spread = min(1.0, 10.0 / math.sqrt(n))
    value, _ = integrate.quad(integrand, 0.0, 1.0, points=[spread / 4.0, spread],
                              epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


@lru_cache(maxsize=None)
def finite_sample_power(alpha: float, tau: float, sigma: float, rho: float,
                        n: int, adjust: bool) -> float:
    """Rejection probability of the campaign's Student-t test."""
    if adjust:
        return adjusted_power(alpha, tau, sigma, rho, n)
    return unadjusted_power(alpha, tau, sigma, n)


def _inverse_b_moments(n: int) -> tuple:
    """E[1/b] and E[1/b^2] for b ~ Beta((N-2)/2, 1/2)."""
    a, b = _beta_shape(n), 0.5
    m1 = (a + b - 1.0) / (a - 1.0)
    m2 = (a + b - 1.0) * (a + b - 2.0) / ((a - 1.0) * (a - 2.0))
    return m1, m2


def finite_sample_se(sigma: float, rho: float, n: int, adjust: bool) -> float:
    """Standard deviation of tau_hat over trials.

    Unadjusted: sigma*sqrt(4/N). Adjusted: sigma*sqrt((1-rho^2)(4/N)(N-3)/(N-4)),
    since Var(tau_hat | b) = sigma^2 (1-rho^2)(4/N)/b and E[1/b] = (N-3)/(N-4).
    """
    if not adjust:
        return sigma * math.sqrt(4.0 / n)
    return sigma * math.sqrt((1.0 - rho * rho) * (4.0 / n) * (n - 3) / (n - 4))


def tau_hat_kurtosis(n: int, adjust: bool) -> float:
    """Kurtosis of tau_hat: 3 for the unadjusted normal estimate, and
    3 E[1/b^2] / E[1/b]^2 for the ANCOVA estimate, a scale mixture of normals."""
    if not adjust:
        return 3.0
    m1, m2 = _inverse_b_moments(n)
    return 3.0 * m2 / (m1 * m1)


# --- asymptotic closed forms, as the paper and the CLI state them ---

def expansion_params(alpha: float, power: float) -> tuple:
    """a = Phi^-1(alpha/2) and b = Phi^-1(power) - a."""
    a = stats.norm.ppf(alpha / 2.0)
    return float(a), float(stats.norm.ppf(power) - a)


def asymptotic_se(sigma: float, n: float, r: float) -> float:
    """nu = sigma*sqrt((4/N)(1 - r^2)), the large-sample SE of tau_hat."""
    return sigma * math.sqrt(4.0 / n * (1.0 - r * r))


def one_term_power(alpha, tau, sigma, n, r) -> float:
    """Phi(a + |tau|/nu)."""
    a = stats.norm.ppf(alpha / 2.0)
    return float(stats.norm.cdf(a + abs(tau) / asymptotic_se(sigma, n, r)))


def dropped_tail(alpha, tau, sigma, n, r) -> float:
    """Phi(a - |tau|/nu), the far-tail term the one-term power drops."""
    a = stats.norm.ppf(alpha / 2.0)
    return float(stats.norm.cdf(a - abs(tau) / asymptotic_se(sigma, n, r)))


def two_term_power(alpha, tau, sigma, n, r) -> float:
    """Phi(a - tau/nu) + Phi(a + tau/nu)."""
    return one_term_power(alpha, tau, sigma, n, r) + dropped_tail(alpha, tau, sigma, n, r)


def required_n(alpha, power, tau, sigma) -> float:
    _, b = expansion_params(alpha, power)
    return 4.0 * sigma * sigma / (tau * tau) * b * b


def ratio_exact(alpha, power, r):
    """Adjusted over unadjusted one-term power at the N that gives ``power``;
    ``r`` may be an array."""
    a, b = expansion_params(alpha, power)
    return stats.norm.cdf(a + b / (1.0 - r * r) ** 0.5) / power


def series_c2(alpha, power) -> float:
    """c2 = b phi(a+b) / (2 Phi(a+b))."""
    a, b = expansion_params(alpha, power)
    return float(b * stats.norm.pdf(a + b) / (2.0 * stats.norm.cdf(a + b)))


def ratio_series(alpha, power, r):
    return 1.0 + series_c2(alpha, power) * r * r
