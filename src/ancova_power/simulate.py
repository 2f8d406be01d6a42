"""Monte Carlo validation of the analytic power formulas.

Simulates 1:1 randomized trials with one baseline covariate, fits either
an ANCOVA (outcome ~ intercept + treatment + covariate) or an unadjusted
two-sample comparison, and aggregates empirical rejection rates.

Reproducibility: each replication draws from its own Philox stream keyed
by (seed, rep_index), so a replication is a pure function of those two
integers. A campaign is one loop over blocks of replications, and its two
float sums are exact and rounded once at the end, so results do not
depend on the block size or the order of the blocks.
Philox is counter-based (Salmon et al. 2011), so one bit generator reset
to key (seed, rep_index) and counter 0 gives exactly a new one's stream.
Normal variates come from the inverse-CDF transform through
``normal_math.std_normal_quantile``, keeping the whole stack
self-consistent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .normal_math import std_normal_quantile
from .power_engine import TrialDesign, asymptotic_variance, exact_power_two_term

__all__ = [
    "SimConfig",
    "SimResult",
    "TrialData",
    "FitResult",
    "generate_trial",
    "fit_ancova",
    "fit_unadjusted",
    "run_campaign",
    "student_t_critical",
]

TEST_KINDS = ("wald_z", "student_t")

# replications whose covariate has (numerically) zero pooled within-arm
# variance cannot be adjusted for and are skipped
_COLLINEARITY_VARIANCE_FLOOR = 1e-12

# uniforms drawn, decoded and fitted at a time (512 KB): a block of rows stays
# in cache from draw to fit, and a campaign's working set is one block
_BLOCK_VALUES = 65536


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo campaign: trial shape, analysis, and RNG seed."""

    n_subjects: int
    tau: float
    sigma: float
    rho: float
    alpha: float
    n_reps: int
    seed: int
    test_kind: str = "student_t"
    adjust: bool = True

    def __post_init__(self):
        for name in ("n_subjects", "n_reps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n_subjects < 4 or self.n_subjects % 2 != 0:
            raise DomainError(
                f"n_subjects must be an even integer >= 4 (exact 1:1 split, at least "
                f"one residual degree of freedom), got {self.n_subjects}"
            )
        if self.n_reps < 1:
            raise DomainError(f"n_reps must be >= 1, got {self.n_reps}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.test_kind not in TEST_KINDS:
            raise DomainError(f"test_kind must be one of {TEST_KINDS}, got {self.test_kind!r}")
        # alpha, tau, sigma and rho: the checks of the design the campaign
        # simulates (run_campaign reports against it, with r = 0 if unadjusted)
        TrialDesign(alpha=self.alpha, tau=self.tau, sigma=self.sigma,
                    n_total=float(self.n_subjects), r=self.rho)
        # the campaign sums squares over subjects and over replications of values
        # below 128*(|tau| + sigma) (twice an outcome; |x|, |eps| <= 38.5 for any
        # double uniform); the noise's squares must stay normal floats
        top = 128.0 * (abs(self.tau) + self.sigma)
        if not top * top * max(self.n_subjects, self.n_reps) < sys.float_info.max:
            raise DomainError(
                f"tau = {self.tau} and sigma = {self.sigma} are too large to simulate: "
                "the campaign's sums of squares would overflow")
        if not self.sigma * self.sigma * (1.0 - self.rho * self.rho) >= sys.float_info.min:
            raise DomainError(
                f"sigma = {self.sigma} is too small to simulate at rho = {self.rho}: the "
                "noise variance sigma^2*(1 - rho^2) is below the normal float range")


@dataclass(frozen=True)
class TrialData:
    """Simulated trial: parallel arrays, one entry per subject."""

    treatment: np.ndarray
    covariate: np.ndarray
    outcome: np.ndarray

    def __len__(self) -> int:
        return len(self.outcome)


class FitResult(NamedTuple):
    tau_hat: float
    se_tau_hat: float
    df: int


@dataclass(frozen=True)
class SimResult:
    """Aggregated campaign output next to the analytic reference values."""

    rejection_rate: float
    mc_stderr: float
    mean_tau_hat: float
    empirical_se_tau_hat: float
    analytic_se: float
    analytic_power: float
    n_reps_completed: int


def _rep_uniforms(config: SimConfig, reps) -> np.ndarray:
    """The 3n uniform draws of each replication in ``reps``, one row per
    replication, each from its own stream: Philox keyed (seed, rep), counter 0."""
    bit_gen = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    draw = np.random.Generator(bit_gen).random
    # a fresh generator's state: counter 0 and an empty buffer
    state = bit_gen.state
    key = state["state"]["key"]
    out = np.empty((len(reps), 3 * config.n_subjects))
    for row, rep in zip(out, reps):
        key[1] = rep
        bit_gen.state = state
        draw(out=row)
    # random() lands in [0, 1); keep the quantile's domain open
    return np.maximum(out, 5e-324, out=out)


def _decode_trials(config: SimConfig, uniforms: np.ndarray):
    """Map (B, 3n) uniforms to treatment/covariate/outcome arrays (B, n)."""
    n = config.n_subjects
    x = std_normal_quantile(uniforms[:, :n])
    noise_scale = config.sigma * math.sqrt(1.0 - config.rho**2)
    eps = noise_scale * std_normal_quantile(uniforms[:, n:2 * n])

    # balanced permutation: ranks of n iid uniforms pick the treated half
    order = np.argsort(uniforms[:, 2 * n:], axis=1)
    treatment = np.zeros_like(x)
    np.put_along_axis(treatment, order[:, :n // 2], 1.0, axis=1)

    outcome = config.tau * treatment + config.sigma * config.rho * x + eps
    return treatment, x, outcome


def generate_trial(config: SimConfig, rep_index: int) -> TrialData:
    """Simulate one trial: x ~ N(0,1), y = tau*t + sigma*rho*x + eps with
    eps ~ N(0, sigma^2*(1-rho^2)), exactly n/2 subjects per arm."""
    if not (0 <= rep_index < 2**64):
        raise DomainError(f"rep_index must be a 64-bit unsigned integer, got {rep_index}")
    u = _rep_uniforms(config, [rep_index])
    treatment, covariate, outcome = _decode_trials(config, u)
    return TrialData(treatment=treatment[0], covariate=covariate[0], outcome=outcome[0])


def _centre_within_arms(treatment, values, n1, n0):
    """Centre each row of ``values`` within its arms, in place; returns the
    per-row difference of arm means, treated minus control."""
    s1 = (treatment * values).sum(axis=1)
    m0 = (values.sum(axis=1) - s1) / n0
    diff = s1 / n1 - m0
    values -= m0[:, np.newaxis]
    values -= treatment * diff[:, np.newaxis]
    return diff


def _fit_batch(treatment, covariate, outcome, adjust: bool):
    """Per-row fit of either analysis from within-arm moments: dy, dx are
    differences of arm means, Syy, Sxy, Sxx sums of products centred within
    arm (``covariate`` and ``outcome`` are centred in place).

    Unadjusted: tau_hat = dy, se^2 = Syy/(n-2) * (1/n0 + 1/n1).
    Adjusted (Frisch-Waugh): beta = Sxy/Sxx, tau_hat = dy - beta*dx,
    se^2 = (Syy - beta*Sxy)/(n-3) * (1/n0 + 1/n1 + dx^2/Sxx).

    Returns per-row (tau_hat, se_tau_hat, ok); ``ok`` is False where the
    adjusted fit is collinear: pooled within-arm covariate variance
    Sxx/(n-2) below the floor.
    """
    n = outcome.shape[1]
    n1 = treatment.sum(axis=1)
    n0 = n - n1
    arm_weight = 1.0 / n0 + 1.0 / n1
    dy = _centre_within_arms(treatment, outcome, n1, n0)
    syy = np.einsum("ij,ij->i", outcome, outcome)
    if not adjust:
        return dy, np.sqrt(syy / (n - 2) * arm_weight), np.ones(len(dy), dtype=bool)

    dx = _centre_within_arms(treatment, covariate, n1, n0)
    sxx = np.einsum("ij,ij->i", covariate, covariate)
    sxy = np.einsum("ij,ij->i", covariate, outcome)
    ok = sxx / (n - 2) >= _COLLINEARITY_VARIANCE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = sxy / sxx
        sse = np.maximum(syy - beta * sxy, 0.0)
        se = np.sqrt(sse / (n - 3) * (arm_weight + dx * dx / sxx))
    return dy - beta * dx, se, ok


def _fit_one(data: TrialData, adjust: bool) -> FitResult:
    """``_fit_batch`` on one trial, on copies of its arrays."""
    n1 = int(np.sum(data.treatment))
    if n1 == 0 or n1 == len(data):
        raise ValueError("dataset must contain both arms")
    rows = (np.array(a, dtype=float, ndmin=2)
            for a in (data.treatment, data.covariate, data.outcome))
    tau_hat, se, ok = _fit_batch(*rows, adjust)
    if not ok[0]:
        raise np.linalg.LinAlgError(
            "covariate has (numerically) zero variance within arms; design is collinear")
    return FitResult(float(tau_hat[0]), float(se[0]), len(data) - (3 if adjust else 2))


def fit_ancova(data: TrialData) -> FitResult:
    """OLS fit of the ANCOVA model; tau_hat is the treatment coefficient."""
    if len(data) < 4:
        raise DomainError(f"need at least 4 rows to fit ANCOVA, got {len(data)}")
    return _fit_one(data, adjust=True)


def fit_unadjusted(data: TrialData) -> FitResult:
    """Two-sample difference of means with pooled-variance standard error."""
    return _fit_one(data, adjust=False)


def _exact_add(terms: list, values: np.ndarray) -> list:
    """Floats whose exact sum is that of ``terms`` and ``values``, each the correctly
    rounded remainder of all before it (math.fsum, Shewchuk 1997): the first is the
    total. A square past DBL_MAX makes the total inf, which ends the list."""
    pending = terms + values.tolist()
    out = []
    while (head := math.fsum(pending)) != 0.0:
        out.append(head)
        if not math.isfinite(head):
            break
        pending.append(-head)
    return out


def run_campaign(config: SimConfig) -> SimResult:
    """Run the full campaign and aggregate rejections.

    One loop over blocks of rows of at most ``_BLOCK_VALUES`` uniforms, each drawn,
    decoded, fitted and reduced in turn. Each row's fit depends on its own draws only,
    the counts are integers and the two float sums are exact and rounded once at the
    end, so no block size or block order changes any result.
    """
    n = config.n_subjects
    df = n - 3 if config.adjust else n - 2
    if config.test_kind == "wald_z":
        # 1 - alpha/2 would lose alpha's low digits, and round to 1 below ~2.2e-16
        critical = -std_normal_quantile(config.alpha / 2.0)
    else:
        critical = student_t_critical(config.alpha, df)

    n_rejections = n_completed = 0
    # exact sums of tau_hat - tau: those of tau_hat itself cancel when |tau| dwarfs the SE
    sum_dev, sum_dev_sq = [], []

    block_rows = max(1, _BLOCK_VALUES // (3 * n))
    for first in range(0, config.n_reps, block_rows):
        uniforms = _rep_uniforms(config, range(config.n_reps)[first:first + block_rows])
        # bound until the next block's replace them: a whole block freed at once lets
        # malloc trim the heap top, and the next block faults those pages back in
        treatment, covariate, outcome = _decode_trials(config, uniforms)
        tau_hat, se, ok = _fit_batch(treatment, covariate, outcome, config.adjust)
        n_rejections += int((ok & (np.abs(tau_hat) > critical * se)).sum())
        n_completed += int(ok.sum())
        dev = tau_hat[ok] - config.tau
        sum_dev = _exact_add(sum_dev, dev)
        sum_dev_sq = _exact_add(sum_dev_sq, dev ** 2)

    rate = n_rejections / n_completed
    mean_dev = math.fsum(sum_dev) / n_completed
    if n_completed > 1:
        emp_var = max(math.fsum(sum_dev_sq) - n_completed * mean_dev**2, 0.0) / (n_completed - 1)
    else:
        emp_var = 0.0

    design = TrialDesign(alpha=config.alpha, tau=config.tau, sigma=config.sigma,
                         n_total=float(n), r=config.rho if config.adjust else 0.0)
    return SimResult(
        rejection_rate=rate,
        mc_stderr=math.sqrt(rate * (1.0 - rate) / n_completed),
        mean_tau_hat=config.tau + mean_dev,
        empirical_se_tau_hat=math.sqrt(emp_var),
        analytic_se=math.sqrt(asymptotic_variance(design)),
        analytic_power=exact_power_two_term(design),
        n_reps_completed=n_completed,
    )


# --- Student t critical values via the regularized incomplete beta ---

def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= t) for t >= 0."""
    if t == 0.0:
        return 1.0
    return _betainc_reg(0.5 * df, 0.5, df / (df + t * t))


def student_t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value t such that P(|T_df| > t) = alpha.

    Bisection on the incomplete-beta t CDF; converges to the normal
    critical value as df grows. Relative error below 1e-10.
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")

    lo, hi = 0.0, 2.0
    while _t_two_sided_p(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e308:
            raise ArithmeticError("failed to bracket the t critical value")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_two_sided_p(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)
