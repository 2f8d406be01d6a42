"""Monte Carlo validation of the analytic power formulas.

Simulates 1:1 randomized trials with one baseline covariate, fits either
an ANCOVA (outcome ~ intercept + treatment + covariate) or an unadjusted
two-sample comparison, and aggregates empirical rejection rates.

Reproducibility: replications come in groups of G = max(1, 65536 // 2n), one
group per counter-based Philox key (Salmon et al. 2011). Replication r is row
r mod G of the (rows, 2n) standard normals that numpy's ziggurat sampler
(``Generator.standard_normal``) draws from the stream keyed (seed, r // G): a
pure function of (seed, rep, n). Its first n columns are the covariate and the
rest the noise. The first n/2 subjects are treated: subjects are iid and both
fits ignore their order, so every analysed statistic has the law of a random
balanced assignment. The batch fit takes that layout, the treated arm in each
row's first n1 columns; ``fit_ancova`` and ``fit_unadjusted`` copy a trial's
treated rows first, keeping order. A campaign is one loop over groups, each
drawn, fitted and reduced by one function; its counts are integers and its two
float sums are exact and rounded once at the end, so results do not depend on
the order in which the groups are folded. The t test's critical value is
``student_t_critical``, bound here by name from the math-only ``student_t``
module; the Wald-z one is ``normal_math.std_normal_quantile``'s.
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
from .student_t import student_t_critical

__all__ = [
    "SimConfig",
    "SimResult",
    "TrialData",
    "FitResult",
    "generate_trial",
    "fit_ancova",
    "fit_unadjusted",
    "run_campaign",
]

TEST_KINDS = ("wald_z", "student_t")

# replications whose covariate has (numerically) zero pooled within-arm
# variance cannot be adjusted for and are skipped
_COLLINEARITY_VARIANCE_FLOOR = 1e-12

# normals drawn from one Philox key and fitted at a time (512 KB): a group of rows
# stays in cache from draw to fit, and a campaign's working set is one group
_BLOCK_VALUES = 65536

# a group is never smaller than one trial row of 2n normals, so a campaign's peak
# memory grows by about 24 bytes per subject (the row's normals and its outcomes):
# 2**20 subjects peak near 24 MiB
_MAX_SUBJECTS = 2**20


def _check_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")


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
            _check_integer(name, getattr(self, name))
        if not 4 <= self.n_subjects <= _MAX_SUBJECTS or self.n_subjects % 2 != 0:
            raise DomainError(
                f"n_subjects must be an even integer in [4, {_MAX_SUBJECTS}] (exact 1:1 "
                f"split, at least one residual degree of freedom, a bounded working set), "
                f"got {self.n_subjects}"
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
        # below 128*(|tau| + sigma) (twice an outcome; numpy's ziggurat gives
        # |x|, |eps| < r + sqrt(2*53*ln 2) = 3.654 + 8.572 < 12.3); the noise's
        # squares must stay normal floats
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

    def __post_init__(self):
        want = np.shape(self.treatment)
        for name in ("treatment", "covariate", "outcome"):
            shape = np.shape(getattr(self, name))
            if len(shape) != 1:
                raise DomainError(f"{name} must be one-dimensional, got shape {shape}")
            if shape != want:
                raise DomainError(f"{name} has {shape[0]} entries, treatment has {want[0]}")
        treatment = np.asarray(self.treatment)
        if not np.all((treatment == 0) | (treatment == 1)):
            raise DomainError("treatment entries must be 0 or 1")
        for name in ("covariate", "outcome"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} entries must be finite")

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


def _group_rows(n_subjects: int) -> int:
    """G, the replications per Philox key: as many 2n-normal rows as fit in
    ``_BLOCK_VALUES`` values, and at least one."""
    return max(1, _BLOCK_VALUES // (2 * n_subjects))


def _group_trials(config: SimConfig, group: int, rows: int):
    """Covariate and outcome arrays (rows, n) of the first ``rows`` replications of
    ``group``, from (rows, 2n) standard normals of the Philox stream keyed
    (seed, group): the covariate x is each row's first n columns and the unit noise
    the rest. The first n/2 columns are the treated arm: subjects are iid and both
    fits ignore their order, so every analysed statistic has the law it has under a
    random balanced assignment."""
    n = config.n_subjects
    key = np.array([config.seed, group], dtype=np.uint64)
    normals = np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, 2 * n))
    x, eps = normals[:, :n], normals[:, n:]
    eps *= config.sigma * math.sqrt(1.0 - config.rho**2)
    # tau*t + sigma*rho*x + eps without the full-size temporaries: tau*1 is tau,
    # and tau*0 adds nothing
    outcome = config.sigma * config.rho * x
    outcome[:, :n // 2] += config.tau
    outcome += eps
    return x, outcome


def generate_trial(config: SimConfig, rep_index: int) -> TrialData:
    """Simulate replication ``rep_index``: x ~ N(0,1), y = tau*t + sigma*rho*x + eps
    with eps ~ N(0, sigma^2*(1-rho^2)), the campaign's row of that rep: row r mod G
    of group r // G, a pure function of (seed, rep, n). The first n/2 subjects are
    treated: subjects are iid and both fits ignore their order, so this has the law
    of a random balanced assignment."""
    _check_integer("rep_index", rep_index)
    if not (0 <= rep_index < 2**64):
        raise DomainError(f"rep_index must be a 64-bit unsigned integer, got {rep_index}")
    # the group's rows are one draw, so a rep is the last of its group's first rows
    group, row = divmod(int(rep_index), _group_rows(config.n_subjects))
    covariate, outcome = _group_trials(config, group, row + 1)
    treatment = np.repeat([1.0, 0.0], config.n_subjects // 2)
    return TrialData(treatment=treatment, covariate=covariate[-1], outcome=outcome[-1])


def _centre_within_arms(values, n1: int):
    """Centre the treated columns [:n1] and the control columns [n1:] of each row of
    ``values`` by their own row means, in place; returns the per-row difference of
    arm means, treated minus control."""
    treated, control = values[:, :n1], values[:, n1:]
    m1, m0 = treated.mean(axis=1), control.mean(axis=1)
    treated -= m1[:, np.newaxis]
    control -= m0[:, np.newaxis]
    return m1 - m0


def _fit_batch(covariate, outcome, n1: int, adjust: bool):
    """Per-row fit of either analysis of (B, n) trials whose first n1 columns are the
    treated arm, from within-arm moments: dy, dx are differences of arm means, Syy,
    Sxy, Sxx sums of products centred within arm (``covariate`` and ``outcome`` are
    centred in place).

    Unadjusted: tau_hat = dy, se^2 = Syy/(n-2) * (1/n0 + 1/n1).
    Adjusted (Frisch-Waugh): beta = Sxy/Sxx, tau_hat = dy - beta*dx,
    se^2 = (Syy - beta*Sxy)/(n-3) * (1/n0 + 1/n1 + dx^2/Sxx).

    Returns per-row (tau_hat, se_tau_hat, ok); ``ok`` is False where the
    adjusted fit is collinear: pooled within-arm covariate variance
    Sxx/(n-2) below the floor.
    """
    n = outcome.shape[1]
    arm_weight = 1.0 / (n - n1) + 1.0 / n1
    dy = _centre_within_arms(outcome, n1)
    syy = np.einsum("ij,ij->i", outcome, outcome)
    if not adjust:
        return dy, np.sqrt(syy / (n - 2) * arm_weight), np.ones(len(dy), dtype=bool)

    dx = _centre_within_arms(covariate, n1)
    sxx = np.einsum("ij,ij->i", covariate, covariate)
    sxy = np.einsum("ij,ij->i", covariate, outcome)
    ok = sxx / (n - 2) >= _COLLINEARITY_VARIANCE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = sxy / sxx
        sse = np.maximum(syy - beta * sxy, 0.0)
        se = np.sqrt(sse / (n - 3) * (arm_weight + dx * dx / sxx))
    return dy - beta * dx, se, ok


def _fit_one(data: TrialData, adjust: bool) -> FitResult:
    """``_fit_batch`` on one trial: fresh copies of its covariate and outcome with the
    treated rows first, each arm in its given order."""
    control = np.asarray(data.treatment) == 0
    n1 = len(data) - int(np.count_nonzero(control))
    if n1 == 0 or n1 == len(data):
        raise DomainError("treatment must contain both arms, 0 and 1")
    order = np.argsort(control, kind="stable")
    # fancy indexing copies, so the in-place centring leaves the caller's arrays alone
    covariate, outcome = (np.asarray(a, dtype=float)[np.newaxis, order]
                          for a in (data.covariate, data.outcome))
    tau_hat, se, ok = _fit_batch(covariate, outcome, n1, adjust)
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
    if len(data) < 3:
        raise DomainError(f"need at least 3 rows for the unadjusted fit, got {len(data)}")
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


class _GroupResult(NamedTuple):
    rejections: int
    completed: int
    deviations: np.ndarray  # tau_hat - tau of the completed reps


def _run_group(config: SimConfig, critical: float, group: int, rows: int) -> _GroupResult:
    """Draw, fit and test the first ``rows`` replications of ``group``."""
    covariate, outcome = _group_trials(config, group, rows)
    tau_hat, se, ok = _fit_batch(covariate, outcome, config.n_subjects // 2, config.adjust)
    return _GroupResult(rejections=int((ok & (np.abs(tau_hat) > critical * se)).sum()),
                        completed=int(ok.sum()), deviations=tau_hat[ok] - config.tau)


def _fold(config: SimConfig, results) -> SimResult:
    """Aggregate the ``_GroupResult``s of a campaign, in any order: the counts are
    integers and the two float sums are exact until rounded once here."""
    n_rejections = n_completed = 0
    # exact sums of tau_hat - tau: those of tau_hat itself cancel when |tau| dwarfs the SE
    sum_dev, sum_dev_sq = [], []
    for rejections, completed, dev in results:
        n_rejections += rejections
        n_completed += completed
        sum_dev = _exact_add(sum_dev, dev)
        sum_dev_sq = _exact_add(sum_dev_sq, dev ** 2)

    rate = n_rejections / n_completed
    mean_dev = math.fsum(sum_dev) / n_completed
    if n_completed > 1:
        emp_var = max(math.fsum(sum_dev_sq) - n_completed * mean_dev**2, 0.0) / (n_completed - 1)
    else:
        emp_var = 0.0

    design = TrialDesign(alpha=config.alpha, tau=config.tau, sigma=config.sigma,
                         n_total=float(config.n_subjects), r=config.rho if config.adjust else 0.0)
    return SimResult(
        rejection_rate=rate,
        mc_stderr=math.sqrt(rate * (1.0 - rate) / n_completed),
        mean_tau_hat=config.tau + mean_dev,
        empirical_se_tau_hat=math.sqrt(emp_var),
        analytic_se=math.sqrt(asymptotic_variance(design)),
        analytic_power=exact_power_two_term(design),
        n_reps_completed=n_completed,
    )


def run_campaign(config: SimConfig) -> SimResult:
    """Run the full campaign and aggregate rejections.

    One loop over the campaign's groups of at most G = ``_group_rows(n)`` rows, each
    drawn from its own Philox key, fitted and tested by ``_run_group``, and folded in
    group order by ``_fold``. No fold order changes any result.
    """
    n = config.n_subjects
    if config.test_kind == "wald_z":
        # 1 - alpha/2 would lose alpha's low digits, and round to 1 below ~2.2e-16
        critical = -std_normal_quantile(config.alpha / 2.0)
    else:
        critical = student_t_critical(config.alpha, n - 3 if config.adjust else n - 2)
    rows = _group_rows(n)
    return _fold(config, (_run_group(config, critical, group, min(rows, config.n_reps - first))
                          for group, first in enumerate(range(0, config.n_reps, rows))))
