"""Tests of the benchmark's oracle and checks, pinned to the paper, to
independent computations and to properties of the tests they model.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy import integrate, stats  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402

RHO = 0.5


def test_paper_coefficient_and_ratio():
    assert oracle.series_c2(0.05, 0.80) == pytest.approx(0.4902, abs=5e-5)
    assert oracle.ratio_exact(0.05, 0.80, 0.5) == pytest.approx(1.1236, abs=5e-5)
    assert oracle.ratio_series(0.05, 0.80, 0.5) == pytest.approx(1 + 0.4902 / 4, abs=5e-5)


@pytest.mark.parametrize("n", [20, 126, 1008])
@pytest.mark.parametrize("tau", [0.0, 1e-12])
def test_size_is_alpha_at_tau_zero(n, tau):
    # tau = 1e-12 goes through the integral: it checks the mixing weights sum to 1
    assert oracle.unadjusted_power(0.05, tau, 1.0, n) == pytest.approx(0.05, abs=1e-10)
    assert oracle.adjusted_power(0.05, tau, 1.0, RHO, n) == pytest.approx(0.05, abs=1e-10)


def test_reference_values():
    anchor = (0.05, 0.5, 1.0, RHO, 126)
    large_n = (0.05, 0.5 / math.sqrt(8.0), 1.0, RHO, 1008)
    assert oracle.adjusted_power(*anchor) == pytest.approx(0.8929, abs=5e-5)
    assert oracle.unadjusted_power(0.05, 0.5, 1.0, 126) == pytest.approx(0.7952, abs=5e-5)
    assert oracle.adjusted_power(*large_n) == pytest.approx(0.8990, abs=5e-5)
    assert oracle.unadjusted_power(0.05, 0.5 / math.sqrt(8.0), 1.0, 1008) == \
        pytest.approx(0.8006, abs=5e-5)
    # at N = 20 with the anchor's noncentrality the asymptotic forms (0.8998
    # and 0.8013, the same at every N) are far off
    tau20 = 0.5 * math.sqrt(126 / 20)
    assert oracle.adjusted_power(0.05, tau20, 1.0, RHO, 20) == pytest.approx(0.8421, abs=5e-5)
    assert oracle.unadjusted_power(0.05, tau20, 1.0, 20) == pytest.approx(0.7562, abs=5e-5)
    assert oracle.two_term_power(0.05, tau20, 1.0, 20, RHO) == pytest.approx(0.8998, abs=5e-5)


@pytest.mark.parametrize("n", [126, 1008])
def test_unadjusted_power_by_chi_square_mixture(n):
    """The noncentral t tail against an integral over the variance estimate."""
    df, tau = n - 2, 0.5 * math.sqrt(126 / n)
    c = stats.t.ppf(0.975, df)
    lam = tau / math.sqrt(4.0 / n)

    def given_v(v):
        scale = c * math.sqrt(v / df)
        return stats.chi2.pdf(v, df) * (stats.norm.sf(scale - lam) + stats.norm.cdf(-scale - lam))

    mixed, _ = integrate.quad(given_v, 0, 3 * df, points=[0.8 * df, df, 1.2 * df],
                              epsabs=1e-14, limit=500)
    assert oracle.unadjusted_power(0.05, tau, 1.0, n) == pytest.approx(mixed, abs=1e-9)


def test_asymptotic_limit():
    """With the noncentrality held fixed, both powers tend to the normal two-term form."""
    n = 126 * 10_000
    tau = 0.5 * math.sqrt(126 / n)
    assert oracle.unadjusted_power(0.05, tau, 1.0, n) == \
        pytest.approx(oracle.two_term_power(0.05, tau, 1.0, n, 0.0), abs=1e-5)
    assert oracle.adjusted_power(0.05, tau, 1.0, RHO, n) == \
        pytest.approx(oracle.two_term_power(0.05, tau, 1.0, n, RHO), abs=1e-5)


@pytest.mark.parametrize("n", [20, 126])
def test_inverse_beta_moments(n):
    beta = stats.beta((n - 2) / 2, 0.5)
    m1 = beta.expect(lambda b: 1 / b)
    m2 = beta.expect(lambda b: 1 / b ** 2)
    se = oracle.finite_sample_se(1.0, RHO, n, adjust=True)
    assert se == pytest.approx(math.sqrt((1 - RHO ** 2) * 4 / n * m1), rel=1e-9)
    assert oracle.tau_hat_kurtosis(n, adjust=True) == pytest.approx(3 * m2 / m1 ** 2, rel=1e-9)
    assert oracle.finite_sample_se(1.0, RHO, n, adjust=False) == math.sqrt(4 / n)


def test_model_by_simulation_at_small_n():
    """Per-subject simulation with numpy, independent of the package:
    the finite-sample powers hold where the asymptotic ones do not."""
    rng = np.random.default_rng(20_260_101)
    n, reps, tau = 20, 40_000, 0.5 * math.sqrt(126 / 20)
    treated = np.arange(n) < n // 2  # x is independent of t, so any fixed split will do
    x = rng.standard_normal((reps, n))
    y = tau * treated + RHO * x + math.sqrt(1 - RHO ** 2) * rng.standard_normal((reps, n))
    design = np.stack([np.ones_like(x), np.broadcast_to(treated, x.shape), x], axis=2)
    gram_inv = np.linalg.inv(design.transpose(0, 2, 1) @ design)
    beta = gram_inv @ (design.transpose(0, 2, 1) @ y[:, :, None])
    resid = y - (design @ beta)[:, :, 0]
    se = np.sqrt((resid ** 2).sum(axis=1) / (n - 3) * gram_inv[:, 1, 1])
    adjusted = np.mean(np.abs(beta[:, 1, 0]) / se > stats.t.ppf(0.975, n - 3))
    diff = y[:, treated].mean(axis=1) - y[:, ~treated].mean(axis=1)
    pooled = (y[:, treated].var(axis=1, ddof=1) + y[:, ~treated].var(axis=1, ddof=1)) / 2
    unadjusted = np.mean(np.abs(diff) / np.sqrt(pooled * 4 / n) > stats.t.ppf(0.975, n - 2))

    for rate, exact, approx in (
            (adjusted, oracle.adjusted_power(0.05, tau, 1.0, RHO, n),
             oracle.two_term_power(0.05, tau, 1.0, n, RHO)),
            (unadjusted, oracle.unadjusted_power(0.05, tau, 1.0, n),
             oracle.two_term_power(0.05, tau, 1.0, n, 0.0))):
        mc_se = math.sqrt(exact * (1 - exact) / reps)
        assert abs(rate - exact) < 5 * mc_se
        assert abs(rate - approx) > 10 * mc_se


# --- the per-operation checks accept the reference and refuse a perturbed value ---

def _ratio_doc(alpha, power, r, **override):
    doc = dict(alpha=alpha, power=power, r=r,
               exact=float(oracle.ratio_exact(alpha, power, r)),
               series=float(oracle.ratio_series(alpha, power, r)), thumb=1 + r * r / 2)
    doc.update(override)
    return json.dumps(doc)


def test_check_command_accepts_reference_and_refuses_perturbation():
    spec = dict(command="ratio", args=dict(alpha=0.05, power=0.8, r=0.5), format="json")
    assert checks.check_command(spec, _ratio_doc(0.05, 0.8, 0.5)) == (1, [])
    exact = float(oracle.ratio_exact(0.05, 0.8, 0.5))
    items, problems = checks.check_command(spec, _ratio_doc(0.05, 0.8, 0.5, exact=exact + 1e-9))
    assert problems and "exact" in problems[0]


def test_check_command_refuses_non_finite_json():
    spec = dict(command="ratio", args=dict(alpha=0.05, power=0.8, r=0.5), format="json")
    text = _ratio_doc(0.05, 0.8, 0.5).replace('"thumb": 1.125', '"thumb": inf')
    items, problems = checks.check_command(spec, text)
    assert items == 0 and "unparseable" in problems[0]


def test_pooled_check_refuses_the_asymptotic_reference():
    spec = dict(n_subjects=126, tau=0.5, sigma=1.0, rho=RHO, alpha=0.05,
                n_reps=4096, seed=1, test_kind="student_t", adjust=True)
    sd = oracle.finite_sample_se(1.0, RHO, 126, adjust=True)

    def campaigns(rate, se):
        return [dict(n_reps_completed=4096, rejection_rate=round(rate * 4096) / 4096,
                     mean_tau_hat=0.5, empirical_se_tau_hat=se)] * 30

    exact = oracle.adjusted_power(0.05, 0.5, 1.0, RHO, 126)
    asymptotic = oracle.two_term_power(0.05, 0.5, 1.0, 126, RHO)
    assert checks.check_pooled(spec, campaigns(exact, sd)) == []
    assert "rejection rate" in checks.check_pooled(spec, campaigns(asymptotic, sd))[0]
    # a 1.6% larger residual SD: within one campaign's noise, not within 30 pooled
    assert "empirical SE" in checks.check_pooled(spec, campaigns(exact, 1.016 * sd))[0]
