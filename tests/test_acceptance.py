"""End-to-end acceptance gate.

One test per criterion, and for criterion 5 a second against the exact
finite-sample law; each prints a single PASS/FAIL line (visible with
``pytest -s`` or on failure) and asserts its stated tolerance.
"""

import contextlib
import io
import json
import math
import random
import time

import numpy as np
import pytest

from ancova_power import (
    TrialDesign,
    adjusted_power_at_fixed_n,
    approx_power_one_term,
    expansion_params,
    required_sample_size,
)
from ancova_power.cli import main
from ancova_power.normal_math import erfc, std_normal_cdf, std_normal_pdf, std_normal_quantile
from ancova_power.power_engine import ratio_curvature_fd, series_coefficients


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return out


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_rule_of_thumb_coefficient(capsys):
    start = time.perf_counter()
    doc = json.loads(run_cli(capsys, "expand", "--alpha", "0.05", "--power", "0.80"))
    elapsed = time.perf_counter() - start
    ok = 0.485 <= doc["c2"] <= 0.495 and abs(doc["c0"] - 1.0) <= 1e-12 and elapsed < 1.0
    report(1, ok, f"c2={doc['c2']:.6f} in [0.485, 0.495], "
                  f"|c0-1|={abs(doc['c0'] - 1.0):.2e}, {elapsed:.3f}s")


def test_criterion_2_ratio_accuracy_regime(capsys):
    start = time.perf_counter()
    doc = json.loads(run_cli(capsys, "curve", "--alpha", "0.05", "--power", "0.80",
                             "--r-max", "0.5", "--step", "0.05"))
    elapsed = time.perf_counter() - start
    ok = (doc["max_abs_err_thumb"] <= 0.005
          and doc["max_abs_err_series"] <= 0.005
          and elapsed < 1.0)
    report(2, ok, f"max|exact-thumb|={doc['max_abs_err_thumb']:.5f}, "
                  f"max|exact-series|={doc['max_abs_err_series']:.5f}, {elapsed:.3f}s")


def test_criterion_3_adjusted_power_anchor():
    start = time.perf_counter()
    power = adjusted_power_at_fixed_n(0.05, 0.80, 0.5)
    elapsed = time.perf_counter() - start
    ok = abs(power - 0.899) <= 0.001 and elapsed < 1.0
    report(3, ok, f"adjusted power at r=0.5 is {power:.5f} (target 0.899 +- 0.001)")


def test_criterion_4_sample_size_round_trip():
    start = time.perf_counter()
    rng = random.Random(20240823)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.001, 0.2)
        power = rng.uniform(alpha / 2 + 0.05, 0.99)
        tau = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        sigma = rng.uniform(0.1, 5.0)
        n = required_sample_size(alpha, power, tau, sigma)
        recovered = approx_power_one_term(
            TrialDesign(alpha=alpha, tau=tau, sigma=sigma, n_total=n, r=0.0))
        worst = max(worst, abs(recovered - power))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(4, ok, f"worst round-trip error over 100 random designs: {worst:.2e}")


@pytest.fixture(scope="module")
def criterion_5_documents():
    """Criterion 5's two 200k-rep ``simulate`` documents, unadjusted then adjusted,
    and the seconds both took: run once, read by every test that checks them."""
    base = ["simulate", "--n", "126", "--tau", "0.5", "--sigma", "1",
            "--alpha", "0.05", "--reps", "200000", "--seed", "42", "--test", "t"]
    docs = []
    start = time.perf_counter()
    for analysis in (["--rho", "0", "--adjust", "false"], ["--rho", "0.5", "--adjust", "true"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(base + analysis)
        assert code == 0, f"CLI exited {code}"
        docs.append(json.loads(out.getvalue()))
    return docs[0], docs[1], time.perf_counter() - start


def test_criterion_5_monte_carlo_power_validation(criterion_5_documents):
    unadj, adj, elapsed = criterion_5_documents

    ok_a = abs(unadj["rejection_rate"] - 0.801) <= 0.01
    ok_b = abs(adj["rejection_rate"] - 0.899) <= 0.01
    ratio_unadj = unadj["empirical_se_tau_hat"] / unadj["analytic_se"]
    ratio_adj = adj["empirical_se_tau_hat"] / adj["analytic_se"]
    ok_c = abs(ratio_unadj - 1.0) <= 0.02 and abs(ratio_adj - 1.0) <= 0.02
    ok = ok_a and ok_b and ok_c and elapsed < 60.0
    report(5, ok, f"unadjusted rate {unadj['rejection_rate']:.4f} (0.801 +- 0.01), "
                  f"adjusted rate {adj['rejection_rate']:.4f} (0.899 +- 0.01), "
                  f"SE ratios {ratio_unadj:.4f}/{ratio_adj:.4f} (1 +- 0.02), "
                  f"{elapsed:.1f}s")


def test_criterion_5_matches_the_finite_sample_law(criterion_5_documents, oracle):
    # the asymptotic power criterion 5 is centred on sits 8-10 MC standard errors
    # from the rates; the exact finite-sample law (Shieh 2020) is their target
    details, ok = [], True
    for doc in criterion_5_documents[:2]:
        n, adjust = doc["n"], doc["adjust"]
        power = oracle.finite_sample_power(doc["alpha"], doc["tau"], doc["sigma"],
                                           doc["rho"], n, adjust)
        se = oracle.finite_sample_se(doc["sigma"], doc["rho"], n, adjust)
        # the standard error of a sample SD: sd * sqrt((kurtosis - 1) / (4 reps))
        se_of_sd = se * math.sqrt((oracle.tau_hat_kurtosis(n, adjust) - 1.0)
                                  / (4.0 * doc["n_reps_completed"]))
        z_rate = (doc["rejection_rate"] - power) / doc["mc_stderr"]
        z_se = (doc["empirical_se_tau_hat"] - se) / se_of_sd
        ok = ok and abs(z_rate) <= 4.0 and abs(z_se) <= 4.0
        details.append(f"{'adjusted' if adjust else 'unadjusted'} rate z {z_rate:+.2f} "
                       f"vs {power:.6f}, SE z {z_se:+.2f} vs {se:.6f}")
    report(5, ok, "finite-sample law: " + ", ".join(details) + " (|z| <= 4)")


def test_criterion_6_type_one_calibration(capsys):
    doc = json.loads(run_cli(capsys, "simulate", "--n", "200", "--tau", "0",
                             "--sigma", "1", "--rho", "0", "--alpha", "0.05",
                             "--reps", "200000", "--seed", "42", "--test", "t",
                             "--adjust", "false"))
    ok = abs(doc["rejection_rate"] - 0.05) <= 0.005
    report(6, ok, f"null rejection rate {doc['rejection_rate']:.4f} (0.05 +- 0.005)")


def test_criterion_7_special_function_suite():
    ps = np.concatenate([
        np.logspace(-10, math.log10(0.49), 500),
        1.0 - np.logspace(-10, math.log10(0.49), 500),
    ])
    round_trip = float(np.max(np.abs(std_normal_cdf(std_normal_quantile(ps)) - ps)))

    xs = np.linspace(-8.0, 8.0, 1001)
    consistency = float(np.max(np.abs(erfc(-xs / math.sqrt(2.0))
                                      - 2.0 * std_normal_cdf(xs))))

    h = 1e-5
    grid = np.linspace(-4.0, 4.0, 100)
    fd = (std_normal_cdf(grid + h) - std_normal_cdf(grid - h)) / (2.0 * h)
    pdf_err = float(np.max(np.abs(fd - std_normal_pdf(grid))))

    ok = round_trip <= 1e-12 and consistency <= 1e-12 and pdf_err <= 1e-9
    report(7, ok, f"round-trip {round_trip:.2e} (<=1e-12), "
                  f"erfc/cdf consistency {consistency:.2e} (<=1e-12), "
                  f"pdf finite-difference {pdf_err:.2e}")


def test_criterion_8_series_vs_derivative():
    pairs = [(0.05, 0.80), (0.01, 0.90), (0.025, 0.85), (0.1, 0.70), (0.05, 0.90)]
    worst = 0.0
    for alpha, power in pairs:
        _, c2 = series_coefficients(expansion_params(alpha, power))
        worst = max(worst, abs(ratio_curvature_fd(alpha, power) - c2))
    ok = worst <= 1e-6
    report(8, ok, f"worst |finite-difference - c2| over {len(pairs)} pairs: {worst:.2e}")


def test_criterion_9_simulation_determinism(capsys):
    argv = ["simulate", "--n", "126", "--tau", "0.5", "--sigma", "1",
            "--rho", "0.5", "--alpha", "0.05", "--reps", "5000", "--seed", "7",
            "--test", "t", "--adjust", "true"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    ok = first == second and len(first) > 0
    report(9, ok, "two identical invocations produced byte-identical output")
