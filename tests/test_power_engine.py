import math
import random

import numpy as np
import pytest

from ancova_power import (
    DomainError,
    TrialDesign,
    adjusted_power_at_fixed_n,
    approx_power_one_term,
    asymptotic_variance,
    exact_power_two_term,
    expansion_params,
    power_ratio_exact,
    power_ratio_series,
    power_terms,
    ratio_report,
    required_sample_size,
    rule_of_thumb,
)
from ancova_power.normal_math import std_normal_cdf, std_normal_pdf, std_normal_quantile
from ancova_power.power_engine import ratio_curvature_fd, series_coefficients

# frozen from a 30-digit mpmath oracle
A_005 = -1.95996398454005424          # Phi^-1(0.025)
B_005_080 = 2.80158521811296844       # Phi^-1(0.80) - Phi^-1(0.025)
N_STAR = 125.58207574958542           # 4 * B^2 / 0.25
ADJ_POWER_R05 = 0.89885032979385086   # Phi(a + b/sqrt(0.75))
ADJ_POWER_R03 = 0.83568951012276853
RATIO_R0707 = 1.22170222184173603
C2_005_080 = 0.49021073615564698


def random_valid_inputs(rng, n):
    for _ in range(n):
        alpha = rng.uniform(0.001, 0.2)
        power = rng.uniform(alpha / 2 + 0.05, 0.99)
        tau = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        sigma = rng.uniform(0.1, 5.0)
        yield alpha, power, tau, sigma


class TestTrialDesign:
    def test_valid(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=1.0, n_total=100.0, r=0.3)
        assert d.r == 0.3

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=1.0), dict(sigma=0.0), dict(sigma=-1.0),
        dict(n_total=0.0), dict(r=1.0), dict(r=-1.0), dict(r=1.5),
        dict(sigma=math.inf), dict(n_total=math.inf),
        # variance 4*sigma^2/n_total overflows or underflows to 0
        dict(sigma=1e200), dict(sigma=1e-300), dict(n_total=1e-320),
        # alpha/2 underflows to 0
        dict(alpha=5e-324),
    ])
    def test_invalid(self, kwargs):
        base = dict(alpha=0.05, tau=0.5, sigma=1.0, n_total=100.0, r=0.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            TrialDesign(**base)


class TestAsymptoticVariance:
    def test_unadjusted(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=1.0, n_total=100.0, r=0.0)
        assert asymptotic_variance(d) == pytest.approx(0.04, abs=1e-15)

    def test_adjusted(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=1.0, n_total=100.0, r=0.5)
        assert asymptotic_variance(d) == pytest.approx(0.03, abs=1e-15)

    def test_direct_arithmetic(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=2.0, n_total=126.0, r=0.3)
        assert asymptotic_variance(d) == pytest.approx(16.0 * 0.91 / 126.0, abs=1e-5)

    def test_decreasing_in_r_squared(self):
        rs = [0.0, 0.2, 0.4, 0.6, 0.8]
        vs = [asymptotic_variance(TrialDesign(alpha=0.05, tau=0.5, sigma=1.0,
                                              n_total=100.0, r=r)) for r in rs]
        assert all(b < a for a, b in zip(vs, vs[1:]))


class TestExactPower:
    def test_equals_alpha_at_tau_zero(self):
        for alpha in (0.01, 0.05, 0.1):
            d = TrialDesign(alpha=alpha, tau=0.0, sigma=1.3, n_total=77.0, r=0.4)
            assert exact_power_two_term(d) == pytest.approx(alpha, abs=1e-12)

    def test_anchor_design(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=1.0, n_total=125.58, r=0.0)
        assert exact_power_two_term(d) == pytest.approx(0.800, abs=5e-4)

    def test_sign_symmetry(self):
        rng = random.Random(7)
        for alpha, power, tau, sigma in random_valid_inputs(rng, 20):
            n = rng.uniform(20.0, 500.0)
            r = rng.uniform(-0.9, 0.9)
            plus = exact_power_two_term(TrialDesign(alpha, tau, sigma, n, r))
            minus = exact_power_two_term(TrialDesign(alpha, -tau, sigma, n, r))
            assert plus == pytest.approx(minus, abs=1e-15)

    def test_in_unit_interval(self):
        # tau/nu = 10 here; the power is below 1 by ~1e-15, which is still
        # representable (more extreme designs round to exactly 1.0)
        d = TrialDesign(alpha=0.05, tau=1.0, sigma=1.0, n_total=400.0, r=0.0)
        assert 0.0 < exact_power_two_term(d) < 1.0


class TestPowerTerms:
    def test_terms_of_the_public_functions_bit_for_bit(self):
        # the one- and two-term powers as written out before power_terms
        # existed: Phi(a + |tau|/nu), and Phi(a - tau/nu) + Phi(a + tau/nu)
        for tau in (0.37, -0.37, 1e-3, -1e-3, 0.0, -0.0):
            d = TrialDesign(alpha=0.05, tau=tau, sigma=1.3, n_total=77.0, r=0.4)
            nu = math.sqrt(asymptotic_variance(d))
            a = std_normal_quantile(0.025)
            main, tail = power_terms(d)
            assert main == approx_power_one_term(d) == std_normal_cdf(a + abs(tau) / nu)
            assert tail == std_normal_cdf(a - abs(tau) / nu)
            assert tail + main == exact_power_two_term(d)
            assert tail + main == std_normal_cdf(a - tau / nu) + std_normal_cdf(a + tau / nu)


class TestApproxPower:
    def test_half_alpha_at_tau_zero(self):
        d = TrialDesign(alpha=0.05, tau=0.0, sigma=1.0, n_total=100.0, r=0.0)
        assert approx_power_one_term(d) == pytest.approx(0.025, abs=1e-12)

    def test_anchor_design(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=1.0, n_total=125.58, r=0.0)
        assert approx_power_one_term(d) == pytest.approx(0.80, abs=1e-4)

    def test_anchor_design_adjusted(self):
        d = TrialDesign(alpha=0.05, tau=0.5, sigma=1.0, n_total=125.58, r=0.5)
        assert approx_power_one_term(d) == pytest.approx(0.8989, abs=5e-4)

    def test_never_exceeds_exact(self):
        rng = random.Random(11)
        for alpha, power, tau, sigma in random_valid_inputs(rng, 50):
            d = TrialDesign(alpha, tau, sigma, rng.uniform(10.0, 400.0), 0.0)
            assert approx_power_one_term(d) <= exact_power_two_term(d) + 1e-15

    def test_gap_is_dropped_tail_term(self):
        # exact - approx = Phi(a - |tau|/nu) identically
        rng = random.Random(13)
        for alpha, power, tau, sigma in random_valid_inputs(rng, 50):
            d = TrialDesign(alpha, tau, sigma, rng.uniform(10.0, 400.0),
                            rng.uniform(-0.8, 0.8))
            nu = math.sqrt(asymptotic_variance(d))
            a = std_normal_quantile(alpha / 2.0)
            gap = exact_power_two_term(d) - approx_power_one_term(d)
            assert gap == pytest.approx(std_normal_cdf(a - abs(tau) / nu), abs=1e-14)


class TestRequiredSampleSize:
    def test_anchor(self):
        assert required_sample_size(0.05, 0.80, 0.5, 1.0) == pytest.approx(N_STAR, abs=0.05)

    def test_scales_inverse_tau_squared(self):
        n_half = required_sample_size(0.05, 0.80, 0.5, 1.0)
        n_one = required_sample_size(0.05, 0.80, 1.0, 1.0)
        assert n_one == pytest.approx(n_half / 4.0, rel=1e-12)

    def test_round_trip(self):
        rng = random.Random(17)
        for alpha, power, tau, sigma in random_valid_inputs(rng, 100):
            n = required_sample_size(alpha, power, tau, sigma)
            d = TrialDesign(alpha=alpha, tau=tau, sigma=sigma, n_total=n, r=0.0)
            assert approx_power_one_term(d) == pytest.approx(power, abs=1e-10)

    def test_rejects_tau_zero(self):
        with pytest.raises(DomainError):
            required_sample_size(0.05, 0.80, 0.0, 1.0)

    def test_rejects_power_below_half_alpha(self):
        with pytest.raises(DomainError):
            required_sample_size(0.05, 0.02, 0.5, 1.0)

    @pytest.mark.parametrize("tau, sigma", [(1e-200, 1.0), (0.5, 1e200), (0.5, 1e-300)])
    def test_rejects_design_with_no_finite_n(self, tau, sigma):
        with pytest.raises(DomainError, match="tau"):
            required_sample_size(0.05, 0.80, tau, sigma)


class TestExpansionParams:
    def test_anchor_values(self):
        p = expansion_params(0.05, 0.80)
        assert p.a == pytest.approx(A_005, abs=1e-4)
        assert p.b == pytest.approx(B_005_080, abs=1e-4)

    def test_symmetric_target(self):
        p = expansion_params(0.05, 0.975)
        assert p.b == pytest.approx(2.0 * 1.95996, abs=1e-4)

    def test_sum_is_target_quantile(self):
        rng = random.Random(19)
        for alpha, power, _, _ in random_valid_inputs(rng, 30):
            p = expansion_params(alpha, power)
            assert p.a + p.b == pytest.approx(std_normal_quantile(power), abs=1e-12)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(DomainError):
            expansion_params(0.0, 0.8)
        with pytest.raises(DomainError):
            expansion_params(0.05, 1.0)


class TestAdjustedPower:
    def test_reduces_to_target_at_r_zero(self):
        assert adjusted_power_at_fixed_n(0.05, 0.80, 0.0) == pytest.approx(0.80, abs=1e-12)

    def test_anchor_values(self):
        assert adjusted_power_at_fixed_n(0.05, 0.80, 0.5) == pytest.approx(ADJ_POWER_R05, abs=5e-4)
        assert adjusted_power_at_fixed_n(0.05, 0.80, 0.3) == pytest.approx(ADJ_POWER_R03, abs=5e-4)

    def test_monotone_in_r_squared(self):
        powers = [adjusted_power_at_fixed_n(0.05, 0.80, r)
                  for r in np.linspace(0.0, 0.95, 40)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_sign_independent(self):
        assert adjusted_power_at_fixed_n(0.05, 0.80, -0.5) == \
            adjusted_power_at_fixed_n(0.05, 0.80, 0.5)

    def test_rejects_degenerate_correlation(self):
        with pytest.raises(DomainError):
            adjusted_power_at_fixed_n(0.05, 0.80, 1.0)


class TestPowerRatio:
    def test_identity_at_r_zero(self):
        assert power_ratio_exact(0.05, 0.80, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_anchor_values(self):
        assert power_ratio_exact(0.05, 0.80, 0.5) == pytest.approx(1.1236, abs=1e-3)
        assert power_ratio_exact(0.05, 0.80, 0.707107) == pytest.approx(RATIO_R0707, abs=1e-3)

    def test_bounds(self):
        for r in np.linspace(0.0, 0.999, 60):
            ratio = power_ratio_exact(0.05, 0.80, float(r))
            assert 1.0 <= ratio <= 1.0 / 0.80
            if r <= 0.95:
                # strictly below 1/p_target away from the saturation regime
                assert ratio < 1.0 / 0.80


class TestSeries:
    def test_constant_term_is_one(self):
        c0, _ = series_coefficients(expansion_params(0.05, 0.80))
        assert c0 == pytest.approx(1.0, abs=1e-12)

    def test_c2_anchor(self):
        _, c2 = series_coefficients(expansion_params(0.05, 0.80))
        assert c2 == pytest.approx(0.4902, abs=1e-3)

    def test_c2_phi_identity(self):
        # the erfc form of c2 equals b * pdf(a+b) / (2 * target_power)
        for alpha, power in [(0.05, 0.80), (0.01, 0.90), (0.1, 0.7), (0.025, 0.85)]:
            p = expansion_params(alpha, power)
            _, c2 = series_coefficients(p)
            assert c2 == pytest.approx(
                p.b * std_normal_pdf(p.a + p.b) / (2.0 * power), abs=1e-12)

    def test_c2_rounds_to_one_half(self):
        _, c2 = series_coefficients(expansion_params(0.05, 0.80))
        assert 0.485 <= c2 <= 0.495

    def test_matches_curvature_of_exact_ratio(self):
        for alpha, power in [(0.05, 0.80), (0.01, 0.90), (0.1, 0.7),
                             (0.025, 0.85), (0.05, 0.90)]:
            _, c2 = series_coefficients(expansion_params(alpha, power))
            assert ratio_curvature_fd(alpha, power) == pytest.approx(c2, abs=1e-6)

    def test_remainder_is_fourth_order(self):
        # |series - exact| should shrink like R^4 up to a fitted constant
        rs = np.linspace(0.05, 0.3, 6)
        errs = np.array([abs(power_ratio_series(0.05, 0.80, float(r))
                             - power_ratio_exact(0.05, 0.80, float(r))) for r in rs])
        c_fit = np.max(errs / rs**4)
        assert np.all(errs <= c_fit * rs**4 + 1e-15)
        # the fitted constant stays modest, i.e. the remainder really is O(R^4)
        assert c_fit < 1.0


class TestRuleOfThumb:
    @pytest.mark.parametrize("r, expected", [(0.0, 1.0), (0.5, 1.125), (0.3, 1.045)])
    def test_values(self, r, expected):
        assert rule_of_thumb(r) == pytest.approx(expected, abs=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            rule_of_thumb(1.0)


class TestRatioReport:
    def test_single_point_grid(self):
        report = ratio_report(0.05, 0.80, [0.0])
        assert report.exact_ratio == [1.0]
        assert report.series_ratio[0] == pytest.approx(1.0, abs=1e-12)
        assert report.thumb_ratio == [1.0]
        assert report.max_abs_err_series == pytest.approx(0.0, abs=1e-12)
        assert report.max_abs_err_thumb == pytest.approx(0.0, abs=1e-12)

    def test_thumb_error_to_r_half(self):
        grid = [0.05 * i for i in range(11)]
        report = ratio_report(0.05, 0.80, grid)
        assert report.max_abs_err_thumb <= 0.005

    def test_thumb_error_to_r_06(self):
        grid = [0.05 * i for i in range(13)]
        report = ratio_report(0.05, 0.80, grid)
        assert report.max_abs_err_thumb <= 0.008

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ratio_report(0.05, 0.80, [])

    def test_rejects_degenerate_grid_point(self):
        with pytest.raises(DomainError):
            ratio_report(0.05, 0.80, [0.0, 0.5, 1.0])

    def test_equals_scalar_functions(self):
        # the scalar functions are the reference: same arithmetic, same bits
        grid = [0.01 * i for i in range(100)] + [-0.3, 0.999999]
        for alpha, power in [(0.05, 0.80), (0.01, 0.9), (0.2, 0.55)]:
            report = ratio_report(alpha, power, grid)
            assert report.exact_ratio == [power_ratio_exact(alpha, power, r) for r in grid]
            assert report.series_ratio == [power_ratio_series(alpha, power, r) for r in grid]
            assert report.thumb_ratio == [rule_of_thumb(r) for r in grid]
