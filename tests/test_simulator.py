import math
import tracemalloc

import numpy as np
import pytest

from ancova_power import (
    DomainError,
    SimConfig,
    TrialData,
    fit_ancova,
    fit_unadjusted,
    generate_trial,
    run_campaign,
    student_t_critical,
)
from ancova_power import simulate
from ancova_power.simulate import _decode_trials, _rep_uniforms


def make_config(**overrides):
    base = dict(n_subjects=126, tau=0.5, sigma=1.0, rho=0.5, alpha=0.05,
                n_reps=100, seed=42, test_kind="student_t", adjust=True)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_subjects=125), dict(n_subjects=0), dict(sigma=0.0),
        dict(rho=1.0), dict(alpha=0.0), dict(n_reps=0),
        dict(test_kind="bootstrap"), dict(seed=-1),
        dict(tau=math.nan), dict(n_subjects=2), dict(sigma=math.inf),
        # sums of squares that overflow, or noise squares below the normal range
        dict(tau=1e200), dict(tau=-1e160), dict(sigma=1e153), dict(sigma=1e-160),
        dict(sigma=1e-150, rho=0.999999999999),
        # counts and seeds that are not integers
        dict(n_subjects=126.0), dict(n_reps=10.5), dict(seed=1.5), dict(seed=1.9),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            make_config(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("n_subjects", 126.0), ("n_reps", 10.5), ("seed", 1.5), ("seed", 1.9),
        ("n_subjects", np.float64(126.0)),
    ])
    def test_non_integer_is_named(self, name, value):
        # the config, not the campaign, refuses it: a float count fails in range()
        # and a float seed is truncated by the stream key
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            make_config(**{name: value})

    def test_numpy_integers_accepted(self):
        python = dict(n_subjects=20, n_reps=5, seed=2**63 + 5)
        numpy = dict(n_subjects=np.int64(20), n_reps=np.int32(5), seed=np.uint64(2**63 + 5))
        assert run_campaign(make_config(**numpy)) == run_campaign(make_config(**python))


class TestGenerateTrial:
    def test_balanced_arms(self):
        data = generate_trial(make_config(), 0)
        assert int(data.treatment.sum()) == 63
        assert len(data) == 126

    def test_deterministic_in_seed_and_rep(self):
        cfg = make_config()
        d1 = generate_trial(cfg, 5)
        d2 = generate_trial(cfg, 5)
        assert np.array_equal(d1.outcome, d2.outcome)
        assert not np.array_equal(d1.outcome, generate_trial(cfg, 6).outcome)
        assert not np.array_equal(
            d1.outcome, generate_trial(make_config(seed=43), 5).outcome)

    def test_streams_are_fresh_keyed_philox(self):
        # one reset Philox per call gives each rep a new generator's stream
        cfg = make_config(n_subjects=20, seed=2**63 + 5)
        reps = [0, 1, 7, 2**40, 3]
        uniforms = _rep_uniforms(cfg, reps)
        assert uniforms.shape == (len(reps), 60)
        for row, r in zip(uniforms, reps):
            key = np.array([cfg.seed, r], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key)).random(60)
            assert np.array_equal(row, np.maximum(fresh, 5e-324))

    def test_batched_decode_matches_single_rep(self):
        cfg = make_config()
        uniforms = _rep_uniforms(cfg, range(8))
        treatment, covariate, outcome = _decode_trials(cfg, uniforms)
        d = generate_trial(cfg, 3)
        assert np.array_equal(treatment[3], d.treatment)
        assert np.array_equal(covariate[3], d.covariate)
        assert np.array_equal(outcome[3], d.outcome)

    def test_smallest_uniform_decodes_to_finite_values(self):
        # _rep_uniforms maps a draw of exactly 0 to 5e-324
        cfg = make_config()
        uniforms = _rep_uniforms(cfg, [0])
        uniforms[0, [0, 126]] = 5e-324  # a covariate draw and a noise draw
        for values in _decode_trials(cfg, uniforms):
            assert np.all(np.isfinite(values))

    def _pooled_rows(self, cfg, reps=1000):
        uniforms = _rep_uniforms(cfg, range(reps))
        return _decode_trials(cfg, uniforms)

    def test_independent_when_rho_zero(self):
        cfg = make_config(n_subjects=1000, rho=0.0, tau=0.0)
        treatment, covariate, outcome = self._pooled_rows(cfg)
        corr = np.corrcoef(covariate.ravel(), outcome.ravel())[0, 1]
        assert abs(corr) <= 0.005

    def test_within_arm_outcome_sd_is_sigma(self):
        cfg = make_config(n_subjects=1000, rho=0.5, tau=0.0)
        _, _, outcome = self._pooled_rows(cfg)
        assert float(np.std(outcome)) == pytest.approx(1.0, abs=0.005)

    def test_within_arm_correlation_is_rho(self):
        cfg = make_config(n_subjects=1000, rho=0.5, tau=0.0)
        _, covariate, outcome = self._pooled_rows(cfg)
        corr = np.corrcoef(covariate.ravel(), outcome.ravel())[0, 1]
        assert corr == pytest.approx(0.5, abs=0.005)

    def test_arm_mean_difference_is_tau(self):
        cfg = make_config(n_subjects=1000, rho=0.3, tau=0.5)
        treatment, _, outcome = self._pooled_rows(cfg)
        diff = outcome[treatment == 1.0].mean() - outcome[treatment == 0.0].mean()
        assert diff == pytest.approx(0.5, abs=0.01)

    def test_rejects_negative_rep_index(self):
        with pytest.raises(DomainError):
            generate_trial(make_config(), -1)

    def test_rejects_rep_index_beyond_the_stream_key(self):
        # the key's rep word is 64 bits; numpy would say only 'Python int too large'
        cfg = make_config(n_subjects=20)
        with pytest.raises(DomainError, match="rep_index"):
            generate_trial(cfg, 2**64)
        assert len(generate_trial(cfg, 2**64 - 1)) == 20


class TestFitAncova:
    def test_perfect_treatment_effect(self):
        rng = np.random.default_rng(0)
        t = np.array([0.0, 1.0] * 6)
        x = rng.normal(size=12)
        fit = fit_ancova(TrialData(t, x, 2.0 * t))
        assert fit.tau_hat == pytest.approx(2.0, abs=1e-10)
        assert fit.se_tau_hat == pytest.approx(0.0, abs=1e-8)
        assert fit.df == 9

    def test_pure_covariate_effect(self):
        rng = np.random.default_rng(1)
        t = np.array([0.0, 1.0] * 6)
        x = rng.normal(size=12)
        fit = fit_ancova(TrialData(t, x, 3.0 + x))
        assert fit.tau_hat == pytest.approx(0.0, abs=1e-10)

    def test_matches_brute_force_least_squares(self):
        # independent oracle: direct SSE minimization over the coefficients
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2)
        t = np.array([0.0, 1.0] * 6)
        x = rng.normal(size=12)
        y = 0.7 * t + 0.4 * x + rng.normal(size=12)

        def sse(coef):
            resid = y - coef[0] - coef[1] * t - coef[2] * x
            return float(resid @ resid)

        res = scipy_opt.minimize(sse, x0=[0.0, 0.0, 0.0], method="Nelder-Mead",
                                 options={"xatol": 1e-10, "fatol": 1e-14,
                                          "maxiter": 20000})
        fit = fit_ancova(TrialData(t, x, y))
        assert fit.tau_hat == pytest.approx(res.x[1], abs=1e-6)

    def test_standard_error_matches_statsmodels(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(3)
        t = np.repeat([0.0, 1.0], 30)
        x = rng.normal(size=60)
        y = 0.5 * t + 0.6 * x + rng.normal(size=60)
        fit = fit_ancova(TrialData(t, x, y))
        ref = sm.OLS(y, np.column_stack([np.ones(60), t, x])).fit()
        assert fit.tau_hat == pytest.approx(ref.params[1], abs=1e-10)
        assert fit.se_tau_hat == pytest.approx(ref.bse[1], abs=1e-10)

    def test_matches_lstsq_on_unbalanced_arms(self):
        # independent oracle: least squares on the full design matrix, with
        # the coefficient covariance from its pseudo-inverse
        rng = np.random.default_rng(4)
        t = np.repeat([0.0, 1.0], [7, 13])
        x = rng.normal(size=20)
        y = 0.3 * t + 0.8 * x + rng.normal(size=20)
        design = np.column_stack([np.ones(20), t, x])
        coef, sse, _, _ = np.linalg.lstsq(design, y, rcond=None)
        se = math.sqrt(sse[0] / 17 * np.linalg.pinv(design.T @ design)[1, 1])
        fit = fit_ancova(TrialData(t, x, y))
        assert fit.tau_hat == pytest.approx(coef[1], rel=1e-12)
        assert fit.se_tau_hat == pytest.approx(se, rel=1e-12)
        assert fit.df == 17

    def test_rejects_covariate_collinear_with_treatment(self):
        # the covariate varies across arms but (almost) not within them
        rng = np.random.default_rng(1)
        t = np.array([0.0, 1.0] * 6)
        x = 2.0 * t + 1.0 + 1e-9 * rng.normal(size=12)
        with pytest.raises(np.linalg.LinAlgError):
            fit_ancova(TrialData(t, x, t + rng.normal(size=12)))

    def test_rejects_constant_covariate(self):
        t = np.array([0.0, 1.0] * 6)
        with pytest.raises(np.linalg.LinAlgError):
            fit_ancova(TrialData(t, np.ones(12), t + 1.0))

    def test_rejects_tiny_dataset(self):
        with pytest.raises(DomainError):
            fit_ancova(TrialData(np.array([0.0, 1.0]), np.array([0.1, 0.2]),
                                 np.array([1.0, 2.0])))


class TestFitUnadjusted:
    def test_mean_difference(self):
        t = np.array([0.0, 0.0, 1.0, 1.0])
        fit = fit_unadjusted(TrialData(t, np.zeros(4), np.array([1.0, 1.0, 3.0, 3.0])))
        assert fit.tau_hat == pytest.approx(2.0, abs=1e-15)
        assert fit.df == 2

    def test_equal_arms(self):
        t = np.array([0.0, 0.0, 1.0, 1.0])
        fit = fit_unadjusted(TrialData(t, np.zeros(4), np.array([1.0, 2.0, 1.0, 2.0])))
        assert fit.tau_hat == pytest.approx(0.0, abs=1e-15)

    def test_matches_pooled_t_test(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        data = generate_trial(make_config(rho=0.0), 0)
        fit = fit_unadjusted(data)
        ref = scipy_stats.ttest_ind(data.outcome[data.treatment == 1.0],
                                    data.outcome[data.treatment == 0.0])
        assert fit.tau_hat / fit.se_tau_hat == pytest.approx(ref.statistic, abs=1e-10)

    def test_agrees_with_ancova_for_uncorrelated_covariate(self):
        data = generate_trial(make_config(n_subjects=10_000, rho=0.0), 0)
        adj = fit_ancova(data)
        unadj = fit_unadjusted(data)
        assert adj.tau_hat == pytest.approx(unadj.tau_hat, abs=0.01)

    def test_rejects_single_arm(self):
        with pytest.raises(ValueError):
            fit_unadjusted(TrialData(np.ones(4), np.zeros(4), np.ones(4)))


class TestStudentTCritical:
    def test_normal_limit(self):
        assert student_t_critical(0.05, 10**6) == pytest.approx(1.95996, abs=1e-4)

    def test_df1_arctangent_closed_form(self):
        # the df=1 CDF inverts to tan(pi*(0.5 - alpha/2))
        assert student_t_critical(0.05, 1) == pytest.approx(
            math.tan(math.pi * (0.5 - 0.025)), rel=1e-10)

    def test_df2_closed_form(self):
        # solving t/sqrt(t^2+2) = 1 - alpha for the df=2 CDF
        alpha = 0.05
        expected = (1 - alpha) * math.sqrt(2.0 / (alpha * (2.0 - alpha)))
        assert student_t_critical(alpha, 2) == pytest.approx(expected, rel=1e-10)

    def test_matches_scipy_closely(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (3, 10, 30, 123, 1000):
            for alpha in (0.01, 0.05, 0.2):
                ref = float(scipy_stats.t.ppf(1.0 - alpha / 2.0, df))
                assert student_t_critical(alpha, df) == pytest.approx(ref, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            student_t_critical(0.05, 0)
        with pytest.raises(DomainError):
            student_t_critical(1.5, 10)


class TestRunCampaign:
    def test_deterministic(self):
        cfg = make_config(n_reps=2000)
        assert run_campaign(cfg) == run_campaign(cfg)

    @pytest.mark.parametrize("adjust", [True, False])
    def test_independent_of_block_size(self, monkeypatch, adjust):
        # 4096 + 37 reps at 3n = 60 uniforms per rep
        cfg = make_config(n_subjects=20, adjust=adjust, n_reps=4096 + 37)
        default = run_campaign(cfg)
        # one row per block; 7 and 1000 rows per block, each with a partial last
        # block; the whole campaign in one block
        for block_values in (60, 7 * 60 + 59, 1000 * 60, cfg.n_reps * 60):
            monkeypatch.setattr(simulate, "_BLOCK_VALUES", block_values)
            assert run_campaign(cfg) == default

    @pytest.mark.parametrize("adjust, seed", [(True, 0), (False, 2)])
    def test_sums_are_correctly_rounded(self, adjust, seed):
        # reference: every rep fitted at once, each sum rounded once by math.fsum
        cfg = make_config(n_subjects=20, adjust=adjust, seed=seed, n_reps=4096 + 37)
        uniforms = _rep_uniforms(cfg, range(cfg.n_reps))
        tau_hat, se, ok = simulate._fit_batch(*_decode_trials(cfg, uniforms), adjust)
        critical = student_t_critical(cfg.alpha, 17 if adjust else 18)
        dev = (tau_hat[ok] - cfg.tau).tolist()
        n = len(dev)
        mean_dev = math.fsum(dev) / n
        emp_var = (math.fsum(d * d for d in dev) - n * mean_dev**2) / (n - 1)

        res = run_campaign(cfg)
        assert res.n_reps_completed == n
        assert res.rejection_rate == int((ok & (np.abs(tau_hat) > critical * se)).sum()) / n
        assert res.mean_tau_hat == cfg.tau + mean_dev
        assert res.empirical_se_tau_hat == math.sqrt(emp_var)

    def test_exact_add_depends_only_on_the_exact_sum(self):
        values = np.random.default_rng(0).normal(size=1000) * np.logspace(-20, 20, 1000)
        parts = []
        for part in np.array_split(values, 7):
            parts = simulate._exact_add(parts, part)
        assert parts == simulate._exact_add([], values)
        assert math.fsum(parts) == math.fsum(values)
        assert simulate._exact_add([], np.array([1e16, 1.0, -1e16, 1e-30])) == [1.0, 1e-30]
        assert simulate._exact_add([1.0], np.array([-1.0])) == []
        assert simulate._exact_add([], np.array([math.inf, 1.0])) == [math.inf]

    def test_working_set_is_one_block(self):
        # the campaign's 4096 x 3024 uniforms alone would be 94 MB
        cfg = make_config(n_subjects=1008, tau=0.5 / math.sqrt(8.0), n_reps=4096)
        tracemalloc.start()
        try:
            run_campaign(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_empirical_se_does_not_cancel_at_large_tau(self):
        # the same draws at any tau: tau_hat - tau moves by rounding only
        base = run_campaign(make_config(n_reps=50))
        for tau in (1e6, 1e8):
            res = run_campaign(make_config(tau=tau, n_reps=50))
            assert res.empirical_se_tau_hat == pytest.approx(base.empirical_se_tau_hat, rel=1e-5)
            assert res.mean_tau_hat - tau == pytest.approx(base.mean_tau_hat - 0.5, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1e-20, 1e-323])
    def test_wald_z_at_tiny_alpha(self, alpha):
        # 1 - alpha/2 rounds to 1 here; the critical value is -Phi^-1(alpha/2)
        res = run_campaign(make_config(tau=0.0, test_kind="wald_z", alpha=alpha, n_reps=50))
        assert res.rejection_rate == 0.0

    def test_mc_stderr_invariant(self):
        res = run_campaign(make_config(n_reps=2000))
        expected = math.sqrt(res.rejection_rate * (1.0 - res.rejection_rate)
                             / res.n_reps_completed)
        assert res.mc_stderr == pytest.approx(expected, abs=1e-12)

    def test_type_one_error_calibration(self):
        res = run_campaign(make_config(tau=0.0, n_subjects=200, rho=0.0,
                                       adjust=False, n_reps=30_000, seed=3))
        assert abs(res.rejection_rate - 0.05) <= 3.0 * res.mc_stderr

    def test_power_near_analytic_unadjusted(self):
        res = run_campaign(make_config(rho=0.0, adjust=False, n_reps=30_000, seed=4))
        assert res.analytic_power == pytest.approx(0.8013, abs=1e-3)
        assert abs(res.rejection_rate - res.analytic_power) <= 0.012

    def test_power_near_analytic_adjusted(self):
        res = run_campaign(make_config(rho=0.5, adjust=True, n_reps=30_000, seed=5))
        assert res.analytic_power == pytest.approx(0.8998, abs=1e-3)
        assert abs(res.rejection_rate - res.analytic_power) <= 0.012

    def test_empirical_se_matches_asymptotic(self):
        for rho in (0.0, 0.5):
            res = run_campaign(make_config(rho=rho, adjust=True, n_reps=30_000, seed=6))
            assert res.empirical_se_tau_hat / res.analytic_se == pytest.approx(1.0, abs=0.025)

    def test_power_monotone_in_rho(self):
        rates, errs = [], []
        for rho in (0.0, 0.3, 0.5, 0.7):
            res = run_campaign(make_config(rho=rho, adjust=True, n_reps=20_000, seed=8))
            rates.append(res.rejection_rate)
            errs.append(res.mc_stderr)
        for i in range(1, len(rates)):
            combined = math.hypot(errs[i - 1], errs[i])
            assert rates[i] >= rates[i - 1] - 3.0 * combined

    def test_adjusted_matches_unadjusted_at_rho_zero(self):
        adj = run_campaign(make_config(rho=0.0, adjust=True, n_reps=20_000, seed=9))
        unadj = run_campaign(make_config(rho=0.0, adjust=False, n_reps=20_000, seed=9))
        combined = math.hypot(adj.mc_stderr, unadj.mc_stderr)
        assert abs(adj.rejection_rate - unadj.rejection_rate) <= 3.0 * combined

    def test_wald_z_rejects_slightly_more_than_t(self):
        z = run_campaign(make_config(test_kind="wald_z", n_reps=5000, seed=10))
        t = run_campaign(make_config(test_kind="student_t", n_reps=5000, seed=10))
        assert z.rejection_rate >= t.rejection_rate

    def test_mean_tau_hat_unbiased(self):
        res = run_campaign(make_config(n_reps=30_000, seed=11))
        assert res.mean_tau_hat == pytest.approx(0.5, abs=3.0 * res.analytic_se / math.sqrt(30_000))
