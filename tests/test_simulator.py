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
from ancova_power.simulate import _fold, _group_rows, _group_trials, _run_group


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
        # a block holds at least one trial row, so memory grows with n
        dict(n_subjects=2**20 + 2),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            make_config(**kwargs)

    def test_subject_cap_is_named(self):
        assert make_config(n_subjects=2**20).n_subjects == 2**20
        with pytest.raises(DomainError, match=r"n_subjects must be an even integer in \[4, "):
            make_config(n_subjects=2**20 + 2)

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

    def test_groups_are_keyed_philox_normals(self):
        # group g's rows are the (rows, 2n) standard normals of Philox keyed (seed, g):
        # covariate first, then the noise that the outcome scales
        cfg = make_config(n_subjects=20, tau=0.7, sigma=1.5, rho=0.6, seed=2**63 + 5)
        treated = np.repeat([1.0, 0.0], 10)
        for group, rows in [(0, 1), (0, 12), (1, 5), (2**64 - 1, 3)]:
            key = np.array([cfg.seed, group], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, 40))
            x, eps = z[:, :20], z[:, 20:]
            outcome = (cfg.sigma * cfg.rho * x + np.where(treated == 1.0, cfg.tau, 0.0)
                       + eps * (cfg.sigma * math.sqrt(1.0 - cfg.rho**2)))
            covariate, got = _group_trials(cfg, group, rows)
            assert np.array_equal(covariate, x)
            assert np.array_equal(got, outcome)

    def test_campaign_ends_with_the_first_rows_of_its_last_group(self, monkeypatch):
        cfg = make_config(n_subjects=20, n_reps=_group_rows(20) + 37)
        drawn = []

        def recording(config, group, rows):
            drawn.append((group, rows))
            return _group_trials(config, group, rows)

        monkeypatch.setattr(simulate, "_group_trials", recording)
        run_campaign(cfg)
        assert drawn == [(0, _group_rows(20)), (1, 37)]
        # fewer rows of a group are a prefix of more
        for part, whole in zip(_group_trials(cfg, 1, 37), _group_trials(cfg, 1, 1000)):
            assert np.array_equal(part, whole[:37])

    @pytest.mark.parametrize("n_subjects", [20, 126, 1008])
    def test_generate_trial_is_its_campaign_row(self, n_subjects):
        cfg = make_config(n_subjects=n_subjects, seed=7)
        g = _group_rows(n_subjects)
        for rep in (0, g - 1, g, 2**64 - 1):
            group, row = divmod(rep, g)
            key = np.array([cfg.seed, group], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal(
                (row + 1, 2 * n_subjects))
            trial = generate_trial(cfg, rep)
            assert np.array_equal(trial.covariate, z[row, :n_subjects])
            if rep < 2 * g:
                covariate, outcome = _group_trials(cfg, group, g)
                assert np.array_equal(trial.covariate, covariate[row])
                assert np.array_equal(trial.outcome, outcome[row])

    def _pooled_rows(self, cfg, reps=1000):
        return _group_trials(cfg, 0, reps)

    def test_independent_when_rho_zero(self):
        cfg = make_config(n_subjects=1000, rho=0.0, tau=0.0)
        covariate, outcome = self._pooled_rows(cfg)
        corr = np.corrcoef(covariate.ravel(), outcome.ravel())[0, 1]
        assert abs(corr) <= 0.005

    def test_within_arm_outcome_sd_is_sigma(self):
        cfg = make_config(n_subjects=1000, rho=0.5, tau=0.0)
        _, outcome = self._pooled_rows(cfg)
        assert float(np.std(outcome)) == pytest.approx(1.0, abs=0.005)

    def test_within_arm_correlation_is_rho(self):
        cfg = make_config(n_subjects=1000, rho=0.5, tau=0.0)
        covariate, outcome = self._pooled_rows(cfg)
        corr = np.corrcoef(covariate.ravel(), outcome.ravel())[0, 1]
        assert corr == pytest.approx(0.5, abs=0.005)

    def test_arm_mean_difference_is_tau(self):
        cfg = make_config(n_subjects=1000, rho=0.3, tau=0.5)
        _, outcome = self._pooled_rows(cfg)
        diff = outcome[:, :500].mean() - outcome[:, 500:].mean()
        assert diff == pytest.approx(0.5, abs=0.01)

    def test_rejects_negative_rep_index(self):
        with pytest.raises(DomainError):
            generate_trial(make_config(), -1)

    def test_rejects_rep_index_beyond_the_stream_key(self):
        # rep indices are 64-bit, as are the seed and the group in the Philox key
        cfg = make_config(n_subjects=20)
        with pytest.raises(DomainError, match="rep_index"):
            generate_trial(cfg, 2**64)
        assert len(generate_trial(cfg, 2**64 - 1)) == 20

    def test_rep_index_must_be_an_integer(self):
        # a float would be truncated to another rep's trial
        cfg = make_config(n_subjects=20)
        with pytest.raises(DomainError, match="rep_index must be an integer"):
            generate_trial(cfg, 1.5)
        numpy_rep = generate_trial(cfg, np.int64(3))
        assert np.array_equal(numpy_rep.outcome, generate_trial(cfg, 3).outcome)

    def test_first_half_treated(self):
        data = generate_trial(make_config(n_subjects=20), 4)
        assert np.array_equal(data.treatment, np.repeat([1.0, 0.0], 10))


class TestTrialData:
    @pytest.mark.parametrize("name, arrays", [
        ("treatment", (np.zeros((2, 3)), np.zeros(6), np.zeros(6))),
        ("covariate", (np.array([0.0, 1.0] * 3), np.zeros((2, 3)), np.zeros(6))),
        ("outcome", (np.array([0.0, 1.0] * 3), np.zeros(6), np.float64(1.0))),
    ])
    def test_rejects_non_vector(self, name, arrays):
        with pytest.raises(DomainError, match=f"{name} must be one-dimensional"):
            TrialData(*arrays)

    @pytest.mark.parametrize("name, lengths", [("covariate", (6, 5, 6)),
                                               ("outcome", (6, 6, 7))])
    def test_rejects_unequal_lengths(self, name, lengths):
        # numpy would say only 'operands could not be broadcast together'
        t, x, y = (np.arange(k) % 2.0 for k in lengths)
        with pytest.raises(DomainError, match=f"{name} has [57] entries, treatment has 6"):
            TrialData(t, x, y)

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, math.nan])
    def test_rejects_treatment_not_zero_or_one(self, bad):
        t = np.array([0.0, 1.0, 0.0, 1.0, bad])
        with pytest.raises(DomainError, match="treatment entries must be 0 or 1"):
            TrialData(t, np.arange(5.0), np.arange(5.0))

    @pytest.mark.parametrize("name", ["covariate", "outcome"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, name, bad):
        # a NaN outcome would give a NaN fit; an infinite covariate a false collinearity
        arrays = dict(treatment=np.array([0.0, 1.0] * 3), covariate=np.arange(6.0),
                      outcome=np.arange(6.0))
        arrays[name][2] = bad
        with pytest.raises(DomainError, match=f"{name} entries must be finite"):
            TrialData(**arrays)

    def test_accepts_lists(self):
        data = TrialData([0, 0, 1, 1], [0.1, 0.4, 0.2, 0.3], [1.0, 2.0, 3.0, 5.0])
        assert fit_unadjusted(data).tau_hat == pytest.approx(2.5, abs=1e-15)


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
        with pytest.raises(DomainError, match="treatment must contain both arms"):
            fit_unadjusted(TrialData(np.ones(4), np.zeros(4), np.ones(4)))

    def test_rejects_tiny_dataset(self):
        # two rows leave no degree of freedom for the pooled variance
        with pytest.raises(DomainError, match="at least 3 rows"):
            fit_unadjusted(TrialData(np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 2.0])))
        assert fit_unadjusted(TrialData(np.array([0.0, 1.0, 1.0]), np.zeros(3),
                                        np.array([1.0, 2.0, 4.0]))).df == 1


def _unbalanced_trial():
    """7 treated and 13 control rows, treated first."""
    rng = np.random.default_rng(12)
    t = np.repeat([1.0, 0.0], [7, 13])
    x = rng.normal(size=20)
    return t, x, 0.3 * t + 0.8 * x + rng.normal(size=20)


class TestFitArmLayout:
    """The single-trial fits copy a trial's treated rows first, keeping each arm's
    order, and fit that layout."""

    @pytest.mark.parametrize("fit", [fit_ancova, fit_unadjusted])
    @pytest.mark.parametrize("layout", ["treated first", "control first", "interleaved"])
    def test_leaves_the_callers_arrays_unchanged(self, fit, layout):
        # the fit centres in place: were the treated-first trial fitted through a
        # view, it would overwrite the caller's covariate and outcome
        t, x, y = _unbalanced_trial()
        order = {"treated first": list(range(20)), "control first": list(range(19, -1, -1)),
                 "interleaved": [0, 7, 1, 8, 2, 9, 3, 10, 4, 11, 5, 12, 6, 13, *range(14, 20)]}
        arrays = [a[order[layout]] for a in (t, x, y)]
        before = [a.copy() for a in arrays]
        fit(TrialData(*arrays))
        for array, kept in zip(arrays, before):
            assert np.array_equal(array, kept)

    @pytest.mark.parametrize("fit", [fit_ancova, fit_unadjusted])
    def test_row_order_does_not_matter(self, fit):
        t, x, y = _unbalanced_trial()
        ref = fit(TrialData(t, x, y))
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = rng.permutation(20)
            got = fit(TrialData(t[p], x[p], y[p]))
            assert got.tau_hat == pytest.approx(ref.tau_hat, rel=1e-12)
            assert got.se_tau_hat == pytest.approx(ref.se_tau_hat, rel=1e-12)

    @pytest.mark.parametrize("fit", [fit_ancova, fit_unadjusted])
    def test_interleaved_arms_match_sorted_arms(self, fit):
        # each arm keeps its order, so both trials reach the fit as the same arrays
        rng = np.random.default_rng(14)
        t = np.array([1.0, 0.0] * 10)
        x, y = rng.normal(size=(2, 20))
        assert fit(TrialData(t, x, y)) == fit(TrialData(
            np.repeat([1.0, 0.0], 10), np.r_[x[::2], x[1::2]], np.r_[y[::2], y[1::2]]))


class TestRunCampaign:
    def test_deterministic(self):
        cfg = make_config(n_reps=2000)
        assert run_campaign(cfg) == run_campaign(cfg)

    @pytest.mark.parametrize("adjust", [True, False])
    def test_independent_of_fold_order(self, adjust):
        # 4096 + 37 reps at 1638 rows per group: two whole groups and a partial one
        cfg = make_config(n_subjects=20, adjust=adjust, n_reps=4096 + 37)
        critical = student_t_critical(cfg.alpha, 17 if adjust else 18)
        rows = _group_rows(20)
        results = [_run_group(cfg, critical, group, min(rows, cfg.n_reps - first))
                   for group, first in enumerate(range(0, cfg.n_reps, rows))]
        default = run_campaign(cfg)
        assert _fold(cfg, results) == default
        assert _fold(cfg, reversed(results)) == default
        for seed in range(3):
            shuffled = list(results)
            np.random.default_rng(seed).shuffle(shuffled)
            assert _fold(cfg, shuffled) == default

    @pytest.mark.parametrize("adjust, seed", [(True, 0), (False, 2)])
    def test_sums_are_correctly_rounded(self, adjust, seed):
        # reference: every group fitted, the reps pooled, each sum rounded once by
        # math.fsum
        cfg = make_config(n_subjects=20, adjust=adjust, seed=seed, n_reps=4096 + 37)
        rows = _group_rows(20)
        fits = [simulate._fit_batch(*_group_trials(cfg, group, min(rows, cfg.n_reps - first)),
                                    10, adjust)
                for group, first in enumerate(range(0, cfg.n_reps, rows))]
        tau_hat, se, ok = (np.concatenate(parts) for parts in zip(*fits))
        assert len(tau_hat) == cfg.n_reps
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
        # the campaign's 4096 x 2016 normals alone would be 63 MB
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

    @pytest.mark.parametrize("n_subjects", [8, 126])
    @pytest.mark.parametrize("adjust", [True, False])
    def test_doubling_tau_and_sigma_doubles_every_estimate(self, n_subjects, adjust):
        # twice tau and sigma make every float of every trial exactly twice as large,
        # so the rejections are the same and both tau_hat moments double exactly
        kwargs = dict(n_subjects=n_subjects, adjust=adjust, n_reps=3000, seed=5)
        base = run_campaign(make_config(**kwargs))
        doubled = run_campaign(make_config(tau=1.0, sigma=2.0, **kwargs))
        assert doubled.rejection_rate == base.rejection_rate
        assert doubled.mean_tau_hat == 2.0 * base.mean_tau_hat
        assert doubled.empirical_se_tau_hat == 2.0 * base.empirical_se_tau_hat

    @pytest.mark.parametrize("n_subjects, tau, rho, adjust", [
        (20, 2 * 0.5 * math.sqrt(126 / 20), 0.5, True),
        (20, 2 * 0.5 * math.sqrt(126 / 20), 0.5, False),
        (8, 3.0, 0.3, True),
    ])
    def test_small_n_matches_finite_sample_law(self, oracle, n_subjects, tau, rho, adjust):
        # at small N the asymptotic power is far off; the reference is the exact
        # finite-sample law, at sigma = 2 so that a sigma-scaling fault shows
        cfg = make_config(n_subjects=n_subjects, tau=tau, sigma=2.0, rho=rho,
                          adjust=adjust, n_reps=100_000, seed=5)
        res = run_campaign(cfg)
        assert res.n_reps_completed == cfg.n_reps
        power = oracle.finite_sample_power(cfg.alpha, tau, cfg.sigma, rho, n_subjects, adjust)
        assert abs(res.rejection_rate - power) <= 4.0 * res.mc_stderr
        se = oracle.finite_sample_se(cfg.sigma, rho, n_subjects, adjust)
        kurtosis = oracle.tau_hat_kurtosis(n_subjects, adjust)
        # the standard error of a sample SD: sd * sqrt((kurtosis - 1) / (4 reps))
        se_of_sd = se * math.sqrt((kurtosis - 1.0) / (4.0 * cfg.n_reps))
        assert abs(res.empirical_se_tau_hat - se) <= 4.0 * se_of_sd

    @pytest.mark.parametrize("adjust, tau, expected", [
        (True, 0.5, ("0x1.b7a32846ff514p-3", "0x1.eb478c0b8ad61p-8", "0x1.00d9845f59b2bp-1",
                     "0x1.9488ab83b9088p-2", "0x1.8c97ef43f7248p-2", "0x1.0263760b260adp-2")),
        (True, -0.4, ("0x1.31d5acb6f4651p-3", "0x1.aa7587de74393p-8", "-0x1.97e690dae6344p-2",
                      "0x1.9488ab83b9088p-2", "0x1.8c97ef43f7248p-2", "0x1.6d2989cc8aca6p-3")),
        (False, 0.5, ("0x1.6f46508dfea28p-3", "0x1.cb058db06c144p-8", "0x1.fcf9fae8989c6p-2",
                      "0x1.cb95400195cf5p-2", "0x1.c9f25c5bfedd9p-2", "0x1.9b8e9583dfd39p-3")),
        (False, -0.4, ("0x1.13cc1e098ead6p-3", "0x1.9873b93e8e671p-8", "-0x1.9c9f9eb100fd4p-2",
                       "0x1.cb95400195cf5p-2", "0x1.c9f25c5bfedd9p-2", "0x1.29ed7e1a235c4p-3")),
    ])
    def test_results_are_pinned_bit_for_bit(self, adjust, tau, expected):
        # a change that moves any simulated bit must update these and say which moved;
        # so must a numpy release whose ziggurat sampler draws other normals, which
        # numpy's stream-compatibility policy allows across releases
        res = run_campaign(make_config(n_subjects=20, tau=tau, adjust=adjust,
                                       n_reps=3000, seed=11))
        floats = (res.rejection_rate, res.mc_stderr, res.mean_tau_hat,
                  res.empirical_se_tau_hat, res.analytic_se, res.analytic_power)
        assert tuple(v.hex() for v in floats) == expected
        assert res.n_reps_completed == 3000

    def test_mean_tau_hat_unbiased(self):
        res = run_campaign(make_config(n_reps=30_000, seed=11))
        assert res.mean_tau_hat == pytest.approx(0.5, abs=3.0 * res.analytic_se / math.sqrt(30_000))
