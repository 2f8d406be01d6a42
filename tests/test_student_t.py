import math

import pytest

from ancova_power import DomainError, student_t_critical
from ancova_power.student_t import _betainc_reg


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

    @pytest.mark.parametrize("alpha", [0.05, 1e-2, 1e-6, 1e-20, 1e-50, 1e-100, 1e-150,
                                       1e-154, 1e-155, 1e-200, 1e-300, 1e-310])
    def test_closed_forms_down_to_tiny_alpha(self, alpha):
        # df=1: 1/tan(pi*alpha/2); df=2 as above, with alpha's root apart so that
        # 2/alpha cannot overflow. Both are returned up to the float range, past where
        # t^2 overflows (2**511); only a value that is itself past DBL_MAX (df = 1
        # below alpha ~ 3.5e-309) raises
        for df, expected in ((1, 1.0 / math.tan(0.5 * math.pi * alpha)),
                             (2, (1 - alpha) * math.sqrt(2.0 / (2.0 - alpha)) / math.sqrt(alpha))):
            if math.isfinite(expected):
                assert student_t_critical(alpha, df) == pytest.approx(expected, rel=1e-10)
            else:
                with pytest.raises(ArithmeticError, match=f"alpha = {alpha} and df = {df}"):
                    student_t_critical(alpha, df)

    @pytest.mark.parametrize("df", [1, 2])
    def test_closed_forms_match_scipy(self, df):
        scipy_stats = pytest.importorskip("scipy.stats")
        for alpha in (0.2, 0.1, 0.05, *(10.0**-k for k in range(2, 301))):
            ref = float(scipy_stats.t.isf(alpha / 2.0, df))
            assert student_t_critical(alpha, df) == pytest.approx(ref, rel=1e-13), alpha

    def test_df1_above_one_half_uses_the_exact_complement(self):
        # 1 - alpha is exact here, so tan(pi*(1 - alpha)/2) keeps the small value's digits
        for alpha in (0.5, 0.9, 1.0 - 2.0**-20):
            assert student_t_critical(alpha, 1) == pytest.approx(
                math.tan(0.5 * math.pi * (1.0 - alpha)), rel=1e-15)

    def test_bisection_is_pinned_from_df_3(self):
        # the closed forms leave every df >= 3 to the bisection, bit for bit
        got = [student_t_critical(a, df).hex() for a, df in ((0.05, 3), (0.05, 123),
                                                             (1e-20, 1005))]
        assert got == ["0x1.975a668940000p+1", "0x1.fabc7e60c0000p+0", "0x1.316da6d3c0000p+3"]

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
        # a continued fraction at a non-finite df never converges
        for df in (math.nan, math.inf):
            with pytest.raises(DomainError, match="df must be finite"):
                student_t_critical(0.05, df)


_A = (0.5, 1, 1.5, 2.5, 10, 10.5, 63, 63.5, 500, 502.5)
_B = (0.5, 1, 3.5, 10, 62.5, 503)
_X = (1e-300, 1e-100, 1e-30, 1e-10, 1e-5, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
      0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.997, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9)


class TestBetaincReg:
    @pytest.mark.parametrize("a", _A)
    def test_matches_scipy(self, a):
        # both neighbours of the switch to the 1 - x side are on the grid. Below
        # ~1e-290 scipy's own value loses digits (it returns 0 for 1.7e-316 and is off
        # by 7e-5 at 8.5e-305, against mpmath), hence the absolute floor there
        betainc = pytest.importorskip("scipy.special").betainc
        for b in _B:
            switch = (a + 1.0) / (a + b + 2.0)
            for x in (*_X, math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)):
                assert _betainc_reg(a, b, x) == pytest.approx(
                    float(betainc(a, b, x)), rel=1e-11, abs=1e-290), (a, b, x)

    @pytest.mark.parametrize("a, b, x", [(63, 10, 1e-5), (63, 3.5, 1e-5), (10.5, 0.5, 1e-30)])
    def test_keeps_its_digits_where_scipy_underflows(self, a, b, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert _betainc_reg(a, b, x) == pytest.approx(ref, rel=1e-11)

    def test_ends_of_the_interval(self):
        assert _betainc_reg(2.5, 0.5, 0.0) == 0.0
        assert _betainc_reg(2.5, 0.5, 1.0) == 1.0
