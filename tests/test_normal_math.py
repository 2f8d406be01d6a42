import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ancova_power import DomainError, normal_math
from ancova_power.normal_math import (
    erfc,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

# High-precision reference values frozen from a 30-digit mpmath oracle.
PDF_AT_084162 = 0.279962211064536079525600549234
CDF_AT_1959963985 = 0.975000000026881562299178874994

# a block of (reps, 2n) uniforms as the simulator draws them, n = 20, with a
# near-tail and a far-tail value in each half
_UNIFORMS = np.random.default_rng(3).random((7, 40))
_UNIFORMS[2, [3, 25]] = 1e-15, 1.0 - 2.0**-53
_UNIFORMS[5, [19, 20]] = 0.01, 0.99


class TestPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-16)

    def test_symmetry(self):
        assert std_normal_pdf(1.0) == std_normal_pdf(-1.0)

    def test_frozen_oracle_value(self):
        assert std_normal_pdf(0.84162) == pytest.approx(PDF_AT_084162, abs=1e-5)

    def test_strictly_positive(self):
        for x in np.linspace(-8, 8, 33):
            assert std_normal_pdf(float(x)) > 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_pdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_pdf(float("inf"))


class TestCdf:
    def test_median(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_frozen_oracle_value(self):
        assert std_normal_cdf(1.959963985) == pytest.approx(CDF_AT_1959963985, abs=1e-9)

    def test_limits(self):
        assert std_normal_cdf(float("-inf")) == 0.0
        assert std_normal_cdf(float("inf")) == 1.0

    def test_saturates_outside_pm38(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0

    def test_monotone(self):
        xs = np.linspace(-8, 8, 1001)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_reflection(self):
        xs = np.random.default_rng(1).uniform(-8, 8, 1000)
        assert np.max(np.abs(std_normal_cdf(xs) + std_normal_cdf(-xs) - 1.0)) <= 1e-14

    def test_matches_mpmath_on_grid(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for x in np.linspace(-8, 8, 201):
            assert std_normal_cdf(float(x)) == pytest.approx(
                float(mpmath.ncdf(float(x))), abs=1e-12)

    def test_derivative_matches_pdf(self):
        h = 1e-5
        for x in np.linspace(-4, 4, 100):
            fd = (std_normal_cdf(float(x) + h) - std_normal_cdf(float(x) - h)) / (2.0 * h)
            assert fd == pytest.approx(std_normal_pdf(float(x)), abs=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p, expected", [
        (0.025, -1.95996398454005424),
        (0.80, 0.84162123357291421),
    ])
    def test_frozen_oracle_values(self, p, expected):
        assert std_normal_quantile(p) == pytest.approx(expected, abs=1e-5)

    def test_round_trip(self):
        ps = np.concatenate([
            np.logspace(-10, math.log10(0.49), 400),
            1.0 - np.logspace(-10, math.log10(0.49), 400),
        ])
        for p in ps:
            assert abs(std_normal_cdf(std_normal_quantile(float(p))) - p) <= 1e-12

    def test_strictly_increasing(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 500)
        assert np.all(np.diff(std_normal_quantile(ps)) > 0.0)

    @pytest.mark.parametrize("p", [5e-324, 1e-310, 2.2250738585072014e-308])
    def test_subnormal_p_matches_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        expected = mpmath.findroot(
            lambda x: mpmath.log(mpmath.ncdf(x)) - mpmath.log(mpmath.mpf(p)), -38)
        assert std_normal_quantile(p) == pytest.approx(float(expected), rel=1e-14)

    def test_relative_error_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        # p = 0.5, whose quantile is exactly 0, is test_median's
        ps = [5e-324, *np.logspace(math.log10(5e-324), math.log10(0.5), 400, endpoint=False),
              *(1.0 - 10.0 ** -k for k in range(2, 16)), 1.0 - 2.0 ** -53]
        for p in ps:
            tail = mpmath.mpf(min(p, 1.0 - p))  # 1 - p is exact for p >= 0.5
            root = mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(x) / tail),
                                   -mpmath.sqrt(-2 * mpmath.log(tail)))
            expected = float(root if p < 0.5 else -root)
            assert abs(std_normal_quantile(p) - expected) <= 1e-14 * abs(expected), p

    def test_exactly_antisymmetric(self):
        # q = 1 - p is exact for every float p in (0.5, 1), so Q(1 - q) = -Q(q)
        p = np.concatenate([
            np.random.default_rng(7).uniform(0.5, 1.0, 20000),
            1.0 - 2.0 ** -53 * np.arange(1, 2001),
            np.nextafter(0.5, 1.0) + 2.0 ** -53 * np.arange(2000),
            [0.925, np.nextafter(0.925, 0.0), np.nextafter(0.925, 1.0), 1.0 - 1e-7],
        ])
        q = 1.0 - p
        assert np.array_equal(1.0 - q, p)
        assert np.array_equal(std_normal_quantile(1.0 - q), -std_normal_quantile(q))

    @pytest.mark.parametrize("p", [
        # 1-d, all three regions: central, near tail, far tail (s > 5 below ~1.4e-11)
        np.array([0.3, 0.074, 0.5, 0.926, 1e-12, 0.8, 1e-300, 5e-324, 1.0 - 2.0**-53]),
        np.array([[0.3, 0.074, 0.5], [0.926, 1e-12, 0.8]]),
        # the column views the simulator decodes, with tails among the central values
        _UNIFORMS[:, :20], _UNIFORMS[:, 20:],
        np.linspace(0.075, 0.925, 101),  # all central
        np.array([0.001, 0.999, 0.07, 0.95, 1e-20, 1.0 - 1e-15]),  # all tail
        np.array([[1e-12, 1e-100], [5e-324, 1.0 - 2.0**-53]]),  # all far tail
    ], ids=["1d", "2d", "left-columns", "right-columns", "central", "tail", "far-tail"])
    def test_arrays_match_scalar_calls_bit_for_bit(self, p):
        expected = np.array([std_normal_quantile(float(v)) for v in p.ravel()])
        got = std_normal_quantile(p)
        assert got.shape == p.shape
        assert got.tobytes() == expected.reshape(p.shape).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_array_gives_empty_array(self, shape):
        got = std_normal_quantile(np.empty(shape))
        assert isinstance(got, np.ndarray) and got.shape == shape

    def test_all_tail_input_skips_the_central_rational(self, monkeypatch):
        evaluated, rational = [], normal_math._rational

        def recording(pairs, x):
            evaluated.append(pairs is normal_math._PPND_CENTRAL)
            return rational(pairs, x)

        monkeypatch.setattr(normal_math, "_rational", recording)
        std_normal_quantile(0.001)
        std_normal_quantile(np.array([0.001, 0.999, 1e-300]))
        assert evaluated and not any(evaluated)
        std_normal_quantile(np.array([0.001, 0.5]))
        assert evaluated[-2:] == [True, False]

    def test_no_floating_point_exceptions(self):
        # the central rational runs over tail values too, and the near one over
        # far-tail values: neither may divide by zero, overflow or make a nan
        p = np.concatenate([
            np.logspace(math.log10(5e-324), math.log10(0.5), 2000),
            1.0 - np.logspace(-16, math.log10(0.5), 2000),
            np.linspace(0.05, 0.95, 2001),
            [5e-324, 1.0 - 2.0**-53],
        ])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            x = std_normal_quantile(p)
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)

    @given(st.floats(min_value=1e-10, max_value=1 - 1e-10))
    def test_round_trip_property(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_two_phi_of_080_quantile(self):
        # erfc(-(a+b)/sqrt(2)) with a+b = Phi^-1(0.80) equals 2*0.80
        assert erfc(-0.841621 / math.sqrt(2.0)) == pytest.approx(1.6, abs=1e-6)

    def test_reflection_identity(self):
        for x in np.linspace(-6, 6, 101):
            assert erfc(float(x)) + erfc(float(-x)) == pytest.approx(2.0, abs=1e-14)

    def test_relative_accuracy_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for x in np.linspace(-6, 6, 301):
            ref = float(mpmath.erfc(float(x)))
            assert abs(erfc(float(x)) - ref) <= 1e-12 * abs(ref)

    def test_consistency_with_cdf(self):
        for x in np.linspace(-8, 8, 101):
            lhs = erfc(-float(x) / math.sqrt(2.0))
            assert abs(lhs - 2.0 * std_normal_cdf(float(x))) <= 1e-12

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            erfc(float("nan"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1.4e154, 1e300, 1e308])
def test_huge_arguments_without_overflow(x):
    # x*x overflows from |x| ~ 1.34e154; neither a warning nor a nan may follow
    assert erfc(x) == 0.0
    assert erfc(-x) == 2.0
    assert std_normal_pdf(x) == 0.0
    assert std_normal_pdf(-x) == 0.0
    assert np.array_equal(erfc(np.array([-x, x])), [2.0, 0.0])


def test_array_inputs_preserve_shape():
    x = np.array([[0.0, 1.0], [-1.0, 2.0]])
    assert std_normal_cdf(x).shape == x.shape
    assert std_normal_pdf(x).shape == x.shape
    assert erfc(x).shape == x.shape
    p = np.array([0.1, 0.5, 0.9])
    assert std_normal_quantile(p).shape == p.shape


def test_scalar_inputs_return_floats():
    assert isinstance(std_normal_cdf(0.3), float)
    assert isinstance(std_normal_quantile(0.3), float)
    assert isinstance(erfc(0.3), float)
    assert isinstance(std_normal_pdf(0.3), float)
