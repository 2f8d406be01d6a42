"""Standard normal density, CDF, quantile, and erfc.

Self-contained kernels with tight accuracy contracts:

* ``erfc``: relative error <= 1e-12 for |x| <= 6 (W. J. Cody's rational
  Chebyshev approximations, TOMS / netlib CALERF coefficient sets).
* ``std_normal_cdf``: absolute error <= 1e-12 on [-8, 8], defined from
  erfc so the tails keep full relative accuracy.
* ``std_normal_quantile``: Wichura's AS 241 (PPND16, Applied Statistics
  37:477-484, 1988), one rational function of degree 7 per region, with
  relative error <= 1e-14 for every p in (0, 1), subnormal p included.
  It is exactly antisymmetric: Q(1 - p) == -Q(p) whenever 1 - p is exact.
  The central rational runs over every value, and the tails, found and
  written by integer index, overwrite theirs.

All functions accept a float or a numpy array and return the same kind.
They are pure and stateless, and each checks its argument once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["std_normal_pdf", "std_normal_cdf", "std_normal_quantile", "erfc"]

_INV_SQRT_2PI = 0.3989422804014326779399461  # 1/sqrt(2*pi)
_SQRT2 = math.sqrt(2.0)

# Cody's rational approximation for erf on |x| <= 0.46875.
_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)

# Cody's approximation for erfc on 0.46875 < x <= 4.
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e0,
           6.61191906371416295e1, 2.98635138197400131e2,
           8.81952221241769090e2, 1.71204761263407058e3,
           2.05107837782607147e3, 1.23033935479799725e3,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e1, 1.17693950891312499e2,
           5.37181101862009858e2, 1.62138957456669019e3,
           3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3, 1.23033935480374942e3)

# Cody's approximation for x > 4, in terms of 1/x^2.
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e0, 1.87295284992346047e0,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1

# AS 241 (PPND16): numerator and denominator coefficients, highest degree first,
# stacked as rows (num_k, den_k) of shape (2, 1) so one Horner loop runs both.
# Central region |p - 1/2| <= 0.425, in r = 0.180625 - (p - 1/2)^2.
_PPND_CENTRAL = np.transpose((
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0)))[:, :, None]
# Tails, in s = sqrt(-log(min(p, 1 - p))): s - 1.6 for s <= 5, else s - 5.
_PPND_NEAR = np.transpose((
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0)))[:, :, None]
_PPND_FAR = np.transpose((
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0)))[:, :, None]


def _as_array(x, name: str, allow_inf: bool = False):
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr) if allow_inf else ~np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr


def _scalar_or_array(result: np.ndarray, like) -> "float | np.ndarray":
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(result)
    return result


def std_normal_pdf(x):
    """Density of the standard normal, exp(-x^2/2)/sqrt(2*pi)."""
    arr = _as_array(x, "x")
    with np.errstate(over="ignore"):  # x*x is inf for |x| >= ~1.34e154, and exp(-inf) = 0
        return _scalar_or_array(_INV_SQRT_2PI * np.exp(-0.5 * arr * arr), x)


def _erfc_core(y: np.ndarray) -> np.ndarray:
    """erfc on y >= 0, piecewise Cody rational approximations."""
    out = np.empty_like(y)

    small = y <= 0.46875
    if np.any(small):
        ys = y[small]
        z = ys * ys
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        out[small] = 1.0 - ys * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (~small) & (y <= 4.0)
    if np.any(mid):
        ym = y[mid]
        num = _ERFC_C[8] * ym
        den = ym
        for i in range(7):
            num = (num + _ERFC_C[i]) * ym
            den = (den + _ERFC_D[i]) * ym
        r = (num + _ERFC_C[7]) / (den + _ERFC_D[7])
        # split exp(-y^2) to keep the argument exactly representable
        yq = np.floor(ym * 16.0) / 16.0
        out[mid] = np.exp(-yq * yq) * np.exp(-(ym - yq) * (ym + yq)) * r

    large = y > 4.0
    if np.any(large):
        # erfc underflows to 0 from y ~ 27.3; the clip keeps y*y and y*16 finite
        yl = np.minimum(y[large], 40.0)
        z = 1.0 / (yl * yl)
        num = _ERFC_P[5] * z
        den = z
        for i in range(4):
            num = (num + _ERFC_P[i]) * z
            den = (den + _ERFC_Q[i]) * z
        r = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
        r = (_INV_SQRT_PI - r) / yl
        yq = np.floor(yl * 16.0) / 16.0
        with np.errstate(under="ignore"):
            out[large] = np.exp(-yq * yq) * np.exp(-(yl - yq) * (yl + yq)) * r

    return out


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of a 1-d array of finite values: the core at |x|, reflected for x < 0."""
    res = _erfc_core(np.abs(x))
    return np.where(x < 0, 2.0 - res, res)


def erfc(x):
    """Complementary error function, 2/sqrt(pi) * int_x^inf exp(-t^2) dt."""
    arr = _as_array(x, "x")
    return _scalar_or_array(_erfc(np.atleast_1d(arr)).reshape(arr.shape), x)


def std_normal_cdf(x):
    """Standard normal CDF; +-inf map to 1/0, |x| > 38 saturates exactly."""
    arr = _as_array(x, "x", allow_inf=True)
    a = np.atleast_1d(arr)
    res = 0.5 * _erfc(-np.clip(a, -38.0, 38.0) / _SQRT2)
    res[a <= -38.0] = 0.0
    res[a >= 38.0] = 1.0
    return _scalar_or_array(res.reshape(arr.shape), x)


def _rational(pairs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """num(x) / den(x), numerator and denominator by one Horner loop over ``pairs``."""
    acc = pairs[0] * np.ones_like(x)
    for pair in pairs[1:]:
        acc *= x
        acc += pair
    return acc[0] / acc[1]


def std_normal_quantile(p):
    """Inverse of the standard normal CDF for p in (0, 1), by AS 241."""
    arr = np.asarray(p, dtype=float)
    flat = arr.ravel()
    if not np.all((0.0 < flat) & (flat < 1.0)):
        raise DomainError(f"p must lie strictly in (0, 1), got {p!r}")

    q = flat - 0.5
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size < q.size:
        # central region over every value; the tails overwrite theirs below. At a
        # tail r lies in (-0.069375, 0), where the denominator stays in (0.00217, 1]
        x = q * _rational(_PPND_CENTRAL, 0.180625 - q * q)
    else:
        x = np.empty_like(q)
    if tail.size:
        pt = flat.take(tail)
        s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        # near region over every tail, far ones too: s - 1.6 > 0 and every
        # coefficient is positive, so the denominator is at least 1
        xt = _rational(_PPND_NEAR, s - 1.6)
        far = s > 5.0
        if far.any():
            xt[far] = _rational(_PPND_FAR, s[far] - 5.0)
        x.put(tail, np.copysign(xt, q.take(tail)))
    return _scalar_or_array(x.reshape(arr.shape), p)
