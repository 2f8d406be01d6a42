"""Student t kernels: the regularized incomplete beta and two-sided t critical values.

Math only: this module imports ``math`` and ``.errors`` and nothing else, so
any layer may build on it. ``_betainc_reg`` is I_x(a, b) by its continued
fraction (modified Lentz), taken at x or, past the switch (a+1)/(a+b+2), at
1 - x by symmetry. It is the kernel the t tail P(|T_df| >= t) =
I_{df/(df+t^2)}(df/2, 1/2) and a noncentral t CDF (Lenth 1989, AS 243)
rest on.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["student_t_critical"]


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (tiny if abs(d) < tiny else d)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even and the odd half-step
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + aa / c
            c = tiny if abs(c) < tiny else c
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
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


def student_t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value t such that P(|T_df| > t) = alpha.

    Bisection on P(|T_df| >= t) = I_{df/(df+t^2)}(df/2, 1/2); converges to the
    normal critical value as df grows. Relative error below 1e-10. A critical
    value whose square would overflow (df = 1 at alpha below about 1e-154)
    raises ArithmeticError.
    """
    if not 1 <= df < math.inf:
        raise DomainError(f"df must be finite and >= 1, got {df}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")

    lo, hi = 0.0, 2.0
    while _betainc_reg(0.5 * df, 0.5, df / (df + hi * hi)) > alpha:
        hi *= 2.0
        if hi * hi == math.inf:
            raise ArithmeticError(
                f"the t critical value at alpha = {alpha} and df = {df} exceeds "
                f"{0.5 * hi:.6g}, where its square overflows")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _betainc_reg(0.5 * df, 0.5, df / (df + mid * mid)) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)
