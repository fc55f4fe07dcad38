"""Simple linear regression with the full set of classical diagnostics.

Self-contained on purpose: the estimates feed significance stars in
reports, so the p-values are computed exactly from the regularized
incomplete beta function rather than from lookup tables.
"""

from __future__ import annotations

import math

from ._record import frozen
from .errors import InsufficientDataError, TechCycleError


@frozen
class OlsFit:
    """Result of a one-regressor least-squares fit.

    ``f_stat`` equals ``t_slope ** 2`` and ``p_f`` equals ``p_slope`` up to
    rounding; both are computed independently so the identity stays testable.
    The p-values are computed from the statistics each time they are read,
    so a caller that reads none of them pays for none.
    """

    intercept: float
    slope: float
    se_intercept: float
    se_slope: float
    t_intercept: float
    t_slope: float
    r2: float
    r2_adj: float
    se_estimate: float
    f_stat: float
    n: int
    df: int

    @property
    def p_intercept(self) -> float:
        return t_p_value(self.t_intercept, self.df)

    @property
    def p_slope(self) -> float:
        return t_p_value(self.t_slope, self.df)

    @property
    def p_f(self) -> float:
        return _f_tail(self.f_stat, self.df)


def ols_simple(xs: list[float], ys: list[float]) -> OlsFit:
    """Fit ``y = intercept + slope * x`` by ordinary least squares.

    Requires equal-length inputs with at least three observations and a
    non-constant regressor.  Deterministic: no randomness, stable sums.
    """
    if len(xs) != len(ys):
        raise InsufficientDataError(
            f"xs and ys must have equal length, got {len(xs)} and {len(ys)}"
        )
    n = len(xs)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise TechCycleError("explanatory variable has zero variance")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    syy = math.fsum((y - y_mean) ** 2 for y in ys)

    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    df = n - 2
    sse = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    s2 = sse / df
    se_estimate = math.sqrt(s2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + x_mean * x_mean / sxx))

    if syy > 0.0:
        r2 = 1.0 - sse / syy
    else:
        r2 = 1.0  # constant response reproduced exactly by the fit
    r2 = max(r2, 0.0)
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / df

    t_slope = slope / se_slope if se_slope > 0.0 else math.copysign(math.inf, slope or 1.0)
    t_intercept = (
        intercept / se_intercept if se_intercept > 0.0 else math.copysign(math.inf, intercept or 1.0)
    )
    ssr = max(syy - sse, 0.0)
    f_stat = ssr / s2 if s2 > 0.0 else math.inf

    return OlsFit(
        intercept=intercept,
        slope=slope,
        se_intercept=se_intercept,
        se_slope=se_slope,
        t_intercept=t_intercept,
        t_slope=t_slope,
        r2=r2,
        r2_adj=r2_adj,
        se_estimate=se_estimate,
        f_stat=f_stat,
        n=n,
        df=df,
    )


def t_p_value(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees of freedom.

    Uses ``P(|T| > t) = I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``, where
    ``I`` is the regularized incomplete beta function.
    """
    if df < 1:
        raise TechCycleError(f"degrees of freedom must be >= 1, got {df}")
    return _f_tail(t * t, df)


def _f_tail(f: float, df: int) -> float:
    """Upper tail of an F(1, df) variate; ``t_p_value`` is this tail at ``f = t * t``."""
    if math.isinf(f):
        return 0.0
    if f <= 0.0:
        return 1.0
    return _betainc(0.5 * df, 0.5, df / (df + f))


def significance_stars(p: float) -> str:
    """Conventional marks: *** at 1%, ** at 5%, * at 10%."""
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only for x below the pivot;
    # above it, use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta integral."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # even term, then odd
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:  # after the odd term
            return h
    return h
