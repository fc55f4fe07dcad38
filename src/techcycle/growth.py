"""Logistic S-curve algebra and the power-law substitution model.

Two technologies growing along logistic curves obey an exact relation
between their odds transforms; in the early phase (levels far below
capacity) that relation collapses to a power law whose exponent is the
ratio of the two growth rates.  This module implements the curves, the
exact relation, the early-phase power law, and the log-log fit used to
estimate it from data.
"""

from __future__ import annotations

import enum
import math
from operator import mul

from ._record import frozen
from .errors import InsufficientDataError, TechCycleError
from .market_data import RevenueSeries, positive_overlap_window
from .regress import OlsFit, ols_simple


@frozen
class LogisticParams:
    """Parameters of ``level(t) = k / (1 + exp(a - b * t))``.

    ``k`` is the equilibrium level, ``b`` the growth rate per year, and the
    inflection sits at ``t = a / b`` where the level equals ``k / 2``.
    """

    k: float
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise TechCycleError(f"equilibrium level must be positive, got {self.k}")
        if not math.isfinite(self.a):
            raise TechCycleError(f"location constant must be finite, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise TechCycleError(f"growth rate must be positive, got {self.b}")

    @property
    def inflection(self) -> float:
        return self.a / self.b


@frozen
class LogisticFit:
    """Least-squares logistic parameters of a revenue series.

    ``k`` lies in ``(max, 5 * max]`` of the series' positive values and
    minimises ``sse``, the level-space squared error, after the
    linearized fit of ``a`` and ``b`` at that ``k`` (see ``fit_logistic``).

    ``degenerate`` is set when the linearized regression finds no usable
    growth (e.g. a series already saturated at a constant level); ``k`` is
    still meaningful in that case, but ``a`` and ``b`` describe no valid
    ``LogisticParams``.
    """

    k: float
    a: float
    b: float
    sse: float
    n_points: int
    degenerate: bool


@frozen
class OddsRelation:
    """Exact coupling of two logistic curves through their odds transforms.

    For curves 1 and 2 sharing the time axis,
    ``odds1(t) = c1 * odds2(t) ** exponent`` holds identically, with
    ``c1 = exp(b1 * (t2 - t1))`` (``t1``, ``t2`` the inflection times) and
    ``exponent = b1 / b2``.  The constant is held only as ``log_c1``; widely
    separated inflections would overflow ``c1`` itself.
    """

    log_c1: float
    exponent: float


class Regime(enum.Enum):
    """Qualitative reading of the substitution exponent."""

    LOW_GROWTH = "LowGrowth"
    PROPORTIONAL = "Proportional"
    ACCELERATION = "Acceleration"
    NEGATIVE_COUPLING = "NegativeCoupling"


@frozen
class SubstitutionFit:
    """Estimated power law ``new = exp(log_a) * old ** b_exponent``."""

    log_a: float
    b_exponent: float
    fit: OlsFit
    window: tuple[int, int]
    regime: Regime
    label: str  # "<new> vs <old>", each named as its series is


def logistic_value(p: LogisticParams, t: float) -> float:
    """Evaluate the S-curve at time ``t`` without overflow at extreme inputs."""
    z = p.a - p.b * t
    if z >= 0.0:
        e = math.exp(-z)
        return p.k * e / (1.0 + e)
    return p.k / (1.0 + math.exp(z))


def log_odds(p: LogisticParams, t: float) -> float:
    """``log(level / (k - level))`` evaluated in closed form.

    The odds of a logistic curve are exactly ``exp(b * t - a)``, so the log
    odds are linear in time; using the closed form avoids the catastrophic
    cancellation of ``k - level`` near saturation.
    """
    return p.b * t - p.a


# fit_logistic's search of u = log((k - max) / max): from k = max * (1 + 1e-6) to k = 5 * max
_U_LO, _U_HI = math.log(1e-6), math.log(4.0)
_SCAN_POINTS = 8
_K_TOL = 1e-11  # the search's resolution of k, relative to k
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, as a share of the larger side


def _u_step(u: float) -> float:
    """The step in ``u = log(k - 1)`` (unit-max scale) that moves k by ``_K_TOL * k``."""
    return _K_TOL * (1.0 + math.exp(-u))


def _brent_min(f, lo: float, hi: float, x: float, fx: float) -> None:
    """Minimise ``f`` on ``[lo, hi]`` from the point ``x``, where ``f(x) = fx``.

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): each step goes to the vertex of the parabola
    through the three best points so far, or, where that vertex falls
    outside the bracket or the steps stop shrinking, a golden-section step
    into the larger side.  As in Brent, the tolerance is set from the best
    point ``x`` on each step: ``tol = _u_step(x)``, the u-step that moves k
    by ``_K_TOL * k``.  No two evaluations are closer than ``tol``; the
    search stops once the bracket lies within ``2 * tol`` of the best
    point.  Nothing is returned: ``f`` records what it evaluates.

    When ``x`` is ``lo`` or ``hi``, ``f`` is first evaluated one ``tol``
    inward; if that value is not below ``fx``, ``x`` is taken as the
    minimum and no Brent step is made.  Otherwise Brent runs from ``x`` as
    above, with the probe left out of its state.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    tol = _u_step(x)
    if (x == lo or x == hi) and f(x + tol if x == lo else x - tol) >= fx:
        return
    while max(x - lo, hi - x) > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
                e, d, golden = d, p / q, False
                if x + d - lo < 2.0 * tol or hi - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if golden:
            e = (lo if x >= mid else hi) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            tol = _u_step(x)
        else:
            lo, hi = (lo, u) if u >= x else (u, hi)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit_logistic(series: RevenueSeries) -> LogisticFit:
    """Estimate (k, a, b) by a bounded search of the profile squared error.

    For a fixed equilibrium k above every value, the Fisher-Pry transform
    ``log((k - v) / v)`` is linear in the year, so least squares gives a
    and b in closed form and leaves the level-space squared error SSE(k) a
    function of k alone.  That profile is minimised over ``k`` in
    ``(max, 5 * max]``, searched as ``u = log((k - max) / max)``: a scan of
    8 evenly spaced u values from ``k = max * (1 + 1e-6)`` to
    ``k = 5 * max``, then Brent's method on the bracket around the best
    scan point down to a resolution of k of 1e-11 relative to k.  When the
    best scan point is the first or the last, one evaluation a resolution
    step inward decides: if it is no lower, that end is the answer and
    Brent makes no step.  The lowest-SSE candidate evaluated wins.
    Deterministic throughout.
    """
    points = [(year, value) for year, value in series.points.items() if value > 0.0]
    n = len(points)
    if n < 4:
        raise InsufficientDataError(
            f"{series.technology}: logistic fit needs >= 4 positive points, got {n}"
        )
    # The search runs on values scaled to a maximum of 1: the transform, and
    # so a and b, are scale-free, and k and the SSE are scaled back at the end.
    vmax = max(value for _, value in points)
    scaled = [value / vmax for _, value in points]
    # every value is below any k > max, so the centred years serve every candidate
    t_mean = math.fsum(year for year, _ in points) / n
    centred = [year - t_mean for year, _ in points]
    sxx = math.fsum(x * x for x in centred)
    log, exp, fsum = math.log, math.exp, math.fsum
    evaluated: list[tuple[float, float, float, float]] = []

    def profile(u: float) -> float:
        k = min(1.0 + exp(u), 5.0)
        ys = [log((k - w) / w) for w in scaled]
        y_mean = fsum(ys) / n
        slope = fsum(map(mul, centred, ys)) / sxx
        # level(t) = k / (1 + exp(z)) with z = a - b * t = y_mean + slope * (t - t_mean);
        # past z = 700 the level is below k * 1e-304 and is taken as 0, which avoids overflow
        residuals = [
            w - k / (1.0 + exp(z)) if (z := y_mean + slope * x) < 700.0 else w
            for x, w in zip(centred, scaled)
        ]
        sse = fsum(map(mul, residuals, residuals))
        evaluated.append((sse, k, y_mean - slope * t_mean, -slope))
        return sse

    scan = [_U_LO + (_U_HI - _U_LO) * i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS)]
    sses = [profile(u) for u in scan]
    i = sses.index(min(sses))
    _brent_min(profile, scan[max(i - 1, 0)], scan[min(i + 1, _SCAN_POINTS - 1)], scan[i], sses[i])
    sse, k, a, b = min(evaluated, key=lambda candidate: candidate[0])
    return LogisticFit(
        k=k * vmax,
        a=a,
        b=b,
        sse=sse * vmax * vmax,
        n_points=n,
        degenerate=not (b > 1e-12),
    )


def odds_relation(p1: LogisticParams, p2: LogisticParams) -> OddsRelation:
    """Constants tying curve 1's odds to curve 2's, exact for all t."""
    log_c1 = p1.b * (p2.inflection - p1.inflection)
    return OddsRelation(log_c1=log_c1, exponent=p1.b / p2.b)


def implied_exponent(p_old: LogisticParams, p_new: LogisticParams) -> float:
    """Growth-rate ratio new/old: the theoretical early-phase exponent."""
    return odds_relation(p_new, p_old).exponent


def allometric_coefficients(p_old: LogisticParams, p_new: LogisticParams) -> tuple[float, float]:
    """Early-phase power law ``new ~= A * old ** B`` as ``(log A, B)``.

    Far below both capacities the curves reduce to exponentials, giving
    ``B = b_new / b_old`` and ``log A = log(k_new) - B * log(k_old) + log c1``,
    with ``log c1 = B * a_old - a_new`` from ``odds_relation(p_new, p_old)``.
    """
    odds = odds_relation(p_new, p_old)
    return math.log(p_new.k) - odds.exponent * math.log(p_old.k) + odds.log_c1, odds.exponent


def fit_substitution(
    disruptive: RevenueSeries,
    established: RevenueSeries,
    window: tuple[int, int] | None = None,
) -> SubstitutionFit:
    """Log-log least squares of the disruptive series on the established one.

    ``window=None`` selects the maximal contiguous span where both series
    are strictly positive.  Natural logarithms throughout.
    """
    label = f"{disruptive.technology} vs {established.technology}"
    if window is None:
        window = positive_overlap_window(disruptive, established)
        if window is None:
            raise InsufficientDataError(f"{label}: no overlapping strictly-positive years")
    first, last = window
    xs: list[float] = []
    ys: list[float] = []
    old_points, new_points = established.points, disruptive.points
    for year in range(first, last + 1):
        v = old_points.get(year, 0.0)  # an absent year fails the test as 0 does
        ki = new_points.get(year, 0.0)
        if not (v > 0.0 and ki > 0.0):
            name = (disruptive if v > 0.0 else established).technology
            raise TechCycleError(
                f"{name}: value for {year} is absent or non-positive inside window "
                f"{first}-{last}"
            )
        xs.append(math.log(v))
        ys.append(math.log(ki))
    if len(xs) < 3:
        raise InsufficientDataError(
            f"window {first}-{last} has {len(xs)} usable years; need >= 3"
        )
    fit = ols_simple(xs, ys)
    return SubstitutionFit(
        log_a=fit.intercept,
        b_exponent=fit.slope,
        fit=fit,
        window=(first, last),
        regime=classify_regime(fit.slope),
        label=label,
    )


_PROPORTIONAL_BAND = 0.05  # |B - 1| up to this band, inclusive, reads as proportional


def classify_regime(b: float) -> Regime:
    """Map a substitution exponent to its qualitative regime.

    Negative exponents get their own label: the established technology
    shrinks while the disruptor grows, which is economically distinct from
    slow positive coupling.
    """
    if b < 0.0:
        return Regime.NEGATIVE_COUPLING
    if b < 1.0 - _PROPORTIONAL_BAND:
        return Regime.LOW_GROWTH
    if b <= 1.0 + _PROPORTIONAL_BAND:
        return Regime.PROPORTIONAL
    return Regime.ACCELERATION
