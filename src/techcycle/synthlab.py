"""Seeded dual-logistic scenarios and exponent-recovery experiments.

Every draw comes from SplitMix64 evaluated as a pure function of
(seed, draw index), so a scenario is reproducible bit-for-bit across runs
and platforms with no generator state to share.
"""

from __future__ import annotations

import math

from ._record import frozen
from .errors import ValidationError, WindowError
from .growth import LogisticParams, fit_substitution, implied_exponent, logistic_value
from .market_data import RevenueSeries

__all__ = [
    "SyntheticScenario",
    "RecoveryReport",
    "generate_scenario",
    "recovery_experiment",
    "scenario_from_mapping",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MAX_YEARS = 10_000
_SCENARIO_KEYS = {"k1", "a1", "b1", "k2", "a2", "b2", "year_start", "year_end", "noise_rel", "seed"}


def _splitmix64(index: int, seed: int) -> int:
    """SplitMix64 output for the given draw index, counter-based."""
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uniform_pm1(index: int, seed: int) -> float:
    """Deterministic uniform draw in [-1, 1) with 53-bit resolution."""
    return 2.0 * ((_splitmix64(index, seed) >> 11) / float(1 << 53)) - 1.0


@frozen
class SyntheticScenario:
    """A pair of logistic technologies sampled annually with optional noise."""

    p_old: LogisticParams
    p_new: LogisticParams
    years: tuple[int, int]
    noise_rel: float = 0.0
    seed: int = 0

    def __post_init__(self):
        first, last = self.years
        if first > last:
            raise ValidationError(f"empty year range {self.years}")
        if last - first >= _MAX_YEARS:
            raise ValidationError(
                f"year range {self.years} covers {last - first + 1} years; at most {_MAX_YEARS}"
            )
        if not (0.0 <= self.noise_rel < 1.0):
            raise ValidationError(f"noise_rel must be in [0, 1), got {self.noise_rel}")
        object.__setattr__(self, "seed", self.seed & _MASK64)


@frozen
class RecoveryReport:
    """Fitted vs theoretical growth exponent on one synthetic scenario."""

    b_theoretical: float
    b_fitted: float
    abs_gap: float
    window_used: tuple[int, int]
    saturation_level: float


def generate_scenario(s: SyntheticScenario) -> tuple[RevenueSeries, RevenueSeries]:
    """Realize the scenario as (established, disruptive) revenue series.

    Year t of series i uses draw index ``2 * (t - first) + i``, so the two
    series consume disjoint, reproducible portions of the stream.  Values
    are ``level * (1 + noise_rel * eps)`` with eps uniform in [-1, 1),
    clamped at zero.
    """
    first, last = s.years
    series = []
    for offset, params in ((0, s.p_old), (1, s.p_new)):
        points = {}
        for t in range(first, last + 1):
            eps = _uniform_pm1(2 * (t - first) + offset, s.seed)
            value = logistic_value(params, float(t)) * (1.0 + s.noise_rel * eps)
            points[t] = max(value, 0.0)
        name = "established" if offset == 0 else "disruptive"
        series.append(RevenueSeries(technology=name, base_year=first, points=points))
    return series[0], series[1]


def recovery_experiment(
    s: SyntheticScenario,
    early_fraction: float = 0.1,
    window: tuple[int, int] | None = None,
) -> RecoveryReport:
    """Fit the substitution exponent and compare with the rate ratio.

    Without an explicit window, the fit is restricted to the early phase:
    years where both true curves sit below ``early_fraction`` of their
    equilibrium levels, which is where the power-law approximation holds.
    """
    old_series, new_series = generate_scenario(s)
    if window is None:
        window = _early_window(s, early_fraction)
        if window is None or window[1] - window[0] < 2:
            raise WindowError(
                f"early window (fraction {early_fraction}) has fewer than 3 years; "
                "lower the growth rates, start earlier, or raise the fraction"
            )
    try:
        fit = fit_substitution(new_series, old_series, window=window)
    except Exception as exc:
        raise WindowError(f"window {window} not fittable: {exc}") from exc
    b_theoretical = implied_exponent(s.p_old, s.p_new)
    saturation = max(
        max(logistic_value(p, float(t)) / p.k for p in (s.p_old, s.p_new))
        for t in range(window[0], window[1] + 1)
    )
    return RecoveryReport(
        b_theoretical=b_theoretical,
        b_fitted=fit.b_exponent,
        abs_gap=abs(fit.b_exponent - b_theoretical),
        window_used=window,
        saturation_level=saturation,
    )


def _early_window(s: SyntheticScenario, fraction: float) -> tuple[int, int] | None:
    """Prefix of the year range where both true levels stay below fraction*k."""
    if not (0.0 < fraction < 1.0):
        raise ValidationError(f"early fraction must be in (0, 1), got {fraction}")
    first, last = s.years
    end = None
    for t in range(first, last + 1):
        below = all(
            logistic_value(p, float(t)) < fraction * p.k for p in (s.p_old, s.p_new)
        )
        if not below:
            break
        end = t
    if end is None:
        return None
    return (first, end)


def scenario_from_mapping(values: dict[str, str]) -> SyntheticScenario:
    """Build a scenario from flat key-value config entries.

    Expected keys: k1, a1, b1 (established curve), k2, a2, b2 (disruptive
    curve), year_start, year_end, and optional noise_rel (default 0) and
    seed (default 0).  Any other key is an error.
    """
    unknown = sorted(set(values) - _SCENARIO_KEYS)
    if unknown:
        raise ValidationError(f"scenario config has unknown key {unknown[0]!r}")

    def need(key: str) -> str:
        if key not in values:
            raise ValidationError(f"scenario config missing key {key!r}")
        return values[key]

    try:
        p_old = LogisticParams(k=float(need("k1")), a=float(need("a1")), b=float(need("b1")))
        p_new = LogisticParams(k=float(need("k2")), a=float(need("a2")), b=float(need("b2")))
        years = (int(need("year_start")), int(need("year_end")))
        noise_rel = float(values.get("noise_rel", "0"))
        seed = int(values.get("seed", "0"))
    except ValueError as exc:
        raise ValidationError(f"scenario config has a malformed number: {exc}") from None
    return SyntheticScenario(
        p_old=p_old, p_new=p_new, years=years, noise_rel=noise_rel, seed=seed
    )
