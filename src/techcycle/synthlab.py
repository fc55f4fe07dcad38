"""Seeded dual-logistic scenarios and exponent-recovery experiments.

Every draw comes from SplitMix64 evaluated as a pure function of
(seed, draw index), so a scenario is reproducible bit-for-bit across runs
and platforms with no generator state to share.  A scenario is realized
once; every recovery window on it reads that one realization.
"""

from __future__ import annotations

import functools

from ._record import frozen
from .config import format_window, parse_keys
from .errors import TechCycleError, WindowError
from .growth import LogisticParams, fit_substitution, implied_exponent, logistic_value
from .market_data import RevenueSeries

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MAX_YEARS = 10_000
_MAX_ABS_YEAR = 10**6
# Each scenario key and its type: k1, a1, b1 give the established curve, k2, a2,
# b2 the disruptive one; every key but noise_rel and seed (default 0) is required.
_SCENARIO_KEYS = {"k1": float, "a1": float, "b1": float, "k2": float, "a2": float, "b2": float,
                  "year_start": int, "year_end": int, "noise_rel": float, "seed": int}


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
            raise TechCycleError(f"empty year range {self.years}")
        if last - first >= _MAX_YEARS:
            raise TechCycleError(
                f"year range {self.years} covers {last - first + 1} years; at most {_MAX_YEARS}"
            )
        if first < -_MAX_ABS_YEAR or last > _MAX_ABS_YEAR:
            raise TechCycleError(
                f"year range {self.years} is not within [-{_MAX_ABS_YEAR}, {_MAX_ABS_YEAR}]"
            )
        if not (0.0 <= self.noise_rel < 1.0):
            raise TechCycleError(f"noise_rel must be in [0, 1), got {self.noise_rel}")
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
    clamped at zero; a noise-free scenario takes the levels as they are and
    draws nothing.  A scenario is realized once, with its true levels kept
    beside the series: every window reads the series, and every early
    window and saturation level reads the levels.
    """
    return _realized(s)[0]


# keyed by the record's equality, which covers every input of the draw loop
@functools.lru_cache(maxsize=1)
def _realized(
    s: SyntheticScenario,
) -> tuple[tuple[RevenueSeries, RevenueSeries], tuple[list[float], list[float]]]:
    """The scenario's (established, disruptive) series and the true levels of
    each curve, year by year from the first."""
    years = range(s.years[0], s.years[1] + 1)
    series, levels = [], []
    for offset, params in ((0, s.p_old), (1, s.p_new)):
        curve = [logistic_value(params, float(t)) for t in years]
        values = curve
        if s.noise_rel:  # level * (1 + 0 * eps) is level: a noise-free scenario draws nothing
            values = [
                max(level * (1.0 + s.noise_rel * _uniform_pm1(2 * i + offset, s.seed)), 0.0)
                for i, level in enumerate(curve)
            ]
        name = "established" if offset == 0 else "disruptive"
        series.append(RevenueSeries(name, years[0], dict(zip(years, values))))
        levels.append(curve)
    return (series[0], series[1]), (levels[0], levels[1])


def recovery_experiment(
    s: SyntheticScenario,
    early_fraction: float = 0.1,
    window: tuple[int, int] | None = None,
) -> RecoveryReport:
    """Fit the substitution exponent and compare with the rate ratio.

    Without an explicit window, the fit is restricted to the early phase:
    years where both true curves sit below ``early_fraction`` of their
    equilibrium levels, which is where the power-law approximation holds.
    The saturation level is the higher level/capacity of the two true curves
    at the window's last year, read from the realization's true levels.
    A scenario that cannot be realized (a noisy level past the float range)
    is an input error, whatever the window.
    """
    if window is None and not (0.0 < early_fraction < 1.0):
        raise TechCycleError(f"early fraction must be in (0, 1), got {early_fraction}")
    (old_series, new_series), levels = _realized(s)
    if window is None:
        window = _early_window(s, levels, early_fraction)
        if window is None or window[1] - window[0] < 2:
            raise WindowError(
                f"early window (fraction {early_fraction}) has fewer than 3 years; "
                "lower the growth rates, start earlier, or raise the fraction"
            )
    try:
        # fit_substitution names the first window year that the scenario lacks
        fit = fit_substitution(new_series, old_series, window=window)
    except TechCycleError as exc:
        raise WindowError(f"window {format_window(window)} not fittable: {exc}") from exc
    b_theoretical = implied_exponent(s.p_old, s.p_new)
    # both curves rise with t (b > 0), so the window's last year holds the highest level
    last = window[1] - s.years[0]
    saturation = max(curve[last] / p.k for curve, p in zip(levels, (s.p_old, s.p_new)))
    return RecoveryReport(
        b_theoretical=b_theoretical,
        b_fitted=fit.b_exponent,
        abs_gap=abs(fit.b_exponent - b_theoretical),
        window_used=window,
        saturation_level=saturation,
    )


def _early_window(
    s: SyntheticScenario, levels: tuple[list[float], list[float]], fraction: float
) -> tuple[int, int] | None:
    """Prefix of the year range where both true levels stay below fraction*k.

    Reads the true levels that ``_realized`` keeps, so no curve is evaluated
    again for any fraction.
    """
    cap_old, cap_new = fraction * s.p_old.k, fraction * s.p_new.k
    count = 0
    for old, new in zip(*levels):
        if not (old < cap_old and new < cap_new):
            break
        count += 1
    first = s.years[0]
    return (first, first + count - 1) if count else None


def scenario_from_mapping(values: dict[str, str]) -> SyntheticScenario:
    """Build a scenario from flat key-value config entries, each read as the
    type that ``_SCENARIO_KEYS`` gives its key.  Any other key is an error.
    """
    v = {"noise_rel": 0.0, "seed": 0, **parse_keys(values, _SCENARIO_KEYS)}
    if missing := next((key for key in _SCENARIO_KEYS if key not in v), None):
        raise TechCycleError(f"scenario config missing key {missing!r}")
    return SyntheticScenario(
        p_old=LogisticParams(k=v["k1"], a=v["a1"], b=v["b1"]),
        p_new=LogisticParams(k=v["k2"], a=v["a2"], b=v["b2"]),
        years=(v["year_start"], v["year_end"]), noise_rel=v["noise_rel"], seed=v["seed"],
    )
