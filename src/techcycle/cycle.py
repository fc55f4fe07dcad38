"""Lifecycle event detection and cycle statistics for revenue series.

A technology's cycle runs from the first year of revenue (A) through the
peak year (M) to the year revenues end (Z).  Wave lengths and their shares
of the whole cycle are the quantities aggregated across technologies.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

from ._record import frozen
from .errors import InsufficientDataError, TechCycleError
from .market_data import RevenueSeries


@frozen
class CycleEvents:
    """Begin (A), peak (M) and end (Z) years of one technology's cycle.

    ``m_year`` and ``z_year`` are ``None`` while the corresponding event has
    not happened inside the data (an ongoing technology).  ``censored``
    marks a Z that merely coincides with the end of the data, revenue still
    above the extinction threshold.
    """

    technology: str
    a_year: int
    m_year: int | None
    z_year: int | None
    censored: bool = False

    def __post_init__(self):
        if self.m_year is not None and self.a_year > self.m_year:
            raise TechCycleError(
                f"{self.technology}: begin {self.a_year} after peak {self.m_year}"
            )
        if self.m_year is not None and self.z_year is not None and self.m_year > self.z_year:
            raise TechCycleError(
                f"{self.technology}: peak {self.m_year} after end {self.z_year}"
            )
        if self.m_year is None and self.z_year is not None:
            raise TechCycleError(f"{self.technology}: end year without a peak year")


@frozen
class CycleSummary:
    """Wave lengths derived from the events; fields are absent (None) when
    the underlying event is still ongoing."""

    events: CycleEvents
    am: int | None
    mz: int | None
    az: int | None
    up_share: float | None
    down_share: float | None


@frozen
class CycleAggregate:
    """Mean, sample standard deviation and count per column, keyed by name.

    Each column aggregates only its defined entries, so ongoing technologies
    contribute to the columns they have.  SDs use the n-1 divisor and are
    absent for single-entry columns; means are absent for empty ones.
    """

    mean: Mapping[str, float | None]
    sd: Mapping[str, float | None]
    n: Mapping[str, int]

    def __post_init__(self):
        for name in ("mean", "sd", "n"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


@frozen
class CrossoverResult:
    """First year the disruptor holds more than half the pairwise revenue.

    ``boundary`` flags a crossover already in force at the first comparable
    year, where the true first crossover may predate the data.
    """

    year: int
    established_share: float
    boundary: bool = False

    def __post_init__(self):
        if not self.established_share < 50.0:
            raise TechCycleError(
                f"crossover share must be below 50, got {self.established_share}"
            )


def detect_events(
    series: RevenueSeries,
    end_threshold_rel: float = 0.01,
    a_override: int | None = None,
) -> CycleEvents:
    """Locate the A, M and Z events on a revenue series.

    A is the first positive year unless overridden by an earlier year
    (datasets often start after a technology's introduction).  M is the
    earliest year attaining the maximum, marked ongoing when that maximum
    sits on the final data year.  Z is the first post-peak year with
    revenue below ``end_threshold_rel`` of the peak, else the final year
    with the censored flag set.
    """
    if not (0.0 < end_threshold_rel < 1.0):
        raise TechCycleError(f"end threshold must be in (0, 1), got {end_threshold_rel}")
    first = next(year for year, value in series.points.items() if value > 0.0)
    a_year = first if a_override is None else a_override
    if a_year > first:
        raise TechCycleError(
            f"{series.technology}: begin {a_year} after its first revenue year {first}"
        )

    peak_value = max(series.points.values())
    m_year = next(year for year, value in series.points.items() if value == peak_value)
    if m_year == series.last_year:
        return CycleEvents(
            technology=series.technology, a_year=a_year, m_year=None, z_year=None
        )

    cutoff = end_threshold_rel * peak_value
    for year, value in series.points.items():
        if year > m_year and value < cutoff:
            return CycleEvents(
                technology=series.technology, a_year=a_year, m_year=m_year, z_year=year
            )
    return CycleEvents(
        technology=series.technology,
        a_year=a_year,
        m_year=m_year,
        z_year=series.last_year,
        censored=True,
    )


def cycle_metrics(events: CycleEvents) -> CycleSummary:
    """Wave lengths and their percentage split for one technology.

    The down wave MZ is also the technology's disruption period (Table 3).
    Components that depend on an ongoing event stay absent.  A zero-length
    cycle has undefined shares and is rejected.
    """
    am = events.m_year - events.a_year if events.m_year is not None else None
    mz = (
        events.z_year - events.m_year
        if events.m_year is not None and events.z_year is not None
        else None
    )
    az = events.z_year - events.a_year if events.z_year is not None else None
    up_share = down_share = None
    if az is not None:
        if az == 0:
            raise TechCycleError(
                f"{events.technology}: zero-length cycle, wave shares undefined"
            )
        up_share = 100.0 * am / az
        down_share = 100.0 * mz / az
    return CycleSummary(
        events=events, am=am, mz=mz, az=az, up_share=up_share, down_share=down_share
    )


def crossover_year(
    established: RevenueSeries, disruptive: RevenueSeries
) -> CrossoverResult | None:
    """First year the established side of the pair falls below half.

    Scans comparable years (both values present, combined revenue positive)
    in increasing order.  Returns ``None`` when no crossover occurs in the
    data, as when the series share no comparable year; a crossover at the
    very first comparable year carries the ``boundary`` flag because earlier
    years are unobserved.
    """
    lo = max(established.first_year, disruptive.first_year)
    hi = min(established.last_year, disruptive.last_year)
    first_comparable: int | None = None
    for year in range(lo, hi + 1):
        old = established.points.get(year)
        new = disruptive.points.get(year)
        if old is None or new is None or old + new <= 0.0:
            continue
        if first_comparable is None:
            first_comparable = year
        share = 100.0 * old / (old + new)
        if share < 50.0:
            return CrossoverResult(
                year=year, established_share=share, boundary=year == first_comparable
            )
    return None


def aggregate_cycles(summaries: list[CycleSummary]) -> CycleAggregate:
    """Table 4's footer: ``column_stats`` of each wave column over the summaries."""
    if not summaries:
        raise InsufficientDataError("aggregate_cycles needs at least one summary")
    return column_stats(**{
        name: [float(getattr(s, name)) for s in summaries if getattr(s, name) is not None]
        for name in ("am", "mz", "az", "up_share", "down_share")
    })


def column_stats(**columns: list[float]) -> CycleAggregate:
    """Mean, sample SD and count of each named column of numbers."""
    return CycleAggregate(
        mean={name: _mean(values) for name, values in columns.items()},
        sd={name: _sample_sd(values) for name, values in columns.items()},
        n={name: len(values) for name, values in columns.items()},
    )


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return math.fsum(values) / len(values)


def _sample_sd(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
