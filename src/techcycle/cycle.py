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
    """Column-wise mean and sample standard deviation over cycle summaries.

    Each column aggregates only the rows where it is defined, so ongoing
    technologies contribute to the columns they have.  SDs use the n-1
    divisor and are absent for single-entry columns.
    """

    mean_am: float | None
    mean_mz: float | None
    mean_az: float | None
    sd_am: float | None
    sd_mz: float | None
    sd_az: float | None
    mean_up_share: float | None
    mean_down_share: float | None
    n_per_column: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "n_per_column", MappingProxyType(dict(self.n_per_column)))


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

    A is the first positive year unless overridden (datasets often start
    after a technology's introduction).  M is the earliest year attaining
    the maximum, marked ongoing when that maximum sits on the final data
    year.  Z is the first post-peak year with revenue below
    ``end_threshold_rel`` of the peak, else the final year with the
    censored flag set.
    """
    if not (0.0 < end_threshold_rel < 1.0):
        raise TechCycleError(f"end threshold must be in (0, 1), got {end_threshold_rel}")
    positive_years = [year for year, value in series.points.items() if value > 0.0]
    a_year = a_override if a_override is not None else positive_years[0]

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


def disruption_period(events: CycleEvents) -> int:
    """Years from peak to end of revenues (the down wave length)."""
    if events.m_year is None or events.z_year is None:
        raise TechCycleError(
            f"{events.technology}: disruption period needs both peak and end years"
        )
    return events.z_year - events.m_year


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
        old = established.value(year)
        new = disruptive.value(year)
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
    """Arithmetic mean and sample SD per column over the defined entries."""
    if not summaries:
        raise InsufficientDataError("aggregate_cycles needs at least one summary")
    columns = {
        "am": [float(s.am) for s in summaries if s.am is not None],
        "mz": [float(s.mz) for s in summaries if s.mz is not None],
        "az": [float(s.az) for s in summaries if s.az is not None],
        "up_share": [s.up_share for s in summaries if s.up_share is not None],
        "down_share": [s.down_share for s in summaries if s.down_share is not None],
    }
    return CycleAggregate(
        mean_am=_mean(columns["am"]),
        mean_mz=_mean(columns["mz"]),
        mean_az=_mean(columns["az"]),
        sd_am=_sample_sd(columns["am"]),
        sd_mz=_sample_sd(columns["mz"]),
        sd_az=_sample_sd(columns["az"]),
        mean_up_share=_mean(columns["up_share"]),
        mean_down_share=_mean(columns["down_share"]),
        n_per_column={name: len(values) for name, values in columns.items()},
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
