"""Ingestion and preparation of per-format annual revenue tables.

The dataset format is a flat CSV with one row per (year, format) pair,
carrying nominal and/or constant-dollar revenue in millions.  Formats are
summed into named technologies, and nominal values are deflated with a
consumer-price index before any analysis.
"""

from __future__ import annotations

import csv
import io
import math
from types import MappingProxyType
from typing import Mapping

from ._record import frozen
from .errors import TechCycleError, located

REVENUE_HEADER = ("year", "format", "revenue_nominal_musd", "revenue_real_musd", "units_m")

YEAR_MIN = 1900
YEAR_MAX = 2100
BASE_YEAR = 2018  # the dollars of ``revenue_real_musd``; nominal-only rows are deflated to them


@frozen
class RevenueRecord:
    """One format's revenue in one calendar year, in millions of dollars."""

    year: int
    format: str
    revenue_nominal: float | None = None
    revenue_real: float | None = None
    units: float | None = None

    def __post_init__(self):
        if not (YEAR_MIN <= self.year <= YEAR_MAX):
            raise TechCycleError(f"year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if self.revenue_nominal is None and self.revenue_real is None:
            raise TechCycleError(
                f"{self.year} {self.format!r}: at least one revenue column required"
            )
        for name in ("revenue_nominal", "revenue_real", "units"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value < 0):
                raise TechCycleError(f"{self.year} {self.format!r}: {name} must be >= 0")


@frozen
class RevenueSeries:
    """A technology's annual constant-dollar revenue, ordered by year.

    Missing years are kept absent rather than zero-filled; ``gap_years``
    lists them so consumers can tell absence from extinction.
    """

    technology: str
    base_year: int
    points: Mapping[int, float]

    def __post_init__(self):
        ordered = dict(sorted(self.points.items()))
        if not ordered:
            raise TechCycleError(f"{self.technology}: series has no observations")
        for year, value in ordered.items():
            if not math.isfinite(value) or value < 0:
                raise TechCycleError(f"{self.technology}: value for {year} must be >= 0")
        if all(value == 0 for value in ordered.values()):
            raise TechCycleError(f"{self.technology}: series needs at least one positive value")
        object.__setattr__(self, "points", MappingProxyType(ordered))

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(self.points)

    @property
    def first_year(self) -> int:
        return next(iter(self.points))

    @property
    def last_year(self) -> int:
        return self.years[-1]

    @property
    def gap_years(self) -> tuple[int, ...]:
        present = set(self.points)
        return tuple(
            year for year in range(self.first_year, self.last_year + 1) if year not in present
        )

    def value(self, year: int) -> float | None:
        return self.points.get(year)


@frozen
class TechnologyGroup:
    """A named technology defined as the sum of raw format labels."""

    name: str
    formats: tuple[str, ...]

    def __post_init__(self):
        if not self.formats:
            raise TechCycleError(f"group {self.name!r} has no formats")
        object.__setattr__(self, "formats", tuple(self.formats))


@frozen
class CpiTable:
    """Annual price index used to express revenue in ``BASE_YEAR`` dollars."""

    entries: Mapping[int, float]

    def __post_init__(self):
        ordered = dict(sorted(self.entries.items()))
        for year, value in ordered.items():
            if not math.isfinite(value) or value <= 0:
                raise TechCycleError(f"CPI index for {year} must be positive")
        if BASE_YEAR not in ordered:
            raise TechCycleError(f"CPI table lacks its base year {BASE_YEAR}")
        object.__setattr__(self, "entries", MappingProxyType(ordered))

    def deflator(self, year: int) -> float:
        if year not in self.entries:
            raise TechCycleError(f"no CPI index for year {year}")
        return self.entries[BASE_YEAR] / self.entries[year]


def _data_rows(raw_text: str, header: tuple[str, ...]):
    """The numbered non-blank rows under ``header``, each with one cell per column."""
    reader = csv.reader(io.StringIO(raw_text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise TechCycleError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise TechCycleError("empty input: missing header row")
    if tuple(h.strip() for h in rows[0]) != header:
        raise TechCycleError(f"unexpected header {rows[0]!r}; expected {','.join(header)}")
    for row_no, row in enumerate(rows[1:], start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise TechCycleError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
        yield row_no, row


def parse_revenue_table(raw_text: str) -> list[RevenueRecord]:
    """Parse CSV content into records, preserving input row order.

    The header must be exactly ``year,format,revenue_nominal_musd,
    revenue_real_musd,units_m``.  Blank optional cells become absent values.
    """
    records: list[RevenueRecord] = []
    seen: set[tuple[int, str]] = set()
    for row_no, row in _data_rows(raw_text, REVENUE_HEADER):
        year = _parse_int(row[0], row_no, "year")
        fmt = row[1].strip()
        if not fmt:
            raise TechCycleError(f"row {row_no}: empty format label")
        nominal = _parse_optional_float(row[2], row_no, "revenue_nominal_musd")
        real = _parse_optional_float(row[3], row_no, "revenue_real_musd")
        units = _parse_optional_float(row[4], row_no, "units_m")
        if nominal is None and real is None:
            raise TechCycleError(f"row {row_no}: both revenue columns are empty")
        key = (year, fmt)
        if key in seen:
            raise TechCycleError(f"row {row_no}: duplicate entry for ({year}, {fmt!r})")
        seen.add(key)
        with located(f"row {row_no}"):
            records.append(RevenueRecord(year, fmt, nominal, real, units))
    return records


def parse_cpi_table(raw_text: str) -> CpiTable:
    """Parse ``year,index`` CSV content into a CPI table."""
    entries: dict[int, float] = {}
    for row_no, row in _data_rows(raw_text, ("year", "index")):
        year = _parse_int(row[0], row_no, "year")
        index = _parse_optional_float(row[1], row_no, "index")
        if index is None:
            raise TechCycleError(f"row {row_no}: empty index")
        if index <= 0:
            raise TechCycleError(f"row {row_no}, column index: {row[1]!r} is not positive")
        if year in entries:
            raise TechCycleError(f"row {row_no}: duplicate entry for year {year}")
        entries[year] = index
    return CpiTable(entries=entries)


def adjust_inflation(records: list[RevenueRecord], cpi: CpiTable) -> list[RevenueRecord]:
    """Fill ``revenue_real`` from ``revenue_nominal`` in ``BASE_YEAR`` dollars.

    Records that already carry a real value pass through unchanged, so the
    operation is idempotent.
    """
    adjusted: list[RevenueRecord] = []
    for record in records:
        if record.revenue_real is not None:
            adjusted.append(record)
            continue
        factor = cpi.deflator(record.year)
        adjusted.append(
            RevenueRecord(
                year=record.year,
                format=record.format,
                revenue_nominal=record.revenue_nominal,
                revenue_real=record.revenue_nominal * factor,
                units=record.units,
            )
        )
    return adjusted


def aggregate_group(records: list[RevenueRecord], group: TechnologyGroup) -> RevenueSeries:
    """Sum constant-dollar revenue of the group's formats, year by year.

    Years in which no member format reports are absent from the result,
    not zero.  Records must already be inflation-adjusted.  Each sum is
    correctly rounded (``math.fsum``), so it does not depend on record order.
    """
    wanted = set(group.formats)
    values: dict[int, list[float]] = {}
    matched = False
    for record in records:
        if record.format not in wanted:
            continue
        matched = True
        if record.revenue_real is None:
            raise TechCycleError(
                f"{record.year} {record.format!r}: missing real revenue; run adjust_inflation first"
            )
        values.setdefault(record.year, []).append(record.revenue_real)
    if not matched:
        raise TechCycleError(
            f"group {group.name!r} matched no record (formats: {', '.join(group.formats)})"
        )
    totals = {year: math.fsum(parts) for year, parts in values.items()}
    return RevenueSeries(technology=group.name, base_year=BASE_YEAR, points=totals)


def positive_overlap_window(a: RevenueSeries, b: RevenueSeries) -> tuple[int, int] | None:
    """Maximal contiguous year run where both series are strictly positive.

    Returns ``(first, last)`` inclusive, or ``None`` when no year qualifies.
    Ties between equally long runs resolve to the earliest.
    """
    lo = max(a.first_year, b.first_year)
    hi = min(a.last_year, b.last_year)
    best: tuple[int, int] | None = None
    run_start: int | None = None
    for year in range(lo, hi + 2):  # one past the end flushes the last run
        ok = year <= hi and (a.value(year) or 0.0) > 0.0 and (b.value(year) or 0.0) > 0.0
        if ok and run_start is None:
            run_start = year
        elif not ok and run_start is not None:
            if best is None or (year - 1 - run_start) > (best[1] - best[0]):
                best = (run_start, year - 1)
            run_start = None
    return best


def merge_series(name: str, parts: list[RevenueSeries]) -> RevenueSeries:
    """Pointwise sum of several technologies (e.g. a combined disruptor),
    correctly rounded as in ``aggregate_group``."""
    if not parts:
        raise TechCycleError("merge_series needs at least one series")
    values: dict[int, list[float]] = {}
    for part in parts:
        for year, value in part.points.items():
            values.setdefault(year, []).append(value)
    totals = {year: math.fsum(addends) for year, addends in values.items()}
    return RevenueSeries(technology=name, base_year=parts[0].base_year, points=totals)


def _parse_int(cell: str, row_no: int, column: str) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise TechCycleError(f"row {row_no}, column {column}: {cell!r} is not an integer") from None


def _parse_optional_float(cell: str, row_no: int, column: str) -> float | None:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise TechCycleError(f"row {row_no}, column {column}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise TechCycleError(f"row {row_no}: {column} must be a finite number, got {cell!r}")
    return value

