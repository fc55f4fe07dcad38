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
from .errors import (
    DuplicateRecordError,
    EmptyGroupError,
    MissingCpiYearError,
    TableParseError,
    ValidationError,
)

__all__ = [
    "RevenueRecord",
    "RevenueSeries",
    "TechnologyGroup",
    "CpiTable",
    "REVENUE_HEADER",
    "parse_revenue_table",
    "serialize_revenue_table",
    "adjust_inflation",
    "aggregate_group",
    "positive_overlap_window",
    "merge_series",
]

REVENUE_HEADER = ("year", "format", "revenue_nominal_musd", "revenue_real_musd", "units_m")

YEAR_MIN = 1900
YEAR_MAX = 2100


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
            raise ValidationError(f"year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if self.revenue_nominal is None and self.revenue_real is None:
            raise ValidationError(
                f"{self.year} {self.format!r}: at least one revenue column required"
            )
        for name in ("revenue_nominal", "revenue_real", "units"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value < 0):
                raise ValidationError(f"{self.year} {self.format!r}: {name} must be >= 0")


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
            raise ValidationError(f"{self.technology}: series has no observations")
        for year, value in ordered.items():
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"{self.technology}: value for {year} must be >= 0")
        if all(value == 0 for value in ordered.values()):
            raise ValidationError(f"{self.technology}: series needs at least one positive value")
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

    def scaled(self, factor: float) -> "RevenueSeries":
        return RevenueSeries(
            technology=self.technology,
            base_year=self.base_year,
            points={year: value * factor for year, value in self.points.items()},
        )


@frozen
class TechnologyGroup:
    """A named technology defined as the sum of raw format labels."""

    name: str
    formats: tuple[str, ...]

    def __post_init__(self):
        if not self.formats:
            raise ValidationError(f"group {self.name!r} has no formats")
        object.__setattr__(self, "formats", tuple(self.formats))


@frozen
class CpiTable:
    """Annual price index used to express revenue in base-year dollars."""

    entries: Mapping[int, float]
    base_year: int = 2018

    def __post_init__(self):
        ordered = dict(sorted(self.entries.items()))
        for year, value in ordered.items():
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"CPI index for {year} must be positive")
        if self.base_year not in ordered:
            raise ValidationError(f"CPI table lacks its base year {self.base_year}")
        object.__setattr__(self, "entries", MappingProxyType(ordered))

    def deflator(self, year: int, base_year: int | None = None) -> float:
        base = self.base_year if base_year is None else base_year
        for needed in (year, base):
            if needed not in self.entries:
                raise MissingCpiYearError(f"no CPI index for year {needed}")
        return self.entries[base] / self.entries[year]


def parse_revenue_table(raw_text: str) -> list[RevenueRecord]:
    """Parse CSV content into records, preserving input row order.

    The header must be exactly ``year,format,revenue_nominal_musd,
    revenue_real_musd,units_m``.  Blank optional cells become absent values.
    """
    reader = csv.reader(io.StringIO(raw_text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise TableParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise TableParseError("empty input: missing header row")
    header = rows[0]
    if tuple(h.strip() for h in header) != REVENUE_HEADER:
        raise TableParseError(
            f"unexpected header {header!r}; expected {','.join(REVENUE_HEADER)}"
        )
    records: list[RevenueRecord] = []
    seen: set[tuple[int, str]] = set()
    for row_no, row in enumerate(rows[1:], start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(REVENUE_HEADER):
            raise TableParseError(f"row {row_no}: expected {len(REVENUE_HEADER)} cells, got {len(row)}")
        year = _parse_int(row[0], row_no, "year")
        fmt = row[1].strip()
        if not fmt:
            raise TableParseError(f"row {row_no}: empty format label")
        nominal = _parse_optional_float(row[2], row_no, "revenue_nominal_musd")
        real = _parse_optional_float(row[3], row_no, "revenue_real_musd")
        units = _parse_optional_float(row[4], row_no, "units_m")
        if nominal is None and real is None:
            raise ValidationError(f"row {row_no}: both revenue columns are empty")
        key = (year, fmt)
        if key in seen:
            raise DuplicateRecordError(f"row {row_no}: duplicate entry for ({year}, {fmt!r})")
        seen.add(key)
        records.append(
            RevenueRecord(
                year=year, format=fmt, revenue_nominal=nominal, revenue_real=real, units=units
            )
        )
    return records


def serialize_revenue_table(records: list[RevenueRecord]) -> str:
    """Inverse of ``parse_revenue_table``; absent values become empty cells."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REVENUE_HEADER)
    for record in records:
        writer.writerow(
            [
                record.year,
                record.format,
                _cell(record.revenue_nominal),
                _cell(record.revenue_real),
                _cell(record.units),
            ]
        )
    return out.getvalue()


def adjust_inflation(
    records: list[RevenueRecord], cpi: CpiTable, base_year: int
) -> list[RevenueRecord]:
    """Fill ``revenue_real`` from ``revenue_nominal`` at base-year dollars.

    Records that already carry a real value pass through unchanged, so the
    operation is idempotent.
    """
    adjusted: list[RevenueRecord] = []
    for record in records:
        if record.revenue_real is not None:
            adjusted.append(record)
            continue
        factor = cpi.deflator(record.year, base_year)
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


def aggregate_group(
    records: list[RevenueRecord], group: TechnologyGroup, base_year: int
) -> RevenueSeries:
    """Sum constant-dollar revenue of the group's formats, year by year.

    Years in which no member format reports are absent from the result,
    not zero.  Records must already be inflation-adjusted.
    """
    wanted = set(group.formats)
    totals: dict[int, float] = {}
    matched = False
    for record in records:
        if record.format not in wanted:
            continue
        matched = True
        if record.revenue_real is None:
            raise ValidationError(
                f"{record.year} {record.format!r}: missing real revenue; run adjust_inflation first"
            )
        totals[record.year] = totals.get(record.year, 0.0) + record.revenue_real
    if not matched:
        raise EmptyGroupError(
            f"group {group.name!r} matched no record (formats: {', '.join(group.formats)})"
        )
    return RevenueSeries(technology=group.name, base_year=base_year, points=totals)


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
    """Pointwise sum of several technologies (e.g. a combined disruptor)."""
    if not parts:
        raise ValidationError("merge_series needs at least one series")
    totals: dict[int, float] = {}
    for part in parts:
        for year, value in part.points.items():
            totals[year] = totals.get(year, 0.0) + value
    return RevenueSeries(technology=name, base_year=parts[0].base_year, points=totals)


def _parse_int(cell: str, row_no: int, column: str) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise TableParseError(f"row {row_no}, column {column}: {cell!r} is not an integer") from None


def _parse_optional_float(cell: str, row_no: int, column: str) -> float | None:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise TableParseError(f"row {row_no}, column {column}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise TableParseError(f"row {row_no}: {column} must be a finite number, got {cell!r}")
    return value


def _cell(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, "g") if value == int(value) else repr(value)
