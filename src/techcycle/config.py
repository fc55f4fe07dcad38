"""Config-file readers and default path resolution.

All config files share one flat key-value syntax: ``name = value`` lines,
``#`` comments, blank lines ignored.  Group files interpret the value as a
semicolon-separated format list; scenario and reference files interpret
keys individually.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._record import frozen
from .errors import ConfigError, ValidationError
from .market_data import CpiTable, RevenueRecord, TechnologyGroup, parse_revenue_table

__all__ = [
    "read_kv_file",
    "load_groups",
    "load_cpi_csv",
    "load_revenue_csv",
    "ReferenceConfig",
    "load_reference",
    "parse_window_spec",
    "default_data_dir",
    "DATA_DIR_ENV",
]

DATA_DIR_ENV = "TECHCYCLE_DATA_DIR"


def _read_text(path: str | Path) -> str:
    """Decode a UTF-8 input file, dropping one leading byte-order mark."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} (0x{data[exc.start]:02x}) is not UTF-8") from None
    return text[1:] if text.startswith("\ufeff") else text


def read_kv_file(path: str | Path) -> dict[str, str]:
    """Parse ``name = value`` lines, preserving order."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {line_no}: expected 'name = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}, line {line_no}: empty key")
        if key in values:
            raise ConfigError(f"{path}, line {line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def load_groups(path: str | Path) -> list[TechnologyGroup]:
    """Read technology groups; a format may belong to at most one group."""
    groups: list[TechnologyGroup] = []
    claimed: dict[str, str] = {}
    for name, value in read_kv_file(path).items():
        formats = tuple(f.strip() for f in value.split(";") if f.strip())
        if not formats:
            raise ConfigError(f"{path}: group {name!r} lists no formats")
        for fmt in formats:
            if fmt in claimed:
                raise ConfigError(
                    f"{path}: format {fmt!r} appears in both {claimed[fmt]!r} and {name!r}"
                )
            claimed[fmt] = name
        groups.append(TechnologyGroup(name=name, formats=formats))
    if not groups:
        raise ConfigError(f"{path}: no groups defined")
    return groups


def load_cpi_csv(path: str | Path, base_year: int = 2018) -> CpiTable:
    """Read a ``year,index`` CSV into a CPI table."""
    entries: dict[int, float] = {}
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows or [h.strip() for h in rows[0]] != ["year", "index"]:
        raise ConfigError(f"{path}: expected header 'year,index'")
    for row_no, row in enumerate(rows[1:], start=1):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            year, index = int(row[0]), float(row[1])
        except (ValueError, IndexError):
            raise ConfigError(f"{path}, data row {row_no}: malformed entry {row!r}") from None
        if year in entries:
            raise ConfigError(f"{path}: duplicate CPI year {year}")
        entries[year] = index
    try:
        return CpiTable(entries=entries, base_year=base_year)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_revenue_csv(path: str | Path) -> list[RevenueRecord]:
    return parse_revenue_table(_read_text(path))


def parse_window_spec(spec: str) -> tuple[int, int] | None:
    """``Y1:Y2`` to a year pair; ``auto`` to None (overlap-derived)."""
    text = spec.strip().lower()
    if text == "auto":
        return None
    first, sep, last = text.partition(":")
    if not sep:
        raise ConfigError(f"window spec {spec!r} must be 'Y1:Y2' or 'auto'")
    try:
        window = (int(first), int(last))
    except ValueError:
        raise ConfigError(f"window spec {spec!r} has non-integer years") from None
    if window[0] > window[1]:
        raise ConfigError(f"window spec {spec!r} is reversed")
    return window


@frozen
class ReferenceConfig:
    """Pinned analysis choices for the reproducible headline report.

    Windows, begin-year overrides and the pairing list are data-dependent
    judgment calls; checking them in keeps `report` a one-command rerun.
    """

    end_threshold_rel: float = 0.01
    regime_tolerance: float = 0.05
    table1_old: str = "cassette"
    table1_new: str = "cd"
    table1_window: tuple[int, int] | None = None
    table2_old: str = "cd"
    table2_new: str = "streaming"
    table2_window: tuple[int, int] | None = None
    table3_pairs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    dp_residual_max: float = 0.10
    a_overrides: Mapping[str, int] = MappingProxyType({})


def _parse_pairs(value: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        old, sep, new = chunk.partition(":")
        if not sep:
            raise ValueError(f"pair {chunk!r} must be 'established:disruptive'")
        disruptors = tuple(part.strip() for part in new.split("+") if part.strip())
        if not old.strip() or not disruptors:
            raise ValueError(f"pair {chunk!r} is incomplete")
        pairs.append((old.strip(), disruptors))
    return tuple(pairs)


# Parsers of the keys whose value is not read as the type of their default.
_PARSERS = {
    "table1_window": parse_window_spec,
    "table2_window": parse_window_spec,
    "table3_pairs": _parse_pairs,
}


def load_reference(path: str | Path) -> ReferenceConfig:
    """Read a reference config: one key per ``ReferenceConfig`` field, with
    ``a_override.<technology> = <year>`` keys for ``a_overrides``.  Absent
    keys keep the class defaults; unknown keys are errors.
    """
    defaults = ReferenceConfig()
    fields: dict = {}
    a_overrides: dict[str, int] = {}
    for key, value in read_kv_file(path).items():
        if key.startswith("a_override."):
            target, name, parse = a_overrides, key[len("a_override."):], int
        elif key in ReferenceConfig.__annotations__ and key != "a_overrides":
            target, name, parse = fields, key, _PARSERS.get(key, type(getattr(defaults, key)))
        else:
            raise ConfigError(f"{path}: unknown key {key!r}")
        try:
            target[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
    return ReferenceConfig(**fields, a_overrides=MappingProxyType(a_overrides))


def default_data_dir() -> Path:
    """Bundled dataset directory, overridable via TECHCYCLE_DATA_DIR."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "data"
