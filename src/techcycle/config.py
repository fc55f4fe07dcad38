"""Config-file readers and the bundled data directory.

All config files share one flat key-value syntax: ``name = value`` lines,
``#`` comments, blank lines ignored.  Group files interpret the value as a
semicolon-separated format list; scenario and reference files read each
key's value with its parser, through ``parse_keys``.
"""

from __future__ import annotations

import re
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

from ._record import frozen
from .errors import TechCycleError, located
from .market_data import (YEAR_MAX, YEAR_MIN, CpiTable, RevenueRecord, TechnologyGroup,
                          parse_cpi_table, parse_revenue_table)

_NAME = re.compile(r"[A-Za-z0-9_-]+")  # the rule that load_groups states
_NAME_RULE = "may hold only ASCII letters, digits, '-' and '_'"


def _read_text(path: str | Path) -> str:
    """Decode a UTF-8 input file, dropping one leading byte-order mark."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TechCycleError(f"byte {exc.start} (0x{data[exc.start]:02x}) is not UTF-8") from None
    return text[1:] if text.startswith("\ufeff") else text


def read_kv_file(path: str | Path) -> dict[str, str]:
    """Parse ``name = value`` lines, preserving order."""
    values: dict[str, str] = {}
    with located(path):
        for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise TechCycleError(f"line {line_no}: expected 'name = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise TechCycleError(f"line {line_no}: empty key")
            if key in values:
                raise TechCycleError(f"line {line_no}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def load_groups(path: str | Path) -> list[TechnologyGroup]:
    """Read technology groups; a format may belong to at most one group.

    A name is also a flag value, part of config keys and pair lists, and a
    file name, so it may hold only ASCII letters, digits, '-' and '_'.
    """
    values = read_kv_file(path)
    groups: list[TechnologyGroup] = []
    claimed: dict[str, str] = {}
    with located(path):
        for name, value in values.items():
            if not _NAME.fullmatch(name):
                raise TechCycleError(f"group name {name!r} {_NAME_RULE}")
            formats = tuple(f.strip() for f in value.split(";") if f.strip())
            for fmt in formats:
                if fmt in claimed:
                    raise TechCycleError(f"format {fmt!r} appears in both {claimed[fmt]!r} "
                                         f"and {name!r}")
                claimed[fmt] = name
            groups.append(TechnologyGroup(name=name, formats=formats))
        if not groups:
            raise TechCycleError("no groups defined")
    return groups


def load_cpi_csv(path: str | Path) -> CpiTable:
    with located(path):
        return parse_cpi_table(_read_text(path))


def load_revenue_csv(path: str | Path) -> list[RevenueRecord]:
    with located(path):
        return parse_revenue_table(_read_text(path))


def technology_names(combo: str) -> list[str]:
    """The sorted names in a technology name or a '+'-joined combination;
    joined by '+', they are its one spelling.
    """
    return sorted(part.strip() for part in combo.split("+") if part.strip())


def shared_technology(old: str, new: str) -> str | None:
    """A technology named on both sides of an established/disruptive pair, if any."""
    return next((name for name in technology_names(old) if name in technology_names(new)), None)


def parse_window_spec(spec: str) -> tuple[int, int] | None:
    """``Y1:Y2`` to a year pair; ``auto`` to None (overlap-derived)."""
    text = spec.strip().lower()
    if text == "auto":
        return None
    first, sep, last = text.partition(":")
    if not sep:
        raise TechCycleError(f"window spec {spec!r} must be 'Y1:Y2' or 'auto'")
    try:
        window = (int(first), int(last))
    except ValueError:
        raise TechCycleError(f"window spec {spec!r} has non-integer years") from None
    if window[0] > window[1]:
        raise TechCycleError(f"window spec {spec!r} is reversed")
    return window


def format_window(window: tuple[int, int]) -> str:
    """A year pair as ``Y1:Y2``: every printed window, and what ``parse_window_spec`` reads back."""
    return f"{window[0]}:{window[1]}"


@frozen
class ReferenceConfig:
    """Pinned analysis choices for the reproducible headline report.

    Windows, begin-year overrides and the pairing list are data-dependent
    judgment calls; checking them in keeps `report` a one-command rerun.
    """

    end_threshold_rel: float = 0.01
    table1_old: str = "cassette"
    table1_new: str = "cd"
    table1_window: tuple[int, int] | None = None
    table2_old: str = "cd"
    table2_new: str = "streaming"
    table2_window: tuple[int, int] | None = None
    table3_pairs: tuple[tuple[str, str], ...] = ()
    dp_residual_max: float = 0.10
    a_overrides: Mapping[str, int] = MappingProxyType({})


def _parse_pairs(value: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        old, sep, new = chunk.partition(":")
        if not sep:
            raise ValueError(f"pair {chunk!r} must be 'established:disruptive'")
        spellings = ("+".join(technology_names(old)), "+".join(technology_names(new)))
        if not all(spellings):
            raise ValueError(f"pair {chunk!r} is incomplete")
        if shared_technology(old, new):
            raise ValueError(f"pair {chunk!r} pairs a technology with itself")
        pairs.append(spellings)
    return tuple(pairs)


def _parse_year(value: str) -> int:
    year = int(value)
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"{year} is not in [{YEAR_MIN}, {YEAR_MAX}]")
    return year


# Each key's parser: the type of its default, unless the default does not say it.
_PARSERS = {
    **{key: type(getattr(ReferenceConfig, key)) for key in ReferenceConfig.__annotations__
       if key != "a_overrides"},
    "table1_window": parse_window_spec,
    "table2_window": parse_window_spec,
    "table3_pairs": _parse_pairs,
    "a_override.": _parse_year,
}


def parse_keys(values: Mapping[str, str], parsers: Mapping[str, Callable[[str], object]]) -> dict:
    """Parse each value with its key's parser, in file order, naming the key of
    a fault; a key with no parser is unknown.  A ``<prefix>.<name>`` key takes
    the parser of ``<prefix>.``, its name follows the group-name rule, and its
    value is gathered by name in a dict under ``<prefix>``."""
    parsed: dict = {}
    for key, value in values.items():
        prefix, dot, name = key.partition(".")
        parse = parsers.get(prefix + dot)
        if parse is None:
            raise TechCycleError(f"unknown key {key!r}")
        if dot and not _NAME.fullmatch(name):
            raise TechCycleError(f"{key}: name {name!r} {_NAME_RULE}")
        target, name = (parsed.setdefault(prefix, {}), name) if dot else (parsed, key)
        with located(key):
            try:
                target[name] = parse(value)
            except ValueError as exc:
                raise TechCycleError(str(exc)) from None
    return parsed


def load_reference(path: str | Path) -> ReferenceConfig:
    """Read a reference config: one key per ``ReferenceConfig`` field, with
    ``a_override.<group> = <year>`` keys for ``a_overrides``.  Absent keys
    keep the class defaults; unknown keys and invalid group names are errors.
    """
    values = read_kv_file(path)
    with located(path):
        fields = parse_keys(values, _PARSERS)
        a_overrides = MappingProxyType(fields.pop("a_override", {}))
        ref = ReferenceConfig(**fields, a_overrides=a_overrides)
        for table, old, new in (("table1", ref.table1_old, ref.table1_new),
                                ("table2", ref.table2_old, ref.table2_new)):
            if shared := shared_technology(old, new):
                raise TechCycleError(f"{table}_old and {table}_new both name {shared!r}")
        for key, ok, domain in (  # each test is also false for nan
            ("end_threshold_rel", 0.0 < ref.end_threshold_rel < 1.0, "(0, 1)"),
            ("dp_residual_max", 0.0 <= ref.dp_residual_max <= 1.0, "[0, 1]"),
        ):
            if not ok:
                raise TechCycleError(f"{key}: {getattr(ref, key)} is not in {domain}")
    return ref


def default_data_dir() -> Path:
    """The bundled data directory, home of every input flag's default file."""
    return Path(__file__).parent / "data"
