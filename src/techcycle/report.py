"""Dataset loading and the headline report combining fits, crossovers and
cycle tables, with text/CSV/JSON renderers.

Text output rounds to two decimals for reading; CSV and JSON carry full
precision.  All renderers are deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._record import frozen
from .config import ReferenceConfig, load_cpi_csv, load_groups, load_revenue_csv, technology_names
from .cycle import (
    CrossoverResult,
    CycleAggregate,
    CycleEvents,
    CycleSummary,
    aggregate_cycles,
    column_stats,
    crossover_year,
    cycle_metrics,
    detect_events,
)
from .errors import TechCycleError, located
from .growth import SubstitutionFit, fit_substitution
from .market_data import (
    RevenueRecord,
    RevenueSeries,
    TechnologyGroup,
    adjust_inflation,
    aggregate_group,
    merge_series,
)
from .regress import significance_stars


@frozen
class Dataset:
    """Parsed inputs plus one constant-dollar series per technology."""

    records: tuple[RevenueRecord, ...]
    groups: tuple[TechnologyGroup, ...]
    series: dict[str, RevenueSeries]

    def series_for(self, combo: str) -> RevenueSeries:
        """Resolve a technology name, or a '+'-joined combination of distinct names."""
        names = technology_names(combo)
        if not names:
            raise TechCycleError(f"{combo!r} names no technology")
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise TechCycleError(f"{combo!r} names {repeated[0]!r} twice")
        missing = [name for name in names if name not in self.series]
        if missing:
            known = ", ".join(sorted(self.series))
            raise TechCycleError(f"unknown technology {missing[0]!r}; known: {known}")
        if len(names) == 1:
            return self.series[names[0]]
        return merge_series("+".join(names), [self.series[name] for name in names])


def load_dataset(data_path: str | Path, cpi_path: str | Path, groups_path: str | Path) -> Dataset:
    records = load_revenue_csv(data_path)
    cpi = load_cpi_csv(cpi_path)
    groups = load_groups(groups_path)
    with located(cpi_path):
        adjusted = adjust_inflation(records, cpi)
    with located(groups_path):
        series = {g.name: aggregate_group(adjusted, g) for g in groups}
    return Dataset(records=tuple(records), groups=tuple(groups), series=series)


@frozen
class PairRow:
    """One established/disruptive pairing in the crossover table."""

    established: str
    disruptive: str
    crossover: CrossoverResult | None
    events: CycleEvents  # the established technology's
    disruption_period: int | None
    dp_note: str | None = None  # why disruption_period is None


@frozen
class MarketReport:
    """Everything `report` writes: two fits, the pair table, the cycle table."""

    table1: SubstitutionFit
    table2: SubstitutionFit
    table3: tuple[PairRow, ...]
    table3_aggregate: CycleAggregate  # columns "share" and "dp"
    table4: tuple[CycleSummary, ...]
    table4_aggregate: CycleAggregate


def cycle_events(dataset: Dataset, ref: ReferenceConfig) -> dict[str, CycleEvents]:
    """Each group's cycle events, in group order, under the config's end threshold
    and begin years.  Checked in config order, each begin-year override must name
    a group and a year no later than its first revenue year, unless none names a
    group (a config for other data).
    """
    pinned = {}
    if any(name in dataset.series for name in ref.a_overrides):
        for name, year in ref.a_overrides.items():
            with located(f"a_override.{name}"):
                pinned[name] = detect_events(dataset.series_for(name), ref.end_threshold_rel, year)
    return {name: pinned[name] if name in pinned else detect_events(series, ref.end_threshold_rel)
            for name, series in dataset.series.items()}


def table3(dataset: Dataset, ref: ReferenceConfig, events: dict[str, CycleEvents],
           last: tuple[str, str] | None = None) -> list[PairRow]:
    """Table 3: a row for each of the config's pairs, else each group and the next.

    A row's disruption period (DP) is counted for a crossover inside the data,
    once per established technology, and only once its revenue has ended and
    fallen to ``dp_residual_max`` of its peak.  ``events`` maps each group to
    its ``cycle_events``; a combined established side, no group, takes no
    begin-year override.  With ``last``, the rows up to that pair, or its row
    alone if unlisted; ``last`` and the config name each side by its one spelling.
    """
    pairs = list(ref.table3_pairs)
    if not pairs:
        pairs = [(old.name, new.name) for old, new in zip(dataset.groups, dataset.groups[1:])]
    if last is not None:
        pairs = pairs[: pairs.index(last) + 1] if last in pairs else [last]
    rows: list[PairRow] = []
    for old, new in pairs:
        with located("table3_pairs"):
            established, disruptive = dataset.series_for(old), dataset.series_for(new)
        old, new = established.technology, disruptive.technology
        crossover = crossover_year(established, disruptive)
        ev = events[old] if old in events else detect_events(established, ref.end_threshold_rel)
        latest = established.points[established.last_year]
        if crossover is None:
            note = "no crossover in data"
        elif crossover.boundary:
            note = "boundary crossover, earlier years unobserved"
        elif any(row.established == old and row.disruption_period is not None for row in rows):
            note = f"already counted for {old} in an earlier pair"
        elif ev.m_year is None or ev.z_year is None:
            note = f"{old} has no peak and end in the data"
        elif latest > ref.dp_residual_max * (peak := established.points[ev.m_year]):
            note = f"{old} still at {100.0 * latest / peak:.2f}% of peak, above dp_residual_max"
        else:
            note = None
        dp = None if note else cycle_metrics(ev).mz
        rows.append(PairRow(old, new, crossover, ev, disruption_period=dp, dp_note=note))
    return rows


def cycle_table(events: dict[str, CycleEvents]) -> tuple[list[CycleSummary], CycleAggregate]:
    """Table 4: each technology's cycle summary, in the order of ``events``,
    and their aggregate."""
    summaries = [cycle_metrics(ev) for ev in events.values()]
    return summaries, aggregate_cycles(summaries)


def _fit(dataset: Dataset, table: str, old: str, new: str, window) -> SubstitutionFit:
    """Table 1 or 2: ``new`` fitted against ``old``; an error names the config key."""
    with located(f"{table}_old"):
        established = dataset.series_for(old)
    with located(f"{table}_new"):
        disruptive = dataset.series_for(new)
    with located(f"{table}_window"):
        return fit_substitution(disruptive, established, window=window)


def build_report(dataset: Dataset, ref: ReferenceConfig) -> MarketReport:
    events = cycle_events(dataset, ref)
    table1 = _fit(dataset, "table1", ref.table1_old, ref.table1_new, ref.table1_window)
    table2 = _fit(dataset, "table2", ref.table2_old, ref.table2_new, ref.table2_window)
    rows = table3(dataset, ref, events)
    shares = [
        row.crossover.established_share
        for row in rows
        if row.crossover is not None and not row.crossover.boundary
    ]
    dps = [float(row.disruption_period) for row in rows if row.disruption_period is not None]
    summaries, aggregate = cycle_table(events)
    return MarketReport(
        table1=table1,
        table2=table2,
        table3=tuple(rows),
        table3_aggregate=column_stats(share=shares, dp=dps),
        table4=tuple(summaries),
        table4_aggregate=aggregate,
    )


# ------------------------------------------------------------------ fits

def fit_to_mapping(fit: SubstitutionFit) -> dict:
    ols = fit.fit
    return {
        "pair": fit.label,
        "window_first": fit.window[0],
        "window_last": fit.window[1],
        "n": ols.n,
        "intercept_log_a": fit.log_a,
        "intercept_se": ols.se_intercept,
        "intercept_t": ols.t_intercept,
        "intercept_p": ols.p_intercept,
        "exponent_b": fit.b_exponent,
        "exponent_se": ols.se_slope,
        "exponent_t": ols.t_slope,
        "exponent_p": ols.p_slope,
        "r2": ols.r2,
        "r2_adj": ols.r2_adj,
        "se_estimate": ols.se_estimate,
        "f_stat": ols.f_stat,
        "p_f": ols.p_f,
        "regime": fit.regime.value,
    }


def render_fit_text(fit: SubstitutionFit) -> str:
    ols = fit.fit
    lines = [
        f"Substitution fit: {fit.label}",
        f"Window: {fit.window[0]}-{fit.window[1]}  (n={ols.n}, natural logs)",
        "",
        f"{'term':<12}{'estimate':>12}{'std err':>12}{'t':>10}{'p':>10}  sig",
        f"{'log A':<12}{fit.log_a:>12.2f}{ols.se_intercept:>12.2f}"
        f"{_fmt(ols.t_intercept, 2, 10)}{_fmt(ols.p_intercept, 3, 10)}  {significance_stars(ols.p_intercept)}",
        f"{'B':<12}{fit.b_exponent:>12.2f}{ols.se_slope:>12.2f}"
        f"{_fmt(ols.t_slope, 2, 10)}{_fmt(ols.p_slope, 3, 10)}  {significance_stars(ols.p_slope)}",
        "",
        f"R2 = {ols.r2:.2f}   R2 adj. = {ols.r2_adj:.2f}   s.e. of estimate = {ols.se_estimate:.2f}",
        f"F = {_fmt(ols.f_stat, 2).strip()} (p = {_fmt(ols.p_f, 3).strip()})",
        f"Regime: {fit.regime.value}",
    ]
    return "\n".join(lines) + "\n"


def _fmt(value: float, digits: int, width: int = 0) -> str:
    text = "inf" if math.isinf(value) else f"{value:.{digits}f}"
    return text.rjust(width) if width else text


# ------------------------------------------------------------------ table3

def pair_to_mapping(row: PairRow) -> dict:
    cross = row.crossover
    return {
        "established": row.established,
        "disruptive": row.disruptive,
        "crossover_year": None if cross is None else cross.year,
        "established_share_pct": None if cross is None else cross.established_share,
        "crossover_at_boundary": False if cross is None else cross.boundary,
        "peak_year": row.events.m_year,
        "end_year": row.events.z_year,
        "end_censored": row.events.censored,
        "disruption_period_years": row.disruption_period,
        "dp_note": row.dp_note,
    }


def render_table3_text(report: MarketReport) -> str:
    header = (
        f"{'established':<14}{'disruptive':<22}{'crossover':>10}{'share %':>9}"
        f"{'peak':>7}{'end':>7}{'DP':>5}"
    )
    lines = ["Crossovers and disruption periods", header]
    for row in report.table3:
        cross = row.crossover
        if cross is None:
            year, share = "none", ""
        elif cross.boundary:
            year, share = "n.a.", f"({cross.established_share:.2f})"
        else:
            year, share = str(cross.year), f"{cross.established_share:.2f}"
        ev = row.events
        end = "" if ev.z_year is None else f"{ev.z_year}{'*' if ev.censored else ''}"
        dp = "" if row.disruption_period is None else str(row.disruption_period)
        lines.append(
            f"{row.established:<14}{row.disruptive:<22}{year:>10}{share:>9}"
            f"{'' if ev.m_year is None else ev.m_year:>7}{end:>7}{dp:>5}"
        )
    lines.append("")
    agg = report.table3_aggregate
    for column, label, unit in (("share", "Mean established share at crossover", "%"),
                                ("dp", "Mean disruption period", " years")):
        if agg.mean[column] is not None:
            sd = "" if agg.sd[column] is None else f"  (SD {agg.sd[column]:.2f})"
            lines.append(f"{label}: {agg.mean[column]:.2f}{unit}{sd}")
    lines.append("n.a. = crossover already in force at the first comparable year")
    lines.append("*   = final data year, revenues still above the end threshold")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ table4

def table4_to_mapping(summaries, agg: CycleAggregate) -> dict:
    rows = [
        {
            "technology": summary.events.technology,
            "a_year": summary.events.a_year,
            "m_year": summary.events.m_year,
            "z_year": summary.events.z_year,
            "z_censored": summary.events.censored,
            "up_wave_years": summary.am,
            "down_wave_years": summary.mz,
            "cycle_years": summary.az,
            "up_share_pct": summary.up_share,
            "down_share_pct": summary.down_share,
        }
        for summary in summaries
    ]
    aggregate = {
        "mean_up_wave": agg.mean["am"],
        "mean_down_wave": agg.mean["mz"],
        "mean_cycle": agg.mean["az"],
        "sd_up_wave": agg.sd["am"],
        "sd_down_wave": agg.sd["mz"],
        "sd_cycle": agg.sd["az"],
        "mean_up_share_pct": agg.mean["up_share"],
        "mean_down_share_pct": agg.mean["down_share"],
        "n_per_column": dict(agg.n),
    }
    return {"rows": rows, "aggregate": aggregate}


def render_table4_text(summaries, agg: CycleAggregate) -> str:
    header = (
        f"{'technology':<12}{'A':>6}{'M':>7}{'Z':>7}{'AM':>8}{'MZ':>8}{'AZ':>8}"
        f"{'up %':>9}{'down %':>9}"
    )
    lines = ["Technology cycles", header]

    def cell(value, censored=False):
        if value is None:
            return "*"
        return f"{value}{'*' if censored else ''}"

    for summary in summaries:
        ev = summary.events
        lines.append(
            f"{ev.technology:<12}{ev.a_year:>6}{cell(ev.m_year):>7}"
            f"{cell(ev.z_year, ev.censored):>7}"
            f"{cell(summary.am):>8}{cell(summary.mz):>8}{cell(summary.az):>8}"
            f"{'*' if summary.up_share is None else f'{summary.up_share:.2f}':>9}"
            f"{'*' if summary.down_share is None else f'{summary.down_share:.2f}':>9}"
        )
    lines.append("")

    def opt(value):
        return "" if value is None else f"{value:.2f}"

    lines.append(
        f"{'mean':<12}{'':>6}{'':>7}{'':>7}{opt(agg.mean['am']):>8}{opt(agg.mean['mz']):>8}"
        f"{opt(agg.mean['az']):>8}{opt(agg.mean['up_share']):>9}{opt(agg.mean['down_share']):>9}"
    )
    lines.append(
        f"{'SD':<12}{'':>6}{'':>7}{'':>7}{opt(agg.sd['am']):>8}{opt(agg.sd['mz']):>8}"
        f"{opt(agg.sd['az']):>8}{'':>9}{'':>9}"
    )
    lines.append("")
    lines.append("* = event still in progress at the end of the data")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ files

def write_report(report: MarketReport, dataset: Dataset, out_dir: str | Path, fmt: str) -> list[Path]:
    """Write table1..table4 plus per-technology plot series; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    written: list[Path] = []

    tables = {
        "table1": (fit_to_mapping(report.table1), render_fit_text(report.table1)),
        "table2": (fit_to_mapping(report.table2), render_fit_text(report.table2)),
        "table3": (
            {
                "rows": [pair_to_mapping(row) for row in report.table3],
                "share_mean_pct": report.table3_aggregate.mean["share"],
                "share_sd_pct": report.table3_aggregate.sd["share"],
                "dp_mean_years": report.table3_aggregate.mean["dp"],
                "dp_sd_years": report.table3_aggregate.sd["dp"],
            },
            render_table3_text(report),
        ),
        "table4": (
            table4_to_mapping(report.table4, report.table4_aggregate),
            render_table4_text(report.table4, report.table4_aggregate),
        ),
    }
    for name, (mapping, text) in tables.items():
        path = out / f"{name}.{_ext(fmt)}"
        path.write_text(render(fmt, mapping, text), encoding="utf-8")
        written.append(path)

    for name in sorted(dataset.series):
        path = plots / f"{name}.csv"
        path.write_text(series_to_csv(dataset.series[name], "revenue_real_musd"), encoding="utf-8")
        written.append(path)
    return written


def series_to_csv(series: RevenueSeries, column: str) -> str:
    """``year,<column>`` CSV of a series, values at full precision."""
    rows = [f"year,{column}"] + [f"{year},{value!r}" for year, value in series.points.items()]
    return "\n".join(rows) + "\n"


def _ext(fmt: str) -> str:
    return {"text": "txt", "csv": "csv", "json": "json"}.get(fmt, fmt)


def render(fmt: str, mapping: dict, text: str) -> str:
    """One result in the requested output format: its mapping or its text."""
    if fmt == "json":
        # JSON has no inf or nan; the round trip writes each as null
        finite = json.loads(json.dumps(mapping), parse_constant=lambda _: None)
        return json.dumps(finite, indent=2) + "\n"
    if fmt == "csv":
        return mapping_to_csv(mapping)
    if fmt == "text":
        return text
    raise TechCycleError(f"unknown output format {fmt!r}")


def mapping_to_csv(mapping: dict) -> str:
    """Flatten a report mapping to CSV; row lists become tables, scalars dotted-key/value pairs."""
    lines: list[str] = []
    pending = list(mapping.items())
    if "rows" in mapping and isinstance(mapping["rows"], list) and mapping["rows"]:
        columns = list(mapping["rows"][0])
        lines.append(",".join(columns))
        for row in mapping["rows"]:
            lines.append(",".join(_csv_cell(row[c]) for c in columns))
        lines.append("")
        pending = [(k, v) for k, v in pending if k != "rows"]
    lines.append("key,value")
    while pending:
        key, value = pending.pop(0)
        if isinstance(value, dict):  # its entries come next, at any depth
            pending[:0] = [(f"{key}.{sub}", subvalue) for sub, subvalue in value.items()]
        else:
            lines.append(f"{key},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text
