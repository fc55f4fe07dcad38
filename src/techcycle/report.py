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
from .config import ReferenceConfig, load_cpi_csv, load_groups, load_revenue_csv
from .cycle import (
    CrossoverResult,
    CycleAggregate,
    CycleSummary,
    _mean,
    _sample_sd,
    aggregate_cycles,
    crossover_year,
    cycle_metrics,
    detect_events,
    disruption_period,
)
from .errors import ConfigError, DomainError
from .growth import SubstitutionFit, fit_substitution
from .market_data import (
    CpiTable,
    RevenueRecord,
    RevenueSeries,
    TechnologyGroup,
    adjust_inflation,
    aggregate_group,
    merge_series,
)
from .regress import significance_stars

__all__ = ["Dataset", "PairRow", "MarketReport", "load_dataset", "build_report"]


@frozen
class Dataset:
    """Parsed inputs plus one constant-dollar series per technology."""

    records: tuple[RevenueRecord, ...]
    cpi: CpiTable
    groups: tuple[TechnologyGroup, ...]
    series: dict[str, RevenueSeries]
    base_year: int

    def series_for(self, combo: str) -> RevenueSeries:
        """Resolve a technology name, or a '+'-joined combination."""
        names = [part.strip() for part in combo.split("+") if part.strip()]
        missing = [name for name in names if name not in self.series]
        if missing:
            known = ", ".join(sorted(self.series))
            raise KeyError(f"unknown technology {missing[0]!r}; known: {known}")
        if len(names) == 1:
            return self.series[names[0]]
        return merge_series("+".join(names), [self.series[name] for name in names])


def load_dataset(
    data_path: str | Path,
    cpi_path: str | Path,
    groups_path: str | Path,
    base_year: int = 2018,
) -> Dataset:
    records = load_revenue_csv(data_path)
    cpi = load_cpi_csv(cpi_path, base_year=base_year)
    groups = load_groups(groups_path)
    adjusted = adjust_inflation(records, cpi, base_year)
    series = {g.name: aggregate_group(adjusted, g, base_year) for g in groups}
    return Dataset(
        records=tuple(records),
        cpi=cpi,
        groups=tuple(groups),
        series=series,
        base_year=base_year,
    )


@frozen
class PairRow:
    """One established/disruptive pairing in the crossover table."""

    established: str
    disruptive: str
    crossover: CrossoverResult | None
    peak_year: int | None
    end_year: int | None
    end_censored: bool
    disruption_period: int | None
    dp_note: str | None = None  # why disruption_period is None


@frozen
class MarketReport:
    """Everything `report` writes: two fits, the pair table, the cycle table."""

    table1: SubstitutionFit
    table2: SubstitutionFit
    table3: tuple[PairRow, ...]
    share_mean: float | None
    share_sd: float | None
    dp_mean: float | None
    dp_sd: float | None
    table4: tuple[CycleSummary, ...]
    table4_aggregate: CycleAggregate
    labels: dict[str, str]


def _events(ref: ReferenceConfig, name: str, series: RevenueSeries):
    """A technology's cycle events under the config's end threshold and begin year."""
    return detect_events(
        series, end_threshold_rel=ref.end_threshold_rel, a_override=ref.a_overrides.get(name)
    )


def pair_row(
    dataset: Dataset, ref: ReferenceConfig, old: str, new: str, counted: set[str]
) -> PairRow:
    """Crossover and disruption period (DP) of one Table 3 pairing.

    A DP is counted for a crossover inside the data, once per established
    technology (``counted`` gains ``old`` when this row counts it), and only
    once its revenue has ended and fallen to ``dp_residual_max`` of its peak.
    """
    established = dataset.series_for(old)
    try:
        crossover = crossover_year(established, dataset.series_for(new))
    except DomainError:
        crossover = None
    events = _events(ref, old, established)
    peak = max(established.points.values())
    latest = established.points[established.last_year]
    if crossover is None:
        note = "no crossover in data"
    elif crossover.boundary:
        note = "boundary crossover, earlier years unobserved"
    elif old in counted:
        note = f"already counted for {old} in an earlier pair"
    elif events.m_year is None or events.z_year is None:
        note = f"{old} has no peak and end in the data"
    elif latest > ref.dp_residual_max * peak:
        note = f"{old} still at {100.0 * latest / peak:.2f}% of peak, above dp_residual_max"
    else:
        note = None
        counted.add(old)
    return PairRow(
        established=old,
        disruptive=new,
        crossover=crossover,
        peak_year=events.m_year,
        end_year=events.z_year,
        end_censored=events.censored,
        disruption_period=None if note else disruption_period(events),
        dp_note=note,
    )


def table3(
    dataset: Dataset, ref: ReferenceConfig, last: tuple[str, str] | None = None
) -> list[PairRow]:
    """Table 3: the config's pairs, else each group and the next.

    With ``last``, the rows up to that pair, or that pair alone if unlisted.
    """
    if ref.table3_pairs:
        pairs = [(old, "+".join(new)) for old, new in ref.table3_pairs]
    else:
        pairs = [(old.name, new.name) for old, new in zip(dataset.groups, dataset.groups[1:])]
    if last is not None:
        pairs = pairs[: pairs.index(last) + 1] if last in pairs else [last]
    counted: set[str] = set()
    return [pair_row(dataset, ref, old, new, counted) for old, new in pairs]


def cycle_table(
    dataset: Dataset, ref: ReferenceConfig
) -> tuple[list[CycleSummary], CycleAggregate]:
    """Table 4: every group's cycle summary, in group order, and their aggregate."""
    summaries = [
        cycle_metrics(_events(ref, group.name, dataset.series[group.name]))
        for group in dataset.groups
    ]
    return summaries, aggregate_cycles(summaries)


def build_report(dataset: Dataset, ref: ReferenceConfig) -> MarketReport:
    table1 = fit_substitution(
        dataset.series_for(ref.table1_new),
        dataset.series_for(ref.table1_old),
        window=ref.table1_window,
        tolerance=ref.regime_tolerance,
    )
    table2 = fit_substitution(
        dataset.series_for(ref.table2_new),
        dataset.series_for(ref.table2_old),
        window=ref.table2_window,
        tolerance=ref.regime_tolerance,
    )
    rows = table3(dataset, ref)
    shares = [
        row.crossover.established_share
        for row in rows
        if row.crossover is not None and not row.crossover.boundary
    ]
    dps = [float(row.disruption_period) for row in rows if row.disruption_period is not None]
    summaries, aggregate = cycle_table(dataset, ref)
    return MarketReport(
        table1=table1,
        table2=table2,
        table3=tuple(rows),
        share_mean=_mean(shares),
        share_sd=_sample_sd(shares),
        dp_mean=_mean(dps),
        dp_sd=_sample_sd(dps),
        table4=tuple(summaries),
        table4_aggregate=aggregate,
        labels={
            "table1": f"{ref.table1_new} vs {ref.table1_old}",
            "table2": f"{ref.table2_new} vs {ref.table2_old}",
        },
    )


# ------------------------------------------------------------------ fits

def fit_to_mapping(fit: SubstitutionFit, label: str) -> dict:
    ols = fit.fit
    return {
        "pair": label,
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


def render_fit_text(fit: SubstitutionFit, label: str) -> str:
    ols = fit.fit
    lines = [
        f"Substitution fit: {label}",
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
        "peak_year": row.peak_year,
        "end_year": row.end_year,
        "end_censored": row.end_censored,
        "disruption_period_years": row.disruption_period,
    }


def table3_to_rows(report: MarketReport) -> list[dict]:
    return [pair_to_mapping(row) for row in report.table3]


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
        end = "" if row.end_year is None else f"{row.end_year}{'*' if row.end_censored else ''}"
        dp = "" if row.disruption_period is None else str(row.disruption_period)
        lines.append(
            f"{row.established:<14}{row.disruptive:<22}{year:>10}{share:>9}"
            f"{'' if row.peak_year is None else row.peak_year:>7}{end:>7}{dp:>5}"
        )
    lines.append("")
    if report.share_mean is not None:
        sd = "" if report.share_sd is None else f"  (SD {report.share_sd:.2f})"
        lines.append(f"Mean established share at crossover: {report.share_mean:.2f}%{sd}")
    if report.dp_mean is not None:
        sd = "" if report.dp_sd is None else f"  (SD {report.dp_sd:.2f})"
        lines.append(f"Mean disruption period: {report.dp_mean:.2f} years{sd}")
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
        "mean_up_wave": agg.mean_am,
        "mean_down_wave": agg.mean_mz,
        "mean_cycle": agg.mean_az,
        "sd_up_wave": agg.sd_am,
        "sd_down_wave": agg.sd_mz,
        "sd_cycle": agg.sd_az,
        "mean_up_share_pct": agg.mean_up_share,
        "mean_down_share_pct": agg.mean_down_share,
        "n_per_column": dict(agg.n_per_column),
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
        f"{'mean':<12}{'':>6}{'':>7}{'':>7}{opt(agg.mean_am):>8}{opt(agg.mean_mz):>8}"
        f"{opt(agg.mean_az):>8}{opt(agg.mean_up_share):>9}{opt(agg.mean_down_share):>9}"
    )
    lines.append(
        f"{'SD':<12}{'':>6}{'':>7}{'':>7}{opt(agg.sd_am):>8}{opt(agg.sd_mz):>8}"
        f"{opt(agg.sd_az):>8}{'':>9}{'':>9}"
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

    labels = report.labels
    tables = {
        "table1": (
            fit_to_mapping(report.table1, labels["table1"]),
            render_fit_text(report.table1, labels["table1"]),
        ),
        "table2": (
            fit_to_mapping(report.table2, labels["table2"]),
            render_fit_text(report.table2, labels["table2"]),
        ),
        "table3": (
            {
                "rows": table3_to_rows(report),
                "share_mean_pct": report.share_mean,
                "share_sd_pct": report.share_sd,
                "dp_mean_years": report.dp_mean,
                "dp_sd_years": report.dp_sd,
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
        path = plots / f"{_safe(name)}.csv"
        path.write_text(series_to_csv(dataset.series[name], "revenue_real_musd"), encoding="utf-8")
        written.append(path)
    return written


def series_to_csv(series: RevenueSeries, column: str) -> str:
    """``year,<column>`` CSV of a series, values at full precision."""
    rows = [f"year,{column}"] + [f"{year},{value!r}" for year, value in series.points.items()]
    return "\n".join(rows) + "\n"


def _ext(fmt: str) -> str:
    return {"text": "txt", "csv": "csv", "json": "json"}.get(fmt, fmt)


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def render(fmt: str, mapping: dict, text: str) -> str:
    """One result in the requested output format: its mapping or its text."""
    if fmt == "json":
        return json.dumps(mapping, indent=2) + "\n"
    if fmt == "csv":
        return mapping_to_csv(mapping)
    if fmt == "text":
        return text
    raise ConfigError(f"unknown output format {fmt!r}")


def mapping_to_csv(mapping: dict) -> str:
    """Flatten a report mapping to CSV; row lists become tables, scalars key/value pairs."""
    lines: list[str] = []
    if "rows" in mapping and isinstance(mapping["rows"], list) and mapping["rows"]:
        columns = list(mapping["rows"][0])
        lines.append(",".join(columns))
        for row in mapping["rows"]:
            lines.append(",".join(_csv_cell(row[c]) for c in columns))
        lines.append("")
        scalars = {k: v for k, v in mapping.items() if k != "rows"}
    else:
        scalars = mapping
    lines.append("key,value")
    for key, value in scalars.items():
        if isinstance(value, dict):
            for sub, subvalue in value.items():
                lines.append(f"{key}.{sub},{_csv_cell(subvalue)}")
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
