"""Command-line interface.

Subcommands: validate, fit, cycles, crossover, simulate, report.
Every table quantity comes from report.py: `cycles` prints Table 4 and
`crossover` prints one Table 3 row, under the same reference config
(--config) that `report` reads, and all output goes through one renderer.
Exit codes: 0 success (including benign empty results and a reader that
closed stdout early), 2 input error, 3 insufficient data for the requested
estimate.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import report as report_mod
from .config import (default_data_dir, load_reference, parse_window_spec, read_kv_file,
                     shared_technology)

# Not called here (report.py computes the cycle events and Tables 3 and 4);
# imported only because perfbench/tracing.py looks these names up in this
# module, and its test's _originals has no getattr default.
from .cycle import aggregate_cycles, crossover_year, cycle_metrics, detect_events  # noqa: F401
from .errors import InsufficientDataError, TechCycleError, located
from .growth import fit_substitution
from .market_data import BASE_YEAR
from .synthlab import generate_scenario, recovery_experiment, scenario_from_mapping

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early; point stdout at devnull so the interpreter's
        # final flush of what is still buffered does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (TechCycleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="techcycle",
        description="Technology substitution fits and lifecycle analytics "
        "over per-format revenue data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        data_dir = default_data_dir()
        p.add_argument("--data", default=str(data_dir / "riaa_revenue.csv"),
                       help="revenue CSV (default: bundled dataset)")
        p.add_argument("--cpi", default=str(data_dir / "cpi.csv"),
                       help=f"CPI CSV 'year,index' (default: bundled); nominal-only rows are "
                       f"deflated to {BASE_YEAR} dollars with it, so it must list {BASE_YEAR}")
        p.add_argument("--groups", default=str(data_dir / "groups.cfg"),
                       help="technology grouping config (default: bundled)")

    def add_format_flag(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                       help="output format (default text)")

    def add_config_flag(p):
        p.add_argument("--config", default=str(default_data_dir() / "reference.cfg"),
                       help="reference config (default: bundled reference.cfg)")

    p = sub.add_parser("validate", help="parse and sanity-check a dataset")
    add_data_flags(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("fit", help="fit the substitution exponent for one pair")
    add_data_flags(p)
    add_format_flag(p)
    p.add_argument("--old", required=True, help="established technology")
    p.add_argument("--new", required=True, help="disruptive technology")
    p.add_argument("--window", default="auto", help="Y1:Y2 or 'auto' (default)")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("cycles", help="lifecycle table for every technology")
    add_data_flags(p)
    add_format_flag(p)
    add_config_flag(p)
    p.set_defaults(handler=cmd_cycles)

    p = sub.add_parser("crossover", help="first year a disruptor takes half the pair")
    add_data_flags(p)
    add_format_flag(p)
    add_config_flag(p)
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.set_defaults(handler=cmd_crossover)

    p = sub.add_parser("simulate", help="run a synthetic dual-logistic scenario")
    add_format_flag(p)
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--window", default=None, help="explicit fit window Y1:Y2")
    p.add_argument("--out", default=None, help="directory for generated series CSV")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("report", help="write the full analysis tables and plot series")
    add_data_flags(p)
    add_format_flag(p)
    add_config_flag(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_report)

    return parser


def _load_inputs(args):
    """The dataset and the reference config of a subcommand that takes --config."""
    return report_mod.load_dataset(args.data, args.cpi, args.groups), load_reference(args.config)


def _emit(args, mapping: dict, text: str) -> None:
    print(report_mod.render(args.format, mapping, text), end="")


def cmd_validate(args) -> int:
    dataset = report_mod.load_dataset(args.data, args.cpi, args.groups)
    formats = sorted({r.format for r in dataset.records})
    grouped = {fmt for g in dataset.groups for fmt in g.formats}
    ungrouped = [fmt for fmt in formats if fmt not in grouped]
    print(f"records: {len(dataset.records)}")
    print(f"formats: {len(formats)}")
    print(f"years: {min(r.year for r in dataset.records)}-{max(r.year for r in dataset.records)}")
    print(f"technologies: {', '.join(s for s in dataset.series)}")
    for name, series in dataset.series.items():
        gaps = series.gap_years
        if gaps:
            print(f"note: {name} has gap years {gaps}")
    if ungrouped:
        print(f"note: formats in no group: {', '.join(ungrouped)}")
    print("ok")
    return EXIT_OK


def _pair(args, dataset):
    """The ``--old`` and ``--new`` series; a technology cannot replace itself."""
    old, new = dataset.series_for(args.old), dataset.series_for(args.new)
    if shared := shared_technology(args.old, args.new):
        raise TechCycleError(f"--old and --new both name {shared!r}")
    return old, new


def cmd_fit(args) -> int:
    dataset = report_mod.load_dataset(args.data, args.cpi, args.groups)
    window = parse_window_spec(args.window)
    old, new = _pair(args, dataset)
    fit = fit_substitution(new, old, window=window)
    _emit(args, report_mod.fit_to_mapping(fit), report_mod.render_fit_text(fit))
    return EXIT_OK


def cmd_cycles(args) -> int:
    dataset, ref = _load_inputs(args)
    with located(args.config):
        events = report_mod.cycle_events(dataset, ref)
    summaries, aggregate = report_mod.cycle_table(events)
    _emit(
        args,
        report_mod.table4_to_mapping(summaries, aggregate),
        report_mod.render_table4_text(summaries, aggregate),
    )
    return EXIT_OK


def cmd_crossover(args) -> int:
    dataset, ref = _load_inputs(args)
    with located(args.config):
        events = report_mod.cycle_events(dataset, ref)
    old, new = _pair(args, dataset)
    with located(args.config):
        row = report_mod.table3(dataset, ref, events, last=(old.technology, new.technology))[-1]
    cross = row.crossover
    if cross is None:
        text = "no crossover in data\n"
    else:
        if row.dp_note is None:
            end = f"{row.events.z_year}{'*' if row.events.censored else ''}"
            dp = f"{row.disruption_period} years (peak {row.events.m_year}, end {end})"
        else:
            dp = f"not counted ({row.dp_note})"
        text = (
            f"crossover year: {cross.year}"
            f"{' (already in force at first comparable year)' if cross.boundary else ''}\n"
            f"established share: {cross.established_share:.2f}%\n"
            f"disruption period: {dp}\n"
        )
    _emit(args, report_mod.pair_to_mapping(row), text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    values = read_kv_file(args.scenario)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    with located(args.scenario):
        scenario = scenario_from_mapping(values)
    window = parse_window_spec(args.window) if args.window else None
    result = recovery_experiment(scenario, window=window)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for series in generate_scenario(scenario):
            path = out / f"{series.technology}.csv"
            path.write_text(report_mod.series_to_csv(series, "level"), encoding="utf-8")
    mapping = {
        "b_theoretical": result.b_theoretical,
        "b_fitted": result.b_fitted,
        "abs_gap": result.abs_gap,
        "window_first": result.window_used[0],
        "window_last": result.window_used[1],
        "saturation_level": result.saturation_level,
        "seed": scenario.seed,
    }
    text = (
        f"theoretical exponent (rate ratio): {result.b_theoretical:.4f}\n"
        f"fitted exponent:                   {result.b_fitted:.4f}\n"
        f"absolute gap:                      {result.abs_gap:.4f}\n"
        f"window: {result.window_used[0]}-{result.window_used[1]}   "
        f"max level/capacity in window: {result.saturation_level:.4f}\n"
    )
    _emit(args, mapping, text)
    return EXIT_OK


def cmd_report(args) -> int:
    dataset, ref = _load_inputs(args)
    with located(args.config):
        market = report_mod.build_report(dataset, ref)
    written = report_mod.write_report(market, dataset, args.out, args.format)
    for path in written:
        print(f"wrote {path}")
    dp_mean = market.table3_aggregate.mean["dp"]
    if dp_mean is not None:
        print(f"mean disruption period: {dp_mean:.2f} years")
    up, down = market.table4_aggregate.mean["up_share"], market.table4_aggregate.mean["down_share"]
    if up is not None and down is not None:
        print(f"cycle asymmetry: up wave {up:.2f}% of cycle, down wave {down:.2f}%")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
