"""Command-line interface.

Subcommands: validate, fit, cycles, crossover, simulate, report.  Inputs are
named only by their flags (--data, --cpi, --groups, --config, --scenario),
each defaulting to its bundled file.  Every table quantity comes from
report.py, which renders `fit`, `cycles`, `crossover` and `simulate` output
(Table 4 and one Table 3 row under the --config that `report` reads) and
writes every file; `validate`'s lines and `report`'s summary lines are built
here.  Each handler returns its text and `main` prints it once.  Exit codes:
0 success (including benign empty results and a reader that closed stdout
early), 2 input error, 3 insufficient data for the requested estimate.
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
    args = build_parser().parse_args(argv)
    try:
        print(args.handler(args), end="", flush=True)
    except BrokenPipeError:
        # The reader left early; point stdout at devnull so the interpreter's
        # final flush of what is still buffered does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (TechCycleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT if isinstance(exc, InsufficientDataError) else EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="techcycle",
        description="Technology substitution fits and lifecycle analytics "
        "over per-format revenue data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data_dir = default_data_dir()
    data, fmt, config = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    data.add_argument("--data", default=str(data_dir / "riaa_revenue.csv"),
                      help="revenue CSV (default: bundled dataset)")
    data.add_argument("--cpi", default=str(data_dir / "cpi.csv"),
                      help=f"CPI CSV 'year,index' (default: bundled); nominal-only rows are "
                      f"deflated to {BASE_YEAR} dollars with it, so it must list {BASE_YEAR}")
    data.add_argument("--groups", default=str(data_dir / "groups.cfg"),
                      help="technology grouping config (default: bundled)")
    fmt.add_argument("--format", choices=report_mod.FORMATS, default="text",
                     help="output format (default text)")
    config.add_argument("--config", default=str(data_dir / "reference.cfg"),
                        help="reference config (default: bundled reference.cfg)")

    p = sub.add_parser("validate", help="parse and sanity-check a dataset", parents=[data])
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("fit", help="fit the substitution exponent for one pair", parents=[data, fmt])
    p.add_argument("--old", required=True, help="established technology")
    p.add_argument("--new", required=True, help="disruptive technology")
    p.add_argument("--window", default="auto", help="Y1:Y2 or 'auto' (default)")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("cycles", help="lifecycle table for every technology",
                       parents=[data, fmt, config])
    p.set_defaults(handler=cmd_cycles)

    p = sub.add_parser("crossover", help="first year a disruptor takes half the pair",
                       parents=[data, fmt, config])
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.set_defaults(handler=cmd_crossover)

    p = sub.add_parser("simulate", help="run a synthetic dual-logistic scenario", parents=[fmt])
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--window", default=None, help="explicit fit window Y1:Y2")
    p.add_argument("--out", default=None, help="directory for generated series CSV")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("report", help="write the full analysis tables and plot series",
                       parents=[data, fmt, config])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_report)

    return parser


def _load_inputs(args):
    """The dataset and the reference config of a subcommand that takes --config."""
    return report_mod.load_dataset(args.data, args.cpi, args.groups), load_reference(args.config)


def cmd_validate(args) -> str:
    dataset = report_mod.load_dataset(args.data, args.cpi, args.groups)
    formats = sorted({r.format for r in dataset.records})
    grouped = {fmt for g in dataset.groups for fmt in g.formats}
    ungrouped = [fmt for fmt in formats if fmt not in grouped]
    years = [r.year for r in dataset.records]
    lines = [
        f"records: {len(dataset.records)}",
        f"formats: {len(formats)}",
        f"years: {min(years)}-{max(years)}",
        f"technologies: {', '.join(dataset.series)}",
        *(f"note: {name} has gap years {series.gap_years}"
          for name, series in dataset.series.items() if series.gap_years),
    ]
    if ungrouped:
        lines.append(f"note: formats in no group: {', '.join(ungrouped)}")
    return "\n".join([*lines, "ok"]) + "\n"


def _pair(args, dataset):
    """The ``--old`` and ``--new`` series; a technology cannot replace itself."""
    old, new = dataset.series_for(args.old), dataset.series_for(args.new)
    if shared := shared_technology(args.old, args.new):
        raise TechCycleError(f"--old and --new both name {shared!r}")
    return old, new


def cmd_fit(args) -> str:
    dataset = report_mod.load_dataset(args.data, args.cpi, args.groups)
    window = parse_window_spec(args.window)
    old, new = _pair(args, dataset)
    fit = fit_substitution(new, old, window=window)
    return report_mod.render(args.format, report_mod.fit_to_mapping(fit),
                             report_mod.render_fit_text(fit))


def cmd_cycles(args) -> str:
    dataset, ref = _load_inputs(args)
    with located(args.config):
        events = report_mod.cycle_events(dataset, ref)
    summaries, aggregate = report_mod.cycle_table(events)
    return report_mod.render(args.format, report_mod.table4_to_mapping(summaries, aggregate),
                             report_mod.render_table4_text(summaries, aggregate))


def cmd_crossover(args) -> str:
    dataset, ref = _load_inputs(args)
    with located(args.config):
        events = report_mod.cycle_events(dataset, ref)
    old, new = _pair(args, dataset)
    with located(args.config):
        row = report_mod.table3(dataset, ref, events, last=(old.technology, new.technology))[-1]
    return report_mod.render(args.format, report_mod.pair_to_mapping(row),
                             report_mod.render_pair_text(row))


def cmd_simulate(args) -> str:
    values = read_kv_file(args.scenario)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    with located(args.scenario):
        scenario = scenario_from_mapping(values)
    window = parse_window_spec(args.window) if args.window else None
    result = recovery_experiment(scenario, window=window)
    if args.out:
        report_mod.write_files({
            Path(args.out) / f"{series.technology}.csv": report_mod.series_to_csv(series, "level")
            for series in generate_scenario(scenario)
        })
    return report_mod.render(args.format, report_mod.recovery_to_mapping(result, scenario.seed),
                             report_mod.render_recovery_text(result))


def cmd_report(args) -> str:
    dataset, ref = _load_inputs(args)
    with located(args.config):
        market = report_mod.build_report(dataset, ref)
    written = report_mod.write_report(market, dataset, args.out, args.format)
    lines = [f"wrote {path}" for path in written]
    dp_mean = market.table3_aggregate.mean["dp"]
    if dp_mean is not None:
        lines.append(f"mean disruption period: {dp_mean:.2f} years")
    up, down = market.table4_aggregate.mean["up_share"], market.table4_aggregate.mean["down_share"]
    if up is not None and down is not None:
        lines.append(f"cycle asymmetry: up wave {up:.2f}% of cycle, down wave {down:.2f}%")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
