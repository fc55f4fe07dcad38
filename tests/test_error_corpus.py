"""Pinned errors of the package on a fixed corpus of bad inputs.

The corpus is the one place that pins each package error.  Every ``raise``
of a package error class in ``techcycle`` starts at least one case: in
``CLI`` when the command line reaches it, and in ``LIBRARY`` otherwise;
a guard test traces the corpus and fails on a site that no case starts.

``CLI`` states the exit code and the whole of stderr of each CLI error that
reaches ``main``'s handlers (argparse usage errors exit 2 before them), the
unknown-technology path and the pair with no comparable year.  Each case
writes its files under a temporary directory, runs ``main()`` in-process
and compares the exit code and the whole of stderr; a case that fails must
also leave stdout empty.  ``{tmp}`` and ``{data}`` in the pinned text stand
for that directory and the bundled data directory.  A change to any message
or exit code here is a change to the CLI's contract, and says so in
CHANGES.md.

``LIBRARY`` states the exact exception class and the whole message of a
library call; ``main`` gives each class its exit code, as
``test_error_class_maps_to_its_exit_code`` checks.
"""

import ast
import math
import os
import sys
from pathlib import Path

import pytest

from techcycle import cli, errors
from techcycle.cli import main
from techcycle.config import default_data_dir
from techcycle.cycle import (
    CrossoverResult,
    aggregate_cycles,
    cycle_metrics,
    detect_events,
)
from techcycle.errors import InsufficientDataError, TechCycleError, WindowError
from techcycle.growth import LogisticParams, fit_logistic, fit_substitution
from techcycle.market_data import (
    CpiTable,
    RevenueRecord,
    TechnologyGroup,
    aggregate_group,
    merge_series,
)
from techcycle.regress import ols_simple, t_p_value
from techcycle.report import render
from techcycle.synthlab import SyntheticScenario, recovery_experiment

from builders import data_flags, dataset_files, events, series, write_files

DATA = default_data_dir()
SCENARIO = str(DATA / "scenarios" / "dual_logistic_demo.cfg")
REFERENCE = (DATA / "reference.cfg").read_text()
KNOWN = "8-track, cassette, cd, download, streaming, vinyl"
TINY = data_flags("{tmp}")


def reference(key: str, line: str) -> dict:
    """The bundled reference config with the ``key`` line replaced by ``line``."""
    lines = [line if old.startswith(f"{key} =") else old for old in REFERENCE.splitlines()]
    return {"r.cfg": "\n".join(lines) + "\n"}


def spliced(name: str) -> bytes:
    """A bundled file with one byte that is not UTF-8 at offset 40."""
    text = (DATA / name).read_bytes()
    return text[:40] + b"\xff" + text[40:]


def oversized(name: str) -> str:
    return (DATA / name).read_text() + "2000," + "9" * 200_000 + "\n"


def non_finite(column: str, cell: str) -> dict:
    row = {"revenue_nominal_musd": "10.0", "revenue_real_musd": "", "units_m": "", column: cell}
    return dataset_files("2000,Old," + ",".join(row.values()) + "\n")


# what each subcommand needs besides --config
EXTRA = {"cycles": [], "report": ["--out", "{tmp}/out"],
         "crossover": ["--old", "download", "--new", "streaming"]}

# id -> (argv, files to write under {tmp}, exit code, stderr)
CLI = {
    # malformed files, config values, scenarios and flag values
    "empty-data": (
        ["validate", "--data", "{tmp}/empty.csv"], {"empty.csv": ""}, 2,
        "error: {tmp}/empty.csv: empty input: missing header row\n",
    ),
    "broken-header": (
        ["validate", "--data", "{tmp}/bad.csv"], {"bad.csv": "year,format\n"}, 2,
        "error: {tmp}/bad.csv: unexpected header ['year', 'format']; "
        "expected year,format,revenue_nominal_musd,revenue_real_musd,units_m\n",
    ),
    **{
        f"non-finite-{column}-{cell}": (
            ["validate", *TINY], non_finite(column, cell), 2,
            f"error: {{tmp}}/data.csv: row 1: {column} must be a finite number, got {cell!r}\n",
        )
        for column in ("revenue_nominal_musd", "revenue_real_musd", "units_m")
        for cell in ("nan", "inf", "-Infinity")
    },
    **{
        f"non-utf8-{name}": (
            [*argv, "{tmp}/input"], {"input": spliced(name)}, 2,
            "error: {tmp}/input: byte 40 (0xff) is not UTF-8\n",
        )
        for name, argv in (
            ("riaa_revenue.csv", ["validate", "--data"]),
            ("cpi.csv", ["validate", "--cpi"]),
            ("reference.cfg", ["cycles", "--config"]),
            ("scenarios/dual_logistic_demo.cfg", ["simulate", "--scenario"]),
        )
    },
    "oversized-data": (
        ["validate", "--data", "{tmp}/big.csv"], {"big.csv": oversized("riaa_revenue.csv")}, 2,
        "error: {tmp}/big.csv: line 328: field larger than field limit (131072)\n",
    ),
    "oversized-cpi": (
        ["validate", "--cpi", "{tmp}/big.csv"], {"big.csv": oversized("cpi.csv")}, 2,
        "error: {tmp}/big.csv: line 49: field larger than field limit (131072)\n",
    ),
    "revenue-cell": (
        ["validate", "--data", "{tmp}/data.csv"],
        {"data.csv": (DATA / "riaa_revenue.csv").read_text() + "2000,CD,-,,\n"}, 2,
        "error: {tmp}/data.csv: row 327, column revenue_nominal_musd: '-' is not a number\n",
    ),
    **{
        f"self-pair-{command}-{label}": (
            [command, "--old", "cd", "--new", new], {}, 2,
            "error: --old and --new both name 'cd'\n",
        )
        for command in ("fit", "crossover")
        for new, label in (("cd", "cd"), (" cd", "space-cd"), ("cd+", "cd-plus"))
    },
    "unknown-technology": (
        ["fit", "--old", "betamax", "--new", "cd"], {}, 2,
        f"error: unknown technology 'betamax'; known: {KNOWN}\n",
    ),
    "short-window": (
        ["fit", "--old", "cassette", "--new", "cd", "--window", "1990:1991"], {}, 3,
        "error: window 1990:1991 has 2 usable years; need >= 3\n",
    ),
    **{
        f"config-{line.replace(' ', '')}": (
            [command, "--config", "{tmp}/r.cfg", *EXTRA[command]],
            reference(line.split()[0], line), 2, f"error: {{tmp}}/r.cfg: {message}\n",
        )
        for command, line, message in (
            ("cycles", "end_threshold_rel = nan", "end_threshold_rel: nan is not in (0, 1)"),
            ("cycles", "end_threshold_rel = 1", "end_threshold_rel: 1.0 is not in (0, 1)"),
            ("report", "table3_pairs = cd:cd",
             "table3_pairs: pair 'cd:cd' pairs a technology with itself"),
            ("crossover", "dp_residual_max = nan", "dp_residual_max: nan is not in [0, 1]"),
            ("report", "table1_new = cdd",
             f"table1_new: unknown technology 'cdd'; known: {KNOWN}"),
            ("crossover", "table3_pairs = vinyl:c.d; download:streaming",
             f"table3_pairs: unknown technology 'c.d'; known: {KNOWN}"),
            ("report", "table3_pairs = :cd", "table3_pairs: pair ':cd' is incomplete"),
            ("cycles", "table3_pairs = +:cd; vinyl:8-track",
             "table3_pairs: pair '+:cd' is incomplete"),
        )
    },
    "config-empty-key": (
        ["cycles", "--config", "{tmp}/r.cfg"], reference("end_threshold_rel", "= 0.01"), 2,
        "error: {tmp}/r.cfg: line 7: empty key\n",
    ),
    "config-line-without-equals": (
        ["cycles", "--config", "{tmp}/r.cfg"],
        reference("end_threshold_rel", "end_threshold_rel 0.01"), 2,
        "error: {tmp}/r.cfg: line 7: expected 'name = value'\n",
    ),
    "groups-duplicate-key": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n", groups="old = Old\nold = New\n"),
        2, "error: {tmp}/groups.cfg: line 2: duplicate key 'old'\n",
    ),
    "groups-no-formats": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n", groups="old = Old\nnew = ;\n"),
        2, "error: {tmp}/groups.cfg: group 'new' has no formats\n",
    ),
    "groups-format-in-two-groups": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", groups="old = Old\nnew = New; Old\n"), 2,
        "error: {tmp}/groups.cfg: format 'Old' appears in both 'old' and 'new'\n",
    ),
    "groups-none-defined": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n", groups="# no groups\n\n"), 2,
        "error: {tmp}/groups.cfg: no groups defined\n",
    ),
    **{
        f"config-table1_window={window}": (
            ["report", "--config", "{tmp}/r.cfg", "--out", "{tmp}/out"],
            reference("table1_window", f"table1_window = {window}"), code,
            f"error: {{tmp}}/r.cfg: table1_window: {message}\n",
        )
        for window, code, message in (
            ("1960:1990", 2,
             "cassette: value for 1960 is absent or non-positive inside window 1960:1990"),
            ("1984:1985", 3, "window 1984:1985 has 2 usable years; need >= 3"),
        )
    },
    "config-table1_window-spec": (
        ["cycles", "--config", "{tmp}/r.cfg"], reference("table1_window", "table1_window = 1990"),
        2, "error: {tmp}/r.cfg: table1_window: window spec '1990' must be 'Y1:Y2' or 'auto'\n",
    ),
    "config-regime_tolerance-removed": (
        ["report", "--config", "{tmp}/r.cfg", "--out", "{tmp}/out"],
        {"r.cfg": REFERENCE + "regime_tolerance = 0.05\n"}, 2,
        "error: {tmp}/r.cfg: unknown key 'regime_tolerance'\n",
    ),
    **{
        f"simulate-window-{window}": (
            ["simulate", "--scenario", SCENARIO, f"--window={window}"], {}, 3, message,
        )
        for window, message in (
            ("5000:5010", "error: window 5000:5010 not fittable: established: value for "
                          "5000 is absent or non-positive inside window 5000:5010\n"),
            ("35:45", "error: window 35:45 not fittable: established: value for 41 "
                      "is absent or non-positive inside window 35:45\n"),
            ("-5:5", "error: window -5:5 not fittable: established: value for -5 "
                     "is absent or non-positive inside window -5:5\n"),
        )
    },
    "scenario-missing-key": (
        ["simulate", "--scenario", "{tmp}/s.cfg"], {"s.cfg": "k1 = 1000\n"}, 2,
        "error: {tmp}/s.cfg: scenario config missing key 'a1'\n",
    ),
    "scenario-malformed-number": (
        ["simulate", "--scenario", "{tmp}/s.cfg"],
        {"s.cfg": (DATA / "scenarios" / "dual_logistic_demo.cfg").read_text()
         .replace("k1 = 1000", "k1 = 1e3x")}, 2,
        "error: {tmp}/s.cfg: k1: could not convert string to float: '1e3x'\n",
    ),
    "scenario-unknown-key": (
        ["simulate", "--scenario", "{tmp}/s.cfg"],
        {"s.cfg": (DATA / "scenarios" / "dual_logistic_demo.cfg").read_text() + "noise = 0.05\n"},
        2, "error: {tmp}/s.cfg: unknown key 'noise'\n",
    ),
    "scenario-huge-range": (
        ["simulate", "--scenario", "{tmp}/s.cfg", "--out", "{tmp}/out"],
        {"s.cfg": (DATA / "scenarios" / "dual_logistic_demo.cfg").read_text()
         .replace("year_end = 40", "year_end = 100000000")}, 2,
        "error: {tmp}/s.cfg: year range (0, 100000000) covers 100000001 years; at most 10000\n",
    ),
    "scenario-huge-year": (
        ["simulate", "--scenario", "{tmp}/s.cfg"],
        {"s.cfg": (DATA / "scenarios" / "dual_logistic_demo.cfg").read_text()
         .replace("year_start = 0", f"year_start = {10**400}")
         .replace("year_end = 40", f"year_end = {10**400 + 40}")}, 2,
        f"error: {{tmp}}/s.cfg: year range ({10**400}, {10**400 + 40}) is not within "
        "[-1000000, 1000000]\n",
    ),
    # a noisy level past the float range: the scenario cannot be realized, on either path
    **{
        f"scenario-unrealizable{label}": (
            ["simulate", "--scenario", "{tmp}/s.cfg", *window],
            {"s.cfg": (DATA / "scenarios" / "dual_logistic_demo.cfg").read_text()
             .replace("k1 = 1000", "k1 = 1.7e308").replace("noise_rel = 0", "noise_rel = 0.5")
             .replace("seed = 42", "seed = 3")}, 2,
            "error: established: value for 31 is not finite\n",
        )
        for label, window in (("", []), ("-window", ["--window", "0:30"]))
    },
    # one input per kind of fault
    "revenue-both-columns-empty": (
        ["validate", *TINY], dataset_files("2000,Old,,,\n"), 2,
        "error: {tmp}/data.csv: row 1: 2000 'Old': at least one revenue column required\n",
    ),
    "revenue-empty-format": (
        ["validate", *TINY], dataset_files("2000, ,10.0,,\n"), 2,
        "error: {tmp}/data.csv: row 1: empty format label\n",
    ),
    "revenue-year-not-integer": (
        ["validate", *TINY], dataset_files("20x0,Old,10.0,,\n"), 2,
        "error: {tmp}/data.csv: row 1, column year: '20x0' is not an integer\n",
    ),
    "revenue-duplicate-row": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n2000,Old,11.0,,\n"), 2,
        "error: {tmp}/data.csv: row 2: duplicate entry for (2000, 'Old')\n",
    ),
    "revenue-year-out-of-range": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n1850,Old,5.0,,\n"), 2,
        "error: {tmp}/data.csv: row 2: year 1850 outside [1900, 2100]\n",
    ),
    "revenue-negative": (
        ["validate", *TINY], dataset_files("2000,Old,-5,,\n"), 2,
        "error: {tmp}/data.csv: row 1: 2000 'Old': revenue_nominal must be >= 0\n",
    ),
    "cpi-index-not-positive": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2000,0\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1, column index: '0' is not positive\n",
    ),
    "cpi-missing-year": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: no CPI index for year 2000\n",
    ),
    "cpi-extra-cell": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2000,80,5\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1: expected 2 cells, got 3\n",
    ),
    "cpi-index-not-number": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2000,abc\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1, column index: 'abc' is not a number\n",
    ),
    "cpi-empty-index": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2000, \n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1: empty index\n",
    ),
    "cpi-duplicate-year": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2000,80\n2018,100\n2000,81\n"), 2,
        "error: {tmp}/cpi.csv: row 3: duplicate entry for year 2000\n",
    ),
    "cpi-header": (
        ["validate", *TINY],
        dataset_files("2000,Old,10.0,,\n", cpi="year,cpi\n2000,80\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: unexpected header ['year', 'cpi']; expected year,index\n",
    ),
    "cpi-missing-base-year": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n", cpi="year,index\n2000,80\n"), 2,
        "error: {tmp}/cpi.csv: CPI table lacks its base year 2018\n",
    ),
    "cpi-deflation-overflow": (
        ["validate", *TINY],
        dataset_files("2000,Old,1e10,,\n", cpi="year,index\n2000,1e-300\n2018,1e10\n"),
        2, "error: {tmp}/cpi.csv: 2000 'Old': revenue_real is not finite\n",
    ),
    "group-sum-overflow": (
        ["validate", *TINY],
        dataset_files("2000,A,,1e308,\n2000,B,,1e308,\n", groups="x = A;B\n"), 2,
        "error: {tmp}/groups.cfg: x: revenue sum for 2000 is not finite\n",
    ),
    "combination-sum-overflow": (
        ["fit", *TINY, "--old", "c", "--new", "a+b"],
        dataset_files("2000,A,,1e308,\n2000,B,,1e308,\n2000,C,,1.0,\n2001,C,,1.0,\n",
                      groups="a = A\nb = B\nc = C\n"), 2,
        "error: a+b: revenue sum for 2000 is not finite\n",
    ),
    "group-matches-nothing": (
        ["validate", *TINY], dataset_files("2000,Old,10.0,,\n"), 2,
        "error: {tmp}/groups.cfg: group 'new' matched no record (formats: New)\n",
    ),
    **{
        f"group-name-{label}": (
            ["validate", *TINY], dataset_files("2000,Old,10.0,,\n", groups=f"{name} = Old\n"), 2,
            f"error: {{tmp}}/groups.cfg: group name '{name}' may hold only ASCII letters, "
            "digits, '-' and '_'\n",
        )
        for name, label in (("c+d", "plus"), ("c.d", "dot"))
    },
    "constant-regressor": (
        ["fit", *TINY, "--old", "old", "--new", "new"],
        dataset_files("2000,Old,5.0,,\n2001,Old,5.0,,\n2002,Old,5.0,,\n"
                      "2000,New,1.0,,\n2001,New,2.0,,\n2002,New,3.0,,\n",
                      cpi="year,index\n2000,100\n2001,100\n2002,100\n2018,100\n"), 2,
        "error: explanatory variable has zero variance\n",
    ),
    "window-with-absent-year": (
        ["fit", "--old", "cassette", "--new", "streaming", "--window", "1990:2000"], {}, 2,
        "error: streaming: value for 1990 is absent or non-positive inside window 1990:2000\n",
    ),
    "begin-after-peak": (
        ["cycles", "--config", "{tmp}/r.cfg"],
        reference("a_override.cassette", "a_override.cassette = 2000"), 2,
        "error: {tmp}/r.cfg: a_override.cassette: cassette: begin 2000 after its first revenue "
        "year 1973\n",
    ),
    "override-after-first-revenue": (
        ["cycles", "--config", "{tmp}/r.cfg"],
        reference("a_override.cassette", "a_override.cassette = 1985"), 2,
        "error: {tmp}/r.cfg: a_override.cassette: cassette: begin 1985 after its first revenue "
        "year 1973\n",
    ),
    "override-out-of-range": (
        ["cycles", "--config", "{tmp}/r.cfg"],
        reference("a_override.cassette", "a_override.cassette = -5000"), 2,
        "error: {tmp}/r.cfg: a_override.cassette: -5000 is not in [1900, 2100]\n",
    ),
    "override-unknown-technology": (
        ["cycles", "--config", "{tmp}/r.cfg"],
        reference("a_override.cassette", "a_override.casette = 1964"), 2,
        f"error: {{tmp}}/r.cfg: a_override.casette: unknown technology 'casette'; "
        f"known: {KNOWN}\n",
    ),
    "override-combination": (
        ["crossover", "--config", "{tmp}/r.cfg", "--old", "cd", "--new", "download"],
        reference("a_override.cd", "a_override.cd+download = 1950"), 2,
        "error: {tmp}/r.cfg: a_override.cd+download: name 'cd+download' may hold only "
        "ASCII letters, digits, '-' and '_'\n",
    ),
    "reversed-window": (
        ["fit", "--old", "cassette", "--new", "cd", "--window", "1990:1984"], {}, 2,
        "error: window spec '1990:1984' is reversed\n",
    ),
    "non-integer-window": (
        ["fit", "--old", "cassette", "--new", "cd", "--window", "a:b"], {}, 2,
        "error: window spec 'a:b' has non-integer years\n",
    ),
    "no-overlap": (
        ["fit", *TINY, "--old", "old", "--new", "new"],
        dataset_files("2000,Old,10.0,,\n2001,Old,10.0,,\n2002,New,1.0,,\n"), 3,
        "error: new vs old: no overlapping strictly-positive years\n",
    ),
    "no-comparable-year": (
        ["crossover", "--old", "8-track", "--new", "streaming"], {}, 0, "",
    ),
    # names that share a technology, or name none or one twice
    "pair-overlap-new": (
        ["crossover", "--old", "cd", "--new", "cd+download"], {}, 2,
        "error: --old and --new both name 'cd'\n",
    ),
    "pair-overlap-both": (
        ["crossover", "--old", "cd+download", "--new", "download+cd"], {}, 2,
        "error: --old and --new both name 'cd'\n",
    ),
    "config-table1-self-pair": (
        ["report", "--config", "{tmp}/r.cfg", "--out", "{tmp}/out"],
        reference("table1_new", "table1_new = cassette"), 2,
        "error: {tmp}/r.cfg: table1_old and table1_new both name 'cassette'\n",
    ),
    "config-table3-overlap": (
        ["report", "--config", "{tmp}/r.cfg", "--out", "{tmp}/out"],
        reference("table3_pairs", "table3_pairs = cd:download+cd"), 2,
        "error: {tmp}/r.cfg: table3_pairs: pair 'cd:download+cd' pairs a technology "
        "with itself\n",
    ),
    "name-only-plus": (
        ["fit", "--old", "+", "--new", "cd"], {}, 2,
        "error: '+' names no technology\n",
    ),
    "name-empty": (
        ["fit", "--old", "", "--new", "cd"], {}, 2,
        "error: '' names no technology\n",
    ),
    "name-repeated": (
        ["fit", "--old", "cassette", "--new", "cd+cd"], {}, 2,
        "error: 'cd+cd' names 'cd' twice\n",
    ),
}


# the bundled demo scenario's curves, and a curve near saturation from year 0
OLD, NEW = LogisticParams(k=1000.0, a=6.0, b=0.3), LogisticParams(k=2500.0, a=9.0, b=0.6)
SATURATED = LogisticParams(k=1000.0, a=-5.0, b=0.5)

# id -> (call, exception class, message)
LIBRARY = {
    # records, series, groups and CPI tables built by a caller
    "record-no-revenue": (
        lambda: RevenueRecord(year=2000, format="CD"), TechCycleError,
        "2000 'CD': at least one revenue column required"),
    "record-negative-real": (
        lambda: RevenueRecord(year=2000, format="CD", revenue_real=-1.0), TechCycleError,
        "2000 'CD': revenue_real must be >= 0"),
    "series-no-points": (lambda: series({}), TechCycleError, "x: series has no observations"),
    "series-nan": (
        lambda: series({2000: math.nan, 2001: 1.0}), TechCycleError,
        "x: value for 2000 is not finite"),
    "series-negative": (
        lambda: series({2000: -1.0}), TechCycleError, "x: value for 2000 must be >= 0"),
    "no-positive-revenue": (
        lambda: series({2000: 0.0}), TechCycleError,
        "x: series needs at least one positive value"),
    "group-no-formats": (
        lambda: TechnologyGroup("cd", ()), TechCycleError, "group 'cd' has no formats"),
    "cpi-index-zero": (
        lambda: CpiTable(entries={2018: 0.0}), TechCycleError,
        "CPI index for 2018 must be positive"),
    "aggregate-undeflated": (
        lambda: aggregate_group([RevenueRecord(2000, "CD", revenue_nominal=1.0)],
                                TechnologyGroup("cd", ("CD",))), TechCycleError,
        "2000 'CD': missing real revenue; run adjust_inflation first"),
    "merge-nothing": (
        lambda: merge_series("cd+download", []), TechCycleError,
        "merge_series needs at least one series"),
    # cycle events and statistics
    "events-out-of-order": (
        lambda: events("x", 2005, 2001, 2010), TechCycleError, "x: begin 2005 after peak 2001"),
    "peak-after-end": (
        lambda: events("x", 2000, 2010, 2005), TechCycleError, "x: peak 2010 after end 2005"),
    "end-without-peak": (
        lambda: events("x", 2000, None, 2005), TechCycleError, "x: end year without a peak year"),
    "zero-length-cycle": (
        lambda: cycle_metrics(events("x", 2000, 2000, 2000)), TechCycleError,
        "x: zero-length cycle, wave shares undefined"),
    "end-threshold-0": (
        lambda: detect_events(series({2000: 1.0}), end_threshold_rel=0.0), TechCycleError,
        "end threshold must be in (0, 1), got 0.0"),
    "aggregate-no-summary": (
        lambda: aggregate_cycles([]), InsufficientDataError,
        "aggregate_cycles needs at least one summary"),
    "crossover-share-50": (
        lambda: CrossoverResult(year=2000, established_share=50.0), TechCycleError,
        "crossover share must be below 50, got 50.0"),
    # curves and fits
    "logistic-k-negative": (
        lambda: LogisticParams(k=-1.0, a=0.0, b=1.0), TechCycleError,
        "equilibrium level must be positive, got -1.0"),
    "logistic-b-zero": (
        lambda: LogisticParams(k=1.0, a=0.0, b=0.0), TechCycleError,
        "growth rate must be positive, got 0.0"),
    **{
        f"logistic-a-{a}": (
            lambda a=a: LogisticParams(k=1.0, a=a, b=1.0), TechCycleError,
            f"location constant must be finite, got {a}")
        for a in (math.nan, math.inf)
    },
    "logistic-fit-3-points": (
        lambda: fit_logistic(series({2000: 1.0, 2001: 2.0, 2002: 3.0})), InsufficientDataError,
        "x: logistic fit needs >= 4 positive points, got 3"),
    "zero-inside-window": (
        lambda: fit_substitution(series({t: 1.0 for t in range(2000, 2004)}, "new"),
                                 series({2000: 1.0, 2001: 0.0, 2002: 1.0, 2003: 1.0}, "old"),
                                 window=(2000, 2003)), TechCycleError,
        "old: value for 2001 is absent or non-positive inside window 2000:2003"),
    "ols-2-points": (
        lambda: ols_simple([1.0, 2.0], [1.0, 2.0]), InsufficientDataError,
        "need at least 3 observations, got 2"),
    "ols-unequal-lengths": (
        lambda: ols_simple([1.0, 2.0, 3.0], [1.0, 2.0]), InsufficientDataError,
        "xs and ys must have equal length, got 3 and 2"),
    "t-df-0": (lambda: t_p_value(1.0, 0), TechCycleError, "degrees of freedom must be >= 1, got 0"),
    "render-xml": (lambda: render("xml", {}, ""), TechCycleError, "unknown output format 'xml'"),
    # synthetic scenarios at the edges of their ranges
    "scenario-empty-range": (
        lambda: SyntheticScenario(OLD, NEW, (10, 0)), TechCycleError, "empty year range (10, 0)"),
    "scenario-10000-years": (
        lambda: SyntheticScenario(OLD, NEW, (0, 10_000)), TechCycleError,
        "year range (0, 10000) covers 10001 years; at most 10000"),
    **{
        f"scenario-year-{years[0]}": (
            lambda years=years: SyntheticScenario(OLD, NEW, years), TechCycleError,
            f"year range {years} is not within [-1000000, 1000000]")
        for years in ((1_000_001, 1_000_002), (-1_000_001, -1_000_000))
    },
    "scenario-noise_rel-1": (
        lambda: SyntheticScenario(OLD, NEW, (0, 40), noise_rel=1.0), TechCycleError,
        "noise_rel must be in [0, 1), got 1.0"),
    "early-window-too-short": (
        lambda: recovery_experiment(SyntheticScenario(SATURATED, SATURATED, (0, 20))), WindowError,
        "early window (fraction 0.1) has fewer than 3 years; lower the growth rates, "
        "start earlier, or raise the fraction"),
    **{
        f"early-fraction-{fraction}": (
            lambda fraction=fraction: recovery_experiment(
                SyntheticScenario(OLD, NEW, (0, 40)), early_fraction=fraction),
            TechCycleError, f"early fraction must be in (0, 1), got {fraction}")
        for fraction in (0.0, 1.0, -0.5, math.nan)
    },
}


def run_cli(case, tmp_path):
    """Write ``case``'s files under ``tmp_path`` and run ``main`` on its argv."""
    argv, files, _, _ = CLI[case]
    write_files(tmp_path, files)
    return main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_error_output(case, tmp_path, capsys):
    _, _, code, stderr = CLI[case]
    assert run_cli(case, tmp_path) == code
    out, err = capsys.readouterr()
    assert err.replace(str(tmp_path), "{tmp}").replace(str(DATA), "{data}") == stderr
    if code != 0:
        assert out == ""


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_error(case):
    call, error, message = LIBRARY[case]
    with pytest.raises(TechCycleError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


ERROR_CLASSES = sorted(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and value.__module__ == errors.__name__
)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_maps_to_its_exit_code(name, monkeypatch, capsys):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.TechCycleError)

    def fail(args):
        raise cls("the message")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert cli.main(["validate"]) == (3 if issubclass(cls, errors.InsufficientDataError) else 2)
    assert capsys.readouterr().err == "error: the message\n"


SRC = os.path.dirname(errors.__file__)


def raise_sites():
    """``file:line`` of each ``raise <package error class>(...)`` in the package.

    ``errors.located`` re-raises as ``type(exc)(...)``, which is not a class
    name, so it is not a site of its own: the error it prefixes started at one.
    """
    sites = set()
    for path in sorted(Path(SRC).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id in ERROR_CLASSES):
                sites.add(f"{path.name}:{node.lineno}")
    return sites


def test_every_raise_site_starts_a_case(tmp_path, capsys):
    """Run every case under a trace function that records where each package
    error raised in the package started, and fail on a site where none did."""
    started = set()

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if os.path.dirname(filename) != SRC:
            return None
        frame.f_trace_lines = False
        # a traceback of one entry: the error was raised in this frame, not passed up to it
        if event == "exception" and issubclass(arg[0], TechCycleError) and arg[2].tb_next is None:
            started.add(f"{os.path.basename(filename)}:{arg[2].tb_lineno}")
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for number, case in enumerate(CLI):
            (tmp_path / str(number)).mkdir()
            run_cli(case, tmp_path / str(number))
        for call, _, _ in LIBRARY.values():
            with pytest.raises(TechCycleError):
                call()
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    unreached = sorted(raise_sites() - started)
    assert not unreached, f"no case starts the error raised at {', '.join(unreached)}"
