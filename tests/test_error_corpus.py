"""Pinned (exit code, stderr) of the CLI on a fixed corpus of bad inputs.

The corpus holds every error case of ``test_cli`` that reaches ``main``'s
handlers (argparse usage errors exit 2 before them), at least one input per
kind of fault the package reports, the unknown-technology path and the
pair with no comparable year.  Each case writes its files under a temporary
directory, runs ``main()`` in-process and compares the exit code and the
whole of stderr; ``{tmp}`` and ``{data}`` in the pinned text stand for that
directory and the bundled data directory.  A change to any message or exit
code here is a change to the CLI's contract, and says so in CHANGES.md.

Two faults cannot be reached from the command line, so they are pinned as
library calls with the exit code ``main`` gives their exception: a zero-length
cycle, and a series with no positive revenue (rejected when the series is
built).
"""

import pytest

from techcycle import cli, errors
from techcycle.cli import main
from techcycle.config import default_data_dir
from techcycle.cycle import CycleEvents, cycle_metrics
from techcycle.errors import InsufficientDataError, TechCycleError
from techcycle.market_data import RevenueSeries

DATA = default_data_dir()
SCENARIO = str(DATA / "scenarios" / "dual_logistic_demo.cfg")
HEADER = "year,format,revenue_nominal_musd,revenue_real_musd,units_m\n"
REFERENCE = (DATA / "reference.cfg").read_text()
KNOWN = "8-track, cassette, cd, download, streaming, vinyl"


def tiny(rows: str, cpi: str = "year,index\n2000,80\n2001,82\n2002,85\n2018,100\n") -> dict:
    """A small dataset: revenue ``rows`` under the header, a CPI and two groups."""
    return {"data.csv": HEADER + rows, "cpi.csv": cpi, "groups.cfg": "old = Old\nnew = New\n"}


TINY = ["--data", "{tmp}/data.csv", "--cpi", "{tmp}/cpi.csv", "--groups", "{tmp}/groups.cfg"]


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
    return {**tiny(""), "data.csv": "year,format," + ",".join(row) + "\n2000,Old,"
            + ",".join(row.values()) + "\n"}


# what each subcommand needs besides --config
EXTRA = {"cycles": [], "report": ["--out", "{tmp}/out"],
         "crossover": ["--old", "download", "--new", "streaming"]}

# id -> (argv, files to write under {tmp}, exit code, stderr)
CLI = {
    # test_cli error cases
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
        "error: window 1990-1991 has 2 usable years; need >= 3\n",
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
    **{
        f"config-table1_window={window}": (
            ["report", "--config", "{tmp}/r.cfg", "--out", "{tmp}/out"],
            reference("table1_window", f"table1_window = {window}"), code,
            f"error: {{tmp}}/r.cfg: table1_window: {message}\n",
        )
        for window, code, message in (
            ("1960:1990", 2,
             "cassette: value for 1960 is absent or non-positive inside window 1960-1990"),
            ("1984:1985", 3, "window 1984-1985 has 2 usable years; need >= 3"),
        )
    },
    "config-regime_tolerance-removed": (
        ["report", "--config", "{tmp}/r.cfg", "--out", "{tmp}/out"],
        {"r.cfg": REFERENCE + "regime_tolerance = 0.05\n"}, 2,
        "error: {tmp}/r.cfg: unknown key 'regime_tolerance'\n",
    ),
    **{
        f"simulate-window-{window}": (
            ["simulate", "--scenario", SCENARIO, "--window", window], {}, 3, message,
        )
        for window, message in (
            ("5000:5010", "error: window (5000, 5010) not fittable: established: "
                          "series has no observations\n"),
            ("35:45", "error: window (35, 45) not fittable: established: value for 41 "
                      "is absent or non-positive inside window 35-45\n"),
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
        "error: {tmp}/s.cfg: scenario config has a malformed number: could not convert string "
        "to float: '1e3x'\n",
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
    # one input per kind of fault
    "revenue-both-columns-empty": (
        ["validate", *TINY], tiny("2000,Old,,,\n"), 2,
        "error: {tmp}/data.csv: row 1: both revenue columns are empty\n",
    ),
    "revenue-empty-format": (
        ["validate", *TINY], tiny("2000, ,10.0,,\n"), 2,
        "error: {tmp}/data.csv: row 1: empty format label\n",
    ),
    "revenue-year-not-integer": (
        ["validate", *TINY], tiny("20x0,Old,10.0,,\n"), 2,
        "error: {tmp}/data.csv: row 1, column year: '20x0' is not an integer\n",
    ),
    "revenue-duplicate-row": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n2000,Old,11.0,,\n"), 2,
        "error: {tmp}/data.csv: row 2: duplicate entry for (2000, 'Old')\n",
    ),
    "revenue-year-out-of-range": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n1850,Old,5.0,,\n"), 2,
        "error: {tmp}/data.csv: row 2: year 1850 outside [1900, 2100]\n",
    ),
    "revenue-negative": (
        ["validate", *TINY], tiny("2000,Old,-5,,\n"), 2,
        "error: {tmp}/data.csv: row 1: 2000 'Old': revenue_nominal must be >= 0\n",
    ),
    "cpi-index-not-positive": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,index\n2000,0\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1, column index: '0' is not positive\n",
    ),
    "cpi-missing-year": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,index\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: no CPI index for year 2000\n",
    ),
    "cpi-extra-cell": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,index\n2000,80,5\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1: expected 2 cells, got 3\n",
    ),
    "cpi-index-not-number": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,index\n2000,abc\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1, column index: 'abc' is not a number\n",
    ),
    "cpi-empty-index": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,index\n2000, \n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: row 1: empty index\n",
    ),
    "cpi-duplicate-year": (
        ["validate", *TINY],
        tiny("2000,Old,10.0,,\n", cpi="year,index\n2000,80\n2018,100\n2000,81\n"), 2,
        "error: {tmp}/cpi.csv: row 3: duplicate entry for year 2000\n",
    ),
    "cpi-header": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,cpi\n2000,80\n2018,100\n"), 2,
        "error: {tmp}/cpi.csv: unexpected header ['year', 'cpi']; expected year,index\n",
    ),
    "cpi-missing-base-year": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n", cpi="year,index\n2000,80\n"), 2,
        "error: {tmp}/cpi.csv: CPI table lacks its base year 2018\n",
    ),
    "group-matches-nothing": (
        ["validate", *TINY], tiny("2000,Old,10.0,,\n"), 2,
        "error: {tmp}/groups.cfg: group 'new' matched no record (formats: New)\n",
    ),
    **{
        f"group-name-{label}": (
            ["validate", *TINY], {**tiny("2000,Old,10.0,,\n"), "groups.cfg": f"{name} = Old\n"}, 2,
            f"error: {{tmp}}/groups.cfg: group name '{name}' may hold only ASCII letters, "
            "digits, '-' and '_'\n",
        )
        for name, label in (("c+d", "plus"), ("c.d", "dot"))
    },
    "constant-regressor": (
        ["fit", *TINY, "--old", "old", "--new", "new"],
        tiny("2000,Old,5.0,,\n2001,Old,5.0,,\n2002,Old,5.0,,\n"
             "2000,New,1.0,,\n2001,New,2.0,,\n2002,New,3.0,,\n",
             cpi="year,index\n2000,100\n2001,100\n2002,100\n2018,100\n"), 2,
        "error: explanatory variable has zero variance\n",
    ),
    "window-with-absent-year": (
        ["fit", "--old", "cassette", "--new", "streaming", "--window", "1990:2000"], {}, 2,
        "error: streaming: value for 1990 is absent or non-positive inside window 1990-2000\n",
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
    "no-overlap": (
        ["fit", *TINY, "--old", "old", "--new", "new"],
        tiny("2000,Old,10.0,,\n2001,Old,10.0,,\n2002,New,1.0,,\n"), 3,
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


def _events(m_year, z_year):
    return CycleEvents(technology="x", a_year=2000, m_year=m_year, z_year=z_year)


# id -> (call, exit code main gives its exception, message)
LIBRARY = {
    "zero-length-cycle": (
        lambda: cycle_metrics(_events(2000, 2000)), 2,
        "x: zero-length cycle, wave shares undefined",
    ),
    "no-positive-revenue": (
        lambda: RevenueSeries(technology="x", base_year=2018, points={2000: 0.0}), 2,
        "x: series needs at least one positive value",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_error_output(case, tmp_path, capsys):
    argv, files, code, stderr = CLI[case]
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.replace(str(tmp_path), "{tmp}").replace(str(DATA), "{data}") == stderr


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_error(case):
    call, code, message = LIBRARY[case]
    with pytest.raises(TechCycleError) as exc:
        call()
    assert (3 if isinstance(exc.value, InsufficientDataError) else 2, str(exc.value)) == (
        code, message)


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
