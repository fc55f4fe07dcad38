import argparse
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys

import pytest

from techcycle.cli import build_parser, main
from techcycle.config import default_data_dir, parse_window_spec

from builders import data_flags, dataset_files, write_files


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def tiny_dataset(tmp_path):
    """Two never-overlapping technologies plus a CPI covering their years."""
    write_files(tmp_path, dataset_files(
        "2000,Old,10.0,,\n2001,Old,10.0,,\n"
        "2005,New,1.0,,\n2006,New,2.0,,\n",
        cpi="year,index\n2000,80\n2001,82\n2005,90\n2006,92\n2018,100\n"))
    return tmp_path


@pytest.fixture()
def twin_dataset(tmp_path):
    """Two technologies with equal revenue every year, so new = old ** 1 exactly."""
    rows = "".join(f"{2000 + i},{fmt},,{value!r},\n"
                   for i, value in enumerate([1.0, 2.0, 4.0, 8.0, 16.0, 8.0, 4.0, 2.0, 0.01])
                   for fmt in ("Old", "New"))
    write_files(tmp_path, {
        **dataset_files(rows, cpi="year,index\n2018,100\n"),
        "reference.cfg": "table1_old = old\ntable1_new = new\ntable2_old = old\ntable2_new = new\n",
    })
    return tmp_path


def strict_json(text):
    """``json.loads`` that rejects the non-standard Infinity, -Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _flags(parser):
    """Each action of ``parser``, in order: option strings, default (the data
    directory spelled DATA), required, choices and help."""
    data = str(default_data_dir())
    return [(a.option_strings, a.default.replace(data, "DATA") if isinstance(a.default, str)
             else a.default, a.required, None if a.choices is None else list(a.choices), a.help)
            for a in parser._actions]


HELP = (["-h", "--help"], "==SUPPRESS==", False, None, "show this help message and exit")
DATA_FLAGS = [
    (["--data"], "DATA/riaa_revenue.csv", False, None, "revenue CSV (default: bundled dataset)"),
    (["--cpi"], "DATA/cpi.csv", False, None,
     "CPI CSV 'year,index' (default: bundled); nominal-only rows are deflated to 2018 dollars "
     "with it, so it must list 2018"),
    (["--groups"], "DATA/groups.cfg", False, None, "technology grouping config (default: bundled)"),
]
FORMAT_FLAG = (["--format"], "text", False, ["text", "csv", "json"], "output format (default text)")
CONFIG_FLAG = (["--config"], "DATA/reference.cfg", False, None,
               "reference config (default: bundled reference.cfg)")
# Every subcommand's complete flag list, so a removed flag that comes back
# fails test_parser_flags. None takes --base-year: the dollar basis is the
# data's (revenue_real_musd is in 2018 dollars). fit takes no --tolerance: the
# proportional regime band is fixed in growth.py. simulate takes no
# --early-fraction: the early window's fraction is recovery_experiment's
# default. crossover takes no --end-threshold: the reference config sets it.
SUBCOMMANDS = {
    "validate": ("parse and sanity-check a dataset", "cmd_validate", [HELP, *DATA_FLAGS]),
    "fit": ("fit the substitution exponent for one pair", "cmd_fit", [
        HELP, *DATA_FLAGS, FORMAT_FLAG,
        (["--old"], None, True, None, "established technology"),
        (["--new"], None, True, None, "disruptive technology"),
        (["--window"], "auto", False, None, "Y1:Y2 or 'auto' (default)"),
    ]),
    "cycles": ("lifecycle table for every technology", "cmd_cycles",
               [HELP, *DATA_FLAGS, FORMAT_FLAG, CONFIG_FLAG]),
    "crossover": ("first year a disruptor takes half the pair", "cmd_crossover", [
        HELP, *DATA_FLAGS, FORMAT_FLAG, CONFIG_FLAG,
        (["--old"], None, True, None, None),
        (["--new"], None, True, None, None),
    ]),
    "simulate": ("run a synthetic dual-logistic scenario", "cmd_simulate", [
        HELP, FORMAT_FLAG,
        (["--scenario"], None, True, None, "scenario config file"),
        (["--seed"], None, False, None, "override the scenario seed"),
        (["--window"], None, False, None, "explicit fit window Y1:Y2"),
        (["--out"], None, False, None, "directory for generated series CSV"),
    ]),
    "report": ("write the full analysis tables and plot series", "cmd_report", [
        HELP, *DATA_FLAGS, FORMAT_FLAG, CONFIG_FLAG,
        (["--out"], None, True, None, "output directory"),
    ]),
}


def test_parser_flags():
    parser = build_parser()
    assert _flags(parser) == [HELP, ([], None, True, list(SUBCOMMANDS), None)]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help) for name, (help, _, _) in SUBCOMMANDS.items()]
    for name, (_, handler, flags) in SUBCOMMANDS.items():
        assert sub.choices[name].get_default("handler").__name__ == handler
        assert _flags(sub.choices[name]) == flags, name


class TestValidate:
    def test_whole_output_names_gap_years_and_ungrouped_formats(self, tiny_dataset, capsys):
        write_files(tiny_dataset, dataset_files(
            "2000,Old,10.0,,\n2006,Old,10.0,,\n2005,New,1.0,,\n2006,New,2.0,,\n2005,Stray,1.0,,\n",
            cpi="year,index\n2000,80\n2005,90\n2006,92\n2018,100\n"))
        code, out, err = run_cli("validate", *data_flags(tiny_dataset), capsys=capsys)
        assert (code, err) == (0, "")
        assert out == (
            "records: 5\nformats: 3\nyears: 2000-2006\ntechnologies: old, new\n"
            "note: old has gap years (2001, 2002, 2003, 2004, 2005)\n"
            "note: formats in no group: Stray\nok\n"
        )

    def test_utf8_bom_inputs_accepted(self, data_dir, tmp_path, capsys):
        for name in ("riaa_revenue.csv", "cpi.csv", "groups.cfg"):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
        plain = run_cli("validate", capsys=capsys)
        bom = run_cli("validate", "--data", str(tmp_path / "riaa_revenue.csv"),
                      "--cpi", str(tmp_path / "cpi.csv"),
                      "--groups", str(tmp_path / "groups.cfg"), capsys=capsys)
        assert bom == plain
        assert bom[0] == 0


class TestFit:
    def test_streaming_negative_coupling(self, capsys):
        code, out, _ = run_cli(
            "fit", "--old", "cd", "--new", "streaming", "--window", "2004:2018",
            capsys=capsys,
        )
        assert code == 0
        assert "Regime: NegativeCoupling" in out

    def test_exact_fit_is_proportional(self, twin_dataset, capsys):
        code, out, _ = run_cli(
            "fit", *data_flags(twin_dataset), "--old", "old", "--new", "new", capsys=capsys
        )
        assert code == 0
        assert "Regime: Proportional" in out
        assert "R2 = 1.00" in out
        assert "F = inf" in out

    def test_label_is_spelled_from_the_series(self, capsys):
        code, out, _ = run_cli("fit", "--old", "cassette", "--new", "cd\n", "--format", "csv",
                               capsys=capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert all(len(cells) == 2 for cells in csv.reader(lines))
        assert "pair,cd vs cassette" in lines

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            "fit", "--old", "cd", "--new", "streaming", "--window", "2004:2018",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "NegativeCoupling"
        assert -1.45 <= payload["exponent_b"] <= -1.10


class TestStandardJson:
    def test_exact_fit_writes_null_for_infinite_statistics(self, twin_dataset, capsys):
        code, out, _ = run_cli("fit", *data_flags(twin_dataset), "--old", "old", "--new", "new",
                               "--format", "json", capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["intercept_t"] is payload["exponent_t"] is payload["f_stat"] is None
        assert (payload["exponent_b"], payload["r2"]) == (1.0, 1.0)

    def test_csv_keeps_inf(self, twin_dataset, capsys):
        code, out, _ = run_cli("fit", *data_flags(twin_dataset), "--old", "old", "--new", "new",
                               "--format", "csv", capsys=capsys)
        assert code == 0
        assert "exponent_t,inf\n" in out and "f_stat,inf\n" in out

    def test_report_tables_are_standard_json(self, twin_dataset, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code, _, _ = run_cli("report", *data_flags(twin_dataset),
                             "--config", str(twin_dataset / "reference.cfg"),
                             "--out", str(out_dir), "--format", "json", capsys=capsys)
        assert code == 0
        tables = {path.stem: strict_json(path.read_text()) for path in out_dir.glob("*.json")}
        assert sorted(tables) == ["table1", "table2", "table3", "table4"]
        assert tables["table1"]["exponent_t"] is None
        assert tables["table2"]["f_stat"] is None


class TestCrossover:
    def test_download_streaming(self, capsys):
        code, out, _ = run_cli("crossover", "--old", "download", "--new", "streaming",
                               capsys=capsys)
        assert code == 0
        assert "crossover year: 2015" in out

    def test_json_equals_report_table3_row(self, reference, tmp_path, capsys):
        assert run_cli("report", "--out", str(tmp_path), "--format", "json",
                       capsys=capsys)[0] == 0
        rows = json.loads((tmp_path / "table3.json").read_text())["rows"]
        assert len(rows) == len(reference.table3_pairs) == 6
        for row in rows:
            # as the table spells the pair, then padded with --new's names reversed
            reversed_new = " + ".join(reversed(row["disruptive"].split("+")))
            for old, new in ((row["established"], row["disruptive"]),
                             (f" {row['established']} ", f" {reversed_new} ")):
                code, out, _ = run_cli("crossover", "--old", old, "--new", new,
                                       "--format", "json", capsys=capsys)
                assert code == 0
                assert json.loads(out) == row

    @pytest.mark.parametrize("old, new, reason", [
        ("vinyl", "8-track", "boundary crossover"),
        ("cd", "download+streaming", "already counted for cd"),
        ("cd ", "streaming+download", "already counted for cd"),
        ("download", "streaming", "download still at 24.83% of peak"),
    ])
    def test_omitted_dp_prints_its_reason(self, capsys, old, new, reason):
        code, out, _ = run_cli("crossover", "--old", old, "--new", new, capsys=capsys)
        assert code == 0
        assert f"disruption period: not counted ({reason}" in out

    def test_combined_established_side(self, capsys):
        # not a group, so no begin-year override applies: its row computes its own events
        code, out, err = run_cli("crossover", "--old", "cd+download", "--new", "streaming",
                                 capsys=capsys)
        assert (code, err) == (0, "")
        assert out == ("crossover year: 2016\nestablished share: 39.03%\n"
                       "disruption period: 19 years (peak 2000, end 2019*)\n")
        code, out, _ = run_cli("crossover", "--old", "download+cd", "--new", "streaming",
                               "--format", "json", capsys=capsys)
        assert code == 0
        assert json.loads(out) == {
            "established": "cd+download", "disruptive": "streaming", "crossover_year": 2016,
            "established_share_pct": 39.032270325744044, "crossover_at_boundary": False,
            "peak_year": 2000, "end_year": 2019, "end_censored": True,
            "disruption_period_years": 19, "dp_note": None,
        }

    def test_no_peak_and_end_prints_its_reason(self, tmp_path, capsys):
        rows = "".join(f"{2000 + i},{fmt},,{value!r},\n"
                       for fmt, values in (("Old", [1.0, 2.0, 3.0, 4.0]),
                                           ("New", [1.0, 3.0, 5.0, 7.0]))
                       for i, value in enumerate(values))
        write_files(tmp_path, dataset_files(rows, cpi="year,index\n2018,100\n"))
        code, out, err = run_cli("crossover", *data_flags(tmp_path), "--old", "old", "--new", "new",
                                 capsys=capsys)
        assert (code, err) == (0, "")
        assert out == ("crossover year: 2001\nestablished share: 40.00%\n"
                       "disruption period: not counted (old has no peak and end in the data)\n")

    def test_config_sets_the_dp_rule(self, data_dir, tmp_path, capsys):
        path = tmp_path / "r.cfg"
        path.write_text((data_dir / "reference.cfg").read_text().replace(
            "dp_residual_max = 0.10", "dp_residual_max = 0.30"))
        code, out, _ = run_cli("crossover", "--old", "download", "--new", "streaming",
                               "--config", str(path), capsys=capsys)
        assert code == 0
        assert "disruption period: 7 years (peak 2012, end 2019*)" in out

    def test_no_crossover_is_benign(self, tiny_dataset, capsys):
        code, out, _ = run_cli(
            "crossover", *data_flags(tiny_dataset), "--old", "old", "--new", "new",
            capsys=capsys,
        )
        assert code == 0
        assert "no crossover in data" in out


class TestCycles:
    @pytest.mark.parametrize("config", ["", "table3_pairs = cassette:cd\n"])
    @pytest.mark.parametrize("command", [["cycles"], ["crossover", "--old", "vinyl", "--new",
                                                      "cassette"]])
    def test_tables_not_read_are_not_checked(self, twin_dataset, tmp_path, command, config,
                                             capsys):
        # the default Table 1 (cassette:cd) and Table 2 (cd:streaming) name
        # technologies this data lacks, and the asked pair is not in Table 3
        (twin_dataset / "groups.cfg").write_text("vinyl = Old\ncassette = New\n")
        path = tmp_path / "e.cfg"
        path.write_text(config)
        code, _, err = run_cli(*command, *data_flags(twin_dataset), "--config", str(path),
                               capsys=capsys)
        assert (code, err) == (0, "")

    def test_footer_matches_recomputation_from_csv(self, capsys):
        code, out, _ = run_cli("cycles", "--format", "csv", capsys=capsys)
        assert code == 0
        table, _, scalars = out.partition("\nkey,value\n")
        rows = list(csv.DictReader(io.StringIO(table)))
        assert len(rows) == 6

        ams = [float(r["up_wave_years"]) for r in rows if r["up_wave_years"]]
        mean_am = statistics.fmean(ams)
        sd_am = statistics.stdev(ams)
        scalar_map = dict(
            line.split(",", 1) for line in scalars.strip().splitlines()
        )
        assert float(scalar_map["aggregate.mean_up_wave"]) == pytest.approx(mean_am, abs=1e-9)
        assert float(scalar_map["aggregate.sd_up_wave"]) == pytest.approx(sd_am, abs=1e-9)
        # nested keys are dotted paths, so every value is a number, empty or a boolean
        for value in scalar_map.values():
            if value not in ("", "true", "false"):
                float(value)
        assert scalar_map["aggregate.n_per_column.am"] == "5"

    def test_single_technology_dataset(self, tmp_path, capsys):
        write_files(tmp_path, dataset_files("2000,Solo,,1.0,\n2001,Solo,,5.0,\n2002,Solo,,0.01,\n",
                                            cpi="year,index\n2018,100\n", groups="solo = Solo\n"))
        code, out, _ = run_cli("cycles", *data_flags(tmp_path), "--format", "json",
                               capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["aggregate"]["sd_up_wave"] is None


class TestSimulate:
    def test_window_with_negative_years(self, data_dir, tmp_path, capsys):
        # after a space argparse reads '-15:-5' as an option, so a negative Y1 follows '='
        cfg = tmp_path / "s.cfg"
        cfg.write_text((data_dir / "scenarios" / "dual_logistic_demo.cfg").read_text()
                       .replace("year_start = 0\n", "year_start = -20\n"))
        code, out, _ = run_cli("simulate", "--scenario", str(cfg), "--window=-15:-5",
                               "--format", "json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["window_first"], payload["window_last"]) == (-15, -5)
        # the printed window is the spelling --window reads
        code, out, _ = run_cli("simulate", "--scenario", str(cfg), "--window=-15:-5",
                               "--format", "text", capsys=capsys)
        assert code == 0
        window = re.search(r"^window: (\S+)", out, re.M).group(1)
        assert window == "-15:-5"
        assert parse_window_spec(window) == (-15, -5)

    def test_seed_override_changes_noisy_series(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "k1 = 1000\na1 = 6\nb1 = 0.3\nk2 = 2500\na2 = 9\nb2 = 0.6\n"
            "year_start = 0\nyear_end = 40\nnoise_rel = 0.3\nseed = 1\n"
        )
        results = []
        for seed in ("7", "8"):
            out_dir = tmp_path / f"seed{seed}"
            code, _, _ = run_cli("simulate", "--scenario", str(cfg), "--seed", seed,
                                 "--out", str(out_dir), capsys=capsys)
            assert code == 0
            results.append((out_dir / "disruptive.csv").read_bytes())
        assert results[0] != results[1]

    @pytest.mark.parametrize("flag", ["7", str((1 << 64) + 7)])
    def test_seed_flag_matches_seed_in_file(self, data_dir, tmp_path, capsys, flag):
        demo_path = data_dir / "scenarios" / "dual_logistic_demo.cfg"
        demo = demo_path.read_text()
        assert "seed = 42\n" in demo
        cfg = tmp_path / "s.cfg"
        cfg.write_text(demo.replace("seed = 42\n", "seed = 7\n"))
        from_file = run_cli("simulate", "--scenario", str(cfg), "--format", "json",
                            capsys=capsys)
        from_flag = run_cli("simulate", "--scenario", str(demo_path), "--seed", flag,
                            "--format", "json", capsys=capsys)
        assert from_flag == from_file
        assert json.loads(from_flag[1])["seed"] == 7


@pytest.mark.parametrize("argv", [["report", "--out", "{tmp}"], ["cycles"],
                                  ["crossover", "--old", "8-track", "--new", "cassette"]])
def test_each_technology_events_detected_once(argv, tmp_path, monkeypatch, capsys):
    from techcycle import cycle, report

    detected = []

    def counting(series, *args, **kwargs):
        detected.append(series.technology)
        return cycle.detect_events(series, *args, **kwargs)

    monkeypatch.setattr(report, "detect_events", counting)  # the one module that calls it
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert sorted(detected) == ["8-track", "cassette", "cd", "download", "streaming", "vinyl"]


class TestReport:
    def test_json_and_csv_numbers_agree(self, tmp_path, capsys):
        json_dir, csv_dir = tmp_path / "j", tmp_path / "c"
        assert run_cli("report", "--out", str(json_dir), "--format", "json",
                       capsys=capsys)[0] == 0
        assert run_cli("report", "--out", str(csv_dir), "--format", "csv",
                       capsys=capsys)[0] == 0

        payload = json.loads((json_dir / "table3.json").read_text())
        table, _, scalars = (csv_dir / "table3.csv").read_text().partition("\nkey,value\n")
        rows = list(csv.DictReader(io.StringIO(table)))
        assert len(rows) == len(payload["rows"])
        for json_row, csv_row in zip(payload["rows"], rows):
            for key, value in json_row.items():
                if isinstance(value, float):
                    assert float(csv_row[key]) == value
                elif isinstance(value, bool):
                    assert csv_row[key] == ("true" if value else "false")
                elif value is None:
                    assert csv_row[key] == ""
                else:
                    assert str(value) == csv_row[key]
        scalar_map = dict(line.split(",", 1) for line in scalars.strip().splitlines())
        assert float(scalar_map["dp_mean_years"]) == payload["dp_mean_years"]

    def test_idempotent_over_existing_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        out_dir.mkdir()
        first = run_cli("report", "--out", str(out_dir), capsys=capsys)
        before = (out_dir / "table4.txt").read_bytes()
        second = run_cli("report", "--out", str(out_dir), capsys=capsys)
        assert first[0] == second[0] == 0
        assert (out_dir / "table4.txt").read_bytes() == before


class TestConsoleScript:
    def test_entry_point_runs(self, checkout_env):
        result = subprocess.run(
            [sys.executable, "-m", "techcycle.cli", "--help"],
            capture_output=True, text=True, env=checkout_env,
        )
        # argparse --help exits 0 and prints the subcommands
        assert result.returncode == 0
        for command in ("validate", "fit", "cycles", "crossover", "simulate", "report"):
            assert command in result.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_pipe_exits_0_quietly(self, checkout_env, unbuffered):
        checkout_env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            checkout_env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes a byte
        try:
            result = subprocess.run(
                [sys.executable, "-m", "techcycle.cli", "validate"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=checkout_env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")
