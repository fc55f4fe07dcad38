import csv
import io
import json
import os
import statistics
import subprocess
import sys

import pytest

from techcycle.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def tiny_dataset(tmp_path):
    """Two never-overlapping technologies plus a CPI covering their years."""
    (tmp_path / "data.csv").write_text(
        "year,format,revenue_nominal_musd,revenue_real_musd,units_m\n"
        "2000,Old,10.0,,\n2001,Old,10.0,,\n"
        "2005,New,1.0,,\n2006,New,2.0,,\n"
    )
    (tmp_path / "cpi.csv").write_text(
        "year,index\n2000,80\n2001,82\n2005,90\n2006,92\n2018,100\n"
    )
    (tmp_path / "groups.cfg").write_text("old = Old\nnew = New\n")
    return tmp_path


@pytest.fixture()
def twin_dataset(tmp_path):
    """Two technologies with equal revenue every year, so new = old ** 1 exactly."""
    rows = [f"{2000 + i},{fmt},,{value!r},"
            for i, value in enumerate([1.0, 2.0, 4.0, 8.0, 16.0, 8.0, 4.0, 2.0, 0.01])
            for fmt in ("Old", "New")]
    (tmp_path / "data.csv").write_text(
        "year,format,revenue_nominal_musd,revenue_real_musd,units_m\n" + "\n".join(rows) + "\n"
    )
    (tmp_path / "cpi.csv").write_text("year,index\n2018,100\n")
    (tmp_path / "groups.cfg").write_text("old = Old\nnew = New\n")
    (tmp_path / "reference.cfg").write_text(
        "table1_old = old\ntable1_new = new\ntable2_old = old\ntable2_new = new\n"
    )
    return tmp_path


def strict_json(text):
    """``json.loads`` that rejects the non-standard Infinity, -Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def data_flags(path):
    return ["--data", str(path / "data.csv"), "--cpi", str(path / "cpi.csv"),
            "--groups", str(path / "groups.cfg")]


class TestValidate:
    def test_bundled_dataset_ok(self, capsys):
        code, out, _ = run_cli("validate", capsys=capsys)
        assert code == 0
        assert "ok" in out
        assert "technologies: vinyl, 8-track, cassette, cd, download, streaming" in out

    def test_broken_dataset_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("year,format\n")
        code, _, err = run_cli(
            "validate", "--data", str(tmp_path / "bad.csv"), capsys=capsys
        )
        assert code == 2
        assert "header" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", ["revenue_nominal_musd", "revenue_real_musd", "units_m"])
    def test_non_finite_number_exits_2(self, tiny_dataset, capsys, column, cell):
        row = {"revenue_nominal_musd": "10.0", "revenue_real_musd": "", "units_m": "", column: cell}
        (tiny_dataset / "data.csv").write_text(
            "year,format," + ",".join(row) + "\n2000,Old," + ",".join(row.values()) + "\n"
        )
        code, _, err = run_cli("validate", *data_flags(tiny_dataset), capsys=capsys)
        assert code == 2
        assert f"{column} must be a finite number" in err
        assert "Traceback" not in err

    def test_utf8_bom_inputs_accepted(self, data_dir, tmp_path, capsys):
        for name in ("riaa_revenue.csv", "cpi.csv", "groups.cfg"):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
        plain = run_cli("validate", capsys=capsys)
        bom = run_cli("validate", "--data", str(tmp_path / "riaa_revenue.csv"),
                      "--cpi", str(tmp_path / "cpi.csv"),
                      "--groups", str(tmp_path / "groups.cfg"), capsys=capsys)
        assert bom == plain
        assert bom[0] == 0

    @pytest.mark.parametrize("name, argv", [
        ("riaa_revenue.csv", ["validate", "--data"]),
        ("cpi.csv", ["validate", "--cpi"]),
        ("reference.cfg", ["cycles", "--config"]),
        ("scenarios/dual_logistic_demo.cfg", ["simulate", "--scenario"]),
    ])
    def test_non_utf8_input_exits_2(self, data_dir, tmp_path, capsys, name, argv):
        text = (data_dir / name).read_bytes()
        path = tmp_path / "input"
        path.write_bytes(text[:40] + b"\xff" + text[40:])
        code, _, err = run_cli(*argv, str(path), capsys=capsys)
        assert (code, err) == (2, f"error: {path}: byte 40 (0xff) is not UTF-8\n")

    @pytest.mark.parametrize("flag", ["--data", "--cpi"])
    def test_oversized_csv_field_exits_2(self, data_dir, tmp_path, capsys, flag):
        name = "riaa_revenue.csv" if flag == "--data" else "cpi.csv"
        path = tmp_path / name
        path.write_text((data_dir / name).read_text() + "2000," + "9" * 200_000 + "\n")
        code, _, err = run_cli("validate", flag, str(path), capsys=capsys)
        assert code == 2
        assert "field larger than field limit" in err and err.count("\n") == 1

    def test_revenue_csv_error_starts_with_the_path(self, data_dir, tmp_path, capsys):
        path = tmp_path / "riaa_revenue.csv"
        path.write_text((data_dir / "riaa_revenue.csv").read_text() + "2000,CD,-,,\n")
        code, _, err = run_cli("validate", "--data", str(path), capsys=capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: row ") and err.count("\n") == 1


class TestFit:
    def test_reference_window_acceleration(self, capsys):
        code, out, _ = run_cli(
            "fit", "--old", "cassette", "--new", "cd", "--window", "1984:1990",
            capsys=capsys,
        )
        assert code == 0
        assert "Regime: Acceleration" in out

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

    @pytest.mark.parametrize("command", ["fit", "crossover"])
    @pytest.mark.parametrize("new", ["cd", " cd", "cd+"])
    def test_self_pair_exits_2(self, capsys, command, new):
        code, out, err = run_cli(command, "--old", "cd", "--new", new, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: --old and --new both name 'cd'\n"

    def test_unknown_technology_lists_names(self, capsys):
        code, _, err = run_cli("fit", "--old", "betamax", "--new", "cd", capsys=capsys)
        assert code == 2
        assert "betamax" in err and "cassette" in err

    def test_label_is_spelled_from_the_series(self, capsys):
        code, out, _ = run_cli("fit", "--old", "cassette", "--new", "cd\n", "--format", "csv",
                               capsys=capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert all(len(cells) == 2 for cells in csv.reader(lines))
        assert "pair,cd vs cassette" in lines

    def test_insufficient_window_exits_3(self, capsys):
        code, _, err = run_cli(
            "fit", "--old", "cassette", "--new", "cd", "--window", "1990:1991",
            capsys=capsys,
        )
        assert code == 3

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


@pytest.mark.parametrize("command, line, message", [
    ("cycles", "end_threshold_rel = nan", "end_threshold_rel: nan is not in (0, 1)"),
    ("cycles", "end_threshold_rel = 1", "end_threshold_rel: 1.0 is not in (0, 1)"),
    ("cycles", "a_override.cassette = -5000", "a_override.cassette: -5000 is not in [1900, 2100]"),
    ("report", "table3_pairs = cd:cd", "table3_pairs: pair 'cd:cd' pairs a technology with itself"),
])
def test_config_value_out_of_domain_exits_2(data_dir, tmp_path, capsys, command, line, message):
    key = line.split()[0]
    path = tmp_path / "r.cfg"
    path.write_text("".join(
        f"{line}\n" if old.startswith(f"{key} =") else f"{old}\n"
        for old in (data_dir / "reference.cfg").read_text().splitlines()
    ))
    out_flag = ["--out", str(tmp_path / "out")] if command == "report" else []
    code, out, err = run_cli(command, "--config", str(path), *out_flag, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["fit", "--old", "cassette", "--new", "cd"],
    ["cycles"],
    ["crossover", "--old", "cd", "--new", "download"],
    ["report", "--out", "{tmp}"],
])
def test_base_year_flag_removed(tmp_path, capsys, argv):
    # The dollar basis is the data's: revenue_real_musd is in 2018 dollars.
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv] + ["--base-year", "2018"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --base-year" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["fit", "--old", "cassette", "--new", "cd", "--tolerance", "0.05"], "--tolerance"),
    (["simulate", "--scenario", "{scenario}", "--early-fraction", "0.1"], "--early-fraction"),
])
def test_regime_band_and_early_fraction_flags_removed(data_dir, capsys, argv, flag):
    # The proportional band is fixed in growth.py; the early window's fraction
    # is recovery_experiment's default.
    scenario = data_dir / "scenarios" / "dual_logistic_demo.cfg"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(scenario=scenario) for arg in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestCrossover:
    def test_8_track_cassette(self, capsys):
        code, out, _ = run_cli("crossover", "--old", "8-track", "--new", "cassette",
                               capsys=capsys)
        assert code == 0
        assert "crossover year: 1980" in out
        assert "42.80%" in out

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
        rows = [f"{2000 + i},{fmt},,{value!r},"
                for fmt, values in (("Old", [1.0, 2.0, 3.0, 4.0]), ("New", [1.0, 3.0, 5.0, 7.0]))
                for i, value in enumerate(values)]
        (tmp_path / "data.csv").write_text(
            "year,format,revenue_nominal_musd,revenue_real_musd,units_m\n" + "\n".join(rows) + "\n")
        (tmp_path / "cpi.csv").write_text("year,index\n2018,100\n")
        (tmp_path / "groups.cfg").write_text("old = Old\nnew = New\n")
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

    def test_nan_dp_residual_max_exits_2(self, data_dir, tmp_path, capsys):
        path = tmp_path / "r.cfg"
        path.write_text((data_dir / "reference.cfg").read_text().replace(
            "dp_residual_max = 0.10", "dp_residual_max = nan"))
        code, out, err = run_cli("crossover", "--old", "download", "--new", "streaming",
                                 "--config", str(path), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: dp_residual_max: nan is not in [0, 1]\n"

    def test_end_threshold_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crossover", "--old", "cd", "--new", "download", "--end-threshold", "0.1"])
        assert exc.value.code == 2

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

    def test_streaming_row_marked_ongoing(self, capsys):
        code, out, _ = run_cli("cycles", capsys=capsys)
        assert code == 0
        streaming_row = next(l for l in out.splitlines() if l.startswith("streaming"))
        assert "*" in streaming_row

    def test_single_technology_dataset(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text(
            "year,format,revenue_nominal_musd,revenue_real_musd,units_m\n"
            "2000,Solo,,1.0,\n2001,Solo,,5.0,\n2002,Solo,,0.01,\n"
        )
        (tmp_path / "cpi.csv").write_text("year,index\n2018,100\n")
        (tmp_path / "groups.cfg").write_text("solo = Solo\n")
        code, out, _ = run_cli("cycles", *data_flags(tmp_path), "--format", "json",
                               capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["aggregate"]["sd_up_wave"] is None


class TestSimulate:
    def test_demo_scenario(self, data_dir, capsys):
        code, out, _ = run_cli(
            "simulate", "--scenario", str(data_dir / "scenarios" / "dual_logistic_demo.cfg"),
            capsys=capsys,
        )
        assert code == 0
        assert "theoretical exponent (rate ratio): 2.0000" in out

    def test_rerun_outputs_byte_identical(self, data_dir, tmp_path, capsys):
        scenario = str(data_dir / "scenarios" / "dual_logistic_demo.cfg")
        outputs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, out, _ = run_cli("simulate", "--scenario", scenario,
                                   "--out", str(out_dir), capsys=capsys)
            assert code == 0
            outputs.append(
                (out,
                 (out_dir / "established.csv").read_bytes(),
                 (out_dir / "disruptive.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("window", ["5000:5010", "35:45"])
    def test_window_outside_the_scenario_exits_3(self, data_dir, capsys, window):
        code, out, err = run_cli(
            "simulate", "--scenario", str(data_dir / "scenarios" / "dual_logistic_demo.cfg"),
            "--window", window, capsys=capsys,
        )
        assert (code, out) == (3, "")
        assert "not fittable" in err and err.count("\n") == 1

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

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("k1 = 1000\n")
        code, _, err = run_cli("simulate", "--scenario", str(cfg), capsys=capsys)
        assert code == 2

    def test_huge_year_range_exits_2(self, data_dir, tmp_path, capsys):
        demo = (data_dir / "scenarios" / "dual_logistic_demo.cfg").read_text()
        cfg = tmp_path / "s.cfg"
        cfg.write_text(demo.replace("year_end = 40", "year_end = 100000000"))
        code, _, err = run_cli("simulate", "--scenario", str(cfg),
                               "--out", str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert "at most 10000" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["report", "--out", "{tmp}"], ["cycles"],
                                  ["crossover", "--old", "8-track", "--new", "cassette"]])
def test_each_technology_events_detected_once(argv, tmp_path, monkeypatch, capsys):
    from techcycle import cli, cycle, report

    detected = []

    def counting(series, *args, **kwargs):
        detected.append(series.technology)
        return cycle.detect_events(series, *args, **kwargs)

    for module in (cli, report):  # both import the name
        monkeypatch.setattr(module, "detect_events", counting)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert sorted(detected) == ["8-track", "cassette", "cd", "download", "streaming", "vinyl"]


class TestReport:
    def test_writes_all_tables_and_plots(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code, out, _ = run_cli("report", "--out", str(out_dir), capsys=capsys)
        assert code == 0
        for name in ("table1.txt", "table2.txt", "table3.txt", "table4.txt"):
            assert (out_dir / name).exists()
        for tech in ("vinyl", "8-track", "cassette", "cd", "download", "streaming"):
            assert (out_dir / "plots" / f"{tech}.csv").exists()
        assert "mean disruption period:" in out

    def test_rerun_byte_identical(self, tmp_path, capsys):
        digests = []
        for sub in ("one", "two"):
            out_dir = tmp_path / sub
            code, _, _ = run_cli("report", "--out", str(out_dir), capsys=capsys)
            assert code == 0
            digest = {
                p.relative_to(out_dir): p.read_bytes()
                for p in sorted(out_dir.rglob("*")) if p.is_file()
            }
            digests.append(digest)
        assert digests[0] == digests[1]

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
