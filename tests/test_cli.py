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

    def test_self_regression_is_exact_proportional(self, capsys):
        code, out, _ = run_cli(
            "fit", "--old", "cassette", "--new", "cassette", capsys=capsys
        )
        assert code == 0
        assert "Regime: Proportional" in out
        assert "R2 = 1.00" in out

    def test_unknown_technology_lists_names(self, capsys):
        code, _, err = run_cli("fit", "--old", "betamax", "--new", "cd", capsys=capsys)
        assert code == 2
        assert "betamax" in err and "cassette" in err

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
            code, out, _ = run_cli("crossover", "--old", row["established"],
                                   "--new", row["disruptive"], "--format", "json",
                                   capsys=capsys)
            assert code == 0
            assert json.loads(out) == row

    @pytest.mark.parametrize("old, new, reason", [
        ("vinyl", "8-track", "boundary crossover"),
        ("cd", "download+streaming", "already counted for cd"),
        ("download", "streaming", "download still at 24.83% of peak"),
    ])
    def test_omitted_dp_prints_its_reason(self, capsys, old, new, reason):
        code, out, _ = run_cli("crossover", "--old", old, "--new", new, capsys=capsys)
        assert code == 0
        assert f"disruption period: not counted ({reason}" in out

    def test_config_sets_the_dp_rule(self, data_dir, tmp_path, capsys):
        path = tmp_path / "r.cfg"
        path.write_text((data_dir / "reference.cfg").read_text().replace(
            "dp_residual_max = 0.10", "dp_residual_max = 0.30"))
        code, out, _ = run_cli("crossover", "--old", "download", "--new", "streaming",
                               "--config", str(path), capsys=capsys)
        assert code == 0
        assert "disruption period: 7 years (peak 2012, end 2019*)" in out

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
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "techcycle.cli", "--help"],
            capture_output=True, text=True,
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
