import re

import pytest

from techcycle.config import (
    default_data_dir,
    load_groups,
    load_cpi_csv,
    load_reference,
    load_revenue_csv,
    parse_keys,
    parse_window_spec,
    read_kv_file,
)
from techcycle.errors import TechCycleError


class TestKvFile:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("# comment\n\na = 1\nb = two ; parts\n")
        assert read_kv_file(path) == {"a": "1", "b": "two ; parts"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("just text\n")
        with pytest.raises(TechCycleError, match="line 1"):
            read_kv_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(TechCycleError, match="duplicate"):
            read_kv_file(path)


    def test_non_utf8_names_file_and_byte(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_bytes(b"a = 1\nb = \xe9\n")
        with pytest.raises(TechCycleError, match=r"x\.cfg: byte 10 \(0xe9\) is not UTF-8"):
            read_kv_file(path)


class TestGroups:
    def test_bundled_groups(self, data_dir):
        groups = load_groups(data_dir / "groups.cfg")
        names = [g.name for g in groups]
        assert names == ["vinyl", "8-track", "cassette", "cd", "download", "streaming"]
        streaming = groups[-1]
        assert len(streaming.formats) == 5

    def test_format_in_two_groups_rejected(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("a = CD\nb = CD; Cassette\n")
        with pytest.raises(TechCycleError, match="'CD'"):
            load_groups(path)

    @pytest.mark.parametrize("name", [
        "c+d", "c.d", "c d", "c:d", "c;d", "c/d", "disque_vinyl\u00e9",
    ])
    def test_name_outside_flag_and_file_name_charset_rejected(self, tmp_path, name):
        path = tmp_path / "g.cfg"
        path.write_text(f"{name} = CD\n")
        with pytest.raises(TechCycleError, match=(
                rf"g\.cfg: group name {re.escape(repr(name))} may hold only ASCII letters, "
                r"digits, '-' and '_'$")):
            load_groups(path)

    def test_letters_digits_dash_underscore_accepted(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("8-track = 8-Track\nLP_single_2 = LP\n")
        assert [g.name for g in load_groups(path)] == ["8-track", "LP_single_2"]

    def test_empty_format_list_rejected(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("a = ;\n")
        with pytest.raises(TechCycleError, match="no formats"):
            load_groups(path)


class TestCpi:
    def test_bundled_cpi_covers_dataset_years(self, data_dir):
        cpi = load_cpi_csv(data_dir / "cpi.csv")
        assert set(range(1973, 2020)) <= set(cpi.entries)
        assert cpi.deflator(2018) == 1.0

    def test_duplicate_year_rejected(self, tmp_path):
        path = tmp_path / "cpi.csv"
        path.write_text("year,index\n2018,100\n2018,101\n")
        with pytest.raises(TechCycleError, match="duplicate"):
            load_cpi_csv(path)


class TestWindowSpec:
    def test_explicit(self):
        assert parse_window_spec("1984:1990") == (1984, 1990)

    def test_auto(self):
        assert parse_window_spec("auto") is None

    @pytest.mark.parametrize("bad", ["1984", "a:b", "1990:1984"])
    def test_rejects_malformed(self, bad):
        fault = {"1984": "must be 'Y1:Y2'", "a:b": "non-integer", "1990:1984": "reversed"}[bad]
        with pytest.raises(TechCycleError, match=fault):
            parse_window_spec(bad)


NAME_RULE = "may hold only ASCII letters, digits, '-' and '_'"


class TestParseKeys:
    PARSERS = {"n": int, "year.": int}

    def test_prefix_keys_are_gathered_by_name(self):
        values = {"year.cd": "2", "n": "1", "year.lp": "3"}
        assert parse_keys(values, self.PARSERS) == {"n": 1, "year": {"cd": 2, "lp": 3}}

    @pytest.mark.parametrize("values, message", [
        ({"n": "1", "m": "1", "b": "1"}, "unknown key 'm'"),
        ({"n": "x", "m": "1"}, "n: invalid literal for int() with base 10: 'x'"),
        ({"year": "1"}, "unknown key 'year'"),
        ({"n.x": "1"}, "unknown key 'n.x'"),
        ({"year.c+d": "1"}, f"year.c+d: name 'c+d' {NAME_RULE}"),
        ({"year.": "1"}, f"year.: name '' {NAME_RULE}"),
        ({"year.cd": "x"}, "year.cd: invalid literal for int() with base 10: 'x'"),
    ])
    def test_the_first_fault_in_file_order_names_its_key(self, values, message):
        with pytest.raises(TechCycleError) as exc:
            parse_keys(values, self.PARSERS)
        assert str(exc.value) == message


class TestReferenceConfig:
    def test_bundled_reference(self, data_dir):
        ref = load_reference(data_dir / "reference.cfg")
        assert ref.table1_window == (1984, 1990)
        assert ref.table2_window == (2004, 2018)
        assert ref.a_overrides["vinyl"] == 1930
        assert ("cd", "download+streaming") in ref.table3_pairs

    def test_defaults_for_missing_keys(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("table1_old = cassette\n")
        ref = load_reference(path)
        assert ref.end_threshold_rel == 0.01
        assert ref.table1_window is None
        assert ref.table3_pairs == ()

    @pytest.mark.parametrize("line", [
        "table1_windw = 1984:1990", "base_year = 2018", "regime_tolerance = 0.05",
    ])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "r.cfg"
        path.write_text(f"table1_old = cassette\n{line}\n")
        with pytest.raises(TechCycleError, match=f"unknown key {line.split()[0]!r}"):
            load_reference(path)

    @pytest.mark.parametrize("line, message", [
        ("end_threshold_rel = often", "end_threshold_rel: could not convert"),
        ("a_override.cd = soon", "a_override.cd: invalid literal"),
        ("table3_pairs = cd", "table3_pairs: pair 'cd' must be 'established:disruptive'"),
        ("table3_pairs = vinyl:8-track; cd: cd ",
         "table3_pairs: pair 'cd: cd' pairs a technology with itself"),
        ("table1_window = 1990", "table1_window: window spec '1990' must be 'Y1:Y2' or 'auto'"),
        ("table2_window = 2004:x", "table2_window: window spec '2004:x' has non-integer years"),
    ])
    def test_malformed_value_names_the_key(self, tmp_path, line, message):
        path = tmp_path / "r.cfg"
        path.write_text(line + "\n")
        with pytest.raises(TechCycleError, match=message):
            load_reference(path)

    @pytest.mark.parametrize("pairs", [
        "vinyl:8-track; cd:download;", "; vinyl:8-track;; cd:download ; ;",
    ])
    def test_empty_pair_chunks_change_nothing(self, tmp_path, pairs):
        path = tmp_path / "r.cfg"
        path.write_text(f"table3_pairs = {pairs}\n")
        assert load_reference(path).table3_pairs == (("vinyl", "8-track"), ("cd", "download"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01", "1.5"])
    def test_dp_residual_max_outside_unit_interval_rejected(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"dp_residual_max = {value}\n")
        with pytest.raises(TechCycleError, match=r"r\.cfg: dp_residual_max: .* is not in \[0, 1\]"):
            load_reference(path)

    @pytest.mark.parametrize("value", ["0", "1", "0.3"])
    def test_dp_residual_max_bounds_accepted(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"dp_residual_max = {value}\n")
        assert load_reference(path).dp_residual_max == float(value)


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_threshold_outside_domain_rejected(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"end_threshold_rel = {value}\n")
        with pytest.raises(TechCycleError,
                           match=r"r\.cfg: end_threshold_rel: .* is not in \(0, 1\)$"):
            load_reference(path)

    @pytest.mark.parametrize("value", ["1", "1.5"])
    def test_end_threshold_rel_of_one_or_more_rejected(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"end_threshold_rel = {value}\n")
        with pytest.raises(TechCycleError, match=r"end_threshold_rel: .* is not in \(0, 1\)"):
            load_reference(path)

    @pytest.mark.parametrize("value", ["1e-300", "0.999"])
    def test_threshold_inside_domain_accepted(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"end_threshold_rel = {value}\n")
        assert load_reference(path).end_threshold_rel == float(value)

    @pytest.mark.parametrize("value", ["1899", "2101", "-5000", "-1" + "0" * 400],
                             ids=["1899", "2101", "-5000", "-10**400"])
    def test_override_year_outside_data_years_rejected(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"a_override.cassette = {value}\n")
        with pytest.raises(TechCycleError, match=(
                rf"r\.cfg: a_override\.cassette: {value} is not in \[1900, 2100\]$")):
            load_reference(path)

    @pytest.mark.parametrize("value", [1900, 2100])
    def test_override_year_bounds_accepted(self, tmp_path, value):
        path = tmp_path / "r.cfg"
        path.write_text(f"a_override.cassette = {value}\n")
        assert load_reference(path).a_overrides == {"cassette": value}


class TestRevenueCsv:
    HEADER = "year,format,revenue_nominal_musd,revenue_real_musd,units_m\n"

    @pytest.mark.parametrize("body, message", [
        ("2000,CD,oops,,\n", "row 1, column revenue_nominal_musd"),
        ("2000,CD,1.0\n", "row 1: expected 5 cells"),
        ("2000,CD,1.0,,\n2000,CD,2.0,,\n", "row 2: duplicate entry"),
    ])
    def test_errors_start_with_the_path(self, tmp_path, body, message):
        path = tmp_path / "revenue.csv"
        path.write_text(self.HEADER + body)
        with pytest.raises(TechCycleError) as exc:
            load_revenue_csv(path)
        assert str(exc.value).startswith(f"{path}: {message}")


class TestDataDirEnv:
    def test_package_data_by_default(self):
        assert (default_data_dir() / "riaa_revenue.csv").exists()
