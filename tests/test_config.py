import pytest

from techcycle.config import (
    default_data_dir,
    load_groups,
    load_cpi_csv,
    load_reference,
    parse_window_spec,
    read_kv_file,
)
from techcycle.errors import ConfigError


class TestKvFile:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("# comment\n\na = 1\nb = two ; parts\n")
        assert read_kv_file(path) == {"a": "1", "b": "two ; parts"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("just text\n")
        with pytest.raises(ConfigError, match="line 1"):
            read_kv_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_kv_file(path)


    def test_non_utf8_names_file_and_byte(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_bytes(b"a = 1\nb = \xe9\n")
        with pytest.raises(ConfigError, match=r"x\.cfg: byte 10 \(0xe9\) is not UTF-8"):
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
        with pytest.raises(ConfigError, match="'CD'"):
            load_groups(path)

    def test_empty_format_list_rejected(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("a = ;\n")
        with pytest.raises(ConfigError, match="no formats"):
            load_groups(path)


class TestCpi:
    def test_bundled_cpi_covers_dataset_years(self, data_dir):
        cpi = load_cpi_csv(data_dir / "cpi.csv")
        assert set(range(1973, 2020)) <= set(cpi.entries)
        assert cpi.deflator(2018) == 1.0

    def test_duplicate_year_rejected(self, tmp_path):
        path = tmp_path / "cpi.csv"
        path.write_text("year,index\n2018,100\n2018,101\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_cpi_csv(path)


class TestWindowSpec:
    def test_explicit(self):
        assert parse_window_spec("1984:1990") == (1984, 1990)

    def test_auto(self):
        assert parse_window_spec("auto") is None

    @pytest.mark.parametrize("bad", ["1984", "a:b", "1990:1984"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_window_spec(bad)


class TestReferenceConfig:
    def test_bundled_reference(self, data_dir):
        ref = load_reference(data_dir / "reference.cfg")
        assert ref.table1_window == (1984, 1990)
        assert ref.table2_window == (2004, 2018)
        assert ref.a_overrides["vinyl"] == 1930
        assert ("cd", ("download", "streaming")) in ref.table3_pairs

    def test_defaults_for_missing_keys(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("table1_old = cassette\n")
        ref = load_reference(path)
        assert ref.end_threshold_rel == 0.01
        assert ref.table1_window is None
        assert ref.table3_pairs == ()

    @pytest.mark.parametrize("line", ["table1_windw = 1984:1990", "base_year = 2018"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "r.cfg"
        path.write_text(f"table1_old = cassette\n{line}\n")
        with pytest.raises(ConfigError, match=f"unknown key {line.split()[0]!r}"):
            load_reference(path)

    @pytest.mark.parametrize("line, message", [
        ("end_threshold_rel = often", "end_threshold_rel: could not convert"),
        ("a_override.cd = soon", "a_override.cd: invalid literal"),
        ("table3_pairs = cd", "table3_pairs: pair 'cd' must be 'established:disruptive'"),
    ])
    def test_malformed_value_names_the_key(self, tmp_path, line, message):
        path = tmp_path / "r.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=message):
            load_reference(path)


class TestDataDirEnv:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TECHCYCLE_DATA_DIR", str(tmp_path))
        assert default_data_dir() == tmp_path

    def test_package_data_by_default(self, monkeypatch):
        monkeypatch.delenv("TECHCYCLE_DATA_DIR", raising=False)
        assert (default_data_dir() / "riaa_revenue.csv").exists()
