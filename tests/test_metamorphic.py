"""Whole-pipeline relations on the bundled data: a change to the inputs that
should not matter must leave every byte of `report` unchanged, in every format,
and one that should move a number must move it by what the model says.
"""

import csv
import io
import json
import math
import random

import pytest

from techcycle.cli import main
from techcycle.report import FORMATS as REPORT_FORMATS

FORMATS = ("text", "csv", "json")


def _report(data_dir, data_path, out_dir, fmt, capsys, groups_path=None, cpi_path=None):
    """Every file `report` writes, by relative path, and its stdout."""
    groups_path = groups_path or data_dir / "groups.cfg"
    cpi_path = cpi_path or data_dir / "cpi.csv"
    argv = ["report", "--out", str(out_dir), "--format", fmt, "--data", str(data_path),
            "--cpi", str(cpi_path), "--groups", str(groups_path),
            "--config", str(data_dir / "reference.cfg")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in out_dir.rglob("*") if p.is_file()}
    return files, stdout


def _rewrite(data_dir, tmp_path, rows, groups):
    """The bundled revenue rows and groups.cfg lines passed through ``rows``
    and ``groups``, written to ``tmp_path``; returns the two paths."""
    header, *records = csv.reader(io.StringIO(
        (data_dir / "riaa_revenue.csv").read_text(encoding="utf-8")))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows(records)])
    data_path, groups_path = tmp_path / "data.csv", tmp_path / "groups.cfg"
    data_path.write_text(out.getvalue(), encoding="utf-8")
    lines = (data_dir / "groups.cfg").read_text(encoding="utf-8").splitlines()
    groups_path.write_text("\n".join(map(groups, lines)) + "\n", encoding="utf-8")
    return data_path, groups_path


def _formats(line, rename):
    """A groups.cfg line with each format label passed through ``rename``."""
    name, sep, labels = line.partition("=")
    if line.startswith("#") or not sep:
        return line
    return f"{name}= {'; '.join(rename(label.strip()) for label in labels.split(';'))}"


@pytest.mark.parametrize("fmt", FORMATS)
def test_row_order_does_not_change_the_report(fmt, data_dir, tmp_path, capsys):
    header, *rows = (data_dir / "riaa_revenue.csv").read_text(encoding="utf-8").splitlines()
    random.Random(7).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    bundled = _report(data_dir, data_dir / "riaa_revenue.csv", tmp_path / "a", fmt, capsys)
    permuted = _report(data_dir, shuffled, tmp_path / "b", fmt, capsys)
    assert permuted == bundled


@pytest.mark.parametrize("fmt", FORMATS)
def test_format_labels_do_not_change_the_report(fmt, data_dir, tmp_path, capsys):
    labels = sorted({row[1] for row in csv.reader(
        (data_dir / "riaa_revenue.csv").read_text(encoding="utf-8").splitlines()[1:])})
    new_label = {label: f"label {i}" for i, label in enumerate(labels)}.get
    data_path, groups_path = _rewrite(
        data_dir, tmp_path, lambda rows: [[y, new_label(f), *rest] for y, f, *rest in rows],
        lambda line: _formats(line, new_label))
    bundled = _report(data_dir, data_dir / "riaa_revenue.csv", tmp_path / "a", fmt, capsys)
    renamed = _report(data_dir, data_path, tmp_path / "b", fmt, capsys, groups_path)
    assert renamed == bundled


@pytest.mark.parametrize("fmt", FORMATS)
def test_splitting_a_format_in_halves_does_not_change_the_report(fmt, data_dir, tmp_path,
                                                                   capsys):
    def halves(rows):
        for year, label, *values in rows:
            if label != "CD":
                yield [year, label, *values]
                continue
            half = ["" if not v else repr(float(v) / 2) for v in values]
            yield from ([year, "CD", *half], [year, "CD-B", *half])

    data_path, groups_path = _rewrite(
        data_dir, tmp_path, halves,
        lambda line: _formats(line, lambda label: "CD; CD-B" if label == "CD" else label))
    assert "cd = CD; CD-B; CD Single" in groups_path.read_text(encoding="utf-8")
    bundled = _report(data_dir, data_dir / "riaa_revenue.csv", tmp_path / "a", fmt, capsys)
    split = _report(data_dir, data_path, tmp_path / "b", fmt, capsys, groups_path)
    assert split == bundled


@pytest.mark.parametrize("c", [10, 3, 0.001])
def test_scaling_revenue_moves_only_log_a(c, data_dir, tmp_path, capsys):
    """Both revenue columns times c leave every event where it was, and turn
    ln K = ln A + B ln V into ln cK = (ln A + (1 - B) ln c) + B ln cV."""
    data_path, groups_path = _rewrite(data_dir, tmp_path, lambda rows: [
        [year, label, *("" if not v else repr(float(v) * c) for v in (nominal, real)), *rest]
        for year, label, nominal, real, *rest in rows], lambda line: line)
    runs = {fmt: (_report(data_dir, data_dir / "riaa_revenue.csv", tmp_path / fmt, fmt, capsys),
                  _report(data_dir, data_path, tmp_path / f"{fmt}-scaled", fmt, capsys,
                          groups_path))
            for fmt in FORMATS}
    for fmt, ((bundled, bundled_out), (scaled, scaled_out)) in runs.items():
        table4 = f"table4.{REPORT_FORMATS[fmt]}"
        assert scaled[table4] == bundled[table4]
        assert scaled_out == bundled_out  # the mean DP and the cycle asymmetry
    bundled, scaled = (
        {name: json.loads(files[f"{name}.json"]) for name in ("table1", "table2", "table3")}
        for files, _ in runs["json"]
    )
    events = ("crossover_year", "disruption_period_years", "dp_note")
    assert [[row[key] for key in events] for row in scaled["table3"]["rows"]] == \
        [[row[key] for key in events] for row in bundled["table3"]["rows"]]
    assert scaled["table3"]["dp_mean_years"] == bundled["table3"]["dp_mean_years"]
    assert scaled["table3"]["dp_sd_years"] == bundled["table3"]["dp_sd_years"]
    # bounds stated before the run: B and R^2 within 1e-12, the log A shift within 1e-12
    for old, new in ((bundled[name], scaled[name]) for name in ("table1", "table2")):
        assert abs(new["exponent_b"] - old["exponent_b"]) <= 1e-12
        assert abs(new["r2"] - old["r2"]) <= 1e-12
        shift = (1.0 - old["exponent_b"]) * math.log(c)
        assert abs(new["intercept_log_a"] - old["intercept_log_a"] - shift) <= 1e-12


def _cpi_scaled_runs(c, data_dir, tmp_path, capsys):
    """Per format, `report` on the bundled rows with every real cell blanked, so
    that each row is deflated, once with the bundled CPI and once with every
    index times c."""
    data_path, groups_path = _rewrite(data_dir, tmp_path, lambda rows: [
        [year, label, nominal, "", *rest] for year, label, nominal, _real, *rest in rows],
        lambda line: line)
    header, *rows = (data_dir / "cpi.csv").read_text(encoding="utf-8").splitlines()
    cpi_path = tmp_path / "cpi.csv"
    cpi_path.write_text("\n".join([header, *(f"{year},{float(index) * c!r}" for year, index in
                                             (row.split(",") for row in rows))]) + "\n",
                        encoding="utf-8")
    return {fmt: (_report(data_dir, data_path, tmp_path / fmt, fmt, capsys, groups_path),
                  _report(data_dir, data_path, tmp_path / f"{fmt}-scaled", fmt, capsys,
                          groups_path, cpi_path))
            for fmt in FORMATS}


@pytest.mark.parametrize("c", [2, 0.5])
def test_scaling_the_cpi_by_a_power_of_two_does_not_change_the_report(c, data_dir, tmp_path,
                                                                        capsys):
    # both indices of each deflator's quotient scale exactly, so the quotient does not move
    for fmt, (deflated, scaled) in _cpi_scaled_runs(c, data_dir, tmp_path, capsys).items():
        assert scaled == deflated, fmt


@pytest.mark.parametrize("c", [7.3, 0.001])
def test_scaling_the_cpi_moves_only_roundings(c, data_dir, tmp_path, capsys):
    """Each deflated value is base * c / (index * c) * nominal: two scaled
    products, a quotient and a product, then a correctly rounded sum, about 7
    units of 2**-53 relative.  Bounds stated before the run: plot values within
    16 ulps, Table 3 shares within 1e-14 relative, B, R^2 and log A within 1e-12,
    and every event, Table 4 and stdout unchanged."""
    runs = _cpi_scaled_runs(c, data_dir, tmp_path, capsys)
    for fmt, ((deflated, deflated_out), (scaled, scaled_out)) in runs.items():
        table4 = f"table4.{REPORT_FORMATS[fmt]}"
        assert scaled[table4] == deflated[table4]
        assert scaled_out == deflated_out  # the mean DP and the cycle asymmetry
    (deflated, _), (scaled, _) = runs["json"]
    plots = sorted(name for name in deflated if name.startswith("plots/"))
    assert plots == sorted(name for name in scaled if name.startswith("plots/"))
    for name in plots:
        old_rows, new_rows = (list(csv.reader(io.StringIO(files[name].decode())))[1:]
                              for files in (deflated, scaled))
        assert [year for year, _ in new_rows] == [year for year, _ in old_rows]
        for (_, old), (_, new) in zip(old_rows, new_rows):
            assert abs(float(new) - float(old)) <= 16 * math.ulp(float(old)), name
    old_tables, new_tables = (
        {name: json.loads(files[f"{name}.json"]) for name in ("table1", "table2", "table3")}
        for files in (deflated, scaled))
    events = ("crossover_year", "disruption_period_years", "dp_note")
    old_rows, new_rows = old_tables["table3"]["rows"], new_tables["table3"]["rows"]
    assert [[row[key] for key in events] for row in new_rows] == \
        [[row[key] for key in events] for row in old_rows]
    for old, new in zip(old_rows, new_rows):
        share = old["established_share_pct"]
        if share is not None:
            assert abs(new["established_share_pct"] - share) <= 1e-14 * share
    for old, new in ((old_tables[name], new_tables[name]) for name in ("table1", "table2")):
        for key in ("exponent_b", "r2", "intercept_log_a"):
            assert abs(new[key] - old[key]) <= 1e-12, key
