"""Whole-pipeline relations on the bundled data: a change to the inputs that
should not matter must leave every byte of `report` unchanged, in every format.
"""

import random

import pytest

from techcycle.cli import main

FORMATS = ("text", "csv", "json")


def _report(data_dir, data_path, out_dir, fmt, capsys):
    """Every file `report` writes, by relative path, and its stdout."""
    argv = ["report", "--out", str(out_dir), "--format", fmt, "--data", str(data_path),
            "--cpi", str(data_dir / "cpi.csv"), "--groups", str(data_dir / "groups.cfg"),
            "--config", str(data_dir / "reference.cfg")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in out_dir.rglob("*") if p.is_file()}
    return files, stdout


@pytest.mark.parametrize("fmt", FORMATS)
def test_row_order_does_not_change_the_report(fmt, data_dir, tmp_path, capsys):
    header, *rows = (data_dir / "riaa_revenue.csv").read_text(encoding="utf-8").splitlines()
    random.Random(7).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    bundled = _report(data_dir, data_dir / "riaa_revenue.csv", tmp_path / "a", fmt, capsys)
    permuted = _report(data_dir, shuffled, tmp_path / "b", fmt, capsys)
    assert permuted == bundled
