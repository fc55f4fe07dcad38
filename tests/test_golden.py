"""Pinned SHA-256 digests of CLI output on the bundled data.

The digests were recorded from a known-good build.  Refactors of the
analysis, rendering or config code must leave every byte here unchanged;
a deliberate output change re-pins the digest and says so in CHANGES.md.
Output paths under the temporary directory are replaced by ``OUT`` before
hashing, so the digests do not depend on where the test runs.
"""

import hashlib

import pytest

from techcycle.cli import main
from techcycle.config import default_data_dir

SCENARIO = str(default_data_dir() / "scenarios" / "dual_logistic_demo.cfg")

# format -> (digest of the written tree, digest of stdout)
REPORT = {
    "text": (
        "b218487774ca3192ed5b0c1bfe1db53ee06f89c806813902ff72d1f96b372619",
        "36ac0a81ddaabf09b2fb026d13bcf2d876e2b247f23ea35b890e2be865ec40cb",
    ),
    "json": (
        "2f47c656369d41b3bb6083bd23617659a1b9f625ab6d62e19da97f7fb5112de5",
        "15623b08e9e1cf71f949e78025d5dd67dfd62384b5e2d7dec39dac846b6999c2",
    ),
    "csv": (
        "9589ee30f00960155ebe99d247f50197c5d033cad562e3eda0991b1a1593c87a",
        "4fb4b729f2e0694ff68a363ffce6fab711863f1c0d841a677f870c81ea208854",
    ),
}

# name -> (argv, digest of stdout)
STDOUT = {
    "cycles-text": (
        ["cycles"],
        "302044f1c5fb28ec0b69e3a072cb8e61901bbc9cb28c1a1cd1d2fa274063cf4a",
    ),
    "cycles-json": (
        ["cycles", "--format", "json"],
        "4e5b5edb0c9d99956a758a79bc4655a0f2f52c918371178953d61424a33f5476",
    ),
    "cycles-csv": (
        ["cycles", "--format", "csv"],
        "443d8a430c500e67f6e06bddc5a0f08c1d416b056e20ef02254faef0f040c3be",
    ),
    "fit-json": (
        ["fit", "--old", "cassette", "--new", "cd", "--window", "1984:1990", "--format", "json"],
        "f64c2bfce109c19d213727aca74df0ce80a61b18bb6a6c149dd0e3a7e1543378",
    ),
    "simulate-json": (
        ["simulate", "--scenario", SCENARIO, "--format", "json"],
        "3581fc7ce183e9d5f7c1e178afe60e2580fe419a1125486b91e97b0d18edda6e",
    ),
}

# (digest of the --out tree, digest of stdout)
SIMULATE_TREE = (
    "683acad868ef40639e9142d4e630ed4619681c1d848d7d5d36764b6aeee0a97d",
    "1251244fc837e5d7257a45167657d66768dc47dcf8ccba0a0701b19aa064b400",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _stdout(argv, capsys, out_dir=None) -> str:
    assert main(argv) == 0
    text = capsys.readouterr().out
    return text if out_dir is None else text.replace(str(out_dir), "OUT")


@pytest.mark.parametrize("fmt", sorted(REPORT))
def test_report_bytes(fmt, tmp_path, capsys):
    out_dir = tmp_path / "report"
    stdout = _stdout(["report", "--out", str(out_dir), "--format", fmt], capsys, out_dir)
    assert (_tree_digest(out_dir), _sha(stdout)) == REPORT[fmt]


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_bytes(name, capsys):
    argv, expected = STDOUT[name]
    assert _sha(_stdout(argv, capsys)) == expected


def test_simulate_series_bytes(tmp_path, capsys):
    out_dir = tmp_path / "series"
    stdout = _stdout(["simulate", "--scenario", SCENARIO, "--out", str(out_dir)], capsys, out_dir)
    assert (_tree_digest(out_dir), _sha(stdout)) == SIMULATE_TREE
