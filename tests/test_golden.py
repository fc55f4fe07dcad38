"""Pinned SHA-256 digests of CLI output on the bundled data.

This module is the one place that pins each CLI output's bytes and exit
code on the bundled inputs: every subcommand in every ``--format`` it
offers has a digest here, and other tests check outputs only on other
inputs or another argv.  The digests were recorded from a known-good
build.  Refactors of the analysis, rendering or config code must leave
every byte here unchanged; a deliberate output change re-pins the digest
and says so in CHANGES.md.  Output paths under the temporary directory
are replaced by ``OUT`` before hashing, so the digests do not depend on
where the test runs.
"""

import argparse
import hashlib

import pytest

from techcycle.cli import build_parser, main
from techcycle.config import default_data_dir

SCENARIO = str(default_data_dir() / "scenarios" / "dual_logistic_demo.cfg")

# format -> (digest of the written tree, digest of stdout)
REPORT = {
    "text": (
        "742d2d7cd3c35cab35d1b60ba519fc64980d47f940f351e15129eac07b0d89be",
        "36ac0a81ddaabf09b2fb026d13bcf2d876e2b247f23ea35b890e2be865ec40cb",
    ),
    "json": (
        "b0177bdf2dfc16a0adb48a3139fa67a41ef11ce50f48e5c7e6a216b440fdb373",
        "15623b08e9e1cf71f949e78025d5dd67dfd62384b5e2d7dec39dac846b6999c2",
    ),
    "csv": (
        "ae14a96b67ed25dbbf4b39e4b4fc7bbff86de15b1c0ddab6418e45bc08181966",
        "4fb4b729f2e0694ff68a363ffce6fab711863f1c0d841a677f870c81ea208854",
    ),
}

FIT = ["fit", "--old", "cassette", "--new", "cd", "--window", "1984:1990"]
CROSSOVER = ["crossover", "--old", "8-track", "--new", "cassette"]

# name -> (argv, digest of stdout)
STDOUT = {
    "validate": (
        ["validate"],
        "67f81cda595edc8f97b1f0d6dd3395df066245d131fc609aa79d221436465f0e",
    ),
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
    "fit-text": (
        FIT,
        "2cffa38a2e279566e14c1856b1a37098f8ee27c338234b2290185b6df8431092",
    ),
    "fit-json": (
        [*FIT, "--format", "json"],
        "f64c2bfce109c19d213727aca74df0ce80a61b18bb6a6c149dd0e3a7e1543378",
    ),
    "fit-csv": (
        [*FIT, "--format", "csv"],
        "a8b65ee366b02e42135e25bdd99df127b0c9bdf662b130a7eb00725e1fc84aae",
    ),
    "fit-auto-text": (
        ["fit", "--old", "cassette", "--new", "cd", "--window", "auto"],
        "8b8f4e34a3a011da7038f6eafb482b6bf3c909a7c8f2bb84b425ba727cd7e7af",
    ),
    "crossover-text": (
        CROSSOVER,
        "1789d689205209ee3e96b09fbb37249183f8a65c81303353a5d2b7ec74b8d493",
    ),
    "crossover-json": (
        [*CROSSOVER, "--format", "json"],
        "c4e277da9e8782c8cd07c85fff2425560e0f4652dcb7e29be65d6f3f25cca6ee",
    ),
    "crossover-csv": (
        [*CROSSOVER, "--format", "csv"],
        "0d3070bc96bbab098eedd2eb989e4d12acd15b0269bd690d21c2d75fe4bdab3a",
    ),
    "simulate-json": (
        ["simulate", "--scenario", SCENARIO, "--format", "json"],
        "3581fc7ce183e9d5f7c1e178afe60e2580fe419a1125486b91e97b0d18edda6e",
    ),
    "simulate-csv": (
        ["simulate", "--scenario", SCENARIO, "--format", "csv"],
        "121018273510952ab2bae888690b18dc28dc42147e9135200c42f89ab957d61d",
    ),
}

# (digest of the --out tree, digest of stdout); --out leaves stdout as it is
SIMULATE_TREE = (
    "683acad868ef40639e9142d4e630ed4619681c1d848d7d5d36764b6aeee0a97d",
    "b3fd5153c269ce80208b1f76b861ee419a0e2c099d6a66f0dffbc8b2c9a15977",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _report_argv(fmt, out_dir):
    return ["report", "--out", str(out_dir), "--format", fmt]


def _simulate_argv(out_dir):
    return ["simulate", "--scenario", SCENARIO, "--out", str(out_dir)]


def _stdout(argv, capsys, out_dir=None) -> str:
    assert main(argv) == 0
    text = capsys.readouterr().out
    return text if out_dir is None else text.replace(str(out_dir), "OUT")


@pytest.mark.parametrize("fmt", sorted(REPORT))
def test_report_bytes(fmt, tmp_path, capsys):
    out_dir = tmp_path / "report"
    stdout = _stdout(_report_argv(fmt, out_dir), capsys, out_dir)
    assert (_tree_digest(out_dir), _sha(stdout)) == REPORT[fmt]


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_bytes(name, capsys):
    argv, expected = STDOUT[name]
    assert _sha(_stdout(argv, capsys)) == expected


def test_simulate_series_bytes(tmp_path, capsys):
    out_dir = tmp_path / "series"
    stdout = _stdout(_simulate_argv(out_dir), capsys, out_dir)
    assert (_tree_digest(out_dir), _sha(stdout)) == SIMULATE_TREE


def test_every_subcommand_and_format_is_pinned():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {(name, fmt) for name, sub in commands.choices.items()
               for fmt in next((a.choices for a in sub._actions if a.dest == "format"), [None])}
    argvs = [*(argv for argv, _ in STDOUT.values()),
             *(_report_argv(fmt, "OUT") for fmt in REPORT), _simulate_argv("OUT")]
    pinned = {(args.command, vars(args).get("format")) for args in map(parser.parse_args, argvs)}
    assert offered - pinned == set()
