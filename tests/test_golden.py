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
        "9aa2711cbda95ed899c796aae34a9f3d0e41460a9912e54bd89f2410370187f7",
        "36ac0a81ddaabf09b2fb026d13bcf2d876e2b247f23ea35b890e2be865ec40cb",
    ),
    "json": (
        "a27d3e190437edd94a394cbd4e84cc7412903748eb2854549b07f0ee5515f8e2",
        "15623b08e9e1cf71f949e78025d5dd67dfd62384b5e2d7dec39dac846b6999c2",
    ),
    "csv": (
        "572652f6248b3cbd25cd97b7e2726c98e07d7ead4a7679dc3bdd8be2ad598503",
        "4fb4b729f2e0694ff68a363ffce6fab711863f1c0d841a677f870c81ea208854",
    ),
}

# name -> (argv, digest of stdout)
STDOUT = {
    "cycles-text": (
        ["cycles"],
        "08f09e0ecec76fa173cd8a4db1c91e626cc8735ab3841c0d6a663e6a20668e44",
    ),
    "cycles-json": (
        ["cycles", "--format", "json"],
        "c0944600a72d0af52f12657d2c5ae17cda7a07a0629d687199820f2c1eaafd0c",
    ),
    "cycles-csv": (
        ["cycles", "--format", "csv"],
        "c00bc762602b80bdd7256e589d88f1312d4c608916c12ea83f5dd8758ccb92fd",
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
