"""Fuzzed input files keep the CLI's exit-code contract.

Each run replaces one input file with random bytes, or splices random
bytes into the bundled file, and calls ``main()`` in-process.  Every run
must end in 0, 2 or 3; an exception escaping ``main()`` fails the test.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from techcycle.cli import main
from techcycle.config import default_data_dir

DATA = default_data_dir()

# input -> (bundled file, argv with {} where the fuzzed file goes)
INPUTS = {
    "revenue": (DATA / "riaa_revenue.csv", ["validate", "--data", "{}"]),
    "cpi": (DATA / "cpi.csv", ["validate", "--cpi", "{}"]),
    "groups": (DATA / "groups.cfg", ["cycles", "--groups", "{}"]),
    "reference": (DATA / "reference.cfg", ["report", "--config", "{}", "--out", "{out}"]),
    "scenario": (DATA / "scenarios" / "dual_logistic_demo.cfg", ["simulate", "--scenario", "{}"]),
}


@st.composite
def fuzzed(draw, base: bytes) -> bytes:
    if draw(st.booleans()):
        return draw(st.binary(max_size=256))
    start = draw(st.integers(0, len(base)))
    stop = draw(st.integers(start, min(len(base), start + 64)))
    return base[:start] + draw(st.binary(max_size=32)) + base[stop:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(INPUTS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_input_keeps_exit_contract(name, data, workdir):
    bundled, argv = INPUTS[name]
    path = workdir / f"{name}{bundled.suffix}"
    path.write_bytes(data.draw(fuzzed(bundled.read_bytes()), label="content"))
    argv = [arg.format(path, out=workdir / "out") for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
