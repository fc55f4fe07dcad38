"""Fuzzed input files and argv keep the CLI's exit-code contract.

Each file run replaces one input file with random bytes, or splices random
bytes into the bundled file; each argv run passes well-typed values outside
their domain.  Both call ``main()`` in-process.  Every run must end in 0, 2
or 3 with at most one line on stderr; an exception escaping ``main()``
fails the test.
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


def run_main(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1


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
    run_main([arg.format(path, out=workdir / "out") for arg in argv])


YEARS = st.one_of(st.integers(-10, 2030), st.integers(-10**12, 10**12))
# windows may be reversed, lie outside the data, or span a trillion years
WINDOWS = st.one_of(st.just("auto"), st.tuples(YEARS, YEARS).map("{0[0]}:{0[1]}".format))
NAMES = st.lists(
    st.sampled_from(["cd", "cassette", "streaming", "download", "betamax", "", " cd "]),
    min_size=1, max_size=3,
).map("+".join)


@st.composite
def out_of_domain_argv(draw, out) -> list[str]:
    """Argv that argparse accepts, with values the subcommands must reject or survive.

    Values go in ``--flag=value`` form, so a leading ``-`` is not read as a flag.
    """
    pair = [f"--old={draw(NAMES)}", f"--new={draw(NAMES)}"]
    return draw(st.sampled_from([
        ["validate"],
        ["cycles"],
        ["report", f"--out={out}"],
        ["crossover", *pair],
        ["fit", *pair, f"--window={draw(WINDOWS)}"],
        ["simulate", f"--scenario={INPUTS['scenario'][0]}", f"--window={draw(WINDOWS)}"],
    ]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_out_of_domain_argv_keeps_exit_contract(data, workdir):
    run_main(data.draw(out_of_domain_argv(workdir / "out"), label="argv"))
