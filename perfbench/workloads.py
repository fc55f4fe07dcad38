"""The workloads: what one op does and how its output is checked.

Each workload is built so that a different part of the program does most
of the work:

* ``cli``       -- a fresh ``python -m techcycle.cli`` per op on the
                   bundled data: interpreter start and import dominate.
* ``synth-lab`` -- seeded dual-logistic scenarios and bundled-series
                   logistic fits: ``fit_logistic`` dominates.

An op returns whatever its check needs; ``check`` returns None or a
one-line reason.  Checks compare values, never byte digests.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
DEMO_SCENARIO = Path("src/techcycle/data/scenarios/dual_logistic_demo.cfg")
REPORT_FORMATS = ("text", "json", "csv")
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}
SWEEP = (0.05, 0.1, 0.2, 0.3)  # early fractions; one window past both inflections follows
GAP_SCENARIOS = 4000  # recovery_gap_p50 runs over this fixed prefix of the scenario stream
FIT_SCENARIOS = 100  # logistic_b_rel_err runs over this prefix (two fits each)


class Op:
    def __init__(self, name, argv=None, arg=None):
        self.name, self.argv, self.arg = name, argv, arg


def _report_check(out_dir: Path, fmt: str, n_plots: int, stdout: str) -> str | None:
    wrote = [line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote ")]
    tables = {f"table{i}.{EXTENSIONS[fmt]}" for i in range(1, 5)}
    names = {Path(p).name for p in wrote if Path(p).parent == out_dir}
    plots = [p for p in wrote if Path(p).parent == out_dir / "plots"]
    if not tables <= names:  # more files, such as a run manifest, are fine
        return f"report {fmt} did not write {sorted(tables - names)}"
    if len(plots) != n_plots:
        return f"report {fmt} wrote {len(plots)} plot files, expected {n_plots}"
    missing = [p for p in wrote if not Path(p).is_file()]
    return f"report {fmt} listed missing files {missing[:2]}" if missing else None


def child_env(root: Path) -> dict[str, str]:
    """This environment, with the checkout's ``src`` as the only PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TECHCYCLE_DATA_DIR")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_fit(mapping) -> str | None:
    b = mapping["exponent_b"]
    return None if 1.8 <= b <= 2.4 else f"fit: cd vs cassette exponent {b} outside [1.8, 2.4]"


class CliWorkload:
    """Each op is a fresh ``python -m techcycle.cli`` process on the bundled data."""

    name = "cli"
    n_technologies = 6

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        self.report_dirs = {fmt: tmp / f"report-{fmt}" for fmt in REPORT_FORMATS}
        self.gaps: list[float] = []
        self.env = child_env(root)
        self.child_rss_kb = 0

    def setup(self) -> None:
        warm = Op("validate", ["validate"])
        problem = self.check(warm, self.run(warm, None))
        if problem:
            raise RuntimeError(f"warm-up failed: {problem}")

    def cycle(self, index: int) -> list[Op]:
        ops = [
            Op("validate", ["validate"]),
            Op("fit-window", ["fit", "--old", "cassette", "--new", "cd",
                              "--window", "1984:1990", "--format", "json"]),
            Op("fit-auto", ["fit", "--old", "cassette", "--new", "cd", "--window", "auto"]),
            Op("cycles", ["cycles", "--format", "json"]),
            Op("crossover", ["crossover", "--old", "8-track", "--new", "cassette",
                             "--format", "json"]),
            Op("simulate", ["simulate", "--scenario", str(self.root / DEMO_SCENARIO),
                            "--seed", str(self.seed), "--format", "json"]),
        ]
        for fmt in REPORT_FORMATS:
            ops.append(Op(f"report-{fmt}", ["report", "--out", str(self.report_dirs[fmt]),
                                            "--format", fmt], fmt))
        return ops

    def check(self, op: Op, result) -> str | None:
        code, out = result
        if code != 0:
            return f"{op.name}: exit code {code}"
        try:
            return self._check_output(op, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{op.name}: unreadable output ({type(exc).__name__}: {exc})"

    def _check_output(self, op: Op, out: str) -> str | None:
        if op.name == "validate":
            return None if out.rstrip().endswith("ok") else "validate: no 'ok'"
        if op.name == "fit-window":
            return _check_fit(json.loads(out))
        if op.name == "fit-auto":
            row = next((line for line in out.splitlines() if line.startswith("B ")), None)
            if row is None:
                return "fit-auto: no exponent row"
            return None if _finite(float(row.split()[1])) else "fit-auto: exponent not finite"
        if op.name == "cycles":
            rows = json.loads(out)["rows"]
            return None if len(rows) == self.n_technologies else f"cycles: {len(rows)} rows"
        if op.name == "crossover":
            year = json.loads(out)["crossover_year"]
            return None if year == 1980 else f"crossover: 8-track -> cassette in {year}, expected 1980"
        if op.name == "simulate":
            gap = json.loads(out)["abs_gap"]
            self.gaps.append(gap)
            return None if gap < 0.05 else f"simulate: demo abs_gap {gap}"
        fmt, out_dir = op.arg, self.report_dirs[op.arg]
        problem = _report_check(out_dir, fmt, self.n_technologies, out)
        if problem is None and fmt == "json":
            problem = _check_fit(json.loads((out_dir / "table1.json").read_text(encoding="utf-8")))
        return problem

    def run(self, op: Op, tracer) -> tuple[int, str]:
        """Run one child; with a tracer, through the shim, merging its spans."""
        if tracer is None:
            cmd = [sys.executable, "-m", "techcycle.cli", *op.argv]
        else:
            spans_path = self.tmp / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "shim.py"), str(spans_path), *op.argv]
        spawned = time.perf_counter_ns()  # CLOCK_MONOTONIC: comparable with the child's
        with open(self.tmp / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)  # wait4, for the child's own rusage
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        reaped = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if tracer is not None and proc.returncode == 0:
            self._merge(tracer, spawned, reaped, json.loads(spans_path.read_text(encoding="utf-8")))
        return proc.returncode, out.decode("utf-8")

    @staticmethod
    def _merge(tracer, spawned, reaped, child):
        """Add the child's spans, framed by interpreter start and exit."""
        tracer.add("interp.spawn", spawned, child["start"])
        offset = len(tracer.spans)
        for name, start, end, parent, _, error in child["spans"]:
            tracer.add(name, start, end, parent + offset if parent >= 0 else -1, error)
        tracer.add("interp.exit", child["exit"], reaped)
        for key, amount in child["counts"].items():
            tracer.count(key, amount)

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0


def _self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SynthLabWorkload:
    """Seeded dual-logistic scenarios plus logistic fits of the bundled series.

    A cycle is three scenario ops and one bundled-series op; the bundled op
    fits one technology's whole series and its up-wave (first year through
    peak M), rotating through the technologies.
    """

    name = "synth-lab"

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        # only the floats accuracy() needs are kept, so memory does not grow with throughput
        self.gaps: dict[int, float] = {}
        self.b_errors: dict[int, tuple[float, float]] = {}
        self._accuracy = None

    def setup(self) -> None:
        from techcycle import cycle, growth, report, synthlab
        from techcycle.errors import WindowError
        from techcycle.market_data import RevenueSeries

        self.growth, self.synthlab, self.window_error = growth, synthlab, WindowError
        data = self.root / "src/techcycle/data"
        dataset = report.load_dataset(data / "riaa_revenue.csv", data / "cpi.csv",
                                      data / "groups.cfg")
        self.bundled = []
        for name, series in dataset.series.items():
            peak = cycle.detect_events(series).m_year or series.last_year
            up = {year: v for year, v in series.points.items() if year <= peak}
            self.bundled.append((series, RevenueSeries(name, series.base_year, up)))
        warm = Op("bundled", arg=0)  # the same work for every seed
        problem = self.check(warm, self.run(warm, None))
        if problem:
            raise RuntimeError(f"warm-up failed: {problem}")

    def cycle(self, index: int) -> list[Op]:
        ops = [Op("scenario", arg=3 * index + i) for i in range(3)]
        return ops + [Op("bundled", arg=index % len(self.bundled))]

    def run(self, op: Op, tracer):
        growth, synthlab = self.growth, self.synthlab
        if op.name == "bundled":
            whole, up = self.bundled[op.arg]
            return {"fits": [growth.fit_logistic(whole), growth.fit_logistic(up)]}
        spec, scenario = self.scenario(op.arg)
        gaps = {}
        for fraction in SWEEP:
            try:
                gaps[fraction] = synthlab.recovery_experiment(scenario, early_fraction=fraction).abs_gap
            except self.window_error:
                gaps[fraction] = None
        synthlab.recovery_experiment(scenario, window=(0, spec.past_inflections))
        old, new = synthlab.generate_scenario(scenario)
        fits = [growth.fit_logistic(old), growth.fit_logistic(new)]
        if op.arg < GAP_SCENARIOS and gaps[0.1] is not None:
            self.gaps[op.arg] = gaps[0.1]
        if op.arg < FIT_SCENARIOS:
            self.b_errors[op.arg] = (abs(fits[0].b - spec.b_old) / spec.b_old,
                                     abs(fits[1].b - spec.b_new) / spec.b_new)
        return {"spec": spec, "gap": gaps[0.1], "fits": fits}

    def scenario(self, index: int):
        growth = self.growth
        spec = gen.scenario_spec(self.seed, index)
        return spec, self.synthlab.SyntheticScenario(
            p_old=growth.LogisticParams(k=spec.k_old, a=spec.a_old, b=spec.b_old),
            p_new=growth.LogisticParams(k=spec.k_new, a=spec.a_new, b=spec.b_new),
            years=(0, spec.length - 1),
            noise_rel=spec.noise_rel,
            seed=spec.seed,
        )

    def check(self, op: Op, result) -> str | None:
        for fit in result["fits"]:
            if not _finite(fit.k, fit.a, fit.b):
                return f"{op.name}: fit not finite (k={fit.k}, a={fit.a}, b={fit.b})"
        if op.name == "bundled":
            return None
        spec, gap = result["spec"], result["gap"]
        if gap is None:
            return f"scenario {spec.index}: no early window at fraction 0.1"
        # The early-phase power law is biased by saturation inside the window,
        # roughly B * (1 - s_new) / (1 - s_old) with s up to the fraction, so
        # the bound scales with B above 1.
        ratio = spec.b_new / spec.b_old
        if spec.noise_rel == 0.0 and gap >= 0.05 * max(1.0, ratio):
            return f"scenario {spec.index}: noise-free gap {gap} at B={ratio}"
        return None

    def accuracy(self) -> tuple[float, float]:
        """Medians of the recovery gap at fraction 0.1 and of fit_logistic's relative b error.

        Both use a fixed prefix of the seed's scenario stream, so they do not
        depend on how many ops the timed phase completed; scenarios it did
        not reach are computed here, outside it.
        """
        if self._accuracy is None:
            for index in range(FIT_SCENARIOS):
                if index not in self.b_errors:
                    self.run(Op("scenario", arg=index), None)
            gaps = []
            for index in range(GAP_SCENARIOS):
                if index in self.gaps:
                    gaps.append(self.gaps[index])
                else:
                    gaps.append(self.synthlab.recovery_experiment(
                        self.scenario(index)[1], early_fraction=0.1).abs_gap)
            errors = [e for i in range(FIT_SCENARIOS) for e in self.b_errors[i]]
            self._accuracy = statistics.median(gaps), statistics.median(errors)
        return self._accuracy

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


WORKLOADS = {w.name: w for w in (CliWorkload, SynthLabWorkload)}
