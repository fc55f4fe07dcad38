"""techcycle benchmark: one workload, one run, one JSON result line.

Usage (from the root of a techcycle checkout):

    python3 perfbench/run.py --workload {cli,synth-lab} \
        --seed N --seconds S --trace {0,1}

Load is one client in a closed loop in this process: the next op starts
when the previous one ends, with at most one child process at a time and
no threads.  The run measures for at least ``--seconds`` and at least
MIN_OPS ops, stopping at the end of a cycle of the workload's op mix so
every run sees the same mix.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
cycle untraced and then traced, and reports per-layer metrics per traced
op, plus the tracing overhead: the median over ops of traced minus
untraced latency of the same op, which on a jittery host is a steadier
estimate of traced op p50 minus untraced op p50.  The last line
of standard output is the result object; the lines before it are a
readable table and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from tracing import COUNTER, END, ERROR, NAME, OP, PARENT, START
from workloads import FIT_SCENARIOS, GAP_SCENARIOS, WORKLOADS, child_env

MIN_OPS = 100  # so p90 has at least ten samples beyond it
SETUP_SAMPLES = 5  # fresh set-up processes before and again after the timed phase
PROBES = 5  # bare-interpreter and -X importtime probes per run
OUT_DIR = ".perfbench-out"  # scratch and span files, inside the checkout
IMPORT_MODULES = ("package", "cli", "config", "cycle", "errors", "growth",
                  "market_data", "regress", "report", "synthlab")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (one setup_s sample)")
    return parser.parse_args(argv)


def wall_s(cmd, root: Path, env=None) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def interp_start_ms(root: Path) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return 1e3 * statistics.median(
        wall_s([sys.executable, "-c", "pass"], root)[0] for _ in range(PROBES))


def import_self_ms(root: Path) -> dict[str, float]:
    """Per-module self import time from ``python -X importtime``, median over probes."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(PROBES):
        _, done = wall_s([sys.executable, "-X", "importtime", "-c", "import techcycle.cli"],
                         root, child_env(root))
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()[-200:]}")
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if module == "techcycle" or module.startswith("techcycle."):
                key = "package" if module == "techcycle" else module[len("techcycle."):]
                if key in samples:
                    samples[key].append(int(self_us) / 1e3)
    # a module that ``import techcycle.cli`` no longer loads costs it nothing
    return {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}


def environment(root: Path) -> dict:
    src = sorted((root / "src/techcycle").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.read_bytes())
    commit = "not a git checkout"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src),
        "interp.start_ms": round(interp_start_ms(root), 3),
    }


def setup_samples(args, root: Path) -> list[float]:
    """Wall time of fresh processes that only set the workload up.

    setup_s is the median of the samples taken before and after the timed
    phase: set-up lasts well under a second, and sampling at both ends of
    the run evens out the host's slower spells better than one burst does.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        seconds, done = wall_s(cmd, root)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-400:]}")
        samples.append(seconds)
    return samples


def run_op(workload, op, tracer, op_id: int):
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter_ns()
    try:
        result, problem = workload.run(op, tracer), None
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        result, problem = None, f"{op.name}: {type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    if problem is None:
        problem = workload.check(op, result)
    return op.name, t1 - t0, tracer is not None, problem


def timed_phase(workload, seconds: float, tracer):
    """Closed loop over whole cycles; returns (records, wall_s, cpu_s).

    Each record is (op name, latency ns, traced, problem or None).  With a
    tracer, every cycle runs once untraced and then once traced, so the
    two sets of ops are the same and their p50s compare like for like.
    """
    records = []
    index = 0
    cpu0 = os.times()
    start = time.perf_counter_ns()
    while True:
        ops = workload.cycle(index)
        for traced in (False, True) if tracer is not None else (False,):
            in_process = traced and workload.name != "cli"  # cli children trace themselves
            saved = tracing.install(tracer) if in_process else None
            try:
                for op in ops:
                    records.append(run_op(workload, op, tracer if traced else None, len(records)))
            finally:
                if saved is not None:
                    tracing.uninstall(saved)
        index += 1
        elapsed = (time.perf_counter_ns() - start) / 1e9
        if elapsed >= seconds and len(records) >= MIN_OPS:
            break
    cpu1 = os.times()
    cpu = sum(cpu1[i] - cpu0[i] for i in range(4))  # user, system, children's user, system
    return records, elapsed, cpu


def end_to_end(workload, records, wall: float, cpu: float, setup: list[float]) -> dict:
    latencies = [ns / 1e6 for _, ns, _, _ in records]
    n = len(records)
    if workload.name == "synth-lab":
        (gap, b_err), gap_samples = workload.accuracy(), GAP_SCENARIOS
    else:
        gap, b_err, gap_samples = statistics.median(workload.gaps), None, len(workload.gaps)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_p50_ms": (tracing.percentile(latencies, 50), "ms", n),
        "op_p90_ms": (tracing.percentile(latencies, 90), "ms", n),
        "ops_per_s": (n / wall, "1/s", n),
        "cpu_ms_per_op": (1e3 * cpu / n, "ms", n),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", 1),
        "recovery_gap_p50": (gap, "abs", gap_samples),
    }
    extra = {"error_rate": (sum(p is not None for *_, p in records) / n, "ratio", n)}
    if b_err is not None:
        extra["logistic_b_rel_err"] = (b_err, "ratio", 2 * FIT_SCENARIOS)
    return metrics, extra


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith("us_per_point"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_share", "_ratio", "_err")):
        return "ratio"
    return "count"


def per_layer(workload, records, tracer, root: Path, interp_ms: float) -> dict:
    """Per-layer metrics normalised per traced op."""
    traced = [i for i, rec in enumerate(records) if rec[2]]
    n = len(traced)
    selfs = tracing.self_times(tracer.spans)
    names = tracing.SPAN_NAMES + ("cli.import", "interp.spawn", "interp.exit")
    total, own, calls, errors = ({name: 0 for name in names} for _ in range(4))
    window_errors = 0
    top = {}
    for span, self_ns in zip(tracer.spans, selfs):
        name = span[NAME]
        if name == COUNTER:
            continue
        duration = span[END] - span[START]
        total[name] += duration
        own[name] += self_ns
        calls[name] += 1
        errors[name] += bool(span[ERROR])
        window_errors += name == "synthlab.recovery_experiment" and span[ERROR] == "WindowError"
        if span[PARENT] < 0:
            top[span[OP]] = top.get(span[OP], 0) + duration

    def ms(table, name):
        return table[name] / 1e6 / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    count = tracer.counts.get
    points = count("fit_logistic.points", 0)
    # timed_phase runs each cycle's ops untraced and then traced, in order,
    # so pairing in first-in-first-out order matches each op with itself.
    waiting, paired = [], []
    for _, ns, is_traced, _ in records:
        if is_traced:
            paired.append(ns - waiting.pop(0))
        else:
            waiting.append(ns)
    values = {
        "interp.start_ms": interp_ms,
        "interp.spawn_ms": ms(total, "interp.spawn"),
        "interp.exit_ms": ms(total, "interp.exit"),
        "cli.import_ms": ms(total, "cli.import"),
    }
    imports = import_self_ms(root) if workload.name == "cli" else {}
    for module in IMPORT_MODULES:
        values[f"import.{module}.self_ms"] = imports.get(module, 0.0)
    values.update({
        "cli.main.self_ms": ms(own, "cli.main"),
        "config.load_revenue_csv.self_ms": ms(own, "config.load_revenue_csv"),
        "config.load_cpi_csv.ms": ms(total, "config.load_cpi_csv"),
        "config.load_groups.ms": ms(total, "config.load_groups"),
        "config.load_reference.ms": ms(total, "config.load_reference"),
        "market_data.parse_revenue_table.ms": ms(total, "market_data.parse_revenue_table"),
        "market_data.parse_revenue_table.rows": count("market_data.parse_revenue_table.rows", 0) / n,
        "market_data.adjust_inflation.ms": ms(total, "market_data.adjust_inflation"),
        "market_data.adjust_inflation.deflated_share": ratio(
            count("adjust_inflation.deflated", 0), count("adjust_inflation.records_in", 0)),
        "market_data.aggregate_group.ms": ms(total, "market_data.aggregate_group"),
        "market_data.aggregate_group.calls": calls["market_data.aggregate_group"] / n,
        "market_data.aggregate_group.match_ratio": ratio(
            count("aggregate_group.matched", 0), count("aggregate_group.scanned", 0)),
        "market_data.positive_overlap_window.ms": ms(total, "market_data.positive_overlap_window"),
        "regress.ols_simple.ms": ms(total, "regress.ols_simple"),
        "regress.ols_simple.calls": calls["regress.ols_simple"] / n,
        "growth.fit_substitution.self_ms": ms(own, "growth.fit_substitution"),
        "growth.fit_substitution.calls": calls["growth.fit_substitution"] / n,
        "growth.fit_logistic.ms": ms(total, "growth.fit_logistic"),
        "growth.fit_logistic.calls": calls["growth.fit_logistic"] / n,
        "growth.fit_logistic.us_per_point": ratio(total["growth.fit_logistic"] / 1e3, points),
        "growth.fit_logistic.degenerate_share": ratio(
            count("fit_logistic.degenerate", 0), calls["growth.fit_logistic"]),
        "growth.fit_logistic.b_rel_err": (
            workload.accuracy()[1] if workload.name == "synth-lab" else 0.0),
        "cycle.detect_events.ms": ms(total, "cycle.detect_events"),
        "cycle.detect_events.calls": calls["cycle.detect_events"] / n,
        "cycle.crossover_year.ms": ms(total, "cycle.crossover_year"),
        "cycle.crossover_year.calls": calls["cycle.crossover_year"] / n,
        "cycle.cycle_metrics.ms": ms(total, "cycle.cycle_metrics"),
        "cycle.aggregate_cycles.ms": ms(total, "cycle.aggregate_cycles"),
        "report.load_dataset.self_ms": ms(own, "report.load_dataset"),
        "report.build_report.self_ms": ms(own, "report.build_report"),
        "report.write_report.self_ms": ms(own, "report.write_report"),
        "report.render_fit_text.ms": ms(total, "report.render_fit_text"),
        "report.render_table3_text.ms": ms(total, "report.render_table3_text"),
        "report.render_table4_text.ms": ms(total, "report.render_table4_text"),
        "report.mapping_to_csv.ms": ms(total, "report.mapping_to_csv"),
        "report.bytes_written": count("report.bytes_written", 0) / n,
        "report.files_written": count("report.files_written", 0) / n,
        "synthlab.generate_scenario.ms": ms(total, "synthlab.generate_scenario"),
        "synthlab.generate_scenario.calls": calls["synthlab.generate_scenario"] / n,
        "synthlab.recovery_experiment.self_ms": ms(own, "synthlab.recovery_experiment"),
        "synthlab.recovery_experiment.calls": calls["synthlab.recovery_experiment"] / n,
        "synthlab.window_error_share": ratio(window_errors, calls["synthlab.recovery_experiment"]),
    })
    for name in tracing.SPAN_NAMES:
        values[f"{name}.errors"] = errors[name] / n
    traced_ns = sum(records[i][1] for i in traced)
    values["trace.top_level_share"] = ratio(sum(top.get(i, 0) for i in traced), traced_ns)
    # On cli the top-level spans tile the child's whole life by construction;
    # this share asks instead how much of an op the bare-interpreter probe,
    # the import and main() explain (0 where no op starts an interpreter).
    explained = interp_ms * 1e6 * n + total["cli.import"] + total["cli.main"]
    values["trace.start_import_main_share"] = (
        ratio(explained, traced_ns) if total["cli.import"] else 0.0)
    values["trace.op_p50_ms"] = tracing.percentile([records[i][1] for i in traced], 50) / 1e6
    values["trace.overhead_ms"] = statistics.median(paired) / 1e6
    return values


def write_spans(root: Path, args, records, tracer) -> Path:
    path = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {"ops": [[name, ns, traced] for name, ns, traced, _ in records],
               "spans": tracer.spans, "counts": tracer.counts}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(args, root: Path, tmp: Path) -> dict:
    env = environment(root)
    setup = setup_samples(args, root)
    workload = WORKLOADS[args.workload](root, tmp, args.seed)
    workload.setup()
    tracer = tracing.Tracer() if args.trace else None
    records, wall, cpu = timed_phase(workload, args.seconds, tracer)
    setup += setup_samples(args, root)
    failed = [p for *_, p in records if p is not None]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    if args.trace:
        values = per_layer(workload, records, tracer, root, env["interp.start_ms"])
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
        traced_ops = sum(r[2] for r in records)
        rows = [(name, value, unit_of(name), traced_ops) for name, value in values.items()]
        print(f"spans written to {write_spans(root, args, records, tracer)}")
    else:
        e2e, extra = end_to_end(workload, records, wall, cpu, setup)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}
        rows = [(name, v, u, k) for name, (v, u, k) in {**e2e, **extra}.items()]
    print(f"{'metric':<48}{'value':>14}  {'unit':<6}{'samples':>8}")
    for name, value, unit, samples in rows:
        print(f"{name:<48}{value:>14.6g}  {unit:<6}{samples:>8}")
    for problem in dict.fromkeys(failed):
        print(f"failed: {problem}")
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src/techcycle/cli.py").is_file():
        print("error: run from the root of a techcycle checkout (src/techcycle/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("TECHCYCLE_DATA_DIR", None)
    (root / OUT_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / OUT_DIR))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](root, tmp, args.seed).setup()
            return 0
        result = run(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
