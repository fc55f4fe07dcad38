"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

Usage (from the root of a techcycle checkout):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads cli,synth-lab] [--out FILE] [--compare FILE]

Each run uses its own seed.  For every workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, next to the metric's bound.  The
benchmark is steady when every spread but setup_s's is below a third of
its bound.  With ``--compare``, each median is also checked against an
earlier set's: it may not be worse by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    parser.add_argument("--compare", default=None,
                        help="an earlier summary: check this set's medians are not worse by "
                             "more than each bound")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = None
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text(encoding="utf-8"))["workloads"]
    summary = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
               "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.5g}" for name in bounds), flush=True)
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": series}
            line = (f"  {name:<18} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                    f"spread {spread:7.4f}  bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
            if earlier is not None and workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                worse = (median - before if lower[name] else before - median) / before
                rows[name]["worse_than_earlier"] = worse
                steady &= worse <= bounds[name]
                line += f"  worse than earlier by {worse:+.4f}"
            print(line)
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print("steady" if steady else "not steady: some spread is at or above a third of its bound")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
