"""Traced stand-in for ``python -m techcycle.cli`` in the cli workload.

Usage: python shim.py SPANS_JSON CLI_ARG...

Times ``import techcycle.cli``, installs the span wrappers, runs
``main(argv)`` and writes the spans to SPANS_JSON, with the clock readings
at which the shim started and began to exit; the parent turns those into
the ``interp.spawn`` and ``interp.exit`` spans.  Nothing the program
imports is loaded before the import is timed, so the import span is the
same work a plain ``python -m techcycle.cli`` run pays.
"""

import time

SHIM_START = time.perf_counter_ns()

import sys  # noqa: E402  (already loaded by the interpreter; the clock comes first)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import_start = time.perf_counter_ns()
    import techcycle.cli
    import_end = time.perf_counter_ns()

    import tracing

    tracer = tracing.Tracer()
    tracer.add("cli.import", import_start, import_end)
    saved = tracing.install(tracer)
    try:
        code = techcycle.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    finally:
        tracing.uninstall(saved)
    sys.stdout.flush()

    import json

    payload = {"start": SHIM_START, "spans": tracer.spans, "counts": tracer.counts}
    payload["exit"] = time.perf_counter_ns()  # the parent times exit from here to reaping
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
