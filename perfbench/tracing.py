"""In-memory spans around calls into the program's public functions.

The program itself is not instrumented: ``install`` replaces public names
in the namespace of the module that calls them with timing wrappers, and
``uninstall`` puts the originals back.  This module imports nothing heavy
because the cli shim loads it in every traced child, after timing the
program's own import.
"""

import sys
import time

# Span records are plain lists: [name, start_ns, end_ns, parent, op, error]
NAME, START, END, PARENT, OP, ERROR = range(6)
COUNTER = "trace.counter"  # time the tracer itself spends counting


class Tracer:
    """Collects spans and counters for one process; nothing is written until asked."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = 0
        self.format_counts = (None, {})
        self._stack = []

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def add(self, name, start, end, parent=-1, error=""):
        self.spans.append([name, start, end, parent, self.op, error])
        return len(self.spans) - 1

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            index = self.add(name, 0, 0, self._stack[-1] if self._stack else -1)
            self._stack.append(index)
            span = self.spans[index]
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter_ns()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span[END] = time.perf_counter_ns()
            if counter is not None:
                # counting runs beside the span, so no layer's self time absorbs it
                counter(self, args, result)
                self.add(COUNTER, span[END], time.perf_counter_ns(), span[PARENT])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


# ------------------------------------------------------------------ counters

def _rows(tracer, args, result):
    tracer.count("market_data.parse_revenue_table.rows", len(result))


def _deflated(tracer, args, result):
    records = args[0]
    tracer.count("adjust_inflation.records_in", len(records))
    tracer.count("adjust_inflation.deflated", sum(r.revenue_real is None for r in records))


def _matched(tracer, args, result):
    records, group = args[0], args[1]
    if tracer.format_counts[0] is not records:  # one tally per record list, not per group
        tally = {}
        for record in records:
            tally[record.format] = tally.get(record.format, 0) + 1
        tracer.format_counts = (records, tally)
    tally = tracer.format_counts[1]
    tracer.count("aggregate_group.scanned", len(records))
    tracer.count("aggregate_group.matched", sum(tally.get(f, 0) for f in set(group.formats)))


def _fit_points(tracer, args, result):
    tracer.count("fit_logistic.points", result.n_points)
    tracer.count("fit_logistic.degenerate", int(result.degenerate))


def _written(tracer, args, result):
    tracer.count("report.files_written", len(result))
    tracer.count("report.bytes_written", sum(path.stat().st_size for path in result))


# (module whose namespace is patched, attribute, span name, counter)
WRAPS = (
    ("techcycle.cli", "main", "cli.main", None),
    ("techcycle.cli", "load_reference", "config.load_reference", None),
    ("techcycle.cli", "detect_events", "cycle.detect_events", None),
    ("techcycle.cli", "cycle_metrics", "cycle.cycle_metrics", None),
    ("techcycle.cli", "aggregate_cycles", "cycle.aggregate_cycles", None),
    ("techcycle.cli", "crossover_year", "cycle.crossover_year", None),
    ("techcycle.cli", "fit_substitution", "growth.fit_substitution", None),
    ("techcycle.cli", "recovery_experiment", "synthlab.recovery_experiment", None),
    ("techcycle.cli", "generate_scenario", "synthlab.generate_scenario", None),
    ("techcycle.report", "load_dataset", "report.load_dataset", None),
    ("techcycle.report", "build_report", "report.build_report", None),
    ("techcycle.report", "write_report", "report.write_report", _written),
    ("techcycle.report", "render_fit_text", "report.render_fit_text", None),
    ("techcycle.report", "render_table3_text", "report.render_table3_text", None),
    ("techcycle.report", "render_table4_text", "report.render_table4_text", None),
    ("techcycle.report", "mapping_to_csv", "report.mapping_to_csv", None),
    ("techcycle.report", "load_revenue_csv", "config.load_revenue_csv", None),
    ("techcycle.report", "load_cpi_csv", "config.load_cpi_csv", None),
    ("techcycle.report", "load_groups", "config.load_groups", None),
    ("techcycle.report", "adjust_inflation", "market_data.adjust_inflation", _deflated),
    ("techcycle.report", "aggregate_group", "market_data.aggregate_group", _matched),
    ("techcycle.report", "crossover_year", "cycle.crossover_year", None),
    ("techcycle.report", "detect_events", "cycle.detect_events", None),
    ("techcycle.report", "cycle_metrics", "cycle.cycle_metrics", None),
    ("techcycle.report", "aggregate_cycles", "cycle.aggregate_cycles", None),
    ("techcycle.report", "fit_substitution", "growth.fit_substitution", None),
    ("techcycle.config", "parse_revenue_table", "market_data.parse_revenue_table", _rows),
    ("techcycle.growth", "positive_overlap_window", "market_data.positive_overlap_window", None),
    ("techcycle.growth", "ols_simple", "regress.ols_simple", None),
    ("techcycle.growth", "fit_logistic", "growth.fit_logistic", _fit_points),
    ("techcycle.synthlab", "generate_scenario", "synthlab.generate_scenario", None),
    ("techcycle.synthlab", "fit_substitution", "growth.fit_substitution", None),
    ("techcycle.synthlab", "recovery_experiment", "synthlab.recovery_experiment", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPS))


def install(tracer):
    """Wrap the names in WRAPS; returns what ``uninstall`` needs to undo it.

    Only modules already loaded are patched, so tracing never imports
    anything itself, and a name a module no longer has is skipped: its
    calls are then seen from whichever caller still wraps them.
    """
    saved = []
    for module_name, attr, span, counter in WRAPS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        module = sys.modules[module_name]
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original, counter))
    return saved


def uninstall(saved):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


# ------------------------------------------------------------------ analysis

def covered_ns(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_ns(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    h = (len(ordered) - 1) * p / 100.0
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])
