"""Tests of the benchmark itself: generators, span arithmetic, wrappers.

Run from the repository root:  python3 -m pytest perfbench
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import GAP_SCENARIOS, CliWorkload, Op, SynthLabWorkload  # noqa: E402


# ------------------------------------------------------------------ generators

def test_scenarios_are_a_function_of_the_seed():
    first = [gen.scenario_spec(7, i) for i in range(20)]
    assert first == [gen.scenario_spec(7, i) for i in range(20)]
    assert first != [gen.scenario_spec(8, i) for i in range(20)]


def test_scenarios_stay_in_the_stated_ranges():
    specs = [gen.scenario_spec(11, i) for i in range(400)]
    assert {s.length for s in specs} <= set(range(20, 121))
    assert all(0.0 <= s.noise_rel <= 0.1 for s in specs)
    assert all(0.5 <= s.b_new / s.b_old < 4.0 for s in specs)
    assert all(s.past_inflections <= s.length - 1 for s in specs)
    assert sum(s.noise_rel == 0.0 for s in specs) == 100


# ------------------------------------------------------------------ span arithmetic

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, ""]


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),      # child of root
        _span("a1", 12, 18, 1),     # grandchild: counts against a, not root
        _span("b", 40, 70, 0),      # sibling of a
        _span("b1", 45, 50, 3),
        _span("b2", 48, 60, 3),     # overlaps b1: the union is 45..60
    ]
    assert tracing.self_times(spans) == [100 - 20 - 30, 20 - 6, 6, 30 - 15, 5, 12]


def test_self_time_clips_children_to_the_parent():
    spans = [_span("p", 10, 20, -1), _span("c", 5, 15, 0)]
    assert tracing.self_times(spans)[0] == 5


def test_percentile_rule():
    values = list(range(1, 11))
    assert tracing.percentile(values, 50) == 5.5
    assert tracing.percentile(values, 90) == pytest.approx(9.1)
    assert tracing.percentile(values, 0) == 1
    assert tracing.percentile(values, 100) == 10
    assert tracing.percentile([4.0], 90) == 4.0
    assert tracing.percentile([3, 1, 2], 50) == 2  # order of input does not matter
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


# ------------------------------------------------------------------ wrappers

def _originals():
    import importlib

    import techcycle.cli  # noqa: F401  (install patches loaded modules only)

    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.WRAPS}


def test_uninstall_restores_every_name():
    before = _originals()
    saved = tracing.install(tracing.Tracer())
    try:
        assert all(_originals()[key] is not fn for key, fn in before.items())
    finally:
        tracing.uninstall(saved)
    assert _originals() == before


def test_install_skips_names_a_module_no_longer_has(monkeypatch):
    import techcycle.cli

    monkeypatch.delattr(techcycle.cli, "detect_events")
    saved = tracing.install(tracing.Tracer())
    try:
        patched = {(module.__name__, attr) for module, attr, _ in saved}
        assert ("techcycle.cli", "detect_events") not in patched
        assert ("techcycle.report", "detect_events") in patched
    finally:
        tracing.uninstall(saved)


def test_timed_phase_removes_wrappers_even_when_an_op_fails():
    class Failing:
        name = "synth-lab"

        def cycle(self, index):
            return [Op("boom")] * 60

        def run(self, op, tracer):
            raise RuntimeError("op failed")

        def check(self, op, result):
            return None

    before = _originals()
    records, _, _ = run.timed_phase(Failing(), 0.0, tracing.Tracer())
    assert _originals() == before
    assert len(records) >= run.MIN_OPS
    assert sum(traced for _, _, traced, _ in records) == len(records) / 2
    assert all(problem == "boom: RuntimeError: op failed" for *_, problem in records)


def _main_outputs(argvs):
    import techcycle.cli

    outputs = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = techcycle.cli.main(argv)
        outputs.append((code, out.getvalue()))
    return outputs


def test_traced_cli_main_outputs_equal_untraced(tmp_path):
    mix = CliWorkload(ROOT, tmp_path, seed=1)
    argvs = [op.argv for op in mix.cycle(0) if not op.name.startswith("report")]
    plain = _main_outputs(argvs)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = _main_outputs(argvs)
    finally:
        tracing.uninstall(saved)
    assert traced == plain
    assert {span[tracing.NAME] for span in tracer.spans} >= {"cli.main", "report.load_dataset"}


def test_traced_report_files_equal_untraced(tmp_path):
    import techcycle.cli

    def report(out):
        with contextlib.redirect_stdout(io.StringIO()):
            assert techcycle.cli.main(["report", "--out", str(out), "--format", "json"]) == 0
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    plain = report(tmp_path / "plain")
    saved = tracing.install(tracing.Tracer())
    try:
        traced = report(tmp_path / "traced")
    finally:
        tracing.uninstall(saved)
    assert traced == plain


def test_traced_synth_lab_op_equals_untraced(tmp_path):
    lab = SynthLabWorkload(ROOT, tmp_path, seed=2)
    lab.setup()
    ops = [Op("scenario", arg=5), Op("bundled", arg=2)]
    plain = [lab.run(op, None) for op in ops]
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = [lab.run(op, tracer) for op in ops]
    finally:
        tracing.uninstall(saved)
    assert traced == plain
    assert tracer.counts["fit_logistic.points"] > 0


def test_synth_lab_keeps_only_the_accuracy_prefix(tmp_path):
    lab = SynthLabWorkload(ROOT, tmp_path, seed=2)
    lab.setup()
    lab.run(Op("scenario", arg=GAP_SCENARIOS), None)
    assert lab.gaps == {} and lab.b_errors == {}
    lab.run(Op("scenario", arg=3), None)
    assert list(lab.gaps) == [3] and list(lab.b_errors) == [3]


def test_shim_op_output_equals_plain_child(tmp_path):
    cli = CliWorkload(ROOT, tmp_path, seed=1)
    op = next(op for op in cli.cycle(0) if op.name == "crossover")
    tracer = tracing.Tracer()
    assert cli.run(op, tracer) == cli.run(op, None)
    names = [span[tracing.NAME] for span in tracer.spans if span[tracing.PARENT] < 0]
    assert names == ["interp.spawn", "cli.import", "cli.main", "interp.exit"]


# ------------------------------------------------------------------ contract

class _Stub:
    def __init__(self, name):
        self.name = name
        self.gaps = [0.01]

    def peak_rss_mb(self):
        return 1.0

    def accuracy(self):
        return 0.01, 0.02


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = [("op", 1_000_000, False, None), ("op", 2_000_000, True, None)]
    tracer = tracing.Tracer()
    tracer.op = 1
    tracer.add("cli.main", 0, 1_000_000)
    layer = run.per_layer(_Stub("synth-lab"), records, tracer, ROOT, 1.0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])
    e2e, _ = run.end_to_end(_Stub("cli"), records, 1.0, 0.5, [0.1, 0.2])
    assert {name: unit for name, (_, unit, _) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(math.isfinite(value) for value in layer.values())
