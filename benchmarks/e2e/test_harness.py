"""Self-tests of the end-to-end benchmark harness.

``benchmarks/conftest.py`` marks everything under ``benchmarks/`` slow, so
the default fast tier deselects this file. Run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -m "slow or not slow"
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load(stem):
    """Import a harness file under a private name: ``trace`` is also a
    stdlib module, and the harness files are scripts, not a package."""
    name = f"e2e_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, os.path.join(HERE, f"{stem}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- span arithmetic ---------------------------------------------------------------


def test_covered_is_the_length_of_the_union_clipped_to_the_parent():
    trace = load("trace")
    assert trace.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert trace.covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert trace.covered([], 0, 10) == 0


def _log(trace, spans):
    log = trace._ThreadLog()
    log.spans = [(name, start, end, parent, "u") for name, start, end, parent in spans]
    return log


def test_self_time_is_duration_minus_covered_children():
    trace = load("trace")
    main = _log(trace, [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
    ])
    summary = trace.Summary(main, [], ["u"])
    assert summary.self_time == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert summary.total["a"] == 10.0 and summary.calls["c"] == 1
    assert summary.layer_shares(10.0) == {"": pytest.approx(1.0)}  # self times partition the root


def test_foreign_roots_are_adopted_by_the_innermost_containing_span():
    trace = load("trace")
    main = _log(trace, [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
    ])
    other = _log(trace, [
        ("e", 2.0, 3.0, -1),    # inside b: b waited for it
        ("f", 5.5, 6.5, -1),    # inside c, overlapping c's own child d
        ("g", 5.6, 6.0, 1),     # child of f: not adopted a second time
        ("h", 3.5, 4.5, -1),    # straddles b's end: only a contains it
    ])
    summary = trace.Summary(main, [other], ["u"])
    assert summary.self_time["b"] == pytest.approx(2.0)
    assert summary.self_time["c"] == pytest.approx(4.0 - 1.5)  # union of [5.5,6.5] and [6,7]
    assert summary.self_time["f"] == pytest.approx(1.0 - 0.4)
    # a's children: b [1,4], c [5,9], h [3.5,4.5] -> union 7.5
    assert summary.self_time["a"] == pytest.approx(2.5)


def test_spans_of_other_units_are_left_out():
    trace = load("trace")
    log = trace._ThreadLog()
    log.spans = [("a", 0.0, 1.0, -1, "setup"), ("a", 2.0, 5.0, -1, "traced")]
    assert trace.Summary(log, [], ["traced"]).total["a"] == 3.0
    assert trace.Summary(log, [], ["setup", "traced"]).calls["a"] == 2


def test_wrapper_records_nesting_and_counters():
    trace = load("trace")
    tracer = trace.Tracer()
    tracer.unit = "u"
    inner = tracer.wrap(lambda x: x + 1, "layer.inner",
                        after=lambda t, args, kwargs, result: t.add("layer.sum", result))
    outer = tracer.wrap(lambda x: inner(inner(x)), "layer.outer")
    assert outer(1) == 3
    summary = tracer.summary(["u"])
    assert summary.calls == {"layer.inner": 2, "layer.outer": 1}
    assert summary.counts["layer.sum"] == 5
    assert summary.self_time["layer.outer"] <= summary.total["layer.outer"]
    assert summary.quantile("layer.inner", 0.5) in summary.durations["layer.inner"]


# -- patching ----------------------------------------------------------------------


def _holders(original):
    """(module name, attribute) pairs and dict slots in repro.* holding ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod_name, key))
            elif type(value) is dict and any(v is original for v in value.values()):
                found.append((mod_name, key + "{}"))
    return sorted(found)


def test_function_patch_reaches_every_importer_and_is_undone():
    trace = load("trace")
    import repro.experiments  # noqa: F401 - loads the importers
    from repro.fl import evaluation
    from repro.nn import stacked

    by_name = evaluation.client_error_rates
    in_dict = stacked.stacked_mse
    before = _holders(by_name)
    assert len({mod for mod, _ in before}) >= 2, "expected modules importing it by name"
    assert ("repro.nn.stacked", "STACKED_LOSSES{}") in _holders(in_dict)

    tracer = trace.Tracer()
    tracer.patch("repro.fl.evaluation:client_error_rates", "fl.evaluation.serial")
    tracer.patch("repro.nn.stacked:stacked_mse", "nn.stacked.loss")
    try:
        assert _holders(by_name) == [] and _holders(in_dict) == []
        wrapper = evaluation.client_error_rates
        assert wrapper.__wrapped__ is by_name
        assert _holders(wrapper) == before
    finally:
        tracer.uninstall()
    assert _holders(by_name) == before
    assert ("repro.nn.stacked", "STACKED_LOSSES{}") in _holders(in_dict)


def test_method_patch_keeps_the_kind_and_is_undone():
    trace = load("trace")
    from repro.core.evaluator import TrialRunner
    from repro.experiments.bank import BankTrialRunner, ConfigBank

    build = ConfigBank.__dict__["build"]
    assert "advance" not in vars(BankTrialRunner)
    tracer = trace.Tracer()
    tracer.patch("repro.experiments.bank:ConfigBank.build", "experiments.bank_build")
    tracer.patch("repro.experiments.bank:BankTrialRunner.advance", "experiments.bank_runner")
    try:
        assert isinstance(ConfigBank.__dict__["build"], classmethod)
        assert ConfigBank.__dict__["build"] is not build
        # Overridden on the subclass only: the live runner keeps the base method.
        assert BankTrialRunner.advance is not TrialRunner.advance
        assert BankTrialRunner.advance.__wrapped__ is TrialRunner.advance
    finally:
        tracer.uninstall()
    assert ConfigBank.__dict__["build"] is build
    assert "advance" not in vars(BankTrialRunner)


def test_every_probe_target_resolves_and_uninstalls_cleanly():
    trace = load("trace")
    workloads = load("workloads")
    original_fsync = os.fsync
    tracer = trace.Tracer()
    trace.install_probes(tracer, [workloads])
    try:
        assert workloads.run_figure3.__wrapped__ is not None
        assert os.fsync is not original_fsync
    finally:
        tracer.uninstall()
    assert os.fsync is original_fsync
    assert not hasattr(workloads.run_figure3, "__wrapped__")


# -- BENCHMARK.json against the harness ----------------------------------------------


def test_names_are_well_formed_and_unique(spec):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_workloads_and_metrics_equal_the_harness_registry(spec):
    run, trace, workloads = load("run"), load("trace"), load("workloads")
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == run.workload_names() == list(workloads.REGISTRY)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.REGISTRY.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in trace.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"unit_s", "setup_s", "peak_rss_mb"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/e2e"] and spec["command"][-1] == "benchmarks/e2e/run.py"


def test_every_metric_source_names_a_probe_span_or_counter():
    trace = load("trace")
    span_names = {name for _, name, _ in trace.PROBES if name} | {
        "service.http.submit", "service.http.get",  # recorded client-side by the workload
    }
    for metric, _, _, source in trace.PER_LAYER:
        if source[0] in ("self", "total", "calls", "quantile"):
            assert source[1] in span_names, metric
        elif source[0] == "ratio":
            assert source[2] in span_names, metric


@pytest.mark.parametrize("trace_flag", [0, 1])
def test_smoke_run_emits_every_declared_metric(spec, trace_flag):
    env = dict(os.environ, REPRO_COHORT_VECTOR="bogus")  # must be scrubbed, or the child raises
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace", str(trace_flag)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    runs = [line["run"] for line in lines if "run" in line]
    results = [line for line in lines if "run" not in line]
    assert [run["workload"] for run in runs] == [w["name"] for w in spec["workloads"]]
    expected = [m["name"] for m in spec["per_layer" if trace_flag else "end_to_end"]]
    for result in results:
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == expected
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    assert all(run["blas_threads"] == "1" and run["smoke"] for run in runs)
    assert not os.path.exists(os.path.join(HERE, ".scratch")), "scratch left behind"
