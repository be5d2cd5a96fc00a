"""Span tracer for the end-to-end benchmark.

Everything here measures ``repro`` from outside: :class:`Tracer` swaps
public callables for timing wrappers, records one span per call (name,
start, end, parent, unit id), keeps spans in memory, and aggregates them
after the traced unit. ``src/`` holds no instrumentation; the benchmark's
end-to-end numbers come from untraced units, and the traced unit's extra
time is reported as ``harness.trace_overhead_frac``.

Self time is a span's duration minus the part of it covered by child
spans. Spans are kept per thread (the service workload runs an HTTP
handler thread and a daemon job thread); a root span of another thread is
adopted by the innermost span of the driving thread that contains it, so a
client-side request span's self time is the request minus the server-side
work, and the daemon loop's self time is its poll sleep.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Span record layout (tuples, for cheap appends in hot wrappers).
NAME, START, END, PARENT, UNIT = range(5)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


class Tracer:
    """Records spans and counters around patched callables."""

    def __init__(self) -> None:
        self.unit: Optional[str] = None  # stamped on every span at its end
        self._local = threading.local()
        self._threads: List["_ThreadLog"] = []
        self._threads_lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        self._main = self._log()  # the driving thread's log

    # -- recording -------------------------------------------------------------
    def _log(self) -> "_ThreadLog":
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._threads_lock:
                self._threads.append(log)
            return log

    @contextmanager
    def span(self, name: str):
        """Record a span from the harness's own code (client-side request
        latency, the unit itself)."""
        log = self._log()
        index = log.open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            log.close(index, start, time.perf_counter(), self.unit)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Add to a counter (kept per thread, summed in :meth:`summary`)."""
        self._log().counts[counter] += value

    def peak(self, counter: str, value: float) -> None:
        """Keep the maximum seen for ``counter``."""
        peaks = self._log().peaks
        if value > peaks.get(counter, float("-inf")):
            peaks[counter] = value

    def inside(self, name: str) -> bool:
        """Whether the calling thread is currently inside a span that a
        wrapper of ``name`` opened (innermost only)."""
        log = self._log()
        return bool(log.stack) and log.spans[log.stack[-1]][NAME] == name

    def wrap(self, fn: Callable, name: Optional[str], after: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` recording a span ``name`` per call.

        ``after(tracer, args, kwargs, result)`` runs once the call returned
        (outside the span) and feeds counters from arguments and results.
        With ``name=None`` no span is recorded — a count-only probe.
        """
        tracer = self
        clock = time.perf_counter

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(tracer, args, kwargs, result)
                return result

            return counted

        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # _ThreadLog.open/close inlined: this runs 10^5 times per unit.
            try:
                log = local.log
            except AttributeError:
                log = tracer._log()
            spans, stack = log.spans, log.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, None, None, parent, None))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.unit)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------
    def patch(self, target: str, name: Optional[str], after: Optional[Callable] = None,
              namespaces: Sequence[object] = ()) -> None:
        """Replace the callable ``"pkg.module:attr"`` or
        ``"pkg.module:Class.attr"`` by its wrapper until :meth:`uninstall`.

        A method is replaced on its class (classmethods and staticmethods
        keep their kind; a method inherited from a base is overridden on
        the named class only). A module-level function is replaced in
        every loaded ``repro`` module — and in ``namespaces`` — that holds
        the same object, as an attribute or as a value of a module-level
        dict: ``from x import f`` copies the reference, so patching the
        defining module alone would miss most callers.
        """
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            self._patch_method(getattr(module, owner_name), attr, name, after)
        else:
            self._patch_function(getattr(module, attr), name, after, namespaces)

    def _patch_method(self, cls: type, attr: str, name, after) -> None:
        raw = inspect.getattr_static(cls, attr)
        own = attr in vars(cls)
        if isinstance(raw, classmethod):
            wrapper: object = classmethod(self.wrap(raw.__func__, name, after))
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(self.wrap(raw.__func__, name, after))
        else:
            wrapper = self.wrap(raw, name, after)
        setattr(cls, attr, wrapper)
        if own:
            self._undo.append(lambda: setattr(cls, attr, raw))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def _patch_function(self, original: Callable, name, after, namespaces) -> None:
        wrapper = self.wrap(original, name, after)
        modules = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        ]
        for holder in [*modules, *namespaces]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append(
                        lambda holder=holder, key=key: setattr(holder, key, original)
                    )
                elif type(value) is dict:
                    for dict_key, dict_value in list(value.items()):
                        if dict_value is original:
                            value[dict_key] = wrapper
                            self._undo.append(
                                lambda d=value, k=dict_key: d.__setitem__(k, original)
                            )

    def uninstall(self) -> None:
        """Restore every patched callable (reverse order)."""
        while self._undo:
            self._undo.pop()()

    # -- aggregation -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every finished span as one JSON line: name, start, end,
        parent (an index into the same thread's spans), unit, thread."""
        with open(path, "w", encoding="utf-8") as fh:
            for thread_id, log in enumerate(self._threads):
                for index, (name, start, end, parent, unit) in enumerate(log.spans):
                    if end is not None:
                        fh.write(json.dumps({
                            "thread": thread_id, "index": index, "name": name,
                            "start": start, "end": end, "parent": parent, "unit": unit,
                        }) + "\n")

    def summary(self, units: Sequence[str]) -> "Summary":
        """Aggregate the spans stamped with one of ``units`` (and every
        counter)."""
        others = [log for log in self._threads if log is not self._main]
        return Summary(self._main, others, units)


class _ThreadLog:
    """One thread's spans, open-span stack and counters. A span still open
    has ``None`` for its start and end."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, None, None, self.stack[-1] if self.stack else -1, None))
        self.stack.append(index)
        return index

    def close(self, index: int, start: float, end: float, unit) -> None:
        self.stack.pop()
        name, _, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, unit)


class Summary:
    """Per-name totals, self times, call counts and durations."""

    def __init__(self, main: _ThreadLog, others: Sequence[_ThreadLog], units: Sequence[str]):
        wanted = set(units)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = {}
        for log in [main, *others]:
            for key, value in log.counts.items():
                self.counts[key] += value
            for key, value in log.peaks.items():
                self.peaks[key] = max(value, self.peaks.get(key, value))

        # Start times of the driving thread's spans, in start order (an
        # open span inherits its predecessor's, keeping the list sorted).
        starts: List[float] = []
        for record in main.spans:
            starts.append(record[START] if record[START] is not None
                          else (starts[-1] if starts else float("-inf")))
        adopted: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for log in others:
            for record in log.spans:
                if record[END] is not None and record[PARENT] < 0 and record[UNIT] in wanted:
                    host = self._host(main.spans, starts, record[START], record[END])
                    if host >= 0:
                        adopted[host].append((record[START], record[END]))
        for log in [main, *others]:
            children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
            for record in log.spans:
                if record[END] is not None and record[PARENT] >= 0:
                    children[record[PARENT]].append((record[START], record[END]))
            for index, record in enumerate(log.spans):
                if record[END] is None or record[UNIT] not in wanted:
                    continue
                duration = record[END] - record[START]
                if log is main and index in adopted:
                    # Foreign work may overlap this thread's own children.
                    busy = covered(children[index] + adopted[index], record[START], record[END])
                else:
                    busy = sum(end - start for start, end in children.get(index, ()))
                name = record[NAME]
                self.total[name] += duration
                self.self_time[name] += duration - busy
                self.calls[name] += 1
                self.durations[name].append(duration)

    @staticmethod
    def _host(main_spans, starts, start: float, end: float) -> int:
        """Innermost driving-thread span containing ``[start, end]``: every
        span open at ``start`` is the last one started before it or one of
        its ancestors."""
        index = bisect.bisect_right(starts, start) - 1
        while index >= 0:
            record = main_spans[index]
            if record[END] is not None and record[START] <= start and record[END] >= end:
                return index
            index = record[PARENT]
        return -1

    def quantile(self, name: str, q: float) -> float:
        """Nearest-rank ``q`` quantile (0..1) of the span durations of
        ``name``; 0 when there are none."""
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]

    def layer_shares(self, unit_seconds: float) -> Dict[str, float]:
        """Self time per layer (span name minus its last component) as a
        share of the unit."""
        shares: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            shares[name.rpartition(".")[0]] += seconds / unit_seconds
        return dict(sorted(shares.items()))


# -- probes ---------------------------------------------------------------------
# Counter hooks: (tracer, args, kwargs, result). args[0] is ``self`` for methods.


def _tuner_run(tracer, args, kwargs, result):
    tracer.add("core.tuner.observations", len(result.observations))


def _advance_many(tracer, args, kwargs, result):
    tracer.add("core.evaluator.rounds", sum(result))
    tracer.add("core.evaluator.batch_trials", len(result))


def _train_groups(tracer, args, kwargs, result):
    tracer.add("fl.cohort.slab_rows", sum(len(group.clients) for group in args[1]))


def _stacked_model_init(tracer, args, kwargs, result):
    slab = args[0].slab
    tracer.peak("nn.stacked.slab_mb_max", slab.nbytes / 2**20)


def _conv_flops(conv, x_shape) -> float:
    k, b, _, height, width = x_shape
    ksz = conv.kernel_size
    out_h = (height + 2 * conv.pad - ksz) // conv.stride + 1
    out_w = (width + 2 * conv.pad - ksz) // conv.stride + 1
    return 2.0 * k * b * out_h * out_w * conv.in_channels * ksz * ksz * conv.out_channels


def _conv_forward(tracer, args, kwargs, result):
    tracer.add("nn.stacked.conv_gflop", _conv_flops(args[0], args[1].shape) / 1e9)


def _conv_backward(tracer, args, kwargs, result):
    # Weight gradient and input gradient: two matmuls of the forward's size.
    tracer.add("nn.stacked.conv_gflop", 2 * _conv_flops(args[0], result.shape) / 1e9)


def _bank_put(tracer, args, kwargs, result):
    tracer.add("engine.bank_store.bytes", os.path.getsize(result))


def _bank_get(tracer, args, kwargs, result):
    tracer.add("engine.bank_store.hits", result is not None)


def _checkpoint_save(tracer, args, kwargs, result):
    tracer.add("engine.checkpoint.bytes", os.path.getsize(result))


def _executor_map(tracer, args, kwargs, result):
    tracer.add("engine.executor.tasks", len(result))


def _journal_replay(tracer, args, kwargs, result):
    if os.path.basename(args[0].path) == "queue.jsonl":
        tracer.add("service.queue.replayed_entries", len(result))


def _fsync(tracer, args, kwargs, result):
    if tracer.inside("service.journal.append"):
        tracer.add("service.journal.fsyncs")


#: ``(target, span name, counter hook)``: the public callables the traced
#: unit wraps. Several targets may share a span name; their times add.
PROBES: List[Tuple[str, Optional[str], Optional[Callable]]] = [
    ("repro.datasets.registry:load_dataset", "datasets.load", None),
    ("repro.experiments.context:ExperimentContext.__init__", "experiments.context_init", None),
    ("repro.experiments.bank:ConfigBank.build", "experiments.bank_build", None),
    ("repro.experiments.fig_subsampling:run_figure3", "experiments.replay", None),
    ("repro.experiments.fig_subsampling:run_figure5", "experiments.replay", None),
    ("repro.experiments.fig_heterogeneity:run_figure6", "experiments.replay", None),
    ("repro.experiments.fig_privacy:run_figure9", "experiments.replay", None),
    ("repro.experiments.bank:BankTrialRunner.error_rates", "experiments.bank_runner", None),
    ("repro.experiments.bank:BankTrialRunner.advance", "experiments.bank_runner", None),
    ("repro.core.tuner:BaseTuner.run", "core.tuner.run", _tuner_run),
    ("repro.core.evaluator:FederatedTrialRunner.advance_many",
     "core.evaluator.advance_many", _advance_many),
    ("repro.core.evaluator:FederatedTrialRunner.error_rates_many",
     "core.evaluator.error_rates_many", None),
    ("repro.core.evaluator:FederatedTrialRunner.error_rates", "core.evaluator.error_rates", None),
    ("repro.core.noise:NoisyEvaluator.evaluate", "core.noise.evaluate", None),
    ("repro.core.noise:NoisyEvaluator.sample_cohort", "core.noise.sample_cohort", None),
    ("repro.fl.fused:FusedTrainerPool.advance", "fl.fused.advance", None),
    ("repro.fl.fused:FusedTrainerPool.evaluate", "fl.fused.evaluate", None),
    ("repro.fl.cohort:SlabTrainer.train_groups", "fl.cohort.train_groups", _train_groups),
    ("repro.fl.trainer:FederatedTrainer.run_round", "fl.trainer.run_round", None),
    ("repro.fl.trainer:FederatedTrainer.eval_error_rates", "fl.trainer.eval", None),
    ("repro.fl.trainer:FederatedTrainer.state_dict", "fl.trainer.state_dict", None),
    ("repro.fl.client:ClientTrainer.train", "fl.client.train", None),
    ("repro.fl.server:ServerOptimizer.step", "fl.server.step", None),
    ("repro.fl.evaluation:StackedEvalEngine.error_rates_many", "fl.evaluation.stacked", None),
    ("repro.fl.evaluation:client_error_rates", "fl.evaluation.serial", None),
    ("repro.fl.evaluation:eval_chunk_plan", "fl.evaluation.plan", None),
    ("repro.fl.evaluation:EvalChunkPlan.__init__", "fl.evaluation.plan_build", None),
    ("repro.nn.stacked:StackedModel.__init__", None, _stacked_model_init),
    ("repro.nn.stacked:StackedModel.forward", "nn.stacked.forward", None),
    ("repro.nn.stacked:StackedModel.backward", "nn.stacked.backward", None),
    ("repro.nn.stacked:StackedModel.forward_eval", "nn.stacked.forward_eval", None),
    ("repro.nn.stacked:StackedConv2D.forward", "nn.stacked.conv_fwd", _conv_forward),
    ("repro.nn.stacked:StackedConv2D.backward", "nn.stacked.conv_bwd", _conv_backward),
    ("repro.nn.stacked:StackedLSTM.forward", "nn.stacked.lstm_fwd", None),
    ("repro.nn.stacked:StackedLSTM.backward", "nn.stacked.lstm_bwd", None),
    ("repro.nn.stacked:StackedLinear.forward", "nn.stacked.linear", None),
    ("repro.nn.stacked:StackedLinear.backward", "nn.stacked.linear", None),
    ("repro.nn.stacked:stacked_softmax_cross_entropy", "nn.stacked.loss", None),
    ("repro.nn.stacked:stacked_mse", "nn.stacked.loss", None),
    ("repro.nn.stacked:stacked_sequence_cross_entropy", "nn.stacked.loss", None),
    ("repro.nn.module:Sequential.forward", "nn.layers.forward", None),
    ("repro.nn.module:Sequential.backward", "nn.layers.backward", None),
    ("repro.nn.optim:fused_sgd_step", "nn.optim.fused_sgd", None),
    ("repro.engine.bank_store:BankStore.put", "engine.bank_store.put", _bank_put),
    ("repro.engine.bank_store:BankStore.get", "engine.bank_store.get", _bank_get),
    ("repro.engine.checkpoint:save_checkpoint", "engine.checkpoint.save", _checkpoint_save),
    ("repro.engine.atomicio:atomic_write_bytes", "engine.atomicio.write", None),
    ("repro.engine.executor:SerialExecutor.map", "engine.executor.map", _executor_map),
    ("repro.engine.executor:ProcessExecutor.map", "engine.executor.map", _executor_map),
    ("repro.service.queue:JobQueue.reload", "service.queue.reload", None),
    ("repro.service.queue:JobQueue.submit", "service.queue.submit", None),
    ("repro.service.queue:JobQueue.lease", "service.queue.op", None),
    ("repro.service.queue:JobQueue.heartbeat", "service.queue.op", None),
    ("repro.service.queue:JobQueue.mark_running", "service.queue.op", None),
    ("repro.service.queue:JobQueue.complete", "service.queue.op", None),
    ("repro.service.queue:JobQueue.recover_expired", "service.queue.read", None),
    ("repro.service.queue:JobQueue.job", "service.queue.read", None),
    ("repro.service.queue:JobQueue.jobs", "service.queue.read", None),
    ("repro.service.journal:Journal.replay", None, _journal_replay),
    ("repro.service.journal:Journal.append", "service.journal.append", None),
    ("repro.service.http:ServiceAPI.submit", "service.http.api", None),
    ("repro.service.http:ServiceAPI.get_job", "service.http.api", None),
    ("repro.service.http:ServiceAPI.get_curve", "service.http.api", None),
    ("repro.service.http:ServiceAPI.get_result", "service.http.api", None),
    ("repro.service.store:ExperimentStore.put", "service.store.put", None),
    ("repro.service.store:ExperimentStore.append_curve_points",
     "service.store.curve_append", None),
    ("repro.service.store:ExperimentStore.curve_points", "service.store.curve_read", None),
    ("repro.service.worker:execute_job", "service.worker.execute_job", None),
    ("repro.service.daemon:TuningService.run", "service.daemon.run", None),
]


def install_probes(tracer: Tracer, namespaces: Sequence[object] = ()) -> None:
    """Install :data:`PROBES`, plus the ``os.fsync`` counter the journal
    probe needs (``repro.service.journal`` calls it through ``os``)."""
    for target, name, after in PROBES:
        tracer.patch(target, name, after, namespaces)
    tracer.patch("os:fsync", None, _fsync, [os])


# -- per-layer metrics -----------------------------------------------------------
# (name, unit, better, source). Sources: ("self"|"total"|"calls", span name),
# ("count"|"peak", counter), ("ratio", numerator counter, denominator span
# calls), ("quantile", span name, q) in ms, ("given",) supplied by the runner.
PER_LAYER: List[Tuple[str, str, str, Tuple]] = [
    ("harness.import_s", "s", "lower", ("given",)),
    ("harness.warmup_s", "s", "lower", ("given",)),
    ("harness.unit_cpu_s", "s", "lower", ("given",)),
    ("harness.rep_spread", "ratio", "lower", ("given",)),
    ("harness.loadavg", "count", "lower", ("given",)),
    ("harness.trace_overhead_frac", "ratio", "lower", ("given",)),
    ("harness.untraced_frac", "ratio", "lower", ("given",)),
    ("datasets.load_s", "s", "lower", ("self", "datasets.load")),
    ("datasets.load_calls", "count", "lower", ("calls", "datasets.load")),
    ("experiments.context_init_s", "s", "lower", ("self", "experiments.context_init")),
    ("experiments.bank_build_s", "s", "lower", ("total", "experiments.bank_build")),
    ("experiments.replay_s", "s", "lower", ("total", "experiments.replay")),
    ("experiments.replay_runs", "count", "lower", ("calls", "experiments.replay")),
    ("experiments.bank_runner_s", "s", "lower", ("self", "experiments.bank_runner")),
    ("core.tuner.run_s", "s", "lower", ("total", "core.tuner.run")),
    ("core.tuner.self_s", "s", "lower", ("self", "core.tuner.run")),
    ("core.tuner.runs", "count", "lower", ("calls", "core.tuner.run")),
    ("core.tuner.observations", "count", "lower", ("count", "core.tuner.observations")),
    ("core.tuner.target_s", "s", "lower", ("given",)),
    ("core.evaluator.advance_many_s", "s", "lower", ("self", "core.evaluator.advance_many")),
    ("core.evaluator.advance_many_calls", "count", "lower",
     ("calls", "core.evaluator.advance_many")),
    ("core.evaluator.rounds", "count", "lower", ("count", "core.evaluator.rounds")),
    ("core.evaluator.batch_trials_mean", "count", "higher",
     ("ratio", "core.evaluator.batch_trials", "core.evaluator.advance_many")),
    ("core.evaluator.error_rates_many_s", "s", "lower",
     ("self", "core.evaluator.error_rates_many")),
    ("core.evaluator.error_rates_many_calls", "count", "lower",
     ("calls", "core.evaluator.error_rates_many")),
    ("core.evaluator.error_rates_s", "s", "lower", ("self", "core.evaluator.error_rates")),
    ("core.noise.evaluate_s", "s", "lower", ("self", "core.noise.evaluate")),
    ("core.noise.evaluate_calls", "count", "lower", ("calls", "core.noise.evaluate")),
    ("core.noise.sample_cohort_s", "s", "lower", ("self", "core.noise.sample_cohort")),
    ("fl.fused.advance_s", "s", "lower", ("self", "fl.fused.advance")),
    ("fl.fused.evaluate_s", "s", "lower", ("self", "fl.fused.evaluate")),
    ("fl.cohort.train_groups_s", "s", "lower", ("self", "fl.cohort.train_groups")),
    ("fl.cohort.train_groups_calls", "count", "lower", ("calls", "fl.cohort.train_groups")),
    ("fl.cohort.slab_rows_mean", "count", "higher",
     ("ratio", "fl.cohort.slab_rows", "fl.cohort.train_groups")),
    ("fl.degraded_warnings", "count", "lower", ("given",)),
    ("fl.serial_over_fused", "ratio", "higher", ("given",)),
    ("fl.trainer.run_round_s", "s", "lower", ("self", "fl.trainer.run_round")),
    ("fl.trainer.run_round_calls", "count", "lower", ("calls", "fl.trainer.run_round")),
    ("fl.trainer.eval_s", "s", "lower", ("self", "fl.trainer.eval")),
    ("fl.trainer.state_dict_s", "s", "lower", ("self", "fl.trainer.state_dict")),
    ("fl.client.train_s", "s", "lower", ("self", "fl.client.train")),
    ("fl.client.train_calls", "count", "lower", ("calls", "fl.client.train")),
    ("fl.server.step_s", "s", "lower", ("self", "fl.server.step")),
    ("fl.evaluation.stacked_s", "s", "lower", ("self", "fl.evaluation.stacked")),
    ("fl.evaluation.serial_s", "s", "lower", ("self", "fl.evaluation.serial")),
    ("fl.evaluation.plan_calls", "count", "lower", ("calls", "fl.evaluation.plan")),
    ("fl.evaluation.plan_builds", "count", "lower", ("calls", "fl.evaluation.plan_build")),
    ("nn.stacked.forward_s", "s", "lower", ("self", "nn.stacked.forward")),
    ("nn.stacked.backward_s", "s", "lower", ("self", "nn.stacked.backward")),
    ("nn.stacked.forward_eval_s", "s", "lower", ("self", "nn.stacked.forward_eval")),
    ("nn.stacked.conv_fwd_s", "s", "lower", ("self", "nn.stacked.conv_fwd")),
    ("nn.stacked.conv_bwd_s", "s", "lower", ("self", "nn.stacked.conv_bwd")),
    ("nn.stacked.lstm_fwd_s", "s", "lower", ("self", "nn.stacked.lstm_fwd")),
    ("nn.stacked.lstm_bwd_s", "s", "lower", ("self", "nn.stacked.lstm_bwd")),
    ("nn.stacked.linear_s", "s", "lower", ("self", "nn.stacked.linear")),
    ("nn.stacked.loss_s", "s", "lower", ("self", "nn.stacked.loss")),
    ("nn.stacked.steps", "count", "lower", ("calls", "nn.stacked.backward")),
    ("nn.stacked.conv_gflop", "gflop", "lower", ("count", "nn.stacked.conv_gflop")),
    ("nn.stacked.slab_mb_max", "MiB", "lower", ("peak", "nn.stacked.slab_mb_max")),
    ("nn.layers.forward_s", "s", "lower", ("self", "nn.layers.forward")),
    ("nn.layers.backward_s", "s", "lower", ("self", "nn.layers.backward")),
    ("nn.optim.fused_sgd_s", "s", "lower", ("self", "nn.optim.fused_sgd")),
    ("nn.optim.fused_sgd_calls", "count", "lower", ("calls", "nn.optim.fused_sgd")),
    ("engine.bank_store.put_s", "s", "lower", ("self", "engine.bank_store.put")),
    ("engine.bank_store.get_s", "s", "lower", ("self", "engine.bank_store.get")),
    ("engine.bank_store.hit_frac", "ratio", "higher",
     ("ratio", "engine.bank_store.hits", "engine.bank_store.get")),
    ("engine.bank_store.bytes", "bytes", "lower", ("count", "engine.bank_store.bytes")),
    ("engine.checkpoint.save_s", "s", "lower", ("self", "engine.checkpoint.save")),
    ("engine.checkpoint.saves", "count", "lower", ("calls", "engine.checkpoint.save")),
    ("engine.checkpoint.bytes", "bytes", "lower", ("count", "engine.checkpoint.bytes")),
    ("engine.atomicio.write_s", "s", "lower", ("self", "engine.atomicio.write")),
    ("engine.atomicio.writes", "count", "lower", ("calls", "engine.atomicio.write")),
    ("engine.executor.map_s", "s", "lower", ("self", "engine.executor.map")),
    ("engine.executor.tasks", "count", "lower", ("count", "engine.executor.tasks")),
    ("service.queue.reload_s", "s", "lower", ("self", "service.queue.reload")),
    ("service.queue.reload_calls", "count", "lower", ("calls", "service.queue.reload")),
    ("service.queue.replayed_entries", "count", "lower",
     ("count", "service.queue.replayed_entries")),
    ("service.queue.op_ms_p50", "ms", "lower", ("quantile", "service.queue.op", 0.5)),
    ("service.queue.op_ms_p90", "ms", "lower", ("quantile", "service.queue.op", 0.9)),
    ("service.journal.append_s", "s", "lower", ("self", "service.journal.append")),
    ("service.journal.appends", "count", "lower", ("calls", "service.journal.append")),
    ("service.journal.bytes", "bytes", "lower", ("given",)),
    ("service.journal.fsyncs", "count", "lower", ("count", "service.journal.fsyncs")),
    ("service.http.submit_ms_p50", "ms", "lower", ("quantile", "service.http.submit", 0.5)),
    ("service.http.submit_ms_p90", "ms", "lower", ("quantile", "service.http.submit", 0.9)),
    ("service.http.get_ms_p50", "ms", "lower", ("quantile", "service.http.get", 0.5)),
    ("service.http.get_ms_p90", "ms", "lower", ("quantile", "service.http.get", 0.9)),
    ("service.store.put_s", "s", "lower", ("self", "service.store.put")),
    ("service.store.curve_append_s", "s", "lower", ("self", "service.store.curve_append")),
    ("service.store.curve_read_s", "s", "lower", ("self", "service.store.curve_read")),
    ("service.worker.execute_job_s", "s", "lower", ("self", "service.worker.execute_job")),
    ("service.worker.jobs", "count", "lower", ("calls", "service.worker.execute_job")),
    ("service.daemon.run_s", "s", "lower", ("total", "service.daemon.run")),
    ("service.daemon.idle_s", "s", "lower", ("self", "service.daemon.run")),
]


def per_layer_metrics(summary: Summary, given: Dict[str, float]) -> Dict[str, Dict]:
    """Every :data:`PER_LAYER` metric as ``{name: {"value", "unit"}}``. A
    layer the workload never enters reads 0."""
    out: Dict[str, Dict] = {}
    for name, unit, _, source in PER_LAYER:
        kind = source[0]
        if kind == "given":
            value = given.get(name, 0.0)
        elif kind == "self":
            value = summary.self_time.get(source[1], 0.0)
        elif kind == "total":
            value = summary.total.get(source[1], 0.0)
        elif kind == "calls":
            value = summary.calls.get(source[1], 0)
        elif kind == "count":
            value = summary.counts.get(source[1], 0.0)
        elif kind == "peak":
            value = summary.peaks.get(source[1], 0.0)
        elif kind == "ratio":
            calls = summary.calls.get(source[2], 0)
            value = summary.counts.get(source[1], 0.0) / calls if calls else 0.0
        elif kind == "quantile":
            value = 1e3 * summary.quantile(source[1], source[2])
        else:
            raise ValueError(f"unknown metric source {source!r}")
        out[name] = {"value": float(value), "unit": unit}
    return out
