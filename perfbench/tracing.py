"""In-memory span tracing around maskedpls's public functions.

A traced unit replaces each function in ``WRAPPED`` at the module
attribute its caller looks up at call time, records one span per call
(name, start, end, parent span, trial id) and restores the originals
afterwards.  Spans are kept in memory; when the run ends they are written
out as JSON and reduced to the per-layer metrics of ``LAYER_METRICS``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

# (module of the maskedpls package, attribute looked up by the caller,
# span name); the span name is the layer and function actually called
WRAPPED = (
    ("presets", "preset_config", "presets.preset_config"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("matio", "emit_results", "matio.emit_results"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "generate_pair", "synth.generate_pair"),
    ("harness", "estimate", "estimators.estimate"),
    ("harness", "split_half_stability", "estimators.split_half_stability"),
    ("harness", "predict", "theory.predict"),
    ("harness", "derive_seed", "streams.derive_seed"),
    ("synth", "whiten", "linalg.whiten"),
    ("synth", "sample_noise", "synth.sample_noise"),
    ("synth", "sample_mask", "synth.sample_mask"),
    ("synth", "substream", "streams.substream"),
    ("synth", "derive_seed", "streams.derive_seed"),
    ("estimators", "top_singular_pair", "linalg.top_singular_pair"),
    ("estimators", "substream", "streams.substream"),
    ("linalg", "substream", "streams.substream"),
)

# fixed so that the metric set does not depend on the program version
ESTIMATORS = ("pls_svd_zero", "mean_impute", "em_pls", "iterative_svd", "oracle")

# (name, unit, better) of every per-layer metric, in output order
LAYER_METRICS = (
    ("harness.run_trial_ms_p50", "ms", "lower"),
    ("harness.run_trial_ms_p95", "ms", "lower"),
    ("harness.run_trial_samples", "count", "higher"),
    ("harness.aggregate_ms", "ms", "lower"),
    ("harness.pool_busy_share", "share", "higher"),
    ("linalg.whiten_ms", "ms", "lower"),
    ("linalg.whiten_gflops_per_s", "GFLOP/s", "higher"),
    ("linalg.top_singular_pair_calls", "calls/trial", "lower"),
    ("linalg.top_singular_pair_ms", "ms", "lower"),
    ("linalg.convergence_errors", "share", "lower"),
    ("synth.generate_pair_ms", "ms", "lower"),
    ("synth.generate_pair_self_ms", "ms", "lower"),
    ("synth.sample_mask_ms", "ms", "lower"),
    ("synth.sample_noise_ms", "ms", "lower"),
    ("synth.repeat_pair_share", "share", "lower"),
    *((f"estimators.estimate_ms.{name}", "ms", "lower") for name in ESTIMATORS),
    *((f"estimators.iterations.{name}", "iterations", "lower") for name in ESTIMATORS),
    *((f"estimators.max_iter_share.{name}", "share", "lower") for name in ESTIMATORS),
    ("estimators.split_half_ms", "ms", "lower"),
    ("streams.substream_calls", "calls/trial", "lower"),
    ("streams.substream_ms", "ms", "lower"),
    ("streams.derive_seed_calls", "calls/trial", "lower"),
    ("theory.predict_calls", "calls/trial", "lower"),
    ("theory.predict_ms", "ms", "lower"),
    ("presets.preset_config_ms", "ms", "lower"),
    ("matio.emit_results_ms", "ms", "lower"),
    ("matio.bytes_written", "B", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    trial: int | None = None
    note: dict = field(default_factory=dict)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap one another (trials on pool threads share one
    sweep parent), so covered time is merged before it is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


def _note_whiten(span, args, kwargs, result):
    span.note["shape"] = np.shape(args[0])


def _note_generate_pair(span, args, kwargs, result):
    span.note["key"] = repr(args[0])


def _note_estimate(span, args, kwargs, result):
    kind = args[1]
    # iterative_svd reports the sum of its two per-view loops
    budget = kind.max_iter * (2 if kind.name == "iterative_svd" else 1)
    span.note.update(estimator=kind.name, iterations=result.iterations,
                     at_budget=result.iterations >= budget)


def _note_emit(span, args, kwargs, result):
    span.note["bytes"] = os.path.getsize(args[1])


def _note_run_sweep(span, args, kwargs, result):
    span.note["threads"] = kwargs.get("threads", args[1] if len(args) > 1 else 1)


_NOTES = {
    "linalg.whiten": _note_whiten,
    "synth.generate_pair": _note_generate_pair,
    "estimators.estimate": _note_estimate,
    "matio.emit_results": _note_emit,
    "harness.run_sweep": _note_run_sweep,
}


class Tracer:
    """Collects spans from every thread; a run_sweep span is the parent of
    spans that start on pool threads with nothing open on their own stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweep: Span | None = None
        self._trials = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._sweep
        with self._lock:
            span = Span(id=len(self.spans), name=name,
                        parent=parent.id if parent else None,
                        trial=parent.trial if parent else None)
            if name == "harness.run_trial":
                span.trial = self._trials
                self._trials += 1
            self.spans.append(span)
        stack.append(span)
        if name == "harness.run_sweep":
            self._sweep = span
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == "harness.run_sweep":
            self._sweep = None

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.note["error"] = type(err).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every function of ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in WRAPPED:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def write_spans(spans, path: str) -> None:
    """Write every span to ``path`` as one JSON list."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in spans], fh)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans, overhead_share: float) -> dict[str, float]:
    """Reduce spans to the values of ``LAYER_METRICS``.

    Times ending in ``_ms`` are inclusive and per trial for layers a trial
    calls, per call for the sweep-level layers (aggregate, predict,
    estimate, preset_config, emit_results); ``_self_ms`` and
    ``aggregate_ms`` are self times.  A layer the workload never calls
    reads 0.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def ms(span_list, self_time=False):
        return [1e3 * (own[s.id] if self_time else s.end - s.start)
                for s in span_list]

    trials = by_name["harness.run_trial"]
    n_trials = max(len(trials), 1)

    def per_trial_ms(name, self_time=False):
        return sum(ms(by_name[name], self_time)) / n_trials

    def per_trial_calls(name):
        return len(by_name[name]) / n_trials

    trial_ms = ms(trials)
    sweeps = by_name["harness.run_sweep"]
    capacity = sum((s.end - s.start) * s.note["threads"] for s in sweeps)
    whitens = by_name["linalg.whiten"]
    # computed, not counted: Householder QR plus the explicit thin Q,
    # 4 m n^2 - 4 n^3 / 3 flops for an m x n input
    flops = sum(4 * m * n * n - 4 * n ** 3 / 3
                for m, n in (s.note["shape"] for s in whitens))
    whiten_s = sum(own[s.id] for s in whitens)
    tsp = by_name["linalg.top_singular_pair"]
    pairs = by_name["synth.generate_pair"]
    seen, repeats = set(), 0
    for s in pairs:
        repeats += s.note["key"] in seen
        seen.add(s.note["key"])
    emits = by_name["matio.emit_results"]

    values = {
        "harness.run_trial_ms_p50": float(np.percentile(trial_ms, 50)) if trial_ms else 0.0,
        "harness.run_trial_ms_p95": float(np.percentile(trial_ms, 95)) if trial_ms else 0.0,
        "harness.run_trial_samples": len(trials),
        "harness.aggregate_ms": _mean(ms(sweeps, self_time=True)),
        "harness.pool_busy_share": sum(trial_ms) / 1e3 / capacity if capacity else 0.0,
        "linalg.whiten_ms": per_trial_ms("linalg.whiten", self_time=True),
        "linalg.whiten_gflops_per_s": flops / whiten_s / 1e9 if whiten_s else 0.0,
        "linalg.top_singular_pair_calls": per_trial_calls("linalg.top_singular_pair"),
        "linalg.top_singular_pair_ms": per_trial_ms("linalg.top_singular_pair"),
        "linalg.convergence_errors": (
            sum(s.note.get("error") == "ConvergenceError" for s in tsp) / len(tsp)
            if tsp else 0.0),
        "synth.generate_pair_ms": per_trial_ms("synth.generate_pair"),
        "synth.generate_pair_self_ms": per_trial_ms("synth.generate_pair", self_time=True),
        "synth.sample_mask_ms": per_trial_ms("synth.sample_mask"),
        "synth.sample_noise_ms": per_trial_ms("synth.sample_noise"),
        "synth.repeat_pair_share": repeats / len(pairs) if pairs else 0.0,
    }
    estimates = by_name["estimators.estimate"]
    for name in ESTIMATORS:
        mine = [s for s in estimates if s.note.get("estimator") == name]
        values[f"estimators.estimate_ms.{name}"] = _mean(ms(mine))
        values[f"estimators.iterations.{name}"] = _mean([s.note["iterations"] for s in mine])
        values[f"estimators.max_iter_share.{name}"] = _mean([s.note["at_budget"] for s in mine])
    values.update({
        "estimators.split_half_ms": per_trial_ms("estimators.split_half_stability"),
        "streams.substream_calls": per_trial_calls("streams.substream"),
        "streams.substream_ms": per_trial_ms("streams.substream"),
        "streams.derive_seed_calls": per_trial_calls("streams.derive_seed"),
        "theory.predict_calls": per_trial_calls("theory.predict"),
        "theory.predict_ms": _mean(ms(by_name["theory.predict"])),
        "presets.preset_config_ms": _mean(ms(by_name["presets.preset_config"])),
        "matio.emit_results_ms": _mean(ms(emits)),
        "matio.bytes_written": _mean([s.note["bytes"] for s in emits]),
        "trace.overhead_share": overhead_share,
    })
    return values
