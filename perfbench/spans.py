"""Span tracing installed from outside the program, and the per-layer metrics.

`Tracer.install` replaces the public calls of each skewstream layer with
timing wrappers. Spans nest: a wrapped call made while another is open is its
child, and a span's self time is its duration minus the time its children
cover. The self times of all spans therefore add up to the duration of the
root spans (`ROOT_SPANS`), and the self time of ``run_experiment`` is the
harness loop's own work: the step time no layer span covers.

A name that no longer exists is recorded in ``Tracer.absent`` and skipped, so
a refactor that renames a call reports that layer as absent instead of
crashing the benchmark.

Per-layer metric conventions (see `layer_metrics`):

* ``*_us`` on a call made inside the step loop is self time in microseconds
  per prequential step of the pipelines that make the call (all steps for
  streams, imbalance and learners; the steps of the detector's own pipelines
  for a detector and the calls it makes).
* ``learners.reset_us`` and ``metrics.wilcoxon_us`` are per call.
* ``*_s`` and ``*_ms`` on a harness call are its inclusive duration.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

ROOT_SPANS = (
    "harness.load_config",
    "detectors.bound_table.init",  # when a set-up builds detectors itself
    "harness.run_experiment",
    "harness.aggregate_and_test",
    "harness.emit_report",
)

# (module, class or None, attribute, span name)
TARGETS = (
    ("skewstream.streams", "StreamGenerator", "next_example", "streams.next_example"),
    ("skewstream.imbalance", "ClassSizeTracker", "update", "imbalance.update"),
    ("skewstream.imbalance", "ClassSizeTracker", "status", "imbalance.status"),
    ("skewstream.learners", "OnlineEnsemble", "predict", "learners.predict"),
    ("skewstream.learners", "OnlineEnsemble", "train_one", "learners.train_one"),
    ("skewstream.learners", "OnlineEnsemble", "reset", "learners.reset"),
    ("skewstream.learners", "MlpBank", "train_rounds", "learners.train_rounds"),
    ("skewstream.detectors", "RecallDropDetector", "step", "detectors.recall_drop.step"),
    ("skewstream.detectors", "FourRatesDetector", "step", "detectors.four_rates.step"),
    ("skewstream.detectors", "AucDropDetector", "step", "detectors.auc_drop.step"),
    ("skewstream.detectors", "BoundTable", "bounds", "detectors.bound_table.bounds"),
    ("skewstream.detectors", "BoundTable", "__init__", "detectors.bound_table.init"),
    # private, but the only place a cache hit shows: a table, not None
    ("skewstream.detectors", "BoundTable", "_load_cache", "detectors.bound_table.load_cache"),
    # bound where the caller looks the name up, so the patch takes effect
    ("skewstream.detectors", None, "prequential_auc", "metrics.prequential_auc"),
    ("skewstream.harness", None, "decayed_recall_gmean_series", "metrics.decayed_series"),
    ("skewstream.harness", None, "wilcoxon_signed_rank", "metrics.wilcoxon"),
    ("skewstream.harness", None, "load_config", "harness.load_config"),
    ("skewstream.harness", None, "run_experiment", "harness.run_experiment"),
    ("skewstream.harness", None, "aggregate_and_test", "harness.aggregate_and_test"),
    ("skewstream.harness", None, "emit_report", "harness.emit_report"),
)

DETECTOR_STEPS = (
    "detectors.recall_drop.step",
    "detectors.four_rates.step",
    "detectors.auc_drop.step",
)


class Tracer:
    """In-memory span accounting: per name, calls, total and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        # train_rounds ks arrays, step entry marks, detector verdicts, cache
        # lookups: kept as references and reduced after the run
        self.ks: list = []
        self.step_marks: list[tuple[object, float]] = []
        self.verdicts: list = []
        self.cache_lookups: list = []
        self._open: list[float] = []  # child time covered, per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None, mark=False):
        """Replace ``owner.attr`` with a timing wrapper recording span ``name``.

        ``observe(args, kwargs, result)`` runs after the span closes; with
        ``mark`` the entry time is recorded against the receiver ``args[0]``.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        clock, open_spans = self.clock, self._open
        calls, total, self_time = self.calls, self.total, self.self_time
        marks = self.step_marks

        def wrapper(*args, **kwargs):
            t0 = clock()
            if mark:
                marks.append((args[0], t0))
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = open_spans.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - covered
                if open_spans:
                    open_spans[-1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap every entry of TARGETS that the installed program still has."""
        observers = {
            "learners.train_rounds": lambda a, k, r: self.ks.append(
                a[3] if len(a) > 3 else k["ks"]
            ),
            "detectors.bound_table.load_cache": lambda a, k, r: self.cache_lookups.append(
                r is not None
            ),
        }
        for step in DETECTOR_STEPS:
            observers[step] = lambda a, k, r: self.verdicts.append(r)
        for module, cls, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                self.absent.append(name)
                continue
            if cls is not None:
                owner = getattr(owner, cls, None)
                if owner is None:
                    self.absent.append(name)
                    continue
            self.wrap(owner, attr, name, observe=observers.get(name),
                      mark=name == "streams.next_example")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def step_intervals_us(self) -> list[float]:
        """Intervals between successive next_example entries of one stream."""
        out = []
        for (a, t0), (b, t1) in zip(self.step_marks, self.step_marks[1:]):
            if a is b:
                out.append((t1 - t0) * 1e6)
        return out


def ks_stats(ks_list, steps: int) -> tuple[float, float, float]:
    """(rounds per step, member updates per step, useful share of rounds).

    A call with replication counts ``ks`` runs ``max(ks)`` lockstep rounds
    over all ``len(ks)`` members but only ``sum(ks)`` member updates are
    wanted, so the useful share is sum(ks) / (max(ks) * members), pooled over
    calls.
    """
    rounds = updates = slots = 0
    for ks in ks_list:
        top = int(max(ks)) if len(ks) else 0
        done = int(sum(ks))
        rounds += top
        updates += done
        slots += top * len(ks)
    per = 1.0 / steps if steps else 0.0
    return rounds * per, updates * per, (updates / slots if slots else 0.0)


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    tr: Tracer, cpu_s: float, import_s: float, emit_bytes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced experiment, by name: (value, unit).

    ``detectors.bound_table.build_s`` and ``trace.overhead_frac`` need other
    jobs (a cold set-up and an untraced run); the caller adds them.
    """
    steps = tr.calls["streams.next_example"]

    def per(name: str, base: int) -> float:
        return tr.self_time[name] * 1e6 / base if base else 0.0

    four_rates = tr.calls["detectors.four_rates.step"]
    auc = tr.calls["detectors.auc_drop.step"]
    rounds, updates, useful = ks_stats(tr.ks, tr.calls["learners.train_one"])
    wil = tr.calls["metrics.wilcoxon"]
    intervals = tr.step_intervals_us()
    return {
        "learners.train_rounds_us": (per("learners.train_rounds", steps), "us"),
        "learners.train_rounds_calls": (tr.calls["learners.train_rounds"], "count"),
        "learners.rounds_per_step": (rounds, "count"),
        "learners.member_updates_per_step": (updates, "count"),
        "learners.round_useful_frac": (useful, "ratio"),
        "learners.train_one_us": (per("learners.train_one", steps), "us"),
        "learners.predict_us": (per("learners.predict", steps), "us"),
        "learners.resets": (tr.calls["learners.reset"], "count"),
        "learners.reset_us": (per("learners.reset", tr.calls["learners.reset"]), "us"),
        "detectors.auc_drop.step_us": (per("detectors.auc_drop.step", auc), "us"),
        "detectors.four_rates.step_us": (per("detectors.four_rates.step", four_rates), "us"),
        "detectors.bound_table.bounds_us": (per("detectors.bound_table.bounds", four_rates), "us"),
        "detectors.bound_table.bounds_per_step": (
            tr.calls["detectors.bound_table.bounds"] / four_rates if four_rates else 0.0,
            "count",
        ),
        "detectors.recall_drop.step_us": (
            per("detectors.recall_drop.step", tr.calls["detectors.recall_drop.step"]), "us"
        ),
        "detectors.drift_verdicts": (
            sum(1 for v in tr.verdicts if getattr(v, "value", None) == "drift"), "count"
        ),
        "detectors.bound_table.cache_hit": (sum(tr.cache_lookups), "count"),
        "metrics.prequential_auc_us": (per("metrics.prequential_auc", auc), "us"),
        "metrics.decayed_series_ms": (tr.total["metrics.decayed_series"] * 1e3, "ms"),
        "metrics.wilcoxon_calls": (wil, "count"),
        "metrics.wilcoxon_us": (per("metrics.wilcoxon", wil), "us"),
        "streams.next_example_us": (per("streams.next_example", steps), "us"),
        "streams.calls": (steps, "count"),
        "imbalance.update_us": (per("imbalance.update", steps), "us"),
        "imbalance.status_us": (per("imbalance.status", steps), "us"),
        "imbalance.status_per_step": (
            tr.calls["imbalance.status"] / steps if steps else 0.0, "count"
        ),
        "harness.run_experiment_s": (tr.total["harness.run_experiment"], "s"),
        "harness.aggregate_s": (tr.total["harness.aggregate_and_test"], "s"),
        "harness.emit_s": (tr.total["harness.emit_report"], "s"),
        "harness.emit_bytes": (emit_bytes, "bytes"),
        "harness.load_config_s": (tr.total["harness.load_config"], "s"),
        "harness.step_us_p50": (_pct(intervals, 50), "us"),
        "harness.step_us_p99": (_pct(intervals, 99), "us"),
        "harness.step_samples": (len(intervals), "count"),
        "harness.loop_self_us": (per("harness.run_experiment", steps), "us"),
        "harness.cpu_s": (cpu_s, "s"),
        "init.import_s": (import_s, "s"),
    }
