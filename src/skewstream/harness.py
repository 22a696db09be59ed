"""Configuration-driven experiment harness.

Composes stream x learner x detector pipelines, runs them over derived seeds
(run r uses base_seed + r, and all pipelines of a run step together on its
one stream), computes per-concept averages under the reset-at-drift
reporting convention, compares pipelines with the signed-rank test, and
emits CSV tables plus a fully resolved ``config.lock`` for exact replay.

Config files are INI-style::

    [experiment]
    preset = sine1-py          ; or give an inline [stream] section instead
    runs = 30
    base_seed = 0

    [pipeline OOB+auc]
    learner = OOB
    detector = auc-drop
    window = 500               ; extra keys override detector parameters

The keys are the dataclass fields: ``[experiment]`` sets the fields of
`ExperimentConfig`, and ``[stream]`` sets a `DriftSchedule`'s timing, the old
`ConceptSpec`'s fields and the new concept's under a ``new_`` prefix (an unset
``new_`` key keeps the old concept's value). Each value is cast by the type of
its field's default, so every default is overridable from the file, and
``load_config`` and ``dump_config_lock`` read and write the same key list:
the lock round-trips through ``load_config``.
"""
from __future__ import annotations

import configparser
import inspect
import math
import re
import sys
import threading
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cpus import usable_cpus
from .detectors import (
    AucDropDetector,
    DetectionLog,
    DetectorScore,
    DriftDetector,
    FourRatesDetector,
    RecallDropDetector,
    Verdict,
    adopt_bound_tables,
    score_detections,
)
from .imbalance import ClassSizeTracker
from .labels import NEG, POS
from .learners import SAMPLERS, OnlineEnsemble, RowSchedule
from .metrics import (
    TooFewPairsError,
    decayed_recall_gmean_series,
    wilcoxon_signed_rank,
)
from .presets import preset_schedule
from .streams import (
    SEA,
    SINE1,
    ConceptSpec,
    DriftSchedule,
    Skew,
    StreamGenerator,
)


class ConfigError(ValueError):
    """A config file failed validation; the message names section and key."""


DETECTORS = {
    "recall-drop": RecallDropDetector,
    "four-rates": FourRatesDetector,
    "auc-drop": AucDropDetector,
}
# common literature names accepted as input spellings
DETECTOR_ALIASES = {
    "ddm-oci": "recall-drop",
    "lfr": "four-rates",
    "pauc-ph": "auc-drop",
}
NO_DETECTOR = "none"

_SAFE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*\Z")


def _detector_defaults(detector: str) -> dict:
    """Constructor defaults of a detector, minus non-config arguments."""
    cls = DETECTORS[detector]
    out = {}
    for name, p in inspect.signature(cls.__init__).parameters.items():
        if name in ("self", "table"):
            continue
        out[name] = p.default
    return out


@dataclass(frozen=True)
class PipelineSpec:
    """One learner x detector combination to evaluate."""

    name: str
    learner: str
    detector: str = NO_DETECTOR
    detector_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _SAFE_NAME.match(self.name):
            raise ConfigError(
                f"pipeline name {self.name!r} may only use letters, digits, "
                "and . _ + - (it becomes a file name)"
            )
        where = f"[pipeline {self.name}]"
        if not self.learner:
            raise ConfigError(f"{where} needs learner = OB | OOB | UOB")
        learner = self.learner.upper()
        if learner not in SAMPLERS:
            raise ConfigError(
                f"{where} learner must be one of {sorted(SAMPLERS)}, "
                f"got {self.learner!r}"
            )
        detector = DETECTOR_ALIASES.get(self.detector.lower(), self.detector.lower())
        if detector != NO_DETECTOR and detector not in DETECTORS:
            raise ConfigError(
                f"{where} detector must be one of "
                f"{[NO_DETECTOR, *sorted(DETECTORS)]}, got {self.detector!r}"
            )
        object.__setattr__(self, "learner", learner)
        object.__setattr__(self, "detector", detector)
        allowed = {} if detector == NO_DETECTOR else _detector_defaults(detector)
        for key in self.detector_params:
            if key not in allowed:
                raise ConfigError(
                    f"{where} unknown key {key!r} for detector {detector} "
                    f"(expected one of {sorted(allowed)})"
                )

    def resolved_params(self) -> dict:
        """Full detector parameter dict: defaults overlaid with overrides."""
        if self.detector == NO_DETECTOR:
            return {}
        out = _detector_defaults(self.detector)
        out.update(self.detector_params)
        return out


def build_detector(pipe: PipelineSpec) -> DriftDetector | None:
    """The pipeline's detector; a rejected parameter names the pipeline."""
    if pipe.detector == NO_DETECTOR:
        return None
    try:
        return DETECTORS[pipe.detector](**pipe.detector_params)
    except ValueError as e:
        raise ConfigError(f"[pipeline {pipe.name}] {e}") from None


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs.

    ``preset`` records where ``schedule`` came from when it was named; the
    lock file always stores the resolved inline stream instead.
    """

    schedule: DriftSchedule
    pipelines: list[PipelineSpec] = field(default_factory=list)
    preset: str | None = None
    runs: int = 100
    base_seed: int = 0
    metric_decay: float = 0.995
    warm_up: int = 0
    members: int = 15
    lr: float = 0.1
    tracker_theta: float = 0.9
    designation_threshold: float = 1.5

    def __post_init__(self):
        checks = (
            ("runs", self.runs >= 1, "must be >= 1"),
            ("base_seed", self.base_seed >= 0, "must be >= 0"),
            ("metric_decay", 0.0 < self.metric_decay <= 1.0, "must be in (0, 1]"),
            (
                "warm_up",
                0 <= self.warm_up < self.schedule.drift_start - 1,
                "must be >= 0 and leave a pre-drift step to average before "
                f"[stream] drift_start = {self.schedule.drift_start}",
            ),
            ("members", self.members >= 1, "must be >= 1"),
            ("lr", math.isfinite(self.lr) and self.lr > 0.0, "must be finite and > 0"),
            ("tracker_theta", 0.0 <= self.tracker_theta < 1.0, "must be in [0, 1)"),
            (
                "designation_threshold",
                math.isfinite(self.designation_threshold)
                and self.designation_threshold >= 1.0,
                "must be finite and >= 1",
            ),
        )
        for key, ok, rule in checks:
            if not ok:
                raise ConfigError(
                    f"[experiment] {key} {rule}, got {getattr(self, key)!r}"
                )
        s = self.schedule
        if s.drift_end > s.total_steps:
            raise ConfigError(
                "[stream] drift_start + drift_duration must be <= total_steps "
                "to leave a post-drift step to average, got "
                f"{s.drift_start} + {s.drift_duration} > {s.total_steps}"
            )
        names = [p.name for p in self.pipelines]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ConfigError(f"duplicate pipeline names: {sorted(dupes)}")


@dataclass
class RunRecord:
    """Per-step record of one pipeline run (steps warm_up+1 .. total_steps).

    ``events`` lists the non-Normal detector verdicts as (step, verdict value)
    over the whole run, warm-up included.
    """

    run: int
    seed: int
    warm_up: int
    truths: np.ndarray
    preds: np.ndarray
    scores: np.ndarray
    events: list[tuple[int, str]] = field(default_factory=list)

    @property
    def detection_log(self) -> DetectionLog:
        alarms = [t for t, v in self.events if v == Verdict.DRIFT.value]
        return DetectionLog(run=self.run, seed=self.seed, alarms=alarms)


@dataclass(frozen=True)
class ConceptAverages:
    """Mean decayed per-class recall and G-mean over the two stable windows."""

    pre_recall_pos: float
    pre_recall_neg: float
    pre_gmean: float
    post_recall_pos: float
    post_recall_neg: float
    post_gmean: float


METRICS = tuple(f.name for f in fields(ConceptAverages))


# Steps a run plans at a time (see `_run_once`).
BLOCK_STEPS = 128
# Rounds a block trains between two catch-ups of its detectors (see
# `_train_block`). A catch-up costs a read of the scores and one call per
# detector that is behind, while a late one lets a reset pipeline's rows run
# ahead on weights the reset throws away. Against every 8 rounds (process
# CPU time, median ratio of shuffled in-process repetitions on a 2-vCPU VM):
# on detect-sweep's two runs (30 repetitions) every 4 rounds took 1.087x and
# every 16 0.959x, for 11,354, 11,384 and 11,440 rounds; on a 6-pipeline
# `sine1-pxy` run of the acceptance fixture's shape (24 repetitions, seeds
# 1000-1003) every 4 took 1.075x and every 16 0.972x.
CATCH_UP_ROUNDS = 16


def _plan_block(stream, tracker, model, n: int, threshold: float):
    """The next ``n`` steps' inputs, labels, minorities and Poisson counts.

    Takes each example from ``stream``, then steps ``tracker`` through the
    block's labels in one call (`ClassSizeTracker.track`) and reads every
    step's minority and rates from the sizes after its label as array code
    (`OnlineEnsemble.sampling_rates`), as a step does; then every ensemble
    draws the block's counts with one call (`OnlineEnsemble.draw_counts`).
    Returns ``(xs, labels, minorities, ks)``: row i of ``xs`` is step i's
    input and row i of ``ks`` its counts; a minority is 0 where none is
    designated.
    """
    examples = [stream.next_example() for _ in range(n)]
    labels = [label for _, label in examples]
    minorities, rates = model.sampling_rates(
        labels, *tracker.track(labels), threshold
    )
    xs = np.array([x for x, _ in examples])
    return xs, labels, minorities.tolist(), model.draw_counts(rates)


def _train_block(block, detectors, labels, minorities, events, done: int):
    """Train a planned block and step the detectors through it; returns its
    scores as (steps, pipelines).

    Every ``CATCH_UP_ROUNDS`` rounds of ``block`` (a `RowSchedule`), each of
    ``detectors``, given as (pipeline, detector), catches up in one call
    (`DriftDetector.catch_up`) on the steps that all of its pipeline's rows
    have predicted, appending its alarms to the pipeline's ``events``
    (``done`` is the steps before the block); a drift alarm rewinds the
    pipeline's rows to its step. With no detector there is nothing to catch
    up, and the block runs to its end at once.
    """
    if not detectors:
        block.run()
        return block.scores()
    n = block.n_steps
    seen = [0] * len(events)  # the steps each detector has stepped
    while True:
        block.run(CATCH_UP_ROUNDS)
        ready = block.predicted()
        behind = [(e, det) for e, det in detectors if seen[e] < ready[e]]
        if behind:
            # one read of the scores serves every detector that is behind
            lo = min(seen[e] for e, _ in behind)
            caught = block.scores(lo, max(ready[e] for e, _ in behind))
            preds = np.where(caught >= 0.5, POS, NEG)
        for e, detector in behind:
            start, stop = seen[e], ready[e]
            stretch = slice(start - lo, stop - lo)
            verdicts = detector.catch_up(
                labels[start:stop],
                preds[stretch, e].tolist(),
                caught[stretch, e].tolist(),
                minorities[start:stop],
            )
            for i, verdict in verdicts:
                events[e].append((done + start + i + 1, verdict.value))
            if verdicts and verdicts[-1][1] is Verdict.DRIFT:
                stop = start + verdicts[-1][0] + 1
                block.rewind(e, stop - 1)
            seen[e] = stop
        if block.finished and all(seen[e] == n for e, _ in detectors):
            return block.scores()


def _run_once(cfg: ExperimentConfig, r: int) -> list[RunRecord]:
    """Run ``r`` of every pipeline on one stream; one record each.

    All pipelines of a run see the same stream (seed ``base_seed + r``), so
    the stream, the class-size tracker and its status are computed once per
    step and shared. Each pipeline's ensemble is one slice of a stacked
    `OnlineEnsemble` (its own Poisson generator and reset seeds), and its
    detector, if any, is its own; a drift alarm resets only that slice. The
    records are exactly those of running each pipeline alone, step by step.

    The run goes ``BLOCK_STEPS`` steps at a time. `_plan_block` first takes
    the block's examples, class sizes and Poisson counts: the stream, the
    tracker and the Poisson generators read neither the predictions nor the
    weights, and a reset re-seeds the weights only, so every draw is the one
    a step-by-step run makes, in the same order on each generator. Then a
    `RowSchedule` trains the block, each bank row at its own pace, and every
    ``CATCH_UP_ROUNDS`` rounds each detector steps through the steps that
    all of its pipeline's rows have predicted. A drift alarm at a step resets
    the pipeline's slice and rewinds only its rows to that step.
    """
    seed = cfg.base_seed + r
    schedule = cfg.schedule
    pipes = cfg.pipelines
    # first, so that a rejected detector parameter stops the run before it starts
    detectors = [
        (e, det)
        for e, det in enumerate(build_detector(pipe) for pipe in pipes)
        if det is not None
    ]
    stream = StreamGenerator(schedule, seed)
    tracker = ClassSizeTracker(cfg.tracker_theta)
    model = OnlineEnsemble(
        schedule.old.n_features,
        samplers=[pipe.learner for pipe in pipes],
        n_members=cfg.members,
        seed=seed,
        lr=cfg.lr,
    )
    total = schedule.total_steps
    truths = np.empty(total, dtype=np.int8)
    scores = np.empty((len(pipes), total))
    events: list[list[tuple[int, str]]] = [[] for _ in pipes]
    for done in range(0, total, BLOCK_STEPS):
        n = min(BLOCK_STEPS, total - done)
        xs, labels, minorities, ks = _plan_block(
            stream, tracker, model, n, cfg.designation_threshold
        )
        truths[done : done + n] = labels
        scores[:, done : done + n] = _train_block(
            RowSchedule(model, xs, labels, ks), detectors, labels, minorities,
            events, done,
        ).T
    # the records keep the steps past the warm-up
    truths, scores = truths[cfg.warm_up :], scores[:, cfg.warm_up :]
    preds = np.where(scores >= 0.5, POS, NEG).astype(np.int8)
    return [
        RunRecord(
            run=r,
            seed=seed,
            warm_up=cfg.warm_up,
            truths=truths.copy(),
            preds=preds[e],
            scores=scores[e],
            events=events[e],
        )
        for e in range(len(pipes))
    ]


# The spawned workers that every experiment of this process shares, as
# (usable CPUs when made, executor); made when an experiment first needs one.
# The lock keeps experiments run from several threads from remaking or
# shutting down the pool under one another.
_pool = None
_pool_lock = threading.Lock()
# Set once a worker has exited by itself before any run came back from one, as
# every worker of a script without an `if __name__ == "__main__":` guard does
# (it dies of rerunning the script as it starts): later experiments of this
# process then run serially instead of paying a worker for nothing each time.
_workers_cannot_start = False


def _worker_pool(cpus: int):
    """The shared pool of ``cpus - 1`` workers, which start on demand; it is
    remade when the usable CPUs have changed or it has broken (its manager
    saw a worker die, and it would refuse every run)."""
    global _pool
    if _pool is not None and (_pool[0] != cpus or _pool[1]._broken):
        _drop_pool()
    if _pool is None:
        # imported only here: a one-run experiment pays no memory for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: this process may already hold BLAS threads
        context = multiprocessing.get_context("spawn")
        _pool = (cpus, ProcessPoolExecutor(cpus - 1, mp_context=context))
    return _pool[1]


def _drop_pool() -> None:
    """Shut the shared pool down, cancelling its queued runs, and forget it."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(cancel_futures=True)


def _hand_out(pool, tables: list, cfg: ExperimentConfig) -> dict:
    """Futures of runs 1 .. runs - 1 in ``pool``'s workers, by run; if the
    pool breaks while they are handed out, the rest are left to this process
    (`_collect_runs` runs every run that has no future)."""
    from concurrent.futures.process import BrokenProcessPool

    pending = {}
    for r in range(1, cfg.runs):
        try:
            pending[r] = pool.submit(_run_in_worker, tables, cfg, r)
        except BrokenProcessPool:
            break
    return pending


def _run_in_worker(tables: list, cfg: ExperimentConfig, r: int) -> list[RunRecord]:
    """`_run_once` in a worker, on the bound tables the caller has built."""
    adopt_bound_tables(tables)
    return _run_once(cfg, r)


def _exited_unstarted(pool, pending: dict) -> bool:
    """Whether a worker of the broken ``pool`` exited by itself (a positive
    exit code; one killed by a signal has a negative one) while none of the
    runs in ``pending`` came back from a worker."""
    came_back = any(
        f.done() and not f.cancelled() and f.exception() is None
        for f in pending.values()
    )
    exits = [p.exitcode or 0 for p in pool._processes.values()]
    return not came_back and max(exits, default=0) > 0


def _lost(future) -> bool:
    """Whether a started worker run died with its worker (its pool broke);
    waits for the run to end."""
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(future.exception(), BrokenProcessPool)


def _collect_runs(cfg: ExperimentConfig, pending: dict) -> list[list[RunRecord]]:
    """Every run's records, in run order.

    ``pending`` maps runs handed to worker processes to their futures. This
    process runs run 0, then takes from the back each run that no worker has
    started (or every run, when ``pending`` is empty), and reads the rest
    from the workers. A run lost with its worker (the pool broke) is run
    again here: a run is a function of ``(cfg, r)`` only, so its records are
    the same. Any other failed worker run is raised as soon as it is seen.
    """
    done = {0: _run_once(cfg, 0)}
    for r in range(cfg.runs - 1, 0, -1):
        for future in pending.values():
            ended = future.done() and not future.cancelled()
            if ended and future.exception() and not _lost(future):
                raise future.exception()
        future = pending.get(r)
        if future is None or future.cancel() or (future.done() and _lost(future)):
            done[r] = _run_once(cfg, r)
    for r, future in pending.items():
        if r not in done:
            done[r] = _run_once(cfg, r) if _lost(future) else future.result()
    return [done[r] for r in range(cfg.runs)]


def run_experiment(cfg: ExperimentConfig) -> dict[str, list[RunRecord]]:
    """All pipelines x all runs; deterministic given the config.

    Run r steps every pipeline on one stream seeded ``base_seed + r``, each
    bank row of their shared ensemble training at its own pace through a
    planned block of steps (see `_run_once`); each pipeline's records are
    exactly those it would get run alone, step by step. With no pipelines
    nothing is run, not even a stream.

    Runs are independent, so they are spread over at most one process per
    usable CPU: spawned workers take runs from the front while this process
    runs run 0 and then the runs still waiting, from the back. The records
    do not depend on which process ran a run. The workers are shared by
    every experiment of this process and live as long as it does; they
    start on demand, up to one fewer than the usable CPUs. A run lost with a
    worker that died is run again here, with one line on stderr that says
    so, and the broken pool is shut down before this returns, its dead
    workers reaped. The workers start with the ``spawn`` method, which
    imports the calling script's main module, so a script that runs two or
    more runs must guard its entry point with ``if __name__ ==
    "__main__":``; an unguarded one has each worker die as it starts. Once a
    worker has exited by itself before any run came back, this process runs
    the runs of its later experiments itself.
    """
    global _workers_cannot_start
    if not cfg.pipelines:
        return {}
    # here, before any run is handed out: a rejected detector parameter
    # raises in this process, and each bound table is built (or loaded) once
    detectors = [build_detector(pipe) for pipe in cfg.pipelines]
    cpus = usable_cpus()
    if min(cfg.runs, cpus) < 2 or _workers_cannot_start:
        runs = _collect_runs(cfg, {})
    else:
        tables = [d.table for d in detectors if isinstance(d, FourRatesDetector)]
        with _pool_lock:
            pool = _worker_pool(cpus)
            try:
                pending = _hand_out(pool, tables, cfg)
                runs = _collect_runs(cfg, pending)
            except BaseException:
                # no queued run of a failed experiment is left for the next one
                _drop_pool()
                raise
            if pool._broken:
                # a worker died and its runs were rerun here: shutting the
                # pool down joins its manager, which reaps the dead worker
                # before this returns
                _workers_cannot_start = _exited_unstarted(pool, pending)
                print("skewstream: a worker process died and its runs were run again "
                      "in this process; a script that runs two or more runs must "
                      'guard its entry point with `if __name__ == "__main__":`',
                      file=sys.stderr)
                _drop_pool()
    return {
        pipe.name: [records[e] for records in runs]
        for e, pipe in enumerate(cfg.pipelines)
    }


def _segmented_series(rec: RunRecord, schedule: DriftSchedule, decay: float):
    """Decayed (recall_pos, recall_neg, g_mean) series over the record, with
    the decayed confusion re-zeroed at drift start and at drift end."""
    n = len(rec.truths)
    if n != schedule.total_steps - rec.warm_up:
        raise ValueError(
            f"record length {n} does not match schedule "
            f"({schedule.total_steps} steps, warm-up {rec.warm_up})"
        )
    cuts = {0, n}
    for t in (schedule.drift_start, schedule.drift_end):
        i = t - rec.warm_up - 1
        if 0 < i < n:
            cuts.add(i)
    edges = sorted(cuts)
    parts = [
        decayed_recall_gmean_series(rec.truths[a:b], rec.preds[a:b], decay)
        for a, b in zip(edges, edges[1:])
    ]
    rp, rn, gm = (np.concatenate(series) for series in zip(*parts))
    return rp, rn, gm


def _window_means(series, rec: RunRecord, schedule: DriftSchedule) -> ConceptAverages:
    """Window means of the record's decayed (recall_pos, recall_neg, g_mean)
    series before and after the transition.

    Pre window: steps warm_up+1 .. drift_start-1. Post window: drift_end ..
    total_steps. The transition interval between them is never averaged.
    """
    warm_up = rec.warm_up
    if schedule.drift_start - 1 < warm_up + 1:
        raise ValueError("empty pre-drift averaging window")
    if schedule.total_steps < schedule.drift_end:
        raise ValueError("empty post-drift averaging window")
    rp, rn, gm = series
    pre = slice(0, schedule.drift_start - 1 - warm_up)
    post = slice(schedule.drift_end - warm_up - 1, None)
    return ConceptAverages(
        pre_recall_pos=float(rp[pre].mean()),
        pre_recall_neg=float(rn[pre].mean()),
        pre_gmean=float(gm[pre].mean()),
        post_recall_pos=float(rp[post].mean()),
        post_recall_neg=float(rn[post].mean()),
        post_gmean=float(gm[post].mean()),
    )


@dataclass(frozen=True)
class MetricSummary:
    """One summary-table row: a pipeline's mean +- std on one metric, and
    whether it sits in the statistically-best group for that metric."""

    pipeline: str
    metric: str
    mean: float
    std: float
    best: bool


@dataclass
class Report:
    config: ExperimentConfig
    n_runs: int
    per_run: dict[str, list[ConceptAverages]]
    summary: list[MetricSummary]
    detector_scores: dict[str, DetectorScore]
    curves: dict[str, np.ndarray]
    records: dict[str, list[RunRecord]]


def _best_group(names, values: dict[str, np.ndarray]) -> set[str]:
    """Best mean plus every pipeline not significantly different from it."""
    best = max(names, key=lambda n: values[n].mean())
    group = {best}
    for other in names:
        if other == best:
            continue
        try:
            res = wilcoxon_signed_rank(values[best], values[other])
            different = res.significant
        except TooFewPairsError:
            # fewer than six nonzero differences cannot reach p <= 0.05
            different = False
        if not different:
            group.add(other)
    return group


def summarize_runs(
    per_run: dict[str, list[ConceptAverages]], n_runs: int
) -> list[MetricSummary]:
    """Mean +- std per pipeline per metric, with best-group marking.

    With a single pipeline no test is performed; it is trivially best.
    """
    names = list(per_run)
    rows = []
    for metric in METRICS:
        values = {
            n: np.array([getattr(a, metric) for a in per_run[n]]) for n in names
        }
        group = _best_group(names, values) if len(names) > 1 else set(names)
        for name in names:
            v = values[name]
            rows.append(
                MetricSummary(
                    pipeline=name,
                    metric=metric,
                    mean=float(v.mean()),
                    std=float(v.std(ddof=1)) if n_runs > 1 else 0.0,
                    best=name in group,
                )
            )
    # pipeline-major ordering reads better in the CSV
    rows.sort(key=lambda r: (names.index(r.pipeline), METRICS.index(r.metric)))
    return rows


def aggregate_and_test(
    records: dict[str, list[RunRecord]], cfg: ExperimentConfig
) -> Report:
    """Fold per-run records into the report tables and curves."""
    counts = {name: len(recs) for name, recs in records.items()}
    if len(set(counts.values())) > 1:
        raise ValueError(f"run counts differ across pipelines: {counts}")
    n_runs = next(iter(counts.values())) if counts else 0
    # each record's series feeds both its concept averages and the curve
    per_run, curves = {}, {}
    for name, recs in records.items():
        series = [_segmented_series(r, cfg.schedule, cfg.metric_decay) for r in recs]
        per_run[name] = [
            _window_means(s, r, cfg.schedule) for s, r in zip(series, recs)
        ]
        curves[name] = np.mean([s[2] for s in series], axis=0)
    summary = summarize_runs(per_run, n_runs) if per_run else []
    detector_scores = {}
    for pipe in cfg.pipelines:
        if pipe.detector == NO_DETECTOR or pipe.name not in records:
            continue
        logs = [r.detection_log for r in records[pipe.name]]
        detector_scores[pipe.name] = score_detections(
            logs, cfg.schedule.drift_start, n_runs
        )
    return Report(
        config=cfg,
        n_runs=n_runs,
        per_run=per_run,
        summary=summary,
        detector_scores=detector_scores,
        curves=curves,
        records=records,
    )


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

# Every [experiment] and [stream] key is a dataclass field, cast by the type
# of its default. [stream] keys are (key, owner, field): the schedule's timing
# fields (owner None), then the old concept's fields unprefixed and the new
# concept's under "new_"; the generator, shared by both, is parsed apart.
_EXPERIMENT_FIELDS = tuple(
    f for f in fields(ExperimentConfig) if f.name not in ("schedule", "pipelines")
)
_STREAM_FIELDS = (
    *((f.name, None, f) for f in fields(DriftSchedule) if f.name not in ("old", "new")),
    *(
        (prefix + f.name, owner, f)
        for prefix, owner in (("", "old"), ("new_", "new"))
        for f in fields(ConceptSpec)
        if f.name != "generator"
    ),
)

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _cast(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.strip().lower()]
        return kind(raw)
    except (ValueError, KeyError):
        raise ConfigError(
            f"[{section}] {key}: {raw!r} is not a valid {kind.__name__}"
        ) from None


def _parse_skew(section: str, key: str, raw: str) -> Skew | None:
    raw = raw.strip()
    if raw.lower() == "none":
        return None
    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"[{section}] {key} must be label:feature:split:prob or none, "
            f"got {raw!r}"
        )
    try:
        return Skew(
            label=int(parts[0]),
            feature=int(parts[1]),
            split=float(parts[2]),
            prob=float(parts[3]),
        )
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


def _format_skew(skew: Skew | None) -> str:
    if skew is None:
        return "none"
    return f"{skew.label}:{skew.feature}:{skew.split!r}:{skew.prob!r}"


def _parse_value(section: configparser.SectionProxy, key: str, f):
    """``section[key]``, cast by the type of field ``f``'s default."""
    if f.name == "skew":
        return _parse_skew(section.name, key, section[key])
    kind = str if f.default is None else type(f.default)  # None: the preset
    return _cast(section.name, key, section[key], kind)


def _check_keys(section: configparser.SectionProxy, keys) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(f"[{section.name}] unknown key {key!r}")


def _parse_stream_section(section: configparser.SectionProxy) -> DriftSchedule:
    _check_keys(section, {"generator", *(key for key, _, _ in _STREAM_FIELDS)})
    if "generator" not in section:
        raise ConfigError("[stream] needs generator = sine1 | sea")
    generator = section["generator"].strip().upper()
    if generator not in (SINE1, SEA):
        raise ConfigError(
            f"[stream] generator must be {SINE1} or {SEA} (case-insensitive), "
            f"got {section['generator']!r}"
        )
    values = {None: {}, "old": {}, "new": {}}
    for key, owner, f in _STREAM_FIELDS:
        if key in section:
            values[owner][f.name] = _parse_value(section, key, f)
    try:
        old = ConceptSpec(generator, **values["old"])
    except ValueError as e:
        raise ConfigError(f"[stream] {e}") from None
    try:
        new = replace(old, **values["new"])  # unset new_ keys keep the old value
    except ValueError as e:  # the message starts with the field's name
        raise ConfigError(f"[stream] new_{e}") from None
    try:
        return DriftSchedule(old, new, **values[None])
    except ValueError as e:
        raise ConfigError(f"[stream] {e}") from None


def _parse_pipeline_section(
    name: str, section: configparser.SectionProxy
) -> PipelineSpec:
    """Cast the section's detector parameters; `PipelineSpec` validates."""
    raw = dict(section)
    spec = PipelineSpec(
        name, raw.pop("learner", ""), raw.pop("detector", NO_DETECTOR), raw
    )
    if not raw:
        return spec
    defaults = _detector_defaults(spec.detector)
    params = {
        key: _cast(section.name, key, value, type(defaults[key]))
        for key, value in raw.items()
    }
    return replace(spec, detector_params=params)


def _file_error(path: Path, e: configparser.Error) -> ConfigError:
    """A malformed INI file's error, as ``<path>:<line>: <what>``."""
    if isinstance(e, configparser.DuplicateOptionError):
        return ConfigError(f"{path}:{e.lineno}: [{e.section}] {e.option} is set twice")
    if isinstance(e, configparser.DuplicateSectionError):
        return ConfigError(f"{path}:{e.lineno}: section [{e.section}] appears twice")
    if isinstance(e, configparser.MissingSectionHeaderError):
        return ConfigError(
            f"{path}:{e.lineno}: {e.line.strip()!r} comes before any [section]"
        )
    if isinstance(e, configparser.ParsingError):
        lineno, line = e.errors[0]
        return ConfigError(f"{path}:{lineno}: cannot parse {line}")
    if isinstance(e, configparser.InterpolationError):
        return ConfigError(f"{path}: [{e.section}] {e.option}: {e.message}")
    return ConfigError(f"{path}: {e.message}")


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config (or lock) file."""
    path = Path(path)
    try:
        return _load_config(path)
    except configparser.Error as e:
        raise _file_error(path, e) from None


def _load_config(path: Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    exp_values = {}
    if parser.has_section("experiment"):
        section = parser["experiment"]
        _check_keys(section, {f.name for f in _EXPERIMENT_FIELDS})
        exp_values = {
            f.name: _parse_value(section, f.name, f)
            for f in _EXPERIMENT_FIELDS
            if f.name in section
        }
    pipelines = []
    for sec in parser.sections():
        if sec in ("experiment", "stream"):
            continue
        m = re.fullmatch(r"pipeline\s+(\S+)", sec)
        if not m:
            raise ConfigError(
                f"unknown section [{sec}] (expected [experiment], [stream], "
                "or [pipeline <name>])"
            )
        pipelines.append(_parse_pipeline_section(m.group(1), parser[sec]))

    preset = exp_values.pop("preset", None)
    has_stream = parser.has_section("stream")
    if preset and has_stream:
        raise ConfigError("give either preset= or a [stream] section, not both")
    if not preset and not has_stream:
        raise ConfigError("config needs preset= or a [stream] section")
    if preset:
        try:
            schedule = preset_schedule(preset)
        except KeyError as e:
            raise ConfigError(e.args[0]) from None
    else:
        schedule = _parse_stream_section(parser["stream"])
    return ExperimentConfig(
        schedule=schedule, pipelines=pipelines, preset=preset, **exp_values
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, Skew):  # a concept's skew
        return _format_skew(value)
    return str(value)


def dump_config_lock(cfg: ExperimentConfig) -> str:
    """Fully resolved config as text; replaying it reproduces every output.

    Presets are inlined so the lock stands alone; all detector parameters are
    written out, defaults included.
    """
    s = cfg.schedule
    lines = ["[experiment]"]
    lines += [
        f"{f.name} = {_fmt(getattr(cfg, f.name))}"
        for f in _EXPERIMENT_FIELDS
        if f.name != "preset"
    ]
    lines += ["", "[stream]", f"generator = {s.old.generator}"]
    lines += [
        f"{key} = {_fmt(getattr(s if owner is None else getattr(s, owner), f.name))}"
        for key, owner, f in _STREAM_FIELDS
    ]
    for pipe in cfg.pipelines:
        lines += ["", f"[pipeline {pipe.name}]", f"learner = {pipe.learner}",
                  f"detector = {pipe.detector}"]
        for key, value in pipe.resolved_params().items():
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def format_summary_csv(summary: list[MetricSummary]) -> str:
    lines = ["pipeline,metric,mean,std,best"]
    for row in summary:
        lines.append(
            f"{row.pipeline},{row.metric},{row.mean!r},{row.std!r},"
            f"{_fmt(row.best)}"
        )
    return "\n".join(lines) + "\n"


def format_detectors_csv(scores: dict[str, DetectorScore]) -> str:
    lines = ["pipeline,tdr,fa,dod"]
    for name, s in scores.items():
        dod = "-" if s.dod is None else repr(s.dod)
        lines.append(f"{name},{s.tdr!r},{s.fa!r},{dod}")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write summary.csv, detectors.csv, per-run and alarm tables, metric
    curves, and config.lock under ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    written = []

    def emit(rel: str, text: str):
        path = out / rel
        _write_text(path, text)
        written.append(path)

    emit("config.lock", dump_config_lock(report.config))
    emit("summary.csv", format_summary_csv(report.summary))
    emit("detectors.csv", format_detectors_csv(report.detector_scores))
    warm_up = report.config.warm_up
    for name, curve in report.curves.items():
        lines = ["t,gmean"]
        lines += [
            f"{warm_up + 1 + i},{v!r}" for i, v in enumerate(curve.tolist())
        ]
        emit(f"curves/{name}.csv", "\n".join(lines) + "\n")
    for name, recs in report.records.items():
        lines = ["run,seed," + ",".join(METRICS)]
        for rec, avg in zip(recs, report.per_run[name]):
            vals = ",".join(repr(getattr(avg, m)) for m in METRICS)
            lines.append(f"{rec.run},{rec.seed},{vals}")
        emit(f"runs/{name}.csv", "\n".join(lines) + "\n")
        lines = ["run,seed,t,verdict"]
        for rec in recs:
            lines += [f"{rec.run},{rec.seed},{t},{v}" for t, v in rec.events]
        emit(f"alarms/{name}.csv", "\n".join(lines) + "\n")
    return written


def _read_table(path, header: str) -> tuple[Path, list[tuple[int, str]]]:
    """The numbered data rows of a CSV table whose first line is ``header``."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected header {header!r}")
    if lines[0] != header:
        raise ValueError(f"{path}:1: unexpected header {lines[0]!r}")
    return path, list(enumerate(lines[1:], start=2))


def read_per_run_table(path, seeds=None) -> list[ConceptAverages]:
    """Parse a runs/<pipeline>.csv back into per-run window averages.

    With ``seeds`` (run r's seed at index r), the table must hold exactly
    runs 0 .. len(seeds) - 1, in order, each with its seed.
    """
    path, rows = _read_table(path, "run,seed," + ",".join(METRICS))
    if seeds is not None and len(rows) != len(seeds):
        raise ValueError(
            f"{path}: {len(rows)} rows for {len(seeds)} configured runs"
        )
    out = []
    for i, (lineno, row) in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 2 + len(METRICS):
            raise ValueError(f"{path}:{lineno}: malformed row {row!r}")
        try:
            run, seed = int(parts[0]), int(parts[1])
            out.append(ConceptAverages(*(float(v) for v in parts[2:])))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: non-numeric value in row {row!r}"
            ) from None
        if seeds is not None and (run, seed) != (i, seeds[i]):
            raise ValueError(
                f"{path}:{lineno}: expected run {i} with seed {seeds[i]}, "
                f"got run {run} with seed {seed}"
            )
    return out


_ALARM_VERDICTS = (Verdict.WARNING.value, Verdict.DRIFT.value)


def read_alarm_table(path, seeds=None, runs=None) -> list[DetectionLog]:
    """Parse an alarms/<pipeline>.csv back into per-run drift-alarm logs.

    Runs without any recorded event simply have no log entry; scoring
    normalizes by the configured run count, not by the number of logs. With
    ``seeds`` (run r's seed at index r), every row must name one of those
    runs, with its seed; with ``runs`` alone, one of runs 0 .. runs - 1.
    """
    what = "runs"
    if seeds is not None:
        runs, what = len(seeds), "configured runs"
    path, rows = _read_table(path, "run,seed,t,verdict")
    logs: dict[int, DetectionLog] = {}
    for lineno, row in rows:
        try:
            run_s, seed_s, t_s, verdict = row.split(",")
            run, seed, t = int(run_s), int(seed_s), int(t_s)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
        if runs is not None and not 0 <= run < runs:
            raise ValueError(
                f"{path}:{lineno}: run {run} is not one of the "
                f"{runs} {what} 0 .. {runs - 1}"
            )
        if seeds is not None and seed != seeds[run]:
            raise ValueError(
                f"{path}:{lineno}: run {run} has seed {seeds[run]}, got {seed}"
            )
        if verdict not in _ALARM_VERDICTS:
            raise ValueError(
                f"{path}:{lineno}: unknown verdict {verdict!r}, expected one "
                f"of {', '.join(_ALARM_VERDICTS)}"
            )
        log = logs.setdefault(run, DetectionLog(run=run, seed=seed, alarms=[]))
        if verdict == Verdict.DRIFT.value:
            log.alarms.append(t)
    return [logs[run] for run in sorted(logs)]


def rebuild_tables(out_dir) -> tuple[str, str]:
    """Recompute summary.csv and detectors.csv text from an output directory.

    Reads config.lock plus the runs/ and alarms/ tables, whose run and seed
    columns must be the lock's runs and seeds; the result is byte-identical
    to what ``emit_report`` wrote for the same directory.
    """
    out = Path(out_dir)
    cfg = load_config(out / "config.lock")
    seeds = [cfg.base_seed + r for r in range(cfg.runs)]
    per_run = {}
    scores = {}
    for pipe in cfg.pipelines:
        per_run[pipe.name] = read_per_run_table(
            out / "runs" / f"{pipe.name}.csv", seeds
        )
        if pipe.detector != NO_DETECTOR:
            logs = read_alarm_table(out / "alarms" / f"{pipe.name}.csv", seeds)
            scores[pipe.name] = score_detections(
                logs, cfg.schedule.drift_start, cfg.runs
            )
    summary = summarize_runs(per_run, cfg.runs) if per_run else []
    return format_summary_csv(summary), format_detectors_csv(scores)
