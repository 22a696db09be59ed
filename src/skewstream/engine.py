"""The run engine: one run of every pipeline on one stream, and the worker
processes that runs are spread over.

A run is a function of its config, its index and its detectors: run r of
``cfg`` (an `ExperimentConfig`) draws its stream, its tracker's class sizes
and its ensembles' Poisson counts from seeds derived from ``base_seed + r``,
and steps the fresh detectors it is handed, one per pipeline (None for a
pipeline without one). `run_all` runs every run, in this process or in a
worker, and hands each its own detectors, which carry their bound tables
with them. The config layer (`harness`) builds the detectors; this module
imports nothing from it.
"""
from __future__ import annotations

import atexit
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .cpus import usable_cpus
from .detectors import Verdict
from .imbalance import ClassSizeTracker
from .labels import NEG, POS
from .learners import OnlineEnsemble, RowSchedule
from .streams import StreamGenerator


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
    def alarms(self) -> list[int]:
        """The steps of the run's drift verdicts."""
        return [t for t, v in self.events if v == Verdict.DRIFT.value]


# Steps a run plans at a time (see `_run_once`). Against a schedule whose
# rows waited at each block's end, a resample-mix run took 0.962x at 128 and
# 0.957x at 256 (median paired ratios of 60 shuffled in-process repetitions
# on a 2-vCPU VM); 256 holds twice the positions.
BLOCK_STEPS = 128
# Rounds a run trains between two catch-ups of its detectors (see
# `_catch_up`). A catch-up costs a read of the scores and one call per
# detector that is behind, while a late one lets a reset pipeline's rows run
# ahead on weights the reset throws away. Measured while every row still
# waited for the busiest at each block's end, against every 8 rounds
# (process CPU time, median ratio of shuffled in-process repetitions on a
# 2-vCPU VM): on detect-sweep's two runs (30 repetitions) every 4 rounds
# took 1.087x and every 16 0.959x, for 11,354, 11,384 and 11,440 rounds; on
# a 6-pipeline `sine1-pxy` run of the acceptance fixture's shape (24
# repetitions, seeds 1000-1003) every 4 took 1.075x and every 16 0.972x.
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


def _catch_up(rows, detectors, labels, minorities, events, seen) -> None:
    """Step each of ``detectors``, given as (pipeline, detector), through the
    steps that all of its pipeline's rows have predicted since its last call,
    and no other, in one call (`DriftDetector.catch_up`).

    ``rows`` is the run's `RowSchedule`, and ``seen[e]`` counts the steps
    pipeline e's detector has stepped. Its scores are read for that pipeline
    alone, and its labels follow from them, POS where a score is 0.5 or more
    (as in the records `_run_once` makes); ``labels`` and ``minorities``
    hold every planned step's. Its alarms go to the pipeline's ``events``,
    and a drift alarm rewinds the pipeline's rows to its step.
    """
    ready = rows.predicted()
    for e, detector in detectors:
        start, stop = seen[e], ready[e]
        if start == stop:
            continue
        scores = rows.scores(start, stop, e).tolist()
        verdicts = detector.catch_up(
            labels[start:stop],
            [POS if score >= 0.5 else NEG for score in scores],
            scores,
            minorities[start:stop],
        )
        for i, verdict in verdicts:
            events[e].append((start + i + 1, verdict.value))
        if verdicts and verdicts[-1][1] is Verdict.DRIFT:
            stop = start + verdicts[-1][0] + 1
            rows.rewind(e, stop - 1)
        seen[e] = stop


def _run_once(cfg, r: int, detectors: list) -> list[RunRecord]:
    """Run ``r`` of every pipeline on one stream; one record each.

    ``detectors`` holds each pipeline's fresh detector, or None where it has
    none; the run steps them and no other. All pipelines of a run see the
    same stream (seed ``base_seed + r``), so the stream, the class sizes and
    the minority they designate are computed once per step and shared. Each
    pipeline's ensemble is one slice of a stacked `OnlineEnsemble` (its own
    Poisson generator and reset seeds), and its detector, if any, is its
    own; a drift alarm resets only that slice. The records are exactly those
    of running each pipeline alone, step by step.

    The run plans ``BLOCK_STEPS`` steps at a time and keeps two blocks
    planned past the steps it has retired. `_plan_block` takes a block's
    examples, class sizes and Poisson counts: the stream, the tracker and
    the Poisson generators read neither the predictions nor the weights, and
    a reset re-seeds the weights only, so every draw is the one a
    step-by-step run makes, in the same order on each generator. The run's
    one `RowSchedule` lays each block out after each bank row's last planned
    pass and trains the rows at their own paces, so no row waits for another
    at a block's end. Every ``CATCH_UP_ROUNDS`` rounds each detector steps
    through the steps that all of its pipeline's rows have predicted
    (`_catch_up`); a drift alarm at a step resets the pipeline's slice and
    rewinds only its rows to that step. The oldest block retires, its scores
    going to the records, once every row is past it and every detector has
    stepped through it; the next block is then planned.
    """
    seed = cfg.base_seed + r
    schedule = cfg.schedule
    pipes = cfg.pipelines
    watched = [(e, det) for e, det in enumerate(detectors) if det is not None]
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
    scores = np.empty((len(pipes), total))
    events: list[list[tuple[int, str]]] = [[] for _ in pipes]
    rows = RowSchedule(model, BLOCK_STEPS)
    labels: list[int] = []  # every planned step's label and minority
    minorities: list[int] = []
    seen = [0] * len(pipes)  # the steps each detector has stepped
    while rows.retired < total:
        while rows.planned < min(total, rows.retired + 2 * BLOCK_STEPS):
            n = min(BLOCK_STEPS, total - rows.planned)
            xs, block_labels, block_minorities, ks = _plan_block(
                stream, tracker, model, n, cfg.designation_threshold
            )
            rows.add(xs, block_labels, ks)
            labels += block_labels
            minorities += block_minorities
        # with no detector there is nothing to catch up, and the rows run
        # until the oldest block can retire
        rows.run(CATCH_UP_ROUNDS if watched else None)
        _catch_up(rows, watched, labels, minorities, events, seen)
        lo = rows.retired
        hi = min(lo + BLOCK_STEPS, total)
        if rows.can_retire and all(seen[e] >= hi for e, _ in watched):
            scores[:, lo:hi] = rows.retire().T
    # the records keep the steps past the warm-up
    truths = np.array(labels[cfg.warm_up :], dtype=np.int8)
    scores = scores[:, cfg.warm_up :]
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


# The pool is also shut down at exit, before the interpreter clears its
# modules: on Python 3.11 an executor collected after that prints an ignored
# AttributeError from its weakref callback, which reads a module global that
# is gone by then.
atexit.register(_drop_pool)


def _hand_out(pool, cfg, detectors: list) -> dict:
    """Futures of runs 1 .. runs - 1 in ``pool``'s workers, by run, each
    with its own detectors; if the pool breaks while they are handed out,
    the rest are left to this process (`_collect_runs` runs every run that
    has no future)."""
    from concurrent.futures.process import BrokenProcessPool

    pending = {}
    for r in range(1, cfg.runs):
        try:
            pending[r] = pool.submit(_run_once, cfg, r, detectors[r])
        except BrokenProcessPool:
            break
    return pending


def _exited_unstarted(workers: list, pending: dict) -> bool:
    """Whether one of a broken pool's ``workers``, all ended and reaped,
    exited by itself (a positive exit code; one killed by a signal has a
    negative one) while none of the runs in ``pending`` came back from a
    worker."""
    came_back = any(
        f.done() and not f.cancelled() and f.exception() is None
        for f in pending.values()
    )
    exits = [p.exitcode or 0 for p in workers]
    return not came_back and max(exits, default=0) > 0


def _lost(future) -> bool:
    """Whether a started worker run died with its worker (its pool broke);
    waits for the run to end."""
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(future.exception(), BrokenProcessPool)


def _collect_runs(cfg, detectors: list, pending: dict) -> list[list[RunRecord]]:
    """Every run's records, in run order.

    ``pending`` maps runs handed to worker processes to their futures. This
    process runs run 0, then takes from the back each run that no worker has
    started (or every run, when ``pending`` is empty), and reads the rest
    from the workers. A run lost with its worker (the pool broke) is run
    again here, on the detectors this process kept for it: a worker steps
    copies of a run's detectors, so they are still fresh, and the records
    are the same. Any other failed worker run is raised as soon as it is
    seen.
    """
    done = {0: _run_once(cfg, 0, detectors[0])}
    for r in range(cfg.runs - 1, 0, -1):
        for future in pending.values():
            ended = future.done() and not future.cancelled()
            if ended and future.exception() and not _lost(future):
                raise future.exception()
        future = pending.get(r)
        if future is None or future.cancel() or (future.done() and _lost(future)):
            done[r] = _run_once(cfg, r, detectors[r])
    for r, future in pending.items():
        if r not in done:
            lost = _lost(future)
            done[r] = _run_once(cfg, r, detectors[r]) if lost else future.result()
    return [done[r] for r in range(cfg.runs)]


def run_all(cfg, detectors: list) -> list[list[RunRecord]]:
    """Every run's records, in run order: run r steps ``detectors[r]``, its
    pipelines' fresh detectors (None for a pipeline without one).

    Runs are independent, so they are spread over at most one process per
    usable CPU: spawned workers take runs from the front while this process
    runs run 0 and then the runs still waiting, from the back. The records
    do not depend on which process ran a run: a worker steps a copy of the
    run's detectors, bound tables included, handed over with the run. The
    workers are shared by every experiment of this process and live as long
    as it does; they start on demand, up to one fewer than the usable CPUs.
    A run lost with a worker that died is run again here, with one line on
    stderr that says so, and the broken pool is shut down before this
    returns, its dead workers reaped. The workers start with the ``spawn``
    method, which imports the calling script's main module, so a script
    that runs two or more runs must guard its entry point with ``if __name__
    == "__main__":``; an unguarded one has each worker die as it starts.
    Once a worker has exited by itself before any run came back, this
    process runs the runs of its later experiments itself.
    """
    global _workers_cannot_start
    cpus = usable_cpus()
    if min(cfg.runs, cpus) < 2 or _workers_cannot_start:
        return _collect_runs(cfg, detectors, {})
    with _pool_lock:
        pool = _worker_pool(cpus)
        try:
            pending = _hand_out(pool, cfg, detectors)
            runs = _collect_runs(cfg, detectors, pending)
        except BaseException:
            # no queued run of a failed experiment is left for the next one
            _drop_pool()
            raise
        if pool._broken:
            # a worker died and its runs were rerun here: shutting the
            # pool down joins its manager, which ends and reaps every worker
            # before this returns. The exit codes are read after that: read
            # while the manager's thread reaps a worker, a code can be None
            workers = list(pool._processes.values())
            _drop_pool()
            _workers_cannot_start = _exited_unstarted(workers, pending)
            print("skewstream: a worker process died and its runs were run again "
                  "in this process; a script that runs two or more runs must "
                  'guard its entry point with `if __name__ == "__main__":`',
                  file=sys.stderr)
    return runs
