"""Tests for the experiment harness, config files, and CLI plumbing.

Heavier runs use 3 ensemble members and 2 runs to stay fast; the full-size
reproductions live in test_acceptance.py.
"""
import ast
import configparser
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import skewstream
from frozen_kernel import _ref_forward, _ref_init, _ref_train_rounds
from one_step import run_once, step
from skewstream import cli, cpus, engine, harness
from skewstream.cli import main
from skewstream.detectors import AucDropDetector, DriftDetector, Verdict
from skewstream.harness import (
    METRICS,
    ConceptAverages,
    ConfigError,
    ExperimentConfig,
    PipelineSpec,
    RunRecord,
    aggregate_and_test,
    build_detector,
    dump_config_lock,
    emit_report,
    load_config,
    read_alarm_table,
    read_per_run_table,
    run_experiment,
    summarize_runs,
)
from skewstream.labels import NEG, POS
from skewstream.learners import (
    MlpBank,
    OnlineEnsemble,
    RowSchedule,
    default_hidden_size,
)
from skewstream.metrics import decayed_recall_gmean_series
from skewstream.presets import preset_schedule
from skewstream.streams import ConceptSpec, DriftSchedule, Skew, StreamGenerator


def tiny_config(preset="sine1-py", pipelines=None, runs=2, steps=None, **kwargs):
    """A small experiment on ``preset``; with ``steps``, on a stream of that
    length whose drift starts halfway."""
    if pipelines is None:
        pipelines = [PipelineSpec("OOB", "OOB")]
    kwargs.setdefault("members", 3)
    kwargs.setdefault("base_seed", 11)
    schedule = preset_schedule(preset)
    if steps is not None:
        schedule = replace(schedule, total_steps=steps, drift_start=steps // 2 + 1)
    return ExperimentConfig(
        schedule=schedule,
        pipelines=pipelines,
        runs=runs,
        **kwargs,
    )


def random_record(seed, schedule, warm_up=0):
    rng = np.random.default_rng(seed)
    n = schedule.total_steps - warm_up
    return RunRecord(
        run=0,
        seed=seed,
        warm_up=warm_up,
        truths=rng.choice([POS, NEG], n),
        preds=rng.choice([POS, NEG], n),
        scores=rng.random(n),
        events=[],
    )


def window_mean_oracle(truths, preds, eta):
    """Mean per-step decayed recalls and G-mean over one window, from all
    cells 0 at its start: each step's cells are summed from scratch as
    eta^age over the window's steps that hit them."""
    n = len(truths)
    age = np.arange(n)[:, None] - np.arange(n)
    weights = np.where(age >= 0, eta ** np.maximum(age, 0), 0.0)
    tp, fn, fp, tn = (
        (weights @ ((truths == t) & (preds == p))).tolist()
        for t, p in ((POS, POS), (POS, NEG), (NEG, POS), (NEG, NEG))
    )
    rps = [a / (a + b) if a + b > 0.0 else 0.0 for a, b in zip(tp, fn)]
    rns = [a / (a + b) if a + b > 0.0 else 0.0 for a, b in zip(tn, fp)]
    gms = [math.sqrt(rp * rn) for rp, rn in zip(rps, rns)]
    return np.mean(rps), np.mean(rns), np.mean(gms)


def report_of(recs, schedule, decay=0.995):
    """`aggregate_and_test` of one pipeline's records under ``schedule``."""
    cfg = ExperimentConfig(
        schedule, [PipelineSpec("A", "OB")], runs=len(recs), metric_decay=decay
    )
    return aggregate_and_test({"A": recs}, cfg)


def per_run_of(rec, schedule, decay=0.995):
    """The record's concept averages, as the report's ``per_run`` holds them."""
    [got] = report_of([rec], schedule, decay).per_run["A"]
    return got


# ---------------------------------------------------------------------------
# PipelineSpec / ExperimentConfig validation
# ---------------------------------------------------------------------------


def test_pipeline_spec_normalizes_names():
    p = PipelineSpec("a", "oob", "PAUC-PH")
    assert p.learner == "OOB"
    assert p.detector == "auc-drop"


def test_pipeline_spec_rejects_unknowns():
    with pytest.raises(ConfigError, match=r"^\[pipeline a\] learner must be"):
        PipelineSpec("a", "boosting")
    with pytest.raises(ConfigError, match=r"^\[pipeline a\] detector must be"):
        PipelineSpec("a", "OB", "adwin")
    with pytest.raises(ConfigError):
        PipelineSpec("bad/name", "OB")
    with pytest.raises(ConfigError, match=r"^\[pipeline a\] unknown key 'window'"):
        PipelineSpec("a", "OB", "none", {"window": 5})
    with pytest.raises(ConfigError, match=r"^\[pipeline a\] unknown key 'not_a_param'"):
        PipelineSpec("a", "OB", "auc-drop", {"not_a_param": 5})


def test_pipeline_params_reach_the_detector():
    p = PipelineSpec("a", "OB", "auc-drop", {"window": 300, "delta": 0.01})
    det = build_detector(p)
    assert isinstance(det, AucDropDetector)
    assert det.capacity == 300
    assert det.delta == 0.01
    assert det.min_fill == 100  # untouched default
    assert build_detector(PipelineSpec("b", "OB")) is None


def test_resolved_params_fill_in_defaults():
    p = PipelineSpec("a", "OB", "auc-drop", {"window": 300})
    assert p.resolved_params() == {
        "window": 300,
        "delta": 0.1,
        "threshold": 20.0,
        "min_fill": 100,
    }


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tiny_config(runs=0)
    with pytest.raises(ConfigError):
        tiny_config(metric_decay=0.0)
    with pytest.raises(ConfigError):
        tiny_config(warm_up=3000)
    with pytest.raises(ConfigError):
        tiny_config(pipelines=[PipelineSpec("x", "OB"), PipelineSpec("x", "OOB")])


@pytest.mark.parametrize(
    "key,value",
    [
        ("lr", -1.0),
        ("lr", float("nan")),
        ("tracker_theta", 1.5),
        ("designation_threshold", 0.5),
        ("base_seed", -3),
        ("warm_up", 1500),  # sine1-py drifts at 1501: no pre-drift step left
    ],
)
def test_config_errors_name_the_key(key, value):
    with pytest.raises(ConfigError, match=rf"\[experiment\] {key} "):
        tiny_config(**{key: value})


def test_config_file_errors_name_the_key_before_running(tmp_path):
    text = "[experiment]\npreset = sine1-py\ntracker_theta = 1.5\n"
    with pytest.raises(ConfigError, match=r"\[experiment\] tracker_theta must"):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize(
    "detector,key,value",
    [
        ("ddm-oci", "decay", 1.5),
        ("pauc-ph", "window", 0),
        ("pauc-ph", "min_fill", 501),  # the default window holds 500
        ("pauc-ph", "delta", float("nan")),
        ("pauc-ph", "threshold", float("nan")),
        ("pauc-ph", "threshold", float("inf")),
        ("ddm-oci", "warn_scale", float("nan")),
        ("ddm-oci", "drift_scale", float("nan")),
        ("lfr", "decay", 1.5),
    ],
)
def test_detector_parameter_errors_name_the_pipeline_and_key(detector, key, value):
    pipe = PipelineSpec("A", "OB", detector, {key: value})
    with pytest.raises(ConfigError, match=rf"^\[pipeline A\] {key} "):
        build_detector(pipe)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_run_experiment_is_deterministic():
    cfg = tiny_config(pipelines=[PipelineSpec("OOB+auc", "OOB", "auc-drop")])
    a = run_experiment(cfg)["OOB+auc"]
    b = run_experiment(cfg)["OOB+auc"]
    for ra, rb in zip(a, b):
        assert ra.seed == rb.seed == cfg.base_seed + ra.run
        assert np.array_equal(ra.truths, rb.truths)
        assert np.array_equal(ra.preds, rb.preds)
        assert np.array_equal(ra.scores, rb.scores)
        assert ra.events == rb.events


def reference_track(w, label, cfg):
    """Step the class sizes ``w``, a dict by label, through ``label`` with
    the textbook recursion w_k <- theta * w_k + (1 - theta) * [label = k],
    and return the minority they designate: the smaller class (POS on a
    tie) where w_max / w_min exceeds the threshold, else None."""
    theta = cfg.tracker_theta
    for k in (POS, NEG):
        w[k] = theta * w[k] + (1.0 - theta) * (k == label)
    lo, hi = (POS, NEG) if w[POS] <= w[NEG] else (NEG, POS)
    ratio = w[hi] / w[lo] if w[lo] > 0.0 else math.inf
    return lo if ratio > cfg.designation_threshold else None


def reference_rate(learner, label, w, minority):
    """The Poisson rate of an example of ``label`` at the sizes ``w``: OB
    samples at rate 1, OOB oversamples and UOB undersamples by the
    class-size ratio, and all sample at rate 1 while no minority is
    designated."""
    if minority is None or learner == "OB":
        return 1.0
    if learner == "OOB":
        return w[-minority] / w[label]
    return w[minority] / w[label]


def reference_run(cfg, pipe, r):
    """One pipeline run on its own stream, class sizes and detector, with the
    frozen kernel for its ensemble, its Poisson counts drawn step by step
    and its detector handed one observation at a time: the scalar engine
    that `run_experiment` must reproduce exactly."""
    seed = cfg.base_seed + r
    schedule = cfg.schedule
    stream = StreamGenerator(schedule, seed)
    w = {POS: 0.5, NEG: 0.5}
    d, m = schedule.old.n_features, cfg.members
    h = default_hidden_size(d)
    resets = 0
    params = _ref_init(d, h, [[seed, resets, i] for i in range(m)])
    detector = harness.build_detector(pipe)
    # the ensemble's Poisson generator, drawn from step by step
    poisson = np.random.default_rng([seed, 1])
    truths, preds, scores, events = [], [], [], []
    for t in range(1, schedule.total_steps + 1):
        x, label = stream.next_example()
        score = _ref_forward(*params, x)[1][:, 0].mean()
        pred = POS if score >= 0.5 else NEG
        if t > cfg.warm_up:
            truths.append(label)
            preds.append(pred)
            scores.append(score)
        minority = reference_track(w, label, cfg)
        if detector is not None:
            verdict = step(detector, label, pred, score=float(score), minority=minority)
            if verdict is not Verdict.NORMAL:
                events.append((t, verdict.value))
            if verdict is Verdict.DRIFT:
                resets += 1
                params = _ref_init(d, h, [[seed, resets, i] for i in range(m)])
        lam = reference_rate(pipe.learner, label, w, minority)
        _ref_train_rounds(params, x, label, poisson.poisson(lam, m), cfg.lr)
    return RunRecord(
        run=r,
        seed=seed,
        warm_up=cfg.warm_up,
        truths=np.array(truths, dtype=np.int8),
        preds=np.array(preds, dtype=np.int8),
        scores=np.array(scores),
        events=events,
    )


def assert_matches_reference(cfg, records):
    assert list(records) == [pipe.name for pipe in cfg.pipelines]
    for pipe in cfg.pipelines:
        assert len(records[pipe.name]) == cfg.runs
        for r, rec in enumerate(records[pipe.name]):
            ref = reference_run(cfg, pipe, r)
            assert (rec.run, rec.seed, rec.warm_up) == (ref.run, ref.seed, ref.warm_up)
            assert np.array_equal(rec.truths, ref.truths)
            assert np.array_equal(rec.preds, ref.preds)
            assert np.array_equal(rec.scores, ref.scores)
            assert rec.events == ref.events


@pytest.mark.parametrize("preset", ["sine1-py", "sea-py"])
def test_lockstep_engine_equals_per_pipeline_runs(preset):
    pipelines = [
        PipelineSpec("OB", "OB"),
        PipelineSpec("OB+ddm", "OB", "ddm-oci"),
        PipelineSpec("OOB+lfr", "OOB", "lfr"),
        PipelineSpec("OOB+auc", "OOB", "pauc-ph"),
        PipelineSpec("UOB+auc", "UOB", "pauc-ph"),
    ]
    cfg = tiny_config(preset, pipelines=pipelines, runs=2, warm_up=37)
    records = run_experiment(cfg)
    drifts = [
        v for recs in records.values() for rec in recs for _, v in rec.events
        if v == Verdict.DRIFT.value
    ]
    assert drifts  # slice resets are exercised
    assert_matches_reference(cfg, records)


def test_single_member_single_pipeline_equals_reference():
    cfg = tiny_config(
        pipelines=[PipelineSpec("OOB+ddm", "OOB", "ddm-oci")], runs=1, members=1
    )
    assert_matches_reference(cfg, run_experiment(cfg))


def test_block_boundaries_leave_the_records_unchanged(monkeypatch):
    # a stream of 2.5 default blocks, so that blocks of every size end
    # mid-run, and resets land inside blocks and in later ones
    steps = engine.BLOCK_STEPS * 5 // 2
    pipelines = [
        PipelineSpec("OB+lfr", "OB", "lfr"),
        PipelineSpec("OOB+lfr", "OOB", "lfr"),
        PipelineSpec("UOB+lfr", "UOB", "lfr"),
        PipelineSpec("UOB+ddm", "UOB", "ddm-oci"),
    ]
    cfg = tiny_config(pipelines=pipelines, runs=1, steps=steps, warm_up=5)
    usable_cpus(monkeypatch, 1)
    runs = {}
    for block in (engine.BLOCK_STEPS, 1, 7):  # 1: the step-by-step order
        monkeypatch.setattr(engine, "BLOCK_STEPS", block)
        runs[block] = run_experiment(cfg)
    for records in runs.values():
        assert_same_records(records, runs[1])
    resets = {pipe.learner: 0 for pipe in pipelines}
    for pipe in pipelines:
        resets[pipe.learner] += runs[1][pipe.name][0].alarms != []
    assert all(resets.values()), resets  # a slice of every sampler is reset


class ScriptedDetector(DriftDetector):
    """Raises DRIFT at the given steps of a run (counted from 1) and at no
    other."""

    def __init__(self, alarms):
        self.alarms, self.t = set(alarms), 0

    def catch_up(self, truths, preds, scores, minorities):
        for i in range(len(truths)):
            self.t += 1
            if self.t in self.alarms:
                return [(i, Verdict.DRIFT)]
        return []


def script_detectors(monkeypatch, alarms):
    """Make the pipelines named in ``alarms`` raise DRIFT at their steps, in
    the harness and in `reference_run` alike."""
    build = harness.build_detector

    def scripted(pipe):
        if pipe.name in alarms:
            return ScriptedDetector(alarms[pipe.name])
        return build(pipe)

    monkeypatch.setattr(harness, "build_detector", scripted)


def drawn_counts(cfg, learner, r):
    """Each step's Poisson counts of a ``learner`` ensemble in run ``r``, as
    `reference_run` draws them: they never depend on the model."""
    seed = cfg.base_seed + r
    stream = StreamGenerator(cfg.schedule, seed)
    w = {POS: 0.5, NEG: 0.5}
    poisson = np.random.default_rng([seed, 1])
    ks = []
    for _ in range(cfg.schedule.total_steps):
        _, label = stream.next_example()
        minority = reference_track(w, label, cfg)
        lam = reference_rate(learner, label, w, minority)
        ks.append(poisson.poisson(lam, cfg.members))
    return np.array(ks)


@pytest.mark.parametrize("block", [1, 7, 128])
@pytest.mark.parametrize(
    "members, warm_up", [(3, 0), (1, 150)], ids=["members3", "members1-warm_up150"]
)
def test_rewinds_at_block_edges_equal_per_pipeline_runs(
    monkeypatch, block, members, warm_up
):
    steps = 320  # 2.5 blocks of 128: the last block ends mid-way
    pipelines = [
        PipelineSpec("OB", "OB"),
        PipelineSpec("UOB+edges", "UOB", "ddm-oci"),
        PipelineSpec("OOB+idle", "OOB", "ddm-oci"),
        PipelineSpec("OOB+lfr", "OOB", "lfr"),
    ]
    cfg = tiny_config(
        pipelines=pipelines, runs=1, steps=steps, members=members, warm_up=warm_up
    )
    # the first and last step of each block, the first and last of the run,
    # steps in a row, and the second step of the second block. Rows run on
    # from block to block, so some of these rewinds come while the block
    # before is held, or once faster rows have entered the next (checked
    # below)
    edges = {1, block, block + 1, block + 2, 2 * block, 2 * block + 1, 100, 101, steps}
    # steps at which no member of the OOB slice trains: its rewound rows
    # take no pass there; and the second block's last step, for the slower
    # OOB rows
    idle = [t for t, ks in enumerate(drawn_counts(cfg, "OOB", 0), 1) if not ks.any()]
    assert len(idle) >= 3
    alarms = {
        "UOB+edges": edges,
        "OOB+idle": {idle[0], idle[1], idle[-1], 2 * block},
    }
    script_detectors(monkeypatch, alarms)
    monkeypatch.setattr(engine, "BLOCK_STEPS", block)
    # by rewind: its pipeline, its step (from 1), whether the block before
    # the step's was held, and whether some row had entered the block after
    rewinds = []

    def recording(self, e, t, _rewind=RowSchedule.rewind):
        nxt = (t // block + 1) * block
        first = int(self._first[:, nxt % (2 * block)].min()) // len(self._cols)
        entered = nxt < self.planned and first + self._base < self.round
        rewinds.append((e, t + 1, self.retired < t // block * block, entered))
        _rewind(self, e, t)

    monkeypatch.setattr(RowSchedule, "rewind", recording)
    records = run_experiment(cfg)
    for name, want in alarms.items():
        assert records[name][0].alarms == sorted(want)
    # a rewind at a step whose block's predecessor was held, and one at a
    # block's last step once some row had entered the next block
    assert any(held for _, _, held, _ in rewinds), rewinds
    assert any(t % block == 0 and ahead for _, t, _, ahead in rewinds), rewinds
    assert_matches_reference(cfg, records)


def count_rounds(monkeypatch):
    """Count, from now on, the examples taken, the kernel's rounds and each
    bank row's passes over every block planned, max(1, k) a step."""
    counts = {"examples": 0, "rounds": 0, "blocks": 0, "passes": 0}

    def next_example(self, _next=StreamGenerator.next_example):
        counts["examples"] += 1
        return _next(self)

    def draw_counts(self, rates, _draw=OnlineEnsemble.draw_counts):
        ks = _draw(self, rates)
        counts["blocks"] += 1
        counts["passes"] = counts["passes"] + np.maximum(ks, 1).sum(axis=0)
        return ks

    def bind_kernel(self, _bind=MlpBank._bind_kernel):
        # a round is one call of the kernel a bank binds as it is made
        kernel = _bind(self)

        def counted(X, T=None, S=None, score=None):
            counts["rounds"] += 1
            return kernel(X, T, S, score)

        return counted

    monkeypatch.setattr(StreamGenerator, "next_example", next_example)
    monkeypatch.setattr(OnlineEnsemble, "draw_counts", draw_counts)
    monkeypatch.setattr(MlpBank, "_bind_kernel", bind_kernel)
    return counts


def test_a_run_takes_one_example_per_step_and_its_busiest_rows_rounds(monkeypatch):
    # perfbench's host-speed probe fires on every 64th next_example. No row
    # waits for another at a block's end, so a run without a rewind takes
    # one round per pass of its busiest row over the whole run, max(1, k)
    # passes a step, and a reset that rewinds rows only adds rounds
    pipelines = [PipelineSpec("UOB", "UOB"), PipelineSpec("OOB+drift", "OOB", "lfr")]
    cfg = tiny_config(
        pipelines=pipelines, runs=1, steps=engine.BLOCK_STEPS * 3 + 3, members=2
    )
    for alarms in (set(), {40, 300}):
        counts = count_rounds(monkeypatch)
        script_detectors(monkeypatch, {"OOB+drift": alarms})
        [_, drift] = run_once(cfg, 0)
        assert drift.alarms == sorted(alarms)
        assert counts["examples"] == cfg.schedule.total_steps
        assert counts["blocks"] == 4
        busiest = int(counts["passes"].max())
        if alarms:
            assert counts["rounds"] > busiest
        else:
            assert counts["rounds"] == busiest


def test_resample_mix_run_0_takes_its_busiest_rows_rounds(monkeypatch):
    # the benchmark's resample-mix workload at base_seed 0: 4,715 rounds,
    # the passes of its busiest row, where a wait for every row at each
    # 128-step block's end took 5,030
    counts = count_rounds(monkeypatch)
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    cfg = load_config(perfbench / "workloads" / "resample-mix.ini")
    assert (cfg.base_seed, cfg.runs, engine.BLOCK_STEPS) == (0, 1, 128)
    run_once(cfg, 0)
    assert counts["rounds"] == int(counts["passes"].max()) == 4715


def test_tie_score_goes_positive(monkeypatch):
    # with every output layer at zero and no learning, each row's P(+1) is
    # exactly 0.5, and so is every score: a detector is handed POS as each
    # step's label, and the record predicts POS at each step
    def init_weights(self, member_seeds, first=0, _init=MlpBank.init_weights):
        _init(self, member_seeds, first)
        rows = slice(first, first + len(member_seeds))
        self.W2[rows] = self.b2[rows] = 0.0

    handed = []

    class Recording(DriftDetector):
        def catch_up(self, truths, preds, scores, minorities):
            handed.extend(zip(preds, scores))
            return []

    def no_learning(self, n_features, member_seeds, lr=0.1, _init=MlpBank.__init__):
        _init(self, n_features, member_seeds, lr=0.0)  # every step size 0

    monkeypatch.setattr(MlpBank, "init_weights", init_weights)
    monkeypatch.setattr(MlpBank, "__init__", no_learning)
    cfg = tiny_config(
        pipelines=[PipelineSpec("OB+ties", "OB", "ddm-oci")], runs=1, steps=300
    )
    [record] = engine._run_once(cfg, 0, [Recording()])
    assert len(record.scores) == 300 - cfg.warm_up > 0
    assert (record.scores == 0.5).all() and (record.preds == POS).all()
    assert len(handed) == 300 and set(handed) == {(POS, 0.5)}


@pytest.mark.parametrize(
    "poison", [float("nan"), float("inf"), 1e308], ids=["nan", "inf", "1e308"]
)
def test_catch_ups_read_only_the_steps_a_pipeline_has_predicted(
    monkeypatch, poison
):
    # every history position that no round has written yet is poisoned as
    # a block or a rewind is laid out: a read of one would hand back a score
    # that is no probability, or overflow in the mean, and a RuntimeWarning
    # is an error here
    pipelines = [
        PipelineSpec("OB+ddm", "OB", "ddm-oci"),
        PipelineSpec("OOB+lfr", "OOB", "lfr"),
        PipelineSpec("OOB+auc", "OOB", "pauc-ph"),
    ]
    cfg = tiny_config(pipelines=pipelines, runs=1, steps=1200)
    names = [pipe.name for pipe in pipelines]
    want = dict(zip(names, ([rec] for rec in run_once(cfg, 0))))
    # rewinds, whose layouts are poisoned too
    assert want["OOB+lfr"][0].alarms
    lay_out, scores = RowSchedule._lay_out, RowSchedule.scores
    reads = 0

    def poisoned(self, rows, t, starts, relearn):
        lay_out(self, rows, t, starts, relearn)
        self._hist[self.round - self._base :] = poison

    def checked(self, *args):
        nonlocal reads
        got = scores(self, *args)
        assert ((got >= 0.0) & (got <= 1.0)).all(), args
        reads += 1
        return got

    monkeypatch.setattr(RowSchedule, "_lay_out", poisoned)
    monkeypatch.setattr(RowSchedule, "scores", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = dict(zip(names, ([rec] for rec in run_once(cfg, 0))))
    assert reads > 100
    assert_same_records(got, want)


def test_no_pipelines_builds_no_stream(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(engine, "StreamGenerator", refuse)
    assert run_experiment(tiny_config(pipelines=[])) == {}


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def refuse_processes(monkeypatch):
    import concurrent.futures
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was made")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the process pools made during the test, which
    starts and ends with no shared pool, whatever earlier tests left."""
    import concurrent.futures

    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    engine._drop_pool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(engine, "_workers_cannot_start", False)
    yield sizes
    engine._drop_pool()


# the pool tests check where runs go, not what they learn: a short stream
# keeps a run cheaper than a worker's start-up
POOL_STEPS = 400


def worker_pids():
    import multiprocessing

    return sorted(p.pid for p in multiprocessing.active_children())


def run_serially(monkeypatch, cfg):
    usable_cpus(monkeypatch, 1)
    refuse_processes(monkeypatch)
    return run_experiment(cfg)


def assert_same_records(got, want):
    assert list(got) == list(want)
    for name in want:
        assert [rec.run for rec in got[name]] == list(range(len(want[name])))
        for a, b in zip(got[name], want[name], strict=True):
            assert (a.run, a.seed, a.warm_up) == (b.run, b.seed, b.warm_up)
            assert np.array_equal(a.truths, b.truths)
            assert np.array_equal(a.preds, b.preds)
            assert np.array_equal(a.scores, b.scores)
            assert a.events == b.events


def test_runs_in_worker_processes_equal_runs_in_one_process(monkeypatch, pool_sizes):
    pipelines = [
        PipelineSpec("OB+ddm", "OB", "ddm-oci"),
        PipelineSpec("OOB+lfr", "OOB", "lfr"),
    ]
    cfg = tiny_config(pipelines=pipelines, runs=3, steps=POOL_STEPS)
    usable_cpus(monkeypatch, 3)
    spread = run_experiment(cfg)
    assert pool_sizes == [2]
    serial = run_serially(monkeypatch, cfg)
    drifts = [
        v for recs in serial.values() for rec in recs for _, v in rec.events
        if v == Verdict.DRIFT.value
    ]
    assert drifts  # slice resets are exercised
    assert_same_records(spread, serial)


def test_back_to_back_experiments_share_one_pool(monkeypatch, pool_sizes):
    first = tiny_config(
        pipelines=[PipelineSpec("OOB+lfr", "OOB", "lfr")], runs=3, steps=POOL_STEPS
    )
    second = tiny_config(
        "sea-py",
        pipelines=[PipelineSpec("OB", "OB"), PipelineSpec("UOB+auc", "UOB", "pauc-ph")],
        runs=4,
        steps=POOL_STEPS,
        warm_up=37,
    )
    usable_cpus(monkeypatch, 3)
    spread_first = run_experiment(first)
    pids = worker_pids()
    spread_second = run_experiment(second)
    assert pool_sizes == [2]
    assert len(pids) == 2 and worker_pids() == pids
    assert_same_records(spread_first, run_serially(monkeypatch, first))
    assert_same_records(spread_second, run_serially(monkeypatch, second))


# what `run_experiment` prints on stderr when it reran a dead worker's runs
RERUN_LINE = "skewstream: a worker process died and its runs were run again"


def test_a_killed_worker_is_replaced_by_a_new_pool(monkeypatch, capfd, pool_sizes):
    import signal
    import time

    cfg = tiny_config(
        pipelines=[PipelineSpec("OB+ddm", "OB", "ddm-oci")], runs=2, steps=POOL_STEPS
    )
    usable_cpus(monkeypatch, 2)
    run_experiment(cfg)
    [pid] = worker_pids()
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not engine._pool[1]._broken:  # the pool notices the death
        assert time.monotonic() < deadline
        time.sleep(0.01)
    spread = run_experiment(cfg)
    assert pool_sizes == [1, 1]
    assert pid not in worker_pids()
    # the worker died between experiments: no run was lost, so none was rerun
    assert RERUN_LINE not in capfd.readouterr().err
    assert_same_records(spread, run_serially(monkeypatch, cfg))


def test_a_worker_killed_as_the_pool_starts_costs_only_a_rerun(
    monkeypatch, capfd, pool_sizes
):
    import concurrent.futures
    import signal

    killed = []

    class KillingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            if not killed:  # the worker this submit spawned, before it runs
                killed.extend(worker_pids())
                for pid in killed:
                    os.kill(pid, signal.SIGKILL)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", KillingPool)
    cfg = tiny_config(
        pipelines=[PipelineSpec("OOB+lfr", "OOB", "lfr")], runs=3, steps=POOL_STEPS
    )
    usable_cpus(monkeypatch, 2)
    spread = run_experiment(cfg)
    assert pool_sizes == [1]
    assert len(killed) == 1 and killed[0] not in worker_pids()
    assert capfd.readouterr().err.count(RERUN_LINE) == 1
    again = run_experiment(cfg)  # on a new pool, whose worker lives
    assert pool_sizes == [1, 1]
    assert RERUN_LINE not in capfd.readouterr().err
    serial = run_serially(monkeypatch, cfg)
    assert_same_records(spread, serial)
    assert_same_records(again, serial)


UNGUARDED_SCRIPT = """\
from dataclasses import replace

from skewstream.harness import ExperimentConfig, PipelineSpec, run_experiment
from skewstream.presets import preset_schedule

schedule = replace(preset_schedule("sine1-py"), total_steps=400, drift_start=201)
cfg = ExperimentConfig(
    schedule=schedule, pipelines=[PipelineSpec("OB", "OB")], runs=3, members=3
)
for _ in range(2):
    print("runs", [rec.run for rec in run_experiment(cfg)["OB"]])
"""


@pytest.mark.skipif(
    cpus.usable_cpus() < 2, reason="a pool needs two usable CPUs to be made"
)
def test_an_unguarded_script_gets_its_runs_and_one_line_on_why(tmp_path):
    # without an `if __name__ == "__main__":` guard, a spawned worker reruns
    # the script as it starts and dies of it; the caller runs every run itself
    # and says once why, and runs its second experiment serially, with no
    # worker to die of it again
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT)
    src = str(Path(skewstream.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["runs [0, 1, 2]"] * 2, res.stderr
    assert res.stderr.count("Traceback (most recent call last)") == 1, res.stderr
    assert res.stderr.count(RERUN_LINE) == 1, res.stderr
    assert f"{RERUN_LINE} in this process; " in res.stderr, res.stderr
    guard = 'guard its entry point with `if __name__ == "__main__":`'
    assert guard in res.stderr, res.stderr


class WorkerOnlyRate(float):
    """A learning rate that unpickles as a string: a run given it fails in a
    worker process only."""

    def __reduce__(self):
        return (str, ("not a rate",))


def test_a_run_that_fails_in_a_worker_leaves_the_next_experiment_correct(
    monkeypatch, pool_sizes
):
    usable_cpus(monkeypatch, 3)
    failing = tiny_config(runs=6, steps=POOL_STEPS, lr=WorkerOnlyRate(0.1))
    with pytest.raises(ValueError, match="not a rate"):
        run_experiment(failing)
    cfg = tiny_config(
        pipelines=[PipelineSpec("OOB+lfr", "OOB", "lfr")], runs=3, steps=POOL_STEPS
    )
    spread = run_experiment(cfg)
    assert pool_sizes == [2, 2]
    assert_same_records(spread, run_serially(monkeypatch, cfg))


def test_a_change_of_usable_cpus_remakes_the_pool(monkeypatch, pool_sizes):
    cfg = tiny_config(runs=3, steps=POOL_STEPS)
    usable_cpus(monkeypatch, 3)
    run_experiment(cfg)
    assert len(worker_pids()) == 2
    usable_cpus(monkeypatch, 2)
    spread = run_experiment(cfg)
    assert pool_sizes == [2, 1]
    assert len(worker_pids()) == 1
    assert_same_records(spread, run_serially(monkeypatch, cfg))


def test_workers_take_the_callers_bound_tables(tmp_path, monkeypatch, pool_sizes):
    from skewstream import detectors

    # this process's table for the default parameters is a small one with
    # shifted quantiles. The worker spawned here sees no monkeypatch, so one
    # that was not handed it would load the table that ships with the
    # package, whose records differ
    monkeypatch.setenv("SKEWSTREAM_CACHE", str(tmp_path))
    mine = detectors.BoundTable(n_paths=2000, max_n=50)
    mine.table = mine.table + 0.05
    mine._index()
    tables = {(mine.decay, mine.warn_level, mine.detect_level): mine}
    monkeypatch.setattr(detectors, "_default_tables", tables)
    usable_cpus(monkeypatch, 2)
    cfg = tiny_config(
        pipelines=[PipelineSpec("OOB+lfr", "OOB", "lfr")], runs=2, steps=POOL_STEPS
    )
    spread = run_experiment(cfg)
    assert pool_sizes == [1]
    serial = run_serially(monkeypatch, cfg)
    tables.clear()
    shipped = run_serially(monkeypatch, cfg)
    assert all(
        a.events != b.events for a, b in zip(serial["OOB+lfr"], shipped["OOB+lfr"])
    )
    assert_same_records(spread, serial)


def test_workers_run_on_the_table_the_caller_holds_now(
    tmp_path, monkeypatch, pool_sizes
):
    from skewstream import detectors

    # the caller's table for the default parameters is A in one experiment
    # and B, a copy with shifted quantiles, in the next, while one worker
    # lives through both: it must drop A for B
    monkeypatch.setenv("SKEWSTREAM_CACHE", str(tmp_path))
    table_a = detectors.BoundTable(n_paths=2000, max_n=50)
    table_b = pickle.loads(pickle.dumps(table_a))
    table_b.table = table_b.table + 0.05
    table_b._index()
    key = (table_a.decay, table_a.warn_level, table_a.detect_level)
    tables = {}
    monkeypatch.setattr(detectors, "_default_tables", tables)
    cfg = tiny_config(
        pipelines=[PipelineSpec("OOB+lfr", "OOB", "lfr")], runs=3, steps=POOL_STEPS
    )
    usable_cpus(monkeypatch, 2)
    spread = {}
    for name, table in (("A", table_a), ("B", table_b)):
        tables[key] = table
        spread[name] = run_experiment(cfg)
    assert pool_sizes == [1]
    serial = {}
    for name, table in (("A", table_a), ("B", table_b)):
        tables[key] = table
        serial[name] = run_serially(monkeypatch, cfg)
    events = {
        name: [rec.events for rec in records["OOB+lfr"]]
        for name, records in serial.items()
    }
    assert events["A"] != events["B"]
    assert_same_records(spread["A"], serial["A"])
    assert_same_records(spread["B"], serial["B"])


def test_the_engine_imports_nothing_from_the_config_layer():
    # read, not imported: `import skewstream` loads the harness anyway
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    modules = set()  # the package's modules that it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(["skewstream"] * (node.level > 0) + [node.module or ""])
            base = base.rstrip(".")  # `from . import harness`
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        modules |= {
            name.split(".")[1] for name in names if name.startswith("skewstream.")
        }
    assert "learners" in modules
    assert modules & {"harness", "cli"} == set()


def test_one_run_makes_no_process_pool(monkeypatch):
    usable_cpus(monkeypatch, 4)
    refuse_processes(monkeypatch)
    [rec] = run_experiment(tiny_config(runs=1))["OOB"]
    assert rec.run == 0


@pytest.mark.parametrize(
    "detector, params, message",
    [
        ("pauc-ph", {"window": 0}, "[pipeline A] window must be >= 1, got 0"),
        ("lfr", {"decay": 1.5}, "[pipeline A] decay must be in (0, 1), got 1.5"),
    ],
    ids=["pauc-ph-window", "lfr-decay"],
)
def test_rejected_detector_parameter_starts_no_process(
    detector, params, message, monkeypatch
):
    # checks made in a worker would escape the CLI error tests, whose
    # monkeypatches do not reach spawned processes
    usable_cpus(monkeypatch, 4)
    refuse_processes(monkeypatch)
    cfg = tiny_config(pipelines=[PipelineSpec("A", "OB", detector, params)], runs=4)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(cfg)


def test_run_records_honor_warm_up_length():
    cfg = tiny_config(runs=1, warm_up=100)
    [rec] = run_experiment(cfg)["OOB"]
    assert len(rec.truths) == cfg.schedule.total_steps - 100
    assert rec.warm_up == 100


def test_no_detector_means_no_events():
    cfg = tiny_config(runs=1)
    [rec] = run_experiment(cfg)["OOB"]
    assert rec.events == []


def test_record_alarms_keep_only_drift_events():
    rec = random_record(0, preset_schedule("sine1-py"))
    rec.events = [(100, "warning"), (200, "drift"), (250, "warning"), (900, "drift")]
    assert rec.alarms == [200, 900]


# ---------------------------------------------------------------------------
# concept averages and curves, as aggregate_and_test reports them
# ---------------------------------------------------------------------------


def test_concept_averages_match_window_oracle_abrupt():
    schedule = preset_schedule("sine1-py")  # drift at 1501, duration 0
    rec = random_record(42, schedule)
    got = per_run_of(rec, schedule)
    pre = window_mean_oracle(rec.truths[:1500], rec.preds[:1500], 0.995)
    post = window_mean_oracle(rec.truths[1500:], rec.preds[1500:], 0.995)
    assert got.pre_recall_pos == pytest.approx(pre[0], abs=1e-12)
    assert got.pre_recall_neg == pytest.approx(pre[1], abs=1e-12)
    assert got.pre_gmean == pytest.approx(pre[2], abs=1e-12)
    assert got.post_recall_pos == pytest.approx(post[0], abs=1e-12)
    assert got.post_recall_neg == pytest.approx(post[1], abs=1e-12)
    assert got.post_gmean == pytest.approx(post[2], abs=1e-12)


def test_concept_averages_gradual_post_window_starts_at_drift_end():
    schedule = preset_schedule("sine1g-py")  # transition 1501..2000
    rec = random_record(43, schedule)
    got = per_run_of(rec, schedule)
    post = window_mean_oracle(rec.truths[2000:], rec.preds[2000:], 0.995)
    assert got.post_gmean == pytest.approx(post[2], abs=1e-12)


def test_concept_averages_respects_warm_up():
    schedule = preset_schedule("sine1-py")
    rec = random_record(44, schedule, warm_up=100)
    got = per_run_of(rec, schedule)
    # recorded arrays start at step 101; pre window is steps 101..1500
    pre = window_mean_oracle(rec.truths[:1400], rec.preds[:1400], 0.995)
    assert got.pre_gmean == pytest.approx(pre[2], abs=1e-12)


def test_concept_averages_empty_pre_window_errors():
    schedule = preset_schedule("sine1-py")
    rec = random_record(45, schedule, warm_up=1600)
    with pytest.raises(ValueError, match="empty pre-drift"):
        per_run_of(rec, schedule)


def test_concept_averages_rejects_mismatched_record():
    schedule = preset_schedule("sine1-py")
    rec = random_record(46, schedule)
    rec.truths = rec.truths[:-5]
    rec.preds = rec.preds[:-5]
    with pytest.raises(ValueError, match="does not match"):
        per_run_of(rec, schedule)


def test_gmean_curve_re_zeroes_at_drift_boundaries():
    schedule = preset_schedule("sine1g-py")
    rec = random_record(47, schedule)
    curve = report_of([rec], schedule).curves["A"]
    assert len(curve) == schedule.total_steps
    # a freshly zeroed confusion has seen one class only: G-mean is 0
    assert curve[schedule.drift_start - 1] == 0.0
    assert curve[schedule.drift_end - 1] == 0.0
    # segment interiors match a fresh series over the same slice
    seg = decayed_recall_gmean_series(
        rec.truths[2000:], rec.preds[2000:], 0.995
    )[2]
    assert np.allclose(curve[2000:], seg, atol=1e-12)


def test_aggregation_linearity():
    # mean of per-run window means equals the pooled mean over runs x steps
    schedule = preset_schedule("sine1-py")
    recs = [random_record(s, schedule) for s in (1, 2, 3)]
    avgs = report_of(recs, schedule).per_run["A"]
    pooled = np.concatenate(
        [
            decayed_recall_gmean_series(r.truths[1500:], r.preds[1500:], 0.995)[2]
            for r in recs
        ]
    )
    assert np.mean([a.post_gmean for a in avgs]) == pytest.approx(
        pooled.mean(), abs=1e-12
    )


# ---------------------------------------------------------------------------
# summarize_runs / aggregate_and_test
# ---------------------------------------------------------------------------


def averages_with(post_gmean, base=0.5):
    return ConceptAverages(base, base, base, base, base, post_gmean)


def test_summarize_marks_clear_winner():
    rng = np.random.default_rng(0)
    per_run = {
        "weak": [averages_with(0.3 + 0.01 * rng.random()) for _ in range(12)],
        "strong": [averages_with(0.8 + 0.01 * rng.random()) for _ in range(12)],
    }
    rows = {
        (r.pipeline, r.metric): r for r in summarize_runs(per_run, 12)
    }
    assert rows[("strong", "post_gmean")].best
    assert not rows[("weak", "post_gmean")].best
    # identical values elsewhere: everyone stays in the best group
    assert rows[("weak", "pre_gmean")].best
    assert rows[("strong", "pre_gmean")].best


def test_summarize_identical_pipelines_share_best():
    vals = [averages_with(0.6 + 0.01 * k) for k in range(10)]
    rows = summarize_runs({"a": list(vals), "b": list(vals)}, 10)
    assert all(r.best for r in rows)


def test_summarize_single_pipeline_skips_testing():
    vals = [averages_with(0.6) for _ in range(3)]
    rows = summarize_runs({"only": vals}, 3)
    assert len(rows) == len(METRICS)
    assert all(r.best for r in rows)


def test_summarize_too_few_nonzero_pairs_is_not_significant():
    # nine equal runs and one differing: a 1-pair signed-rank test can never
    # reject, so both pipelines stay in the best group
    a = [averages_with(0.5)] * 9 + [averages_with(0.9)]
    b = [averages_with(0.5)] * 10
    rows = {(r.pipeline, r.metric): r for r in summarize_runs({"a": a, "b": b}, 10)}
    assert rows[("a", "post_gmean")].best
    assert rows[("b", "post_gmean")].best


def test_aggregate_rejects_mismatched_run_counts():
    cfg = tiny_config()
    schedule = cfg.schedule
    records = {
        "OOB": [random_record(1, schedule)],
        "other": [random_record(2, schedule), random_record(3, schedule)],
    }
    with pytest.raises(ValueError, match="run counts differ"):
        aggregate_and_test(records, cfg)


def test_aggregate_scores_only_detector_pipelines():
    cfg = tiny_config(
        pipelines=[
            PipelineSpec("plain", "OOB"),
            PipelineSpec("with-det", "OOB", "auc-drop"),
        ],
        runs=1,
    )
    records = run_experiment(cfg)
    report = aggregate_and_test(records, cfg)
    assert set(report.detector_scores) == {"with-det"}
    assert set(report.curves) == {"plain", "with-det"}
    assert report.n_runs == 1


# ---------------------------------------------------------------------------
# Config files and the lock
# ---------------------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


GOOD_CONFIG = """
[experiment]
runs = 2
base_seed = 5
members = 3

[stream]
generator = sea
positive_prior = 0.5
new_positive_prior = 0.1
threshold = 8.5
drift_duration = 500

[pipeline UOB+lfr]
learner = uob
detector = lfr
min_updates = 25
"""


def test_load_config_inline_stream(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    assert cfg.runs == 2
    assert cfg.members == 3
    assert cfg.schedule.old.generator == "SEA"
    assert cfg.schedule.old.threshold == 8.5
    assert cfg.schedule.new.threshold == 8.5  # inherited
    assert cfg.schedule.new.positive_prior == 0.1
    assert cfg.schedule.drift_duration == 500
    [pipe] = cfg.pipelines
    assert pipe.name == "UOB+lfr"
    assert pipe.learner == "UOB"
    assert pipe.detector == "four-rates"
    assert pipe.detector_params == {"min_updates": 25}


def test_load_config_preset(tmp_path):
    cfg = load_config(
        write_config(tmp_path, "[experiment]\npreset = seag-pyx\nruns = 1\n")
    )
    assert cfg.preset == "seag-pyx"
    assert cfg.schedule == preset_schedule("seag-pyx")


def test_load_config_skew_round_trip(tmp_path):
    text = """
[stream]
generator = sine1
positive_prior = 0.1
skew = -1:0:0.5:0.9
new_skew = -1:0:0.5:0.1
"""
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.schedule.old.skew.prob == 0.9
    assert cfg.schedule.new.skew.prob == 0.1
    relock = dump_config_lock(cfg)
    assert "skew = -1:0:0.5:0.9" in relock


@pytest.mark.parametrize(
    "text,needle",
    [
        ("[experiment]\npreset = sine1-py\nbogus = 1\n", "unknown key"),
        ("[experiment]\npreset = sine1-py\n[stream]\ngenerator = sea\n", "not both"),
        ("[experiment]\nruns = 3\n", "needs preset"),
        ("[experiment]\npreset = sine1-py\n[mystery]\nx = 1\n", "unknown section"),
        ("[experiment]\npreset = nope\n", "unknown stream preset"),
        ("[stream]\ngenerator = arff\n", "generator must be"),
        ("[stream]\ngenerator = sea\nskew = 1:2:3\n", "skew must be"),
        (
            "[stream]\ngenerator = sine1\npositive_prior = 1.5\n",
            r"\[stream\] positive_prior must be in \(0, 1\), got 1.5",
        ),
        (
            "[stream]\ngenerator = sine1\nnew_positive_prior = 1.5\n",
            r"\[stream\] new_positive_prior must be in \(0, 1\), got 1.5",
        ),
        (
            "[stream]\ngenerator = sea\nthreshold = 25\n",
            r"\[stream\] threshold must be in \(0, 20\)",
        ),
        (
            "[stream]\ngenerator = sea\nnew_threshold = 25\n",
            r"\[stream\] new_threshold must be in \(0, 20\)",
        ),
        (
            "[stream]\ngenerator = sea\ninvert = true\n",
            r"\[stream\] invert is a SINE1 setting; SEA only takes false",
        ),
        (
            "[stream]\ngenerator = sea\nnew_invert = true\n",
            r"\[stream\] new_invert is a SINE1 setting; SEA only takes false",
        ),
        (
            "[stream]\ngenerator = sine1\nnew_threshold = 5\n",
            r"\[stream\] new_threshold is a SEA setting; SINE1 only takes the "
            r"default 7.0, got 5.0",
        ),
        (
            "[stream]\ngenerator = sine1\nskew = -1:5:0.5:0.9\n",
            r"\[stream\] skew feature must be in 0 \.\. 1 for SINE1, got 5",
        ),
        (
            "[stream]\ngenerator = sea\nnew_skew = -1:-1:5.0:0.9\n",
            r"\[stream\] new_skew feature must be in 0 \.\. 2 for SEA, got -1",
        ),
        (
            "[stream]\ngenerator = sine1\nskew = -1:0:5.0:0.9\n",
            r"\[stream\] skew split must be in \(0, 1.0\) for SINE1, got 5.0",
        ),
        (
            "[stream]\ngenerator = sea\nskew = -1:0:0:0.9\n",
            r"\[stream\] skew split must be in \(0, 10.0\) for SEA, got 0.0",
        ),
        (
            "[stream]\ngenerator = sine1\ndrift_start = 2900\ndrift_duration = 500\n",
            r"\[stream\] drift_start \+ drift_duration must be <= total_steps \+ 1 "
            r"\(the drift must complete within the stream\), got 2900 \+ 500 > 3000",
        ),
        ("[experiment]\npreset = sine1-py\nruns = many\n", "not a valid int"),
        ("[experiment]\npreset = sine1-py\n[pipeline p]\ndetector = lfr\n", "needs learner"),
        (
            "[experiment]\npreset = sine1-py\n[pipeline p]\nlearner = OB\nwindow = 5\n",
            "unknown key",
        ),
        ("[experiment]\nruns = 2\nruns = 3\n", r":3: \[experiment\] runs is set twice"),
        ("runs = 3\n[experiment]\n", ":1: 'runs = 3' comes before any"),
        (
            "[experiment]\npreset = sine1-py\n[experiment]\n",
            r":3: section \[experiment\] appears twice",
        ),
        ("[experiment]\npreset = sine1-py\nnonsense\n", ":3: cannot parse"),
    ],
)
def test_load_config_error_messages(tmp_path, text, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write_config(tmp_path, text))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nothing.ini")


LOCALE_SCRIPT = """\
import codecs
import locale
import sys

from skewstream.harness import ConfigError, load_config

print(codecs.lookup(locale.getpreferredencoding(False)).name)
for path in sys.argv[1:]:
    try:
        print("runs", load_config(path).runs)
    except ConfigError as e:
        print("ConfigError", e)
"""


def test_configs_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    # config.lock is written as UTF-8, so a config is read as UTF-8 whatever
    # the locale's encoding; bytes that are not UTF-8 are reported against
    # the file and row
    utf8 = tmp_path / "utf8.ini"
    utf8.write_text(
        "[experiment]\n; tracker \u03b8 \u2192 0.9\npreset = sine1-py\nruns = 4\n",
        encoding="utf-8",
    )
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[experiment]\npreset = sine1-py\nruns = 4  ; caf\xe9\n")
    src = str(Path(skewstream.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", LOCALE_SCRIPT, str(utf8), str(latin1)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "ascii",
        "runs 4",
        f"ConfigError {latin1}:3: not UTF-8 text (invalid continuation byte)",
    ]


def test_lock_is_a_fixed_point(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    lock = dump_config_lock(cfg)
    lock_path = tmp_path / "config.lock"
    lock_path.write_text(lock)
    cfg2 = load_config(lock_path)
    assert dump_config_lock(cfg2) == lock
    assert cfg2.schedule == cfg.schedule
    assert cfg2.runs == cfg.runs
    # the lock resolves detector params fully
    [pipe] = cfg2.pipelines
    assert pipe.detector_params["min_updates"] == 25
    assert "warn_level" in pipe.detector_params


EVERY_KEY_CONFIG = """
[experiment]
runs = 3
base_seed = 9
metric_decay = 0.98
warm_up = 17
members = 4
lr = 0.05
tracker_theta = 0.8
designation_threshold = 1.75

[stream]
generator = sine1
total_steps = 2000
drift_start = 900
drift_duration = 300
positive_prior = 0.2
threshold = 7.0
invert = true
skew = -1:0:0.5:0.9
new_positive_prior = 0.7
new_threshold = 7.0
new_invert = false
new_skew = 1:1:0.25:0.6
"""
# threshold is SEA's (SINE1 only takes the default), so a SEA stream moves it
SEA_THRESHOLD_CONFIG = """
[stream]
generator = sea
threshold = 6.5
new_threshold = 8.0
"""


def dataclass_keys():
    """The [experiment] and [stream] keys the dataclass fields define."""
    experiment = {f.name for f in fields(ExperimentConfig)} - {
        "schedule", "pipelines", "preset"
    }
    concept = {f.name for f in fields(ConceptSpec)} - {"generator"}
    timing = {f.name for f in fields(DriftSchedule)} - {"old", "new"}
    stream = {"generator"} | timing | concept | {"new_" + k for k in concept}
    return experiment, stream


def test_every_key_round_trips_through_the_lock(tmp_path):
    cfg = load_config(write_config(tmp_path, EVERY_KEY_CONFIG))
    s = cfg.schedule
    assert cfg == ExperimentConfig(
        schedule=DriftSchedule(
            ConceptSpec("SINE1", 0.2, 7.0, True, Skew(NEG, 0, 0.5, 0.9)),
            ConceptSpec("SINE1", 0.7, 7.0, False, Skew(POS, 1, 0.25, 0.6)),
            total_steps=2000,
            drift_start=900,
            drift_duration=300,
        ),
        runs=3,
        base_seed=9,
        metric_decay=0.98,
        warm_up=17,
        members=4,
        lr=0.05,
        tracker_theta=0.8,
        designation_threshold=1.75,
    )
    # every key is set away from its default (the new concept from the old)
    for f in fields(ExperimentConfig):
        if f.name not in ("schedule", "pipelines", "preset"):
            assert getattr(cfg, f.name) != f.default, f.name
    for f in fields(DriftSchedule):
        if f.name not in ("old", "new"):
            assert getattr(s, f.name) != f.default, f.name
    sea = load_config(write_config(tmp_path, SEA_THRESHOLD_CONFIG))
    for f in fields(ConceptSpec):
        if f.name != "generator":
            moved = sea.schedule if f.name == "threshold" else s
            assert getattr(moved.old, f.name) != f.default, f.name
            assert getattr(moved.new, f.name) != getattr(moved.old, f.name), f.name

    for c in (sea, cfg):
        lock = dump_config_lock(c)
        lock_path = tmp_path / "config.lock"
        lock_path.write_text(lock)
        assert load_config(lock_path) == c

    experiment, stream = dataclass_keys()
    parsed = configparser.ConfigParser()
    parsed.read_string(lock)
    assert set(parsed["experiment"]) == experiment
    assert set(parsed["stream"]) == stream
    parsed.read_string(EVERY_KEY_CONFIG)
    assert set(parsed["stream"]) == stream  # the config above sets them all


def test_lock_inlines_presets(tmp_path):
    cfg = load_config(
        write_config(tmp_path, "[experiment]\npreset = sine1-py\nruns = 1\n")
    )
    lock = dump_config_lock(cfg)
    assert "preset" not in lock
    assert "generator = SINE1" in lock
    lock_path = tmp_path / "config.lock"
    lock_path.write_text(lock)
    assert load_config(lock_path).schedule == cfg.schedule


# ---------------------------------------------------------------------------
# emit_report and read-back
# ---------------------------------------------------------------------------


def test_emit_report_headers_only_when_empty(tmp_path):
    cfg = tiny_config(pipelines=[], runs=1)
    report = aggregate_and_test({}, cfg)
    emit_report(report, tmp_path)
    assert (tmp_path / "summary.csv").read_text() == "pipeline,metric,mean,std,best\n"
    assert (tmp_path / "detectors.csv").read_text() == "pipeline,tdr,fa,dod\n"
    assert (tmp_path / "config.lock").exists()


def test_emit_report_tables_round_trip(tmp_path):
    cfg = tiny_config(pipelines=[PipelineSpec("OOB+auc", "OOB", "auc-drop")])
    records = run_experiment(cfg)
    report = aggregate_and_test(records, cfg)
    emit_report(report, tmp_path)
    parsed = read_per_run_table(tmp_path / "runs" / "OOB+auc.csv")
    assert parsed == report.per_run["OOB+auc"]
    alarms = read_alarm_table(tmp_path / "alarms" / "OOB+auc.csv", cfg.runs)
    assert alarms == [r.alarms for r in records["OOB+auc"]]
    curve_lines = (tmp_path / "curves" / "OOB+auc.csv").read_text().splitlines()
    assert curve_lines[0] == "t,gmean"
    assert len(curve_lines) == 1 + cfg.schedule.total_steps


RUNS_HEADER = "run,seed," + ",".join(METRICS)


@pytest.mark.parametrize(
    "reader",
    [read_per_run_table, lambda path: read_alarm_table(path, 1)],
    ids=["read_per_run_table", "read_alarm_table"],
)
def test_table_readers_name_the_file_when_empty(reader, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: empty file"):
        reader(path)


def test_per_run_table_names_the_line_of_a_non_numeric_cell(tmp_path):
    path = tmp_path / "runs.csv"
    good = ",".join(["0.5"] * len(METRICS))
    bad = ",".join(["0.5"] * (len(METRICS) - 1) + ["oops"])
    path.write_text(f"{RUNS_HEADER}\n0,3,{good}\n1,4,{bad}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: non-numeric"):
        read_per_run_table(path)


def test_alarm_table_rejects_an_unknown_verdict(tmp_path):
    path = tmp_path / "alarms.csv"
    path.write_text("run,seed,t,verdict\n0,3,1600,warning\n0,3,1700,drfit\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: unknown verdict 'drfit'"):
        read_alarm_table(path, 1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CLI_CONFIG = """
[experiment]
runs = 2
base_seed = 3
members = 3

[stream]
generator = sine1
positive_prior = 0.1
new_positive_prior = 0.9

[pipeline OOB+auc]
learner = OOB
detector = auc-drop
"""


def test_cli_run_replay_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CLI_CONFIG)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "outA")]) == 0
    assert main(
        ["run", str(tmp_path / "outA" / "config.lock"), "--out", str(tmp_path / "outB")]
    ) == 0
    files_a = sorted(p for p in (tmp_path / "outA").rglob("*") if p.is_file())
    assert files_a
    for p in files_a:
        q = tmp_path / "outB" / p.relative_to(tmp_path / "outA")
        assert p.read_bytes() == q.read_bytes(), p.name
    before = (tmp_path / "outA" / "summary.csv").read_bytes()
    assert main(["report", str(tmp_path / "outA")]) == 0
    assert (tmp_path / "outA" / "summary.csv").read_bytes() == before


STALE_CONFIG = """
[experiment]
preset = sine1-py
runs = 1
base_seed = 3
members = 3

[pipeline OB]
learner = OB
"""


def test_cli_run_refuses_a_directory_with_another_pipelines_tables(tmp_path, capsys):
    # a directory must equal a replay of its config.lock: rerunning a config
    # into it overwrites, but a table of a pipeline the new lock does not
    # name is refused, and nothing is written
    out = tmp_path / "out"
    both = write_config(
        tmp_path, STALE_CONFIG + "\n[pipeline OOB+lfr]\nlearner = OOB\ndetector = lfr\n"
    )
    assert main(["run", str(both), "--out", str(out)]) == 0
    assert main(["run", str(both), "--out", str(out)]) == 0
    capsys.readouterr()
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    one = tmp_path / "one.ini"
    one.write_text(STALE_CONFIG)
    assert main(["run", str(one), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'alarms' / 'OOB+lfr.csv'}: not a table")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # once the other pipeline's tables are gone, the directory is overwritten
    # with exactly what a fresh directory gets
    for table in ("alarms", "curves", "runs"):
        (out / table / "OOB+lfr.csv").unlink()
    fresh = tmp_path / "fresh"
    assert main(["run", str(one), "--out", str(out)]) == 0
    assert main(["run", str(one), "--out", str(fresh)]) == 0
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(
        p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file()
    )
    for rel in files:
        assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel


def test_cli_run_honors_out_env(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, CLI_CONFIG)
    monkeypatch.setenv("SKEWSTREAM_OUT", str(tmp_path / "root"))
    assert main(["run", str(cfg_path), "--runs", "1"]) == 0
    assert (tmp_path / "root" / "exp" / "summary.csv").exists()


def test_cli_generate_writes_stream(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["generate", "sine1-py", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,f1,f2,label"
    assert len(lines) == 3001
    assert "wrote 3000 examples" in capsys.readouterr().out


def test_cli_score_detectors_output(tmp_path, capsys):
    alarms = tmp_path / "alarms.csv"
    alarms.write_text(
        "run,seed,t,verdict\n0,3,100,drift\n0,3,1600,drift\n1,4,1550,drift\n"
    )
    rc = main(
        ["score-detectors", str(alarms), "--drift-start", "1501", "--runs", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tdr 0.5"
    assert out[1] == "fa 0.25"
    assert out[2] == "dod 74.0"


# a sine1 prior flip at step 451 of 600 on which OOB+lfr both fires and,
# in some runs, writes no alarm row at all
FIRING_CONFIG = """
[experiment]
runs = 10
base_seed = 3
members = 3

[stream]
generator = sine1
positive_prior = 0.1
new_positive_prior = 0.9
total_steps = 600
drift_start = 451

[pipeline OOB+lfr]
learner = OOB
detector = lfr
min_updates = 400
"""


def test_cli_score_detectors_agrees_with_the_detectors_table(tmp_path, capsys):
    cfg_path = write_config(tmp_path, FIRING_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    alarms = out / "alarms" / "OOB+lfr.csv"
    rows = [line.split(",") for line in alarms.read_text().splitlines()[1:]]
    assert any(verdict == "drift" for *_, verdict in rows)
    assert {str(r) for r in range(10)} - {run for run, *_ in rows}  # a silent run
    [row] = [
        line.split(",")[1:]
        for line in (out / "detectors.csv").read_text().splitlines()
        if line.startswith("OOB+lfr,")
    ]
    capsys.readouterr()
    argv = ["score-detectors", str(alarms), "--runs", "10", "--drift-start", "451"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name} {value}" for name, value in zip(("tdr", "fa", "dod"), row)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "exp.ini", "--runs", "0"],
        ["score-detectors", "alarms.csv", "--drift-start", "1501", "--runs", "0"],
    ],
    ids=["run", "score-detectors"],
)
def test_cli_runs_flag_errors_name_the_flag(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, CLI_CONFIG)
    (tmp_path / "alarms.csv").write_text("run,seed,t,verdict\n0,3,1600,drift\n")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "argument --runs: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["0", "-5"])
def test_cli_drift_start_flag_errors_name_the_flag(start, tmp_path, capsys):
    alarms = tmp_path / "alarms.csv"
    alarms.write_text("run,seed,t,verdict\n0,3,1600,drift\n")
    with pytest.raises(SystemExit) as stop:
        main(["score-detectors", str(alarms), "--drift-start", start, "--runs", "1"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --drift-start: must be >= 1, got {start}" in err


def test_cli_seed_flag_errors_name_the_flag(tmp_path, capsys):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as stop:
        main(["generate", "sine1-py", "--seed", "-1", "--out", str(out)])
    assert stop.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "nope", "--out", "x.csv"],
        ["run", "does-not-exist.ini"],
        ["report", "no-such-dir"],
        ["run", "duplicate-key.ini"],
        ["run", "no-section.ini"],
        ["run", "negative-seed.ini"],
        ["run", "bad-lfr-decay.ini"],
        ["run", "short-auc-window.ini"],
        ["run", "warm-up-past-drift.ini"],
        ["run", "drift-after-stream.ini"],
        ["run", "sea-new-invert.ini"],
        ["run", "skew-feature-out-of-range.ini"],
        ["run", "skew-split-out-of-range.ini"],
        ["run", "nan-auc-threshold.ini"],
        ["run", "nan-ddm-drift-scale.ini"],
        ["score-detectors", "alarm-run-out-of-range.csv", "--drift-start", "1501",
         "--runs", "2"],
        ["score-detectors", "alarm-not-utf8.csv", "--drift-start", "1501",
         "--runs", "2"],
        ["run", "."],  # a directory: it exists, but is no file to read
    ],
)
def test_cli_errors_exit_nonzero(argv, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(engine, "StreamGenerator", refuse)
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_CONFIGS.items():
        # surrogate escapes stand for bytes that are not UTF-8
        (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if argv[1] in BAD_CONFIG_MESSAGES:
        assert BAD_CONFIG_MESSAGES[argv[1]] in err


def test_cli_lets_a_key_error_from_a_command_propagate(monkeypatch):
    # only expected errors become exit status 2; a KeyError from a bug
    # inside a command must surface with its traceback
    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_report", broken)
    with pytest.raises(KeyError):
        main(["report", "results"])


def test_cli_lets_a_runtime_error_from_a_command_propagate(monkeypatch):
    # of the RuntimeErrors, only an infeasible stream concept is expected
    def broken(args):
        raise RuntimeError("x")

    monkeypatch.setattr(cli, "cmd_report", broken)
    with pytest.raises(RuntimeError):
        main(["report", "results"])


def test_cli_run_names_an_infeasible_concept(tmp_path, capsys):
    # x1 + x2 <= 0.0001 holds on about 5e-11 of SEA's [0, 10)^2, so no
    # positive example is found
    cfg_path = write_config(
        tmp_path,
        "[experiment]\nruns = 1\nmembers = 1\n"
        "[stream]\ngenerator = sea\nthreshold = 0.0001\n"
        "[pipeline A]\nlearner = OB\n",
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no example of class 1 found in 10000 attempts")
    assert "ConceptSpec(generator='SEA'" in err


BAD_CONFIGS = {
    "duplicate-key.ini": "[experiment]\npreset = sine1-py\npreset = sea-py\n",
    "no-section.ini": "preset = sine1-py\n[experiment]\nruns = 1\n",
    "negative-seed.ini": "[experiment]\npreset = sine1-py\nbase_seed = -3\n",
    "bad-lfr-decay.ini": (
        "[experiment]\npreset = sine1-py\nruns = 1\nmembers = 1\n"
        "[pipeline A]\nlearner = OB\ndetector = lfr\ndecay = 1.5\n"
    ),
    "short-auc-window.ini": (
        "[experiment]\npreset = sine1-py\nruns = 1\nmembers = 1\n"
        "[pipeline A]\nlearner = OB\ndetector = pauc-ph\nwindow = 50\nmin_fill = 60\n"
    ),
    "warm-up-past-drift.ini": (
        "[experiment]\nruns = 1\nmembers = 1\nwarm_up = 400\n"
        "[stream]\ngenerator = sine1\ntotal_steps = 600\ndrift_start = 301\n"
        "[pipeline A]\nlearner = OB\n"
    ),
    "drift-after-stream.ini": (
        "[experiment]\nruns = 1\nmembers = 1\n"
        "[stream]\ngenerator = sine1\ntotal_steps = 600\ndrift_start = 601\n"
        "[pipeline A]\nlearner = OB\n"
    ),
    "sea-new-invert.ini": (
        "[experiment]\nruns = 1\nmembers = 1\n"
        "[stream]\ngenerator = sea\nnew_invert = true\n"
        "[pipeline A]\nlearner = OB\n"
    ),
    "skew-feature-out-of-range.ini": (
        "[experiment]\nruns = 1\nmembers = 1\n"
        "[stream]\ngenerator = sine1\nskew = -1:5:0.5:0.9\n"
        "[pipeline A]\nlearner = OB\n"
    ),
    "skew-split-out-of-range.ini": (
        "[experiment]\nruns = 1\nmembers = 1\n"
        "[stream]\ngenerator = sine1\nskew = -1:0:5.0:0.9\n"
        "[pipeline A]\nlearner = OB\n"
    ),
    "nan-auc-threshold.ini": (
        "[experiment]\npreset = sine1-py\nruns = 1\nmembers = 1\n"
        "[pipeline A]\nlearner = OB\ndetector = pauc-ph\nthreshold = nan\n"
    ),
    "nan-ddm-drift-scale.ini": (
        "[experiment]\npreset = sine1-py\nruns = 1\nmembers = 1\n"
        "[pipeline A]\nlearner = OB\ndetector = ddm-oci\ndrift_scale = nan\n"
    ),
    "alarm-run-out-of-range.csv": (
        "run,seed,t,verdict\n0,3,100,drift\n7,99,1600,drift\n"
    ),
    "alarm-not-utf8.csv": (
        "run,seed,t,verdict\n0,3,100,drift\n1,4,\udcff\udcfe,drift\n"
    ),
}
BAD_CONFIG_MESSAGES = {
    "nope": "error: unknown stream preset 'nope'; known presets: sea-pxy,",
    "duplicate-key.ini": "duplicate-key.ini:3: [experiment] preset is set twice",
    "no-section.ini": "no-section.ini:1: 'preset = sine1-py' comes before",
    "negative-seed.ini": "[experiment] base_seed must be >= 0, got -3",
    "bad-lfr-decay.ini": "[pipeline A] decay must be in (0, 1), got 1.5",
    "short-auc-window.ini": "[pipeline A] min_fill must be <= window (50), got 60",
    "warm-up-past-drift.ini": (
        "[experiment] warm_up must be >= 0 and leave a pre-drift step to "
        "average before [stream] drift_start = 301, got 400"
    ),
    "drift-after-stream.ini": (
        "[stream] drift_start + drift_duration must be <= total_steps to leave "
        "a post-drift step to average, got 601 + 0 > 600"
    ),
    "sea-new-invert.ini": "[stream] new_invert is a SINE1 setting",
    "skew-feature-out-of-range.ini": "[stream] skew feature must be in 0 .. 1",
    "skew-split-out-of-range.ini": "[stream] skew split must be in (0, 1.0)",
    "nan-auc-threshold.ini": "[pipeline A] threshold must be finite, got nan",
    "nan-ddm-drift-scale.ini": "[pipeline A] drift_scale must be finite, got nan",
    "alarm-run-out-of-range.csv": (
        "alarm-run-out-of-range.csv:3: run 7 is not one of the 2 runs 0 .. 1"
    ),
    "alarm-not-utf8.csv": (
        "alarm-not-utf8.csv:3: not UTF-8 text (invalid start byte)"
    ),
    # not "config file not found", which is kept for a missing file
    ".": "error: cannot read config file .: Is a directory",
}


@pytest.mark.parametrize(
    "table, text, message",
    [
        ("alarms", "run,seed,t,verdict\n0,3,1600,drfit\n", ":2: unknown verdict"),
        ("runs", "", ":1: empty file"),
        ("runs", lambda lines: lines[:-1], ": 1 rows for 2 configured runs"),
        (
            "alarms",
            "run,seed,t,verdict\n0,3,1600,drift\n7,99,1600,drift\n",
            ":3: run 7 is not one of the 2 configured runs 0 .. 1",
        ),
        (
            "alarms",
            "run,seed,t,verdict\n1,3,1600,drift\n",
            ":2: run 1 has seed 4, got 3",
        ),
        (
            "runs",
            lambda lines: lines[:2] + ["5,77," + lines[1].split(",", 2)[2]],
            ":3: expected run 1 with seed 4, got run 5 with seed 77",
        ),
        (
            "runs",
            lambda lines: lines[:2] + ["\udcff\udcfe"],
            ":3: not UTF-8 text (invalid start byte)",
        ),
    ],
    ids=["bad-verdict", "empty-runs", "missing-run", "alarm-run-out-of-range",
         "alarm-seed-mismatch", "runs-row-replaced", "runs-not-utf8"],
)
def test_cli_report_names_the_bad_table(table, text, message, tmp_path, capsys):
    cfg_path = write_config(tmp_path, CLI_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    path = out / table / "OOB+auc.csv"
    if callable(text):  # an edit of the table's lines
        text = "\n".join(text(path.read_text().splitlines())) + "\n"
    # surrogate escapes stand for bytes that are not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["report", str(out)]) == 2
    assert f"{path}{message}" in capsys.readouterr().err


def test_importing_the_harness_does_not_load_scipy():
    # scipy is a test-only dependency: the program must run without it
    src = str(Path(skewstream.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, skewstream.harness; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_every_export_resolves_once():
    names = skewstream.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(skewstream, n)] == []
