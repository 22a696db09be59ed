"""The program names that the benchmark in ``perfbench/`` wraps or calls
must exist, and the ones it no longer should must not.

The benchmark times each layer by wrapping the calls listed in
``perfbench/spans.py`` (``TARGETS``) and probes the host's speed from inside
``StreamGenerator.next_example``. It records a name it cannot find as absent
and skips it instead of failing, so a renamed call would silently drop that
layer's spans, or leave ``experiment_s`` scaled by the probes taken between
repetitions only. These tests read ``spans.py`` without changing it and
resolve every name on the source tree, and check that a run still makes the
calls that some of the spans time. ``perfbench/job.py`` also calls some
``harness`` names directly, with no wrapper to skip them: a moved one would
fail every benchmark job, so they are read from ``job.py`` and resolved too.

Some targets name one-step calls that the run engine stopped making when it
moved to planned blocks, and that are since deleted (`RETIRED`). Their spans
would read 0 on every run; with the names gone, the benchmark reports them
as absent instead.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from one_step import run_once
from skewstream import detectors, harness
from skewstream.detectors import BoundTable
from skewstream.harness import ExperimentConfig, PipelineSpec
from skewstream.presets import preset_schedule
from skewstream.streams import StreamGenerator

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the spans of deleted one-step calls: the engine plans a block's class sizes
# with `track` and `designate`, trains it with a `RowSchedule` and hands each
# detector a stretch of steps with `catch_up`
RETIRED = (
    "imbalance.update",
    "imbalance.status",
    "learners.predict",
    "learners.train_one",
    "learners.train_rounds",
    "detectors.recall_drop.step",
    "detectors.four_rates.step",
    "detectors.auc_drop.step",
)


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module, cls, attr, name", TARGETS, ids=[name for *_, name in TARGETS]
)
def test_every_span_target_resolves(module, cls, attr, name):
    # a live target resolves to a callable; a retired one to nothing, so that
    # the benchmark reports its span as absent, not as a 0
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)) is (name not in RETIRED), name


def test_every_harness_name_the_job_calls_resolves():
    job = SPANS.with_name("job.py")
    names = {
        node.attr
        for node in ast.walk(ast.parse(job.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "harness"
    }
    assert {"build_detector", "rebuild_tables", "run_experiment"} <= names
    assert sorted(n for n in names if not callable(getattr(harness, n, None))) == []


def test_speed_probe_hook_resolves():
    assert callable(getattr(StreamGenerator, "next_example", None))


def test_a_detect_run_calls_the_bound_lookup_and_the_auc(monkeypatch):
    # the spans detectors.bound_table.bounds and metrics.prequential_auc
    # wrap these two names: a catch-up that stopped calling them would leave
    # both layers reading 0. The speed probe fires on next_example, which a
    # run calls once per step, for all of its pipelines together
    calls = {"bounds": 0, "auc": 0, "examples": 0}

    def bounds(self, p, n, _bounds=BoundTable.bounds):
        calls["bounds"] += 1
        return _bounds(self, p, n)

    def prequential_auc(window, _auc=detectors.prequential_auc):
        calls["auc"] += 1
        return _auc(window)

    def next_example(self, _next=StreamGenerator.next_example):
        calls["examples"] += 1
        return _next(self)

    monkeypatch.setattr(BoundTable, "bounds", bounds)
    monkeypatch.setattr(detectors, "prequential_auc", prequential_auc)
    monkeypatch.setattr(StreamGenerator, "next_example", next_example)
    schedule = preset_schedule("sine1-py")
    cfg = ExperimentConfig(
        schedule=replace(schedule, total_steps=400, drift_start=201),
        pipelines=[
            PipelineSpec("OOB+lfr", "OOB", "lfr"),
            PipelineSpec("OOB+auc", "OOB", "pauc-ph"),
        ],
        runs=1,
        members=3,
    )
    run_once(cfg, 0)
    assert calls["bounds"] > 100 and calls["auc"] > 100, calls
    assert calls["examples"] == 400, calls
