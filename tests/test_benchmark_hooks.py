"""The program names that the benchmark in ``perfbench/`` wraps must exist.

The benchmark times each layer by wrapping the calls listed in
``perfbench/spans.py`` (``TARGETS``) and probes the host's speed from inside
``StreamGenerator.next_example``. It skips a name it cannot find instead of
failing, so a renamed call would silently drop that layer's spans, or leave
``experiment_s`` scaled by the probes taken between repetitions only. These
tests read ``spans.py`` without changing it and resolve every name on the
source tree, and check that a run still makes the calls that some of the
spans time.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from skewstream import detectors, harness
from skewstream.detectors import BoundTable
from skewstream.harness import ExperimentConfig, PipelineSpec
from skewstream.learners import MlpBank
from skewstream.presets import preset_schedule
from skewstream.streams import StreamGenerator

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), name


def test_speed_probe_hook_resolves():
    assert callable(getattr(StreamGenerator, "next_example", None))


def test_train_rounds_takes_ks_third():
    # the benchmark's round statistics read ks from the positional arguments
    params = list(inspect.signature(MlpBank.train_rounds).parameters)
    assert params[:4] == ["self", "x", "label", "ks"]


def test_a_detect_run_calls_the_bound_lookup_and_the_auc(monkeypatch):
    # the spans detectors.bound_table.bounds and metrics.prequential_auc
    # wrap these two names: a catch-up that stopped calling them would leave
    # both layers reading 0
    calls = {"bounds": 0, "auc": 0}

    def bounds(self, p, n, _bounds=BoundTable.bounds):
        calls["bounds"] += 1
        return _bounds(self, p, n)

    def prequential_auc(window, _auc=detectors.prequential_auc):
        calls["auc"] += 1
        return _auc(window)

    monkeypatch.setattr(BoundTable, "bounds", bounds)
    monkeypatch.setattr(detectors, "prequential_auc", prequential_auc)
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
    harness._run_once(cfg, 0)
    assert calls["bounds"] > 100 and calls["auc"] > 100, calls
