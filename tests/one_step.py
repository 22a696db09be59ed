"""The engine driven one piece at a time, for tests: a detector fed one
observation, and one run in this process.

The engine hands a detector a stretch of observations at once
(`DriftDetector.catch_up`); `step` is a stretch of one, with the verdict on
that observation. A run steps the detectors it is handed; `run_once` hands
it fresh ones, built as `harness.run_experiment` builds them.
"""
from __future__ import annotations

from skewstream import engine, harness
from skewstream.detectors import Verdict


def step(det, truth, predicted, score=None, minority=None) -> Verdict:
    """``det``'s verdict on one observation: `catch_up` on a stretch of one."""
    verdicts = det.catch_up((truth,), (predicted,), (score,), (minority,))
    return verdicts[0][1] if verdicts else Verdict.NORMAL


def run_once(cfg, r: int) -> list[engine.RunRecord]:
    """Run ``r`` of ``cfg`` in this process, one record per pipeline, on
    detectors from `harness.build_detector` (looked up at each call, so a
    test's patch of it applies)."""
    return engine._run_once(cfg, r, [harness.build_detector(p) for p in cfg.pipelines])
