"""A detector fed one observation at a time, for tests that step it in a loop.

The engine hands a detector a stretch of observations at once
(`DriftDetector.catch_up`); `step` is a stretch of one, with the verdict on
that observation.
"""
from __future__ import annotations

from skewstream.detectors import Verdict


def step(det, truth, predicted, score=None, minority=None) -> Verdict:
    """``det``'s verdict on one observation: `catch_up` on a stretch of one."""
    verdicts = det.catch_up((truth,), (predicted,), (score,), (minority,))
    return verdicts[0][1] if verdicts else Verdict.NORMAL
