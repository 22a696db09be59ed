"""Real-time class-size tracking for imbalanced streams.

A ClassSizeTracker maintains time-decayed per-class size estimates
w_k <- theta * w_k + (1 - theta) * [label = k], which sum to 1 and converge to
the current class priors. `ClassSizeTracker.status` designates the minority
and majority from them and hands over the sizes with the designation: the one
snapshot that sets the ensembles' resampling rates and the detectors' minority.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .labels import LABELS, NEG, POS


@dataclass(frozen=True)
class ImbalanceStatus:
    """Snapshot of the tracker's designation and the sizes it was made from.

    minority/majority are None while the stream looks balanced (size ratio at
    or below the designation threshold). ratio is w_max / w_min and becomes
    math.inf if the smaller size has decayed to zero. sizes maps each label to
    its size w_k at status time; later updates do not change it.
    """

    minority: int | None
    majority: int | None
    ratio: float
    sizes: dict[int, float]


class ClassSizeTracker:
    """Time-decayed class sizes with minority/majority designation."""

    def __init__(self, theta: float = 0.9):
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {theta}")
        self.theta = theta
        self.w = {POS: 0.5, NEG: 0.5}

    def update(self, label: int) -> None:
        if label not in self.w:
            raise ValueError(f"unknown class label {label!r}")
        th = self.theta
        for k in LABELS:
            self.w[k] = th * self.w[k] + ((1.0 - th) if k == label else 0.0)

    def status(self, threshold: float = 1.5) -> ImbalanceStatus:
        """Designate minority/majority when sizes differ by more than ``threshold``."""
        sizes = {POS: self.w[POS], NEG: self.w[NEG]}
        lo, hi = (POS, NEG) if sizes[POS] <= sizes[NEG] else (NEG, POS)
        ratio = sizes[hi] / sizes[lo] if sizes[lo] > 0.0 else math.inf
        if ratio > threshold:
            return ImbalanceStatus(lo, hi, ratio, sizes)
        return ImbalanceStatus(None, None, ratio, sizes)
