"""Real-time class-size tracking for imbalanced streams.

A ClassSizeTracker maintains time-decayed per-class size estimates
w_k <- theta * w_k + (1 - theta) * [label = k], which sum to 1 and converge to
the current class priors. `ClassSizeTracker.track` steps them through a
stretch of labels in one Python-float loop and hands back the sizes after each
label as arrays; `designate` then names each step's minority from them, as
array code. A planned block of steps reads its minorities and its ensembles'
resampling rates from those arrays (`OnlineEnsemble.sampling_rates`).
"""
from __future__ import annotations

import numpy as np

from .labels import NEG, POS


def designate(w_pos: np.ndarray, w_neg: np.ndarray, threshold: float) -> np.ndarray:
    """Each step's minority from its class sizes.

    The smaller class (POS on a tie) is the minority where the size ratio
    w_max / w_min exceeds ``threshold`` (inf where the smaller size is 0);
    elsewhere the stream looks balanced and minority is 0. The majority,
    where there is one, is ``-minority``. A float64 division rounds as a
    Python float division does, so each element has the bits of a
    step-by-step designation.
    """
    pos_lower = w_pos <= w_neg
    lo = np.where(pos_lower, w_pos, w_neg)
    hi = np.where(pos_lower, w_neg, w_pos)
    ratio = np.divide(hi, lo, out=np.full(len(lo), np.inf), where=lo > 0.0)
    return np.where(ratio > threshold, np.where(pos_lower, POS, NEG), 0)


class ClassSizeTracker:
    """Time-decayed class sizes, which `designate` reads."""

    def __init__(self, theta: float = 0.9):
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {theta}")
        self.theta = theta
        self.w = {POS: 0.5, NEG: 0.5}

    def track(self, labels) -> tuple[np.ndarray, np.ndarray]:
        """Update on each of ``labels`` in turn; returns the sizes
        ``(w_pos, w_neg)`` after each, as arrays. An unknown label is
        rejected before any update."""
        th = self.theta
        gain = 1.0 - th
        w_pos, w_neg = self.w[POS], self.w[NEG]
        pos, neg = [], []
        for label in labels:
            # the other class decays by theta alone: adding 0.0 to a size,
            # which is never negative, would leave its bits as they are
            if label == POS:
                w_pos = th * w_pos + gain
                w_neg = th * w_neg
            elif label == NEG:
                w_pos = th * w_pos
                w_neg = th * w_neg + gain
            else:
                raise ValueError(f"unknown class label {label!r}")
            pos.append(w_pos)
            neg.append(w_neg)
        self.w = {POS: w_pos, NEG: w_neg}
        return np.array(pos, dtype=float), np.array(neg, dtype=float)
