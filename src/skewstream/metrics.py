"""Statistics for online two-class evaluation.

Provides the time-decayed (fading-factor) confusion cells of a whole
prediction record and the per-class recalls and G-mean computed from them,
prequential AUC over a sliding window of recent scores, and a paired Wilcoxon
signed-rank test used when comparing pipelines across repeated runs.

Degenerate denominators (e.g. recall before any positive example arrived)
yield 0 rather than NaN, so decayed metric curves are well defined from the
first step of a stream.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass

import numpy as np

from .labels import NEG, POS


def _twice_below(scores: list[float], x: float) -> int:
    """2 per entry of the sorted ``scores`` below x, and 1 per entry equal to
    it: ``bisect_left + bisect_right``, with the second search made only
    where x is there."""
    lo = bisect_left(scores, x)
    if lo < len(scores) and scores[lo] == x:
        return lo + bisect_right(scores, x, lo)
    return 2 * lo


class ScoreWindow:
    """Fixed-capacity FIFO of recent (score, label) pairs.

    Alongside the FIFO it keeps each class's scores in a sorted list and the
    window's Mann-Whitney count doubled, 2U: over all (positive, negative)
    pairs, 2 when the positive scores above the negative, 1 on a tie. Each
    push or eviction moves 2U by a bisect count against the other class, so
    the AUC needs no re-ranking, and 2U is an exact integer.
    """

    def __init__(self, capacity: int = 500):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._fifo: deque[tuple[float, bool]] = deque()
        self._pos: list[float] = []
        self._neg: list[float] = []
        self._u2 = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def push(self, score: float, label: int) -> None:
        score = float(score)
        if score != score:
            raise ValueError("score must not be NaN")
        fifo, pos, neg = self._fifo, self._pos, self._neg
        if len(fifo) == self.capacity:
            old, old_positive = fifo.popleft()
            if old_positive:
                del pos[bisect_left(pos, old)]
                self._u2 -= _twice_below(neg, old)
            else:
                del neg[bisect_left(neg, old)]
                self._u2 -= 2 * len(pos) - _twice_below(pos, old)
        if label == POS:
            fifo.append((score, True))
            insort(pos, score)
            self._u2 += _twice_below(neg, score)
        else:
            fifo.append((score, False))
            insort(neg, score)
            self._u2 += 2 * len(pos) - _twice_below(pos, score)

    def clear(self) -> None:
        self._fifo.clear()
        self._pos.clear()
        self._neg.clear()
        self._u2 = 0


def prequential_auc(w: ScoreWindow) -> float:
    """Mann-Whitney statistic over the window.

    Fraction of (positive, negative) pairs whose positive score ranks above
    the negative one, ties counted 0.5. Returns 0.5 while the window lacks one
    of the classes (undefined case).
    """
    n_pos = len(w._pos)
    n_neg = len(w._neg)
    if n_pos == 0 or n_neg == 0:
        return 0.5
    return (w._u2 / 2) / (n_pos * n_neg)


@dataclass(frozen=True)
class WilcoxonResult:
    significant: bool
    statistic: float
    p_value: float
    n: int


class TooFewPairsError(ValueError):
    """Raised when fewer than 6 nonzero paired differences remain."""


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    first = np.concatenate(([True], xs[1:] != xs[:-1]))
    group = np.cumsum(first) - 1
    # ranks (1-based) of each tie group run from starts[g] + 1 to starts[g + 1]
    starts = np.concatenate((np.flatnonzero(first), [x.shape[0]]))
    ranks = np.empty(x.shape[0])
    ranks[order] = 0.5 * (starts[group] + starts[group + 1] + 1)
    return ranks


def _exact_signed_rank_cdf(ranks: np.ndarray, w: float) -> float:
    """P(W+ <= w) under the null, conditioned on the observed |d| mid-ranks.

    Enumerates the null distribution of the positive rank sum by dynamic
    programming over sign assignments. Ranks are doubled so mid-ranks become
    integers; subset counts fit exactly in float64 for n <= 25 (< 2^53).
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        counts[r:] += counts[: total + 1 - r]
    cutoff = int(math.floor(2.0 * w + 1e-9))
    return float(counts[: cutoff + 1].sum()) / float(counts.sum())


def wilcoxon_signed_rank(a, b, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided paired signed-rank test at significance level ``alpha``.

    Zero differences are dropped and ties get mid-ranks. With no nonzero
    differences the sequences are identical and the result is "not
    significant". Between 1 and 5 nonzero differences the test has no power
    and TooFewPairsError is raised. The null distribution is enumerated
    exactly up to n = 25 and approximated normally above.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    d = a - b
    d = d[d != 0.0]
    n = d.shape[0]
    if n == 0:
        return WilcoxonResult(significant=False, statistic=0.0, p_value=1.0, n=0)
    if n < 6:
        raise TooFewPairsError(
            f"need >= 6 nonzero paired differences, got {n}"
        )
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n > 25:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        # tie correction: subtract sum(t^3 - t)/48 over tied groups
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        var -= float((tie_counts**3 - tie_counts).sum()) / 48.0
        z = (w - mu) / math.sqrt(var)
        p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    else:
        p = 2.0 * _exact_signed_rank_cdf(ranks, w)
    p = min(1.0, p)
    return WilcoxonResult(significant=p <= alpha, statistic=w, p_value=p, n=n)


def _decayed_sum(hits: np.ndarray, eta: float) -> np.ndarray:
    """y_t = eta * y_{t-1} + hits_t from y_0 = 0, stepped in order over
    Python floats, so each value is rounded as a stepped update rounds it
    (adding 0.0 leaves the non-negative y unchanged)."""
    y = 0.0
    out = []
    append = out.append
    for hit in hits.tolist():
        y *= eta
        if hit:
            y += 1.0
        append(y)
    return np.array(out, dtype=float)


def decayed_confusion_series(
    truths: np.ndarray, preds: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decayed (tp, fn, fp, tn) trajectories over a whole prediction record.

    At step t every cell is first multiplied by ``eta`` and the cell that
    (truths[t], preds[t]) selects then gains one, from all cells 0 before the
    first step: each value is the sum of eta^age over the steps that hit the
    cell, rounded as that stepped update rounds it.
    """
    truths = np.asarray(truths)
    preds = np.asarray(preds)
    return (
        _decayed_sum((truths == POS) & (preds == POS), eta),
        _decayed_sum((truths == POS) & (preds == NEG), eta),
        _decayed_sum((truths == NEG) & (preds == POS), eta),
        _decayed_sum((truths == NEG) & (preds == NEG), eta),
    )


def decayed_recall_gmean_series(
    truths: np.ndarray, preds: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step decayed (recall_pos, recall_neg, g_mean) arrays."""
    tp, fn, fp, tn = decayed_confusion_series(truths, preds, eta)
    with np.errstate(invalid="ignore", divide="ignore"):
        rp = np.where(tp + fn > 0.0, tp / (tp + fn), 0.0)
        rn = np.where(tn + fp > 0.0, tn / (tn + fp), 0.0)
    return rp, rn, np.sqrt(rp * rn)
