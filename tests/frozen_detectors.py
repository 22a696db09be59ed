"""Frozen reference copies of the detectors' catch-up loops, for the tests.

These are `FourRatesDetector.catch_up`, `AucDropDetector.catch_up` and
`ScoreWindow.push` in their plain form, kept apart from the package the way
`frozen_kernel` keeps the MLP kernel: the four rates update through a loop
over (rate, hit) pairs with each hit computed from its own class, and the
window moves its Mann-Whitney count by two bisections per score. The
package's loops must give these verdicts, ``checks`` and states exactly. The
only package code they call is the bound lookup, `BoundTable.bounds`, which
has an oracle test of its own.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque

from skewstream.detectors import Verdict
from skewstream.labels import NEG, POS

_TPR, _TNR, _PPV, _NPV = 0, 1, 2, 3


class FrozenFourRates:
    """`FourRatesDetector`'s state and catch-up, on a given bound table."""

    def __init__(self, table, decay=0.99, min_updates=20, auto_rearm=True):
        self.table = table
        self.decay = decay
        self.min_updates = int(min_updates)
        self.auto_rearm = bool(auto_rearm)
        self.checks = 0
        self.reset()

    def reset(self):
        self.rates = [0.5, 0.5, 0.5, 0.5]
        self.successes = [0, 0, 0, 0]
        self.counts = [0, 0, 0, 0]

    def catch_up(self, truths, preds, scores, minorities):
        verdicts = []
        decay = self.decay
        gain = 1.0 - decay
        rates, successes, counts = self.rates, self.successes, self.counts
        for i, (truth, predicted) in enumerate(zip(truths, preds)):
            if truth == POS:
                row, row_hit = _TPR, predicted == POS
            else:
                row, row_hit = _TNR, predicted == NEG
            if predicted == POS:
                col, col_hit = _PPV, truth == POS
            else:
                col, col_hit = _NPV, truth == NEG
            for idx, hit in ((row, row_hit), (col, col_hit)):
                rates[idx] = decay * rates[idx] + gain * float(hit)
                successes[idx] += int(hit)
                counts[idx] += 1
            verdict = Verdict.NORMAL
            for idx in (row, col):
                n, hits = counts[idx], successes[idx]
                if n < self.min_updates or hits == 0 or hits == n:
                    continue
                self.checks += 1
                p_hat = (hits + 0.5) / (n + 1.0)
                lo_d, lo_w, hi_w, hi_d = self.table.bounds(p_hat, n)
                d = rates[idx] - p_hat
                if d < lo_d or d > hi_d:
                    if self.auto_rearm:
                        self.reset()
                    verdicts.append((i, Verdict.DRIFT))
                    return verdicts
                if d < lo_w or d > hi_w:
                    verdict = Verdict.WARNING
            if verdict is Verdict.WARNING:
                verdicts.append((i, verdict))
        return verdicts


class FrozenScoreWindow:
    """`ScoreWindow`: a FIFO of (score, positive) pairs, each class's scores
    sorted, and the doubled Mann-Whitney count 2U."""

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._fifo = deque()
        self._pos = []
        self._neg = []
        self._u2 = 0

    def _pair_count(self, score, positive):
        if positive:
            neg = self._neg
            return bisect_left(neg, score) + bisect_right(neg, score)
        pos = self._pos
        return 2 * len(pos) - bisect_left(pos, score) - bisect_right(pos, score)

    def push(self, score, label):
        score = float(score)
        if score != score:
            raise ValueError("score must not be NaN")
        if len(self._fifo) == self.capacity:
            old, old_positive = self._fifo.popleft()
            mine = self._pos if old_positive else self._neg
            del mine[bisect_left(mine, old)]
            self._u2 -= self._pair_count(old, old_positive)
        positive = label == POS
        self._fifo.append((score, positive))
        insort(self._pos if positive else self._neg, score)
        self._u2 += self._pair_count(score, positive)

    def auc(self):
        n_pos, n_neg = len(self._pos), len(self._neg)
        if n_pos == 0 or n_neg == 0:
            return 0.5
        return (self._u2 / 2) / (n_pos * n_neg)


class FrozenAucDrop:
    """`AucDropDetector`'s state and catch-up."""

    def __init__(self, window=500, delta=0.10, threshold=20.0, min_fill=100):
        self.delta = delta
        self.threshold = threshold
        self.min_fill = int(min_fill)
        self.window = FrozenScoreWindow(window)
        self.reset()

    def reset(self):
        w = self.window
        w._fifo.clear()
        w._pos.clear()
        w._neg.clear()
        w._u2 = 0
        self.m = 0.0
        self.m_min = 0.0
        self.auc_mean = 0.0
        self.auc_count = 0

    def catch_up(self, truths, preds, scores, minorities):
        verdicts = []
        for i, (truth, score) in enumerate(zip(truths, scores)):
            if score is None:
                raise ValueError("AucDropDetector needs the classifier score")
            self.window.push(score, truth)
            if len(self.window._fifo) < self.min_fill:
                continue
            auc = self.window.auc()
            self.auc_count += 1
            self.auc_mean += (auc - self.auc_mean) / self.auc_count
            self.m += self.auc_mean - auc - self.delta
            if self.m < self.m_min:
                self.m_min = self.m
            gap = self.m - self.m_min
            if gap > self.threshold:
                self.reset()
                verdicts.append((i, Verdict.DRIFT))
                return verdicts
            if gap > self.threshold / 2.0:
                verdicts.append((i, Verdict.WARNING))
        return verdicts
