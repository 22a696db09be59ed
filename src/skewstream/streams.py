"""Synthetic two-class streams with controlled concept drift.

Two generators are provided:

* SINE1 — features (x, y) uniform on [0, 1]^2, positive class below the curve
  y = sin(x) (points on or above it are negative). The positive region can be
  flipped to build boundary-swap drifts.
* SEA   — features (x1, x2, x3) uniform on [0, 10]^3, positive class where
  x1 + x2 <= threshold; x3 is irrelevant noise.

Class priors are enforced by label-first sampling: the label is drawn from the
concept's prior, then features are rejection-sampled until they satisfy the
label rule. Optional conditional-skew rules reshape one class's feature
density (e.g. "negatives fall at x < 0.5 with probability 0.9") by first
drawing the side of the split, then sampling within it.

Drift is a per-step Bernoulli choice between the old and the new concept whose
new-concept probability ramps linearly from 0 to 1 across the transition
window (a step function for abrupt drift).

An example is a pair ``(x, label)``: ``x`` a float64 array of the features
and ``label`` +1 or -1, the form the ensembles and detectors consume.
`dump_stream` writes such pairs as CSV, one example per line,
`t,f1,...,fn,label` after a header row (what ``skewstream generate`` writes).
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .labels import NEG, POS

SINE1 = "SINE1"
SEA = "SEA"

_REJECTION_CAP = 10_000
_BLOCK = 512  # doubles drawn per numpy call
_DEFAULT_THRESHOLD = 7.0  # SEA's x1 + x2 boundary


class StreamExhausted(Exception):
    """Raised when a generator is asked for examples past total_steps."""


class InfeasibleConceptError(RuntimeError):
    """Rejection sampling failed to satisfy a concept's constraints."""


def sine1_label(x: float, y: float) -> int:
    """+1 iff the point lies strictly below y = sin(x)."""
    return POS if y < math.sin(x) else NEG


def sea_label(x1: float, x2: float, threshold: float) -> int:
    """+1 iff x1 + x2 <= threshold (boundary inclusive)."""
    return POS if x1 + x2 <= threshold else NEG


@dataclass(frozen=True)
class Skew:
    """Conditional feature-density rule for one class.

    With probability ``prob`` an example of class ``label`` has
    features[feature] < split; otherwise it falls on or above the split.
    """

    label: int
    feature: int
    split: float
    prob: float

    def __post_init__(self) -> None:
        if self.label not in (POS, NEG):
            raise ValueError(f"unknown class label {self.label!r}")
        if not 0.0 < self.prob < 1.0:
            raise ValueError(f"skew probability must be in (0, 1), got {self.prob}")


@dataclass(frozen=True)
class ConceptSpec:
    """One stationary concept: generator geometry, prior and optional skew.

    Every field must take effect: ``invert`` is SINE1's and ``threshold``
    SEA's (the other generator only takes the default), and a skew must
    split a feature of the concept strictly inside its range. A rejected
    value's message starts with the name of its field.
    """

    generator: str
    positive_prior: float = 0.5
    threshold: float = _DEFAULT_THRESHOLD  # SEA boundary
    invert: bool = False  # SINE1 only: positive region becomes y >= sin(x)
    skew: Skew | None = None

    def __post_init__(self) -> None:
        if self.generator not in (SINE1, SEA):
            raise ValueError(f"unknown generator {self.generator!r}")
        if not 0.0 < self.positive_prior < 1.0:
            raise ValueError(
                f"positive_prior must be in (0, 1), got {self.positive_prior}"
            )
        if self.generator == SEA and not 0.0 < self.threshold < 20.0:
            raise ValueError(
                "threshold must be in (0, 20) to keep both SEA classes "
                f"reachable, got {self.threshold}"
            )
        if self.generator != SEA and self.threshold != _DEFAULT_THRESHOLD:
            raise ValueError(
                f"threshold is a {SEA} setting; {self.generator} only takes "
                f"the default {_DEFAULT_THRESHOLD!r}, got {self.threshold!r}"
            )
        if self.generator != SINE1 and self.invert:
            raise ValueError(
                f"invert is a {SINE1} setting; {self.generator} only takes false"
            )
        skew = self.skew
        if skew is not None and not 0 <= skew.feature < self.n_features:
            raise ValueError(
                f"skew feature must be in 0 .. {self.n_features - 1} for "
                f"{self.generator}, got {skew.feature}"
            )
        if skew is not None and not 0.0 < skew.split < self.feature_high:
            raise ValueError(
                f"skew split must be in (0, {self.feature_high!r}) for "
                f"{self.generator}, got {skew.split!r}"
            )

    @property
    def n_features(self) -> int:
        return 2 if self.generator == SINE1 else 3

    @property
    def feature_high(self) -> float:
        return 1.0 if self.generator == SINE1 else 10.0

    def label_of(self, features) -> int:
        if self.generator == SINE1:
            raw = sine1_label(features[0], features[1])
            return -raw if self.invert else raw
        return sea_label(features[0], features[1], self.threshold)


@dataclass(frozen=True)
class DriftSchedule:
    """Old/new concept pair plus the stream's length and the transition's
    timing, in the order a config lock lists them (keyword-only)."""

    old: ConceptSpec
    new: ConceptSpec
    _: KW_ONLY
    total_steps: int = 3000
    drift_start: int = 1501
    drift_duration: int = 0  # 0 = abrupt

    def __post_init__(self) -> None:
        if self.drift_duration < 0:
            raise ValueError("drift_duration must be >= 0")
        if self.drift_start < 1 or self.total_steps < 1:
            raise ValueError("drift_start and total_steps must be >= 1")
        if self.drift_start + self.drift_duration > self.total_steps + 1:
            raise ValueError(
                "drift_start + drift_duration must be <= total_steps + 1 (the "
                "drift must complete within the stream), got "
                f"{self.drift_start} + {self.drift_duration} > "
                f"{self.total_steps} + 1"
            )
        if self.old.n_features != self.new.n_features:
            raise ValueError("old and new concepts must share a feature space")

    @property
    def drift_end(self) -> int:
        """First step at which only the new concept is sampled."""
        return self.drift_start + self.drift_duration


def mixture_weight(t: int, schedule: DriftSchedule) -> float:
    """Probability of drawing from the new concept at step t."""
    if t < schedule.drift_start:
        return 0.0
    if schedule.drift_duration == 0:
        return 1.0
    return min(1.0, (t - schedule.drift_start) / schedule.drift_duration)


def stationary_schedule(concept: ConceptSpec, total_steps: int) -> DriftSchedule:
    """A drift-free schedule: the concept holds for the whole stream."""
    return DriftSchedule(
        old=concept,
        new=concept,
        drift_start=total_steps + 1,
        drift_duration=0,
        total_steps=total_steps,
    )


class StreamGenerator:
    """Seeded example source following a drift schedule.

    The same (seed, schedule) pair always reproduces the identical example
    sequence. `next_example` returns step ``t``'s ``(x, label)`` pair and
    iterating yields exactly total_steps of them; calling next_example past
    the end raises StreamExhausted.

    Every draw is one double of ``default_rng(seed)``, taken in order from
    blocks of `_BLOCK` drawn at once and used as Python floats: a
    ``rng.random()`` call becomes the next double ``u`` and a
    ``rng.uniform(lo, hi)`` call becomes ``lo + (hi - lo) * u``, numpy's own
    formula, so the examples are exactly those of drawing one value per
    call, at a fraction of the numpy calls.
    """

    def __init__(self, schedule: DriftSchedule, seed):
        self.schedule = schedule
        self._next_double = _doubles(np.random.default_rng(seed)).__next__
        self.t = 0

    def next_example(self) -> tuple[np.ndarray, int]:
        """The next step's ``(x, label)``; ``x`` is a fresh float64 array."""
        if self.t >= self.schedule.total_steps:
            raise StreamExhausted(f"stream ended at step {self.schedule.total_steps}")
        self.t += 1
        w = mixture_weight(self.t, self.schedule)
        if w >= 1.0:
            concept = self.schedule.new
        elif w <= 0.0:
            concept = self.schedule.old
        else:
            concept = (
                self.schedule.new if self._next_double() < w else self.schedule.old
            )
        feats, label = self._sample(concept)
        return np.array(feats), label

    def __iter__(self):
        while self.t < self.schedule.total_steps:
            yield self.next_example()

    def _sample(self, concept: ConceptSpec) -> tuple[list[float], int]:
        u = self._next_double
        high = concept.feature_high
        label = POS if u() < concept.positive_prior else NEG

        low_side = None
        skew = concept.skew
        if skew is not None and skew.label == label:
            low_side = u() < skew.prob

        n = concept.n_features
        for _ in range(_REJECTION_CAP):
            # uniform(0, high) per feature: 0.0 + (high - 0.0) * u == high * u
            feats = [high * u() for _ in range(n)]
            if low_side is not None:
                # sample the constrained feature directly within its side
                if low_side:  # uniform(0, split), as above
                    feats[skew.feature] = skew.split * u()
                else:
                    feats[skew.feature] = skew.split + (high - skew.split) * u()
            if concept.label_of(feats) == label:
                return feats, label
        raise InfeasibleConceptError(
            f"no example of class {label} found in {_REJECTION_CAP} attempts "
            f"for {concept!r}"
        )


def _doubles(rng: np.random.Generator):
    """The doubles of ``rng.random()`` calls, in order, drawn a block at a time."""
    while True:
        yield from rng.random(_BLOCK).tolist()


def dump_stream(examples: Iterable[tuple[np.ndarray, int]], path) -> int:
    """Write ``(x, label)`` pairs as `t,f1,...,fn,label` CSV with a header,
    numbering the rows from t = 1; returns the row count.

    Features are written with ``repr``, so parsing them with ``float`` gives
    back the generated values exactly. No field needs quoting (ints, ``repr``
    floats and the header's names), so the rows are joined by hand, with the
    bytes the `csv` module's default dialect writes, and the module is not
    imported.
    """
    path = Path(path)
    t = 0
    with path.open("w", newline="", encoding="utf-8") as fh:
        for t, (x, label) in enumerate(examples, start=1):
            if t == 1:
                fh.write(",".join(["t", *(f"f{j + 1}" for j in range(len(x))), "label"]))
                fh.write("\r\n")
            fh.write(",".join([str(t), *map(repr, x.tolist()), str(label)]) + "\r\n")
        if t == 0:  # no examples at all: still emit a minimal header
            fh.write("t,label\r\n")
    return t
