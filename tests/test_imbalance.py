"""Class-size tracker tests: decayed-size recursion oracle and designation.

A tracker steps through labels with `ClassSizeTracker.track`, a stretch at a
time, and `designate` names each step's minority from the sizes it hands
back.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from skewstream.imbalance import ClassSizeTracker, designate
from skewstream.labels import NEG, POS


def brute_sizes(labels, theta):
    """Closed-form decayed size: theta^t * 0.5 + (1-theta) * sum theta^age."""
    t = len(labels)
    out = {}
    for k in (POS, NEG):
        w = theta**t * 0.5
        for i, lab in enumerate(labels):
            if lab == k:
                w += (1.0 - theta) * theta ** (t - 1 - i)
        out[k] = w
    return out


def test_single_update_direct_formula():
    tr = ClassSizeTracker(theta=0.9)
    tr.track([POS])
    assert tr.w[POS] == pytest.approx(0.55, abs=1e-15)
    assert tr.w[NEG] == pytest.approx(0.45, abs=1e-15)


def test_geometric_convergence_to_pure_class():
    tr = ClassSizeTracker(theta=0.9)
    tr.track([POS] * 200)
    assert abs(tr.w[POS] - 1.0) < 1e-9
    assert abs(tr.w[NEG]) < 1e-9


def test_alternating_labels_two_cycle():
    tr = ClassSizeTracker(theta=0.9)
    tr.track([POS if i % 2 == 0 else NEG for i in range(400)])
    # closed-form 2-cycle fixed points: after a NEG update w_pos = 0.9*a where
    # a = 0.9*w_pos + 0.1, so a = 0.1/(1 - 0.81)
    assert tr.w[POS] == pytest.approx(0.9 * 0.1 / 0.19, abs=1e-9)
    for i in (POS, NEG):
        assert abs(tr.w[i] - 0.5) <= 0.05 + 1e-12  # within (1-theta)/2 of even


def test_matches_brute_force_recursion():
    rng = random.Random(13)
    for _ in range(40):
        theta = rng.uniform(0.5, 0.99)
        labels = [rng.choice((POS, NEG)) for _ in range(rng.randrange(1, 300))]
        tr = ClassSizeTracker(theta=theta)
        # in stretches: each goes on from the sizes the one before left
        cut = rng.randrange(len(labels) + 1)
        tr.track(labels[:cut])
        w_pos, w_neg = tr.track(labels[cut:])
        ref = brute_sizes(labels, theta)
        assert abs(tr.w[POS] - ref[POS]) < 1e-12
        assert abs(tr.w[NEG] - ref[NEG]) < 1e-12
        if cut < len(labels):  # the last sizes handed back are the tracker's
            assert (w_pos[-1], w_neg[-1]) == (tr.w[POS], tr.w[NEG])


def test_sizes_stay_normalized():
    rng = random.Random(17)
    tr = ClassSizeTracker(theta=0.93)
    w_pos, w_neg = tr.track([rng.choice((POS, NEG)) for _ in range(2000)])
    assert len(w_pos) == len(w_neg) == 2000
    assert (abs(w_pos + w_neg - 1.0) < 1e-9).all()
    assert ((0.0 <= w_pos) & (w_pos <= 1.0)).all()


def test_theta_zero_is_one_hot_of_last_label():
    tr = ClassSizeTracker(theta=0.0)
    tr.track([POS])
    assert tr.w == {POS: 1.0, NEG: 0.0}
    w_pos, w_neg = tr.track([NEG, POS, NEG])
    assert tr.w == {POS: 0.0, NEG: 1.0}
    assert w_pos.tolist() == [0.0, 1.0, 0.0] and w_neg.tolist() == [1.0, 0.0, 1.0]


def test_theta_near_one_freezes_sizes():
    tr = ClassSizeTracker(theta=1.0 - 1e-12)
    tr.track([POS])
    assert abs(tr.w[POS] - 0.5) < 1e-11
    assert abs(tr.w[NEG] - 0.5) < 1e-11


def test_unknown_label_rejected():
    tr = ClassSizeTracker()
    tr.track([POS])
    before = dict(tr.w)
    with pytest.raises(ValueError, match="unknown class label 0"):
        tr.track([NEG, POS, 0, NEG])
    assert tr.w == before  # rejected before any update of the stretch
    with pytest.raises(ValueError):
        ClassSizeTracker(theta=1.5)


def minority(w_pos, w_neg, threshold=1.5):
    """`designate` on a stretch of one step."""
    return designate(np.array([w_pos]), np.array([w_neg]), threshold).tolist()[0]


def test_designate_balanced_and_designated():
    assert minority(0.5, 0.5) == 0  # even: ratio 1
    assert minority(0.1, 0.9) == POS
    assert minority(0.9, 0.1) == NEG
    assert minority(0.45, 0.55, threshold=1.5) == 0
    # a size of 0 is an infinite ratio, above any threshold
    assert minority(0.0, 1.0, threshold=1e300) == POS
    assert minority(1.0, 0.0, threshold=1e300) == NEG
    # the ratio must exceed the threshold; at a tie POS is the smaller class
    assert minority(0.25, 0.75, threshold=3.0) == 0
    assert minority(0.25, 0.75, threshold=2.999) == POS
    assert minority(0.5, 0.5, threshold=0.5) == POS


def test_track_hands_over_sizes_that_later_stretches_leave_alone():
    # the arrays a stretch hands back are its own: the next stretch moves
    # the tracker, not them, and designate reads each step's own sizes
    tr = ClassSizeTracker(theta=0.5)
    first = tr.track([NEG])
    assert [a.tolist() for a in first] == [[0.25], [0.75]]
    assert tr.w == {POS: 0.25, NEG: 0.75}
    second = tr.track([POS, POS])
    assert [a.tolist() for a in first] == [[0.25], [0.75]]
    assert [a.tolist() for a in second] == [[0.625, 0.8125], [0.375, 0.1875]]
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    assert designate(*first, 2.0).tolist() == [POS]
    assert designate(*second, 2.0).tolist() == [0, NEG]


def test_long_run_tracks_iid_prior():
    # decayed estimator stationary sd: sqrt(p(1-p)(1-theta)/(1+theta))
    rng = np.random.default_rng(29)
    theta = 0.9
    p = 0.2
    sd = math.sqrt(p * (1 - p) * (1 - theta) / (1 + theta))
    tr = ClassSizeTracker(theta=theta)
    hits = 0
    trials = 200
    for _ in range(trials):
        # well past the transient
        tr.track([POS if rng.random() < p else NEG for _ in range(60)])
        if abs(tr.w[POS] - p) <= 3 * sd:
            hits += 1
    assert hits / trials > 0.95
