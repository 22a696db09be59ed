"""Class-size tracker tests: decayed-size recursion oracle and designation."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from skewstream.imbalance import ClassSizeTracker
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
    tr.update(POS)
    assert tr.w[POS] == pytest.approx(0.55, abs=1e-15)
    assert tr.w[NEG] == pytest.approx(0.45, abs=1e-15)


def test_geometric_convergence_to_pure_class():
    tr = ClassSizeTracker(theta=0.9)
    for _ in range(200):
        tr.update(POS)
    assert abs(tr.w[POS] - 1.0) < 1e-9
    assert abs(tr.w[NEG]) < 1e-9


def test_alternating_labels_two_cycle():
    tr = ClassSizeTracker(theta=0.9)
    for i in range(400):
        tr.update(POS if i % 2 == 0 else NEG)
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
        for lab in labels:
            tr.update(lab)
        ref = brute_sizes(labels, theta)
        assert abs(tr.w[POS] - ref[POS]) < 1e-12
        assert abs(tr.w[NEG] - ref[NEG]) < 1e-12


def test_sizes_stay_normalized():
    rng = random.Random(17)
    tr = ClassSizeTracker(theta=0.93)
    for _ in range(2000):
        tr.update(rng.choice((POS, NEG)))
        assert abs(tr.w[POS] + tr.w[NEG] - 1.0) < 1e-9
        assert 0.0 <= tr.w[POS] <= 1.0


def test_theta_zero_is_one_hot_of_last_label():
    tr = ClassSizeTracker(theta=0.0)
    tr.update(POS)
    assert tr.w == {POS: 1.0, NEG: 0.0}
    tr.update(NEG)
    assert tr.w == {POS: 0.0, NEG: 1.0}


def test_theta_near_one_freezes_sizes():
    tr = ClassSizeTracker(theta=1.0 - 1e-12)
    tr.update(POS)
    assert abs(tr.w[POS] - 0.5) < 1e-11
    assert abs(tr.w[NEG] - 0.5) < 1e-11


def test_unknown_label_rejected():
    tr = ClassSizeTracker()
    with pytest.raises(ValueError):
        tr.update(0)
    with pytest.raises(ValueError):
        ClassSizeTracker(theta=1.5)


def test_status_balanced_and_designated():
    tr = ClassSizeTracker()
    st = tr.status()
    assert (st.minority, st.majority) == (None, None)
    assert st.ratio == 1.0

    tr.w = {POS: 0.1, NEG: 0.9}
    st = tr.status()
    assert (st.minority, st.majority) == (POS, NEG)
    assert st.ratio == pytest.approx(9.0)

    tr.w = {POS: 0.45, NEG: 0.55}
    st = tr.status(threshold=1.5)
    assert (st.minority, st.majority) == (None, None)

    tr.w = {POS: 0.0, NEG: 1.0}
    st = tr.status()
    assert st.ratio == math.inf
    assert st.minority == POS


def test_status_keeps_the_sizes_it_designated_from():
    tr = ClassSizeTracker(theta=0.5)
    tr.update(NEG)
    first = tr.status()
    sizes = dict(tr.w)
    assert first.sizes == sizes == {POS: 0.25, NEG: 0.75}
    tr.update(POS)
    second = tr.status()
    assert first.sizes == sizes  # a later update leaves an earlier status alone
    assert second.sizes == tr.w != sizes
    assert second.sizes is not first.sizes


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
        for _ in range(60):  # well past the transient
            tr.update(POS if rng.random() < p else NEG)
        if abs(tr.w[POS] - p) <= 3 * sd:
            hits += 1
    assert hits / trials > 0.95
