"""Learner tests: MLP gradients and training, Poisson resampling, ensembles.

A single net is a one-row `MlpBank`: ``_forward(bank, x)[1][0]`` is its
(P(+1), P(-1)) and ``train_rounds(x, label, ONE_STEP)`` is one gradient step.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from frozen_kernel import _ref_forward, _ref_init, _ref_train_rounds
from skewstream.imbalance import ClassSizeTracker
from skewstream.labels import NEG, POS
from skewstream.learners import (
    SAMPLERS,
    MlpBank,
    OnlineEnsemble,
    RowSchedule,
    default_hidden_size,
)

PARAMS = ("W1", "b1", "W2", "b2")
ONE_STEP = np.array([1])


def _weights(bank):
    """Copies of the bank's weight arrays, in `PARAMS` order."""
    return [getattr(bank, name).copy() for name in PARAMS]


def _forward(bank, x):
    """Per-row (hidden activations, class probabilities) for one input ``x``,
    as copies of what `forward_in_place` leaves in the bank's buffers."""
    a1, probs = bank.forward_in_place(bank.rows_of(x))
    return a1.copy(), probs.copy()


def _positive_prob(bank, x):
    """The one-row bank's P(+1) for ``x``."""
    return _forward(bank, x)[1][0, 0]


def _slice_params(bank, e, m):
    """Ensemble ``e``'s weights (rows e*m .. e*m+m-1) as one flat vector."""
    rows = slice(e * m, (e + 1) * m)
    return np.concatenate([getattr(bank, n)[rows].ravel() for n in PARAMS])


def _rates(ens, label, tracker, threshold=1.5):
    """Every ensemble's rate for one example of ``label`` at the tracker's
    sizes: `sampling_rates` on a stretch of one step."""
    sizes = np.array([tracker.w[POS]]), np.array([tracker.w[NEG]])
    _, [rates] = ens.sampling_rates([label], *sizes, threshold)
    return rates


def _train(ens, label, tracker):
    """`train_one` on counts drawn for this step alone: a one-step block."""
    [ks] = ens.draw_counts([_rates(ens, label, tracker)])
    ens.train_one(label, ks)


def _loss(bank, x, label):
    """Cross-entropy of ``label`` under the one-row bank."""
    return -math.log(_forward(bank, x)[1][0, 0 if label == POS else 1])


def test_hidden_size_rule():
    assert default_hidden_size(2) == 2  # (2 + 2) / 2
    assert default_hidden_size(3) == 3  # (3 + 2) / 2 rounded half up
    assert default_hidden_size(6) == 4
    assert MlpBank(3, [0]).hidden == 3


def test_predict_is_a_distribution():
    rng = np.random.default_rng(0)
    bank = MlpBank(4, [9])
    for _ in range(50):
        p_pos, p_neg = _forward(bank, rng.uniform(0, 1, 4))[1][0]
        assert 0.0 <= p_pos <= 1.0 and 0.0 <= p_neg <= 1.0
        assert p_pos + p_neg == pytest.approx(1.0, abs=1e-12)


def test_zero_learning_rate_leaves_weights_unchanged():
    bank = MlpBank(2, [3], lr=0.0)
    before = _weights(bank)
    for _ in range(20):
        bank.train_rounds(np.array([0.2, 0.7]), POS, ONE_STEP)
    for name, b in zip(PARAMS, before):
        assert np.array_equal(getattr(bank, name), b), name


def test_predict_has_no_side_effects():
    bank = MlpBank(2, [5])
    before = _weights(bank)
    for _ in range(10):
        _forward(bank, np.array([0.5, 0.5]))
    for name, b in zip(PARAMS, before):
        assert np.array_equal(getattr(bank, name), b), name


def test_gradient_matches_central_differences():
    # at lr 1, one training step moves the weights by minus the gradient
    h = 1e-5
    for seed in range(3):
        rng = np.random.default_rng(seed)
        bank = MlpBank(3, [seed], lr=1.0)
        x = rng.uniform(0, 1, 3)
        y = POS if seed % 2 else NEG
        base = _weights(bank)
        bank.train_rounds(x, y, ONE_STEP)
        analytic = np.concatenate(
            [(b - getattr(bank, name)).ravel() for name, b in zip(PARAMS, base)]
        )
        for name, b in zip(PARAMS, base):
            getattr(bank, name)[...] = b
        coords = [(k, i) for k, b in enumerate(base) for i in range(b.size)]
        for idx in rng.choice(len(coords), size=8, replace=False):
            k, i = coords[idx]
            w, v = getattr(bank, PARAMS[k]), base[k].flat[i]
            w.flat[i] = v + h
            up = _loss(bank, x, y)
            w.flat[i] = v - h
            down = _loss(bank, x, y)
            w.flat[i] = v
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(analytic[idx]), 1e-8)
            assert abs(numeric - analytic[idx]) / denom < 1e-4


def test_learns_separable_blobs():
    rng = np.random.default_rng(8)
    bank = MlpBank(2, [8])
    xs, ys = [], []
    for _ in range(1500):
        if rng.random() < 0.5:
            x, y = rng.normal([0.25, 0.25], 0.08), POS
        else:
            x, y = rng.normal([0.75, 0.75], 0.08), NEG
        bank.train_rounds(x, y, ONE_STEP)
        xs.append(x)
        ys.append(y)
    recent = list(zip(xs[-500:], ys[-500:]))
    correct = sum(
        (_positive_prob(bank, x) >= 0.5) == (y == POS) for x, y in recent
    )
    assert correct / len(recent) > 0.95


def test_training_reduces_loss_on_average():
    rng = np.random.default_rng(21)
    bank = MlpBank(2, [21])
    drops = 0
    trials = 200
    for _ in range(trials):
        x = rng.uniform(0, 1, 2)
        y = POS if rng.random() < 0.5 else NEG
        before = _loss(bank, x, y)
        bank.train_rounds(x, y, ONE_STEP)
        drops += _loss(bank, x, y) < before
    assert drops / trials > 0.9


# ---------------------------------------------------------------------------
# Poisson sampling
# ---------------------------------------------------------------------------


def test_balanced_tracker_degenerates_to_plain_bagging():
    tracker = ClassSizeTracker()  # starts perfectly even
    for sampler in ("OB", "OOB", "UOB"):
        ens = OnlineEnsemble(2, samplers=(sampler,), n_members=3, seed=0)
        assert _rates(ens, POS, tracker).tolist() == [1.0]
        assert _rates(ens, NEG, tracker).tolist() == [1.0]
    # and k ~ Poisson(1): chi-square over 10,000 draws at alpha = 0.01
    rng = np.random.default_rng(3)
    draws = rng.poisson(1.0, 10_000)
    kmax = 6
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    pmf = stats.poisson.pmf(np.arange(kmax), 1.0)
    expected = np.append(pmf, 1.0 - pmf.sum()) * draws.size
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_adaptive_rates_match_size_ratios():
    tracker = ClassSizeTracker()
    tracker.w = {POS: 0.1, NEG: 0.9}
    oob = OnlineEnsemble(2, samplers=("OOB",), n_members=2, seed=0)
    assert _rates(oob, POS, tracker) == pytest.approx([9.0])
    assert _rates(oob, NEG, tracker) == pytest.approx([1.0])
    uob = OnlineEnsemble(2, samplers=("UOB",), n_members=2, seed=0)
    assert _rates(uob, NEG, tracker) == pytest.approx([1.0 / 9.0])
    assert _rates(uob, POS, tracker) == pytest.approx([1.0])
    ob = OnlineEnsemble(2, samplers=("OB",), n_members=2, seed=0)
    assert _rates(ob, POS, tracker).tolist() == _rates(ob, NEG, tracker).tolist() == [1.0]
    with pytest.raises(ValueError):
        OnlineEnsemble(2, samplers=("SMOTE",))


def test_rates_come_from_the_sizes_at_status_time():
    tracker = ClassSizeTracker(theta=0.8)
    for label in (NEG, NEG, POS, NEG, NEG, NEG):
        tracker.update(label)
    status = tracker.status()
    w = dict(tracker.w)
    for label in (POS, POS, POS):  # later updates move the tracker, not status
        tracker.update(label)
    assert (status.minority, status.majority) == (POS, NEG)
    ens = OnlineEnsemble(2, samplers=("OB", "OOB", "UOB"), n_members=2, seed=0)
    for label in (POS, NEG):
        minority, rates = ens.sampling_rates(
            [label], np.array([status.sizes[POS]]), np.array([status.sizes[NEG]]), 1.5
        )
        assert minority.tolist() == [status.minority]
        assert rates.tolist() == [[1.0, w[NEG] / w[label], w[POS] / w[label]]]


def reference_plan(labels, theta, threshold, samplers, w_pos=0.5, w_neg=0.5):
    """Each step's sizes, minority (0 for none) and rates, made step by step
    with Python floats: the decayed sizes after the label, the smaller class
    (POS on a tie) as minority where w_max / w_min exceeds ``threshold``, and
    rate 1 for OB, w_max / w_label for OOB and w_min / w_label for UOB, 1 for
    all while no minority is designated. The oracle of the planned arrays."""
    w = {POS: w_pos, NEG: w_neg}
    sizes, minorities, rates = [], [], []
    for label in labels:
        for k in (POS, NEG):
            w[k] = theta * w[k] + ((1.0 - theta) if k == label else 0.0)
        lo, hi = (POS, NEG) if w[POS] <= w[NEG] else (NEG, POS)
        ratio = w[hi] / w[lo] if w[lo] > 0.0 else math.inf
        designated = ratio > threshold
        rate = {
            "OB": 1.0,
            "OOB": w[hi] / w[label] if designated else 1.0,
            "UOB": w[lo] / w[label] if designated else 1.0,
        }
        sizes.append((w[POS], w[NEG]))
        minorities.append(lo if designated else 0)
        rates.append([rate[s] for s in samplers])
    return np.array(sizes), np.array(minorities), np.array(rates)


def planned(labels, theta, threshold, samplers, w_pos=0.5, w_neg=0.5):
    """The same three as a block plans them: `ClassSizeTracker.track` and
    `OnlineEnsemble.sampling_rates`."""
    tracker = ClassSizeTracker(theta)
    tracker.w = {POS: w_pos, NEG: w_neg}
    sizes = tracker.track(labels)
    ens = OnlineEnsemble(2, samplers=samplers, n_members=1)
    minority, rates = ens.sampling_rates(labels, *sizes, threshold)
    return np.stack(sizes, axis=1), minority, rates


SAMPLER_MIXES = (
    [(s,) for s in SAMPLERS]
    + [(a, b) for a in SAMPLERS for b in SAMPLERS]
    + [("OB", "OOB", "UOB"), ("UOB", "OOB", "OB", "OOB")]
)


@pytest.mark.parametrize("samplers", SAMPLER_MIXES, ids="-".join)
def test_planned_rates_equal_a_per_step_reference(samplers):
    rng = np.random.default_rng(len(samplers))
    # the prior swings between balanced and skewed either way
    prior = np.repeat([0.5, 0.1, 0.5, 0.9, 0.3], 80)
    labels = np.where(rng.random(len(prior)) < prior, POS, NEG).tolist()
    designated = balanced = 0
    for theta in (0.0, 0.5, 0.9, 0.995):
        for threshold in (1.0, 1.5, 3.0):
            want = reference_plan(labels, theta, threshold, samplers)
            got = planned(labels, theta, threshold, samplers)
            for w, g in zip(want, got):
                assert np.array_equal(w, g), (theta, threshold)
            designated += np.count_nonzero(want[1])
            balanced += np.count_nonzero(want[1] == 0)
    assert designated and balanced


def test_planned_rates_at_ties_zero_sizes_and_the_threshold():
    samplers = ("OB", "OOB", "UOB")
    cases = {"equal sizes": 0, "ratio at threshold": 0, "zero size": 0}
    # from sizes (0, 1) at theta 0.5: POS gives equal sizes, where POS is the
    # smaller class; then NEG gives (0.25, 0.75), a ratio of exactly 3
    runs = [(0.5, 3.0, [POS, NEG, NEG, POS, POS, NEG], 0.0, 1.0)]
    # at theta 0 a size is exactly 0 after every step: the ratio is inf
    rng = np.random.default_rng(4)
    runs.append((0.0, 1.5, np.where(rng.random(50) < 0.3, POS, NEG).tolist(), 0.5, 0.5))
    for theta, threshold, labels, w_pos, w_neg in runs:
        want = reference_plan(labels, theta, threshold, samplers, w_pos, w_neg)
        got = planned(labels, theta, threshold, samplers, w_pos, w_neg)
        for w, g in zip(want, got):
            assert np.array_equal(w, g), theta
        w_pos, w_neg = want[0].T
        lo, hi = np.minimum(w_pos, w_neg), np.maximum(w_pos, w_neg)
        cases["equal sizes"] += np.count_nonzero(w_pos == w_neg)
        cases["ratio at threshold"] += np.count_nonzero(hi == threshold * lo)
        cases["zero size"] += np.count_nonzero(lo == 0.0)
    assert all(cases.values()), cases


# rates at and around numpy's special cases: zero, a tiny rate, and both sides
# of the switch between its two Poisson algorithms at lambda = 10
EDGE_RATES = (0.0, 1e-9, 1.0, 9.99, 10.0, 10.01, 30.0, 1e3)


@pytest.mark.parametrize("members", [1, 15])
@pytest.mark.parametrize("order", range(4))
def test_block_poisson_draw_equals_per_call_draws(members, order):
    # one array-rate call over a block must give the counts of one call per
    # step and leave the generator where the per-step calls leave it
    rates = np.random.default_rng(order).permutation(np.repeat(EDGE_RATES, 4))
    block_rng = np.random.default_rng([order, 1])
    step_rng = np.random.default_rng([order, 1])
    block = block_rng.poisson(rates[:, None], (len(rates), members))
    steps = np.stack([step_rng.poisson(lam, members) for lam in rates])
    assert block.dtype == steps.dtype
    assert np.array_equal(block, steps)
    assert block_rng.bit_generator.state == step_rng.bit_generator.state


def test_draw_counts_equals_each_ensembles_per_step_draws():
    seed, m = 23, 4
    ens = OnlineEnsemble(2, samplers=("OB", "OOB", "UOB"), n_members=m, seed=seed)
    rng = np.random.default_rng(7)
    per_step = [np.random.default_rng([seed, 1]) for _ in range(3)]
    for n in (1, 5, 12):  # successive blocks go on from where the last ended
        rates = rng.choice(EDGE_RATES, (n, 3))
        ks = ens.draw_counts(rates.tolist())
        assert ks.shape == (n, 3 * m)
        for t in range(n):
            want = [g.poisson(lam, m) for g, lam in zip(per_step, rates[t])]
            assert np.array_equal(ks[t], np.concatenate(want))


# ---------------------------------------------------------------------------
# ensemble behavior
# ---------------------------------------------------------------------------


def test_train_one_learns_only_a_predicted_example():
    ens = OnlineEnsemble(2, n_members=3, seed=0)
    ks = np.ones(3, dtype=np.int64)
    with pytest.raises(RuntimeError, match="predicted example"):
        ens.train_one(POS, ks)
    ens.predict([0.4, 0.6])
    with pytest.raises(ValueError, match="expected 3 counts, got 1"):
        ens.train_one(POS, ks[:1])
    ens.train_one(POS, ks)
    with pytest.raises(RuntimeError, match="predicted example"):
        ens.train_one(POS, ks)  # the first call consumed the example


def test_single_member_ensemble_equals_that_member():
    ens = OnlineEnsemble(2, samplers=("OB",), n_members=1, seed=42)
    solo = MlpBank(2, [[42, 0, 0]])
    x = np.array([0.3, 0.6])
    assert ens.predict(x)[1][0] == pytest.approx(_positive_prob(solo, x), abs=1e-15)


def test_tie_score_goes_positive():
    ens = OnlineEnsemble(2, n_members=3, seed=0)
    ens._bank.W2[:] = 0.0
    ens._bank.b2[:] = 0.0
    [label], [score] = ens.predict([0.1, 0.9])
    assert score == 0.5
    assert label == POS


def test_batched_rounds_equal_sequential_member_training():
    seeds = [[7, 0, i] for i in range(3)]
    bank = MlpBank(2, seeds)
    solos = [MlpBank(2, [s]) for s in seeds]
    rng = np.random.default_rng(11)
    for _ in range(30):
        x = rng.uniform(0, 1, 2)
        y = POS if rng.random() < 0.4 else NEG
        ks = rng.integers(0, 4, size=3)
        bank.train_rounds(x, y, ks)
        for solo, k in zip(solos, ks):
            for _ in range(k):
                solo.train_rounds(x, y, ONE_STEP)
    x = np.array([0.5, 0.25])
    stacked = _forward(bank, x)[1][:, 0]
    for i, solo in enumerate(solos):
        assert stacked[i] == pytest.approx(_positive_prob(solo, x), abs=0.0)


def test_forward_in_place_results_are_the_banks():
    # what a pass returns lives in the bank's buffers, which its next pass
    # overwrites
    bank = MlpBank(3, [[2, 0, i] for i in range(4)])
    x = np.array([0.2, 0.5, 0.9])
    a1, probs = bank.forward_in_place(bank.rows_of(x))
    kept = a1.copy(), probs.copy()
    again = bank.forward_in_place(bank.rows_of(np.array([0.7, 0.1, 0.3])))
    assert again[0] is a1 and again[1] is probs
    assert not np.array_equal(a1, kept[0]) and not np.array_equal(probs, kept[1])
    assert np.array_equal(_forward(bank, x)[1], kept[1])
    bank.train_rounds(x, NEG, np.array([2, 0, 1, 3]))
    assert not np.array_equal(_forward(bank, x)[1], kept[1])  # the bank did learn


def test_interleaved_ensembles_step_as_if_alone():
    # each bank's work buffers are its own: stepping two ensembles turn about
    # (predict A, predict B, train A, train B) gives each the outputs and
    # weights of stepping it alone
    def make():
        return [
            OnlineEnsemble(2, samplers=("OB", "OOB"), n_members=5, seed=s)
            for s in (31, 32)
        ]

    rng = np.random.default_rng(5)
    steps = [
        (rng.uniform(0, 1, 2), POS if rng.random() < 0.3 else NEG)
        for _ in range(150)
    ]
    tracker = ClassSizeTracker()
    tracker.w = {POS: 0.2, NEG: 0.8}
    interleaved, alone = make(), make()
    seen = {0: [], 1: []}
    for x, y in steps:
        outputs = [ens.predict(x) for ens in interleaved]
        for ens in interleaved:
            _train(ens, y, tracker)
        for i, out in enumerate(outputs):
            seen[i].append(out)
    for i, ens in enumerate(alone):
        for (x, y), (labels, scores) in zip(steps, seen[i]):
            want_labels, want_scores = ens.predict(x)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(scores, want_scores)
            _train(ens, y, tracker)
        assert np.array_equal(
            _slice_params(ens._bank, 0, 10), _slice_params(interleaved[i]._bank, 0, 10)
        )


def test_full_training_is_deterministic():
    def run():
        tracker = ClassSizeTracker()
        ens = OnlineEnsemble(2, samplers=("OOB",), n_members=5, seed=99)
        rng = np.random.default_rng(1234)
        outputs = []
        for _ in range(300):
            x = rng.uniform(0, 1, 2)
            y = POS if rng.random() < 0.2 else NEG
            outputs.append(tuple(a.tolist() for a in ens.predict(x)))
            tracker.update(y)
            _train(ens, y, tracker)
        return outputs

    assert run() == run()


def test_reset_reinitializes_from_derived_seeds():
    tracker = ClassSizeTracker()
    a = OnlineEnsemble(2, n_members=4, seed=5)
    b = OnlineEnsemble(2, n_members=4, seed=5)
    for _ in range(50):
        a.predict([0.2, 0.8])
        _train(a, POS, tracker)
    trained = _slice_params(a._bank, 0, 4)
    a.reset(0)
    assert a.reset_counts[0] == 1
    assert not np.array_equal(_slice_params(a._bank, 0, 4), trained)
    b.reset(0)
    assert np.array_equal(_slice_params(a._bank, 0, 4), _slice_params(b._bank, 0, 4))
    # fresh weights differ from the initial (reset 0) generation
    c = OnlineEnsemble(2, n_members=4, seed=5)
    assert not np.array_equal(
        _slice_params(a._bank, 0, 4), _slice_params(c._bank, 0, 4)
    )


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_bank_rounds_like_separate_banks(d):
    # one 45-row bank must give the bits of three 15-row banks: a row's
    # result may not depend on how many rows share the numpy/BLAS calls
    seeds = [[[s, 0, i] for i in range(15)] for s in (4, 5, 6)]
    stacked = MlpBank(d, [seed for block in seeds for seed in block])
    banks = [MlpBank(d, block) for block in seeds]
    rng = np.random.default_rng(d)
    for _ in range(60):
        x = rng.uniform(0, 1, d)
        y = POS if rng.random() < 0.3 else NEG
        ks = rng.poisson(rng.choice([0.2, 1.0, 9.0], 3).repeat(15))
        assert np.array_equal(
            _forward(stacked, x)[1][:, 0],
            np.concatenate([_forward(b, x)[1][:, 0] for b in banks]),
        )
        stacked.train_rounds(x, y, ks)
        for b, part in zip(banks, np.split(ks, 3)):
            if part.any():
                b.train_rounds(x, y, part)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(
            getattr(stacked, name),
            np.concatenate([getattr(b, name) for b in banks]),
        )


def test_reset_touches_only_its_own_ensemble():
    tracker = ClassSizeTracker()
    tracker.w = {POS: 0.2, NEG: 0.8}
    ens = OnlineEnsemble(3, samplers=("OB", "OOB", "UOB"), n_members=4, seed=8)
    for _ in range(20):
        ens.predict([0.1, 0.5, 0.9])
        _train(ens, POS, tracker)
    trained = [_slice_params(ens._bank, e, 4) for e in range(3)]
    ens.reset(1)
    ens.reset(1)
    assert ens.reset_counts == [0, 2, 0]
    assert np.array_equal(_slice_params(ens._bank, 0, 4), trained[0])
    assert np.array_equal(_slice_params(ens._bank, 2, 4), trained[2])
    alone = OnlineEnsemble(3, samplers=("OOB",), n_members=4, seed=8)
    alone.reset(0)
    alone.reset(0)
    assert np.array_equal(_slice_params(ens._bank, 1, 4), _slice_params(alone._bank, 0, 4))
    assert not np.array_equal(_slice_params(ens._bank, 1, 4), trained[1])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("members", [1, 4, 15])
def test_bank_weights_and_gradients_are_views_of_two_flat_buffers(d, members):
    # a gradient step is one subtraction of the gradient buffer from the
    # parameter buffer, so each weight must stay a view of the one at its
    # place, and each gradient a view of the other at the same place
    ens = OnlineEnsemble(d, samplers=("OB", "OOB", "UOB"), n_members=members, seed=5)
    bank = ens._bank
    for flat, names in (
        (bank._params, PARAMS),
        (bank._grads, ("_grad_W1", "_dz1", "_grad_W2", "_probs")),
    ):
        offset = 0
        for name in names:
            view = getattr(bank, name)
            assert view.flags.c_contiguous and view.base is flat, name
            assert view.ctypes.data == flat.ctypes.data + 8 * offset, name
            offset += view.size
        assert offset == flat.size
    # `init_weights`, through `reset`, writes through the views
    before = bank._params.copy()
    ens.reset(1)
    fresh = MlpBank(d, [[5, 1, i] for i in range(members)])
    rows = slice(members, 2 * members)
    for name in PARAMS:
        assert np.array_equal(getattr(bank, name)[rows], getattr(fresh, name)), name
    assert not np.array_equal(bank._params, before)
    assert np.array_equal(
        bank._params, np.concatenate([getattr(bank, n).ravel() for n in PARAMS])
    )
    # a pass with every step size 0 leaves the parameter buffer as it was
    before = bank._params.copy()
    rng = np.random.default_rng(d)
    X = rng.uniform(0, 1, (3 * members, d))
    bank.forward_in_place(X)
    bank.backward_in_place(X, np.array([1.0, 0.0]), np.zeros(3 * members))
    assert np.array_equal(bank._params, before)
    # the kernel's rows-last views are transposes of the work buffers, so the
    # column broadcasts and outer products that run through them write into
    # the gradient buffer, each gradient at its place
    for view, buffer, axes in (
        (bank._grad_W1_rl, bank._grad_W1, (2, 0, 1)),
        (bank._grad_W2_rl, bank._grad_W2, (2, 0, 1)),
        (bank._probs_rl, bank._probs, (1, 0)),
        (bank._dz1_rl_col[:, 0], bank._dz1, (1, 0)),
    ):
        back = view.transpose(axes)
        assert back.ctypes.data == buffer.ctypes.data
        assert back.strides == buffer.strides and np.shares_memory(view, bank._grads)
    # a pass at random step sizes: the softmax is that of the shifted outputs,
    # and the gradient buffer holds both outer products, which the update
    # subtracts from the parameters
    bank.forward_in_place(X)
    z2, probs = bank._z2.copy(), bank._probs.copy()
    assert (z2.max(axis=1) == 0.0).all()
    e = np.exp(z2)
    assert np.array_equal(probs, e / e.sum(axis=1, keepdims=True))
    steps, T = rng.uniform(0.0, 0.5, 3 * members), np.array([0.0, 1.0])
    before = bank._params.copy()
    bank.backward_in_place(X, T, steps)
    dz2 = (probs - T) * steps[:, None]
    assert np.array_equal(bank._probs, dz2)
    assert np.array_equal(bank._grad_W2, dz2[:, :, None] * bank._a1[:, None, :])
    assert np.array_equal(bank._grad_W1, bank._dz1[:, :, None] * X[:, None, :])
    assert np.array_equal(bank._params, before - bank._grads)


# ---------------------------------------------------------------------------
# the step kernel against a frozen reference (`frozen_kernel`)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "members, samplers",
    # at 15 members only undersampling skips whole steps (all ks zero)
    [(1, ("OB", "OOB", "UOB")), (15, ("UOB", "UOB", "UOB"))],
    ids=["members1", "members15"],
)
def test_step_kernel_equals_frozen_reference(d, members, samplers):
    tracker = ClassSizeTracker()
    tracker.w = {POS: 0.05, NEG: 0.95}  # pinned: POS is the minority
    seed, lr = 17, 0.1
    ens = OnlineEnsemble(
        d, samplers=samplers, n_members=members, seed=seed, lr=lr
    )
    h = ens._bank.hidden
    params = _ref_init(d, h, [[seed, 0, i] for i in range(members)] * 3)
    ref_rngs = [np.random.default_rng([seed, 1]) for _ in samplers]
    reset_counts = [0, 0, 0]
    rng = np.random.default_rng(d * 100 + members)
    cases = {"no_training": 0, "reset": 0, "mutated_x": 0}
    for step in range(240):
        x = rng.uniform(0, 1, d)
        label = POS if rng.random() < 0.3 else NEG
        labels, scores = ens.predict(x)
        predicted_x = x.copy()
        _, ref_probs = _ref_forward(*params, x)
        ref_scores = ref_probs[:, 0].reshape(3, members).mean(axis=1)
        assert np.array_equal(scores, ref_scores)
        assert np.array_equal(labels, np.where(ref_scores >= 0.5, POS, NEG))
        if step % 9 == 4:  # a drift alarm between predict and training
            e = step % 3
            ens.reset(e)
            reset_counts[e] += 1
            fresh = _ref_init(d, h, [[seed, reset_counts[e], i] for i in range(members)])
            for p, f in zip(params, fresh):
                p[e * members : (e + 1) * members] = f
            cases["reset"] += 1
        if step % 11 == 6:  # the caller reuses its array after predict
            x[:] = rng.uniform(0, 1, d)
            cases["mutated_x"] += 1
        ks = np.concatenate(
            [
                r.poisson(lam, members)
                for r, lam in zip(ref_rngs, _rates(ens, label, tracker))
            ]
        )
        ens.train_one(label, ks)
        if ks.any():  # training learns the predicted example
            _ref_train_rounds(params, predicted_x, label, ks, lr)
        else:
            cases["no_training"] += 1
        for name, ref in zip(("W1", "b1", "W2", "b2"), params):
            assert np.array_equal(getattr(ens._bank, name), ref), (step, name)
    assert all(cases.values()), cases


@pytest.mark.parametrize(
    "d, rounds, members",
    [(2, 1, 4), (3, 1, 4), (2, 8, 4), (3, 8, 4), (2, 8, 30), (3, 8, 30)],
    ids=["1-2", "1-3", "8-2", "8-3", "90rows-8-2", "90rows-8-3"],
)
def test_row_schedule_equals_frozen_reference(d, rounds, members):
    # a block trained row by row, with resets at its first and last step, at
    # two steps in a row, and at a step where no row of the reset ensemble
    # trains, predicts and learns as the frozen kernel does step by step; on
    # 12 rows and on 90, an acceptance fixture's bank
    samplers, seed, lr, n = ("OB", "OOB", "UOB"), 23, 0.1, 30
    rng = np.random.default_rng(d)
    xs = rng.uniform(0, 1, (n, d))
    labels = [POS if u < 0.3 else NEG for u in rng.random(n)]
    ks = rng.poisson(rng.choice([0.3, 1.0, 4.0], (n, 1)), (n, 3 * members))
    ks[12, members : 2 * members] = 0
    ks[13, members : 2 * members] = 0
    alarms = {(0, 2), (12, 1), (13, 1), (20, 0), (n - 1, 2), (n - 1, 0)}
    ens = OnlineEnsemble(d, samplers=samplers, n_members=members, seed=seed, lr=lr)
    block = RowSchedule(ens, xs, labels, ks)
    seen = [0, 0, 0]  # the steps each ensemble has been checked for alarms at
    while True:
        block.run(rounds)
        for e, ready in enumerate(block.predicted()):
            while seen[e] < ready:
                seen[e] += 1
                if (seen[e] - 1, e) in alarms:
                    t = seen[e] - 1
                    before = block.scores(0, t + 1)
                    block.rewind(e, t)
                    # the steps the detectors have seen keep their scores
                    assert np.array_equal(block.scores(0, t + 1), before)
                    break
        if block.finished and seen == [n] * 3:
            break
    # the rewinds took rows past the busiest row's planned passes, which
    # lengthens the block's position arrays
    assert block.round > np.maximum(ks, 1).sum(axis=0).max()
    h = ens._bank.hidden
    params = _ref_init(d, h, [[seed, 0, i] for i in range(members)] * 3)
    reset_counts = [0, 0, 0]
    ref_scores = np.empty((n, 3))
    for t in range(n):
        _, ref_probs = _ref_forward(*params, xs[t])
        ref_scores[t] = ref_probs[:, 0].reshape(3, members).mean(axis=1)
        for e in range(3):
            if (t, e) in alarms:
                reset_counts[e] += 1
                fresh = _ref_init(
                    d, h, [[seed, reset_counts[e], i] for i in range(members)]
                )
                for p, f in zip(params, fresh):
                    p[e * members : (e + 1) * members] = f
        if ks[t].any():
            _ref_train_rounds(params, xs[t], labels[t], ks[t], lr)
    assert ens.reset_counts == reset_counts
    assert np.array_equal(block.scores(), ref_scores)
    for name, ref in zip(PARAMS, params):
        assert np.array_equal(getattr(ens._bank, name), ref), name
