"""Learner tests: MLP gradients and training, Poisson resampling, ensembles.

A single net is a one-row `MlpBank`: ``_forward(bank, x)[1][0]`` is its
(P(+1), P(-1)) and ``_rounds(bank, x, label, ONE_STEP)`` is one gradient
step, both through the bank's one kernel, ``bank.kernel``. An ensemble
predicts and learns through a `RowSchedule`, as a run does. A bank stores
its hidden layer negated; the tests compare its weights with the frozen
reference through `_textbook`, and everything else on the stored weights.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from frozen_kernel import _ref_forward, _ref_init, _ref_train_rounds
from skewstream.imbalance import ClassSizeTracker
from skewstream import learners
from skewstream.labels import NEG, POS
from skewstream.learners import (
    N_CLASSES,
    SAMPLERS,
    MlpBank,
    OnlineEnsemble,
    RowSchedule,
    default_hidden_size,
)

# the stored weights, in the order of the parameter buffer, and the weights
# of the frozen reference that `_textbook` gives back
STORED = ("neg_W1", "neg_b1", "W2", "b2")
TEXTBOOK = ("W1", "b1", "W2", "b2")
ONE_STEP = np.array([1])


def _weights(bank):
    """Copies of the bank's stored weight arrays, in `STORED` order."""
    return [getattr(bank, name).copy() for name in STORED]


def _textbook(bank):
    """The bank's weights W1, b1, W2 and b2 as the frozen reference holds
    them: the stored hidden layer negated back."""
    neg_W1, neg_b1, W2, b2 = _weights(bank)
    return [-neg_W1, -neg_b1, W2, b2]


def _steps(sizes):
    """Each row's step size in both class columns, as the kernel takes them."""
    return np.repeat(np.asarray(sizes, dtype=float)[:, None], N_CLASSES, axis=1)


def _rows(bank, x):
    """One input ``x`` in every row of the bank."""
    return np.tile(np.asarray(x, dtype=float), (bank.n_members, 1))


def _forward(bank, x):
    """Per-row (hidden activations, class probabilities) for one input ``x``,
    as copies of what the kernel's forward pass leaves in the bank's
    buffers."""
    a1, probs = bank.kernel(_rows(bank, x))
    return a1.copy(), probs.copy()


def _rounds(bank, x, label, ks):
    """Give row i ``ks[i]`` gradient steps on (x, label): ``max(ks)`` passes
    of the kernel, in which a row whose k is spent takes step size 0."""
    X, ks = _rows(bank, x), np.asarray(ks)
    T = np.array([1.0, 0.0] if label == POS else [0.0, 1.0])
    score = np.empty(bank.n_members)
    for j in range(int(ks.max(initial=0))):
        bank.kernel(X, T, _steps(np.where(ks > j, bank.lr, 0.0)), score)


def _positive_prob(bank, x):
    """The one-row bank's P(+1) for ``x``."""
    return _forward(bank, x)[1][0, 0]


def _slice_params(bank, e, m):
    """Ensemble ``e``'s weights (rows e*m .. e*m+m-1) as one flat vector."""
    rows = slice(e * m, (e + 1) * m)
    return np.concatenate([getattr(bank, n)[rows].ravel() for n in STORED])


def _rates(ens, label, tracker, threshold=1.5):
    """Every ensemble's rate for one example of ``label`` at the tracker's
    sizes: `sampling_rates` on a stretch of one step."""
    sizes = np.array([tracker.w[POS]]), np.array([tracker.w[NEG]])
    _, [rates] = ens.sampling_rates([label], *sizes, threshold)
    return rates


def _block(ens, xs, labels, ks):
    """Predict and learn the steps ``(xs[t], labels[t])`` on counts ``ks[t]``
    as one planned block of a `RowSchedule`; returns the scores as (steps,
    ensembles)."""
    schedule = RowSchedule(ens, len(ks))
    schedule.add(np.asarray(xs, dtype=float), labels, np.asarray(ks))
    schedule.run()
    return schedule.retire()


def _learn(ens, xs, labels, tracker, block=16):
    """Predict and learn the steps ``(xs[t], labels[t])`` in blocks of
    ``block`` steps, as a run without detectors does: each step's rates from
    the tracker's sizes after its label, each block's counts drawn at once,
    two blocks planned ahead of the retired steps; returns the scores as
    (steps, ensembles)."""
    schedule = RowSchedule(ens, block)
    scores = []
    while schedule.retired < len(labels):
        while schedule.planned < min(len(labels), schedule.retired + 2 * block):
            lo = schedule.planned
            part = labels[lo : lo + block]
            _, rates = ens.sampling_rates(part, *tracker.track(part), 1.5)
            schedule.add(np.asarray(xs[lo : lo + block]), part, ens.draw_counts(rates))
        schedule.run()
        scores.append(schedule.retire())
    return np.concatenate(scores)


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
        _rounds(bank, [0.2, 0.7], POS, ONE_STEP)
    for name, b in zip(STORED, before):
        assert np.array_equal(getattr(bank, name), b), name


def test_predict_has_no_side_effects():
    bank = MlpBank(2, [5])
    before = _weights(bank)
    for _ in range(10):
        _forward(bank, np.array([0.5, 0.5]))
    for name, b in zip(STORED, before):
        assert np.array_equal(getattr(bank, name), b), name


def test_gradient_matches_central_differences():
    # at lr 1, one training step moves the weights by minus the gradient;
    # the loss is taken as a function of the stored weights, the hidden
    # layer negated, whose gradient is the one the kernel stores
    h = 1e-5
    for seed in range(3):
        rng = np.random.default_rng(seed)
        bank = MlpBank(3, [seed], lr=1.0)
        x = rng.uniform(0, 1, 3)
        y = POS if seed % 2 else NEG
        base = _weights(bank)
        _rounds(bank, x, y, ONE_STEP)
        analytic = np.concatenate(
            [(b - getattr(bank, name)).ravel() for name, b in zip(STORED, base)]
        )
        for name, b in zip(STORED, base):
            getattr(bank, name)[...] = b
        coords = [(k, i) for k, b in enumerate(base) for i in range(b.size)]
        for idx in rng.choice(len(coords), size=8, replace=False):
            k, i = coords[idx]
            w, v = getattr(bank, STORED[k]), base[k].flat[i]
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
        _rounds(bank, x, y, ONE_STEP)
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
        _rounds(bank, x, y, ONE_STEP)
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
    # a step's minority and rates read the sizes after its own label, as
    # `track` handed them over; later steps move the tracker, not those sizes
    tracker = ClassSizeTracker(theta=0.8)
    w_pos, w_neg = tracker.track([NEG, NEG, POS, NEG, NEG, NEG])
    w = dict(tracker.w)
    tracker.track([POS, POS, POS])
    ens = OnlineEnsemble(2, samplers=("OB", "OOB", "UOB"), n_members=2, seed=0)
    for label in (POS, NEG):
        minority, rates = ens.sampling_rates([label], w_pos[-1:], w_neg[-1:], 1.5)
        assert minority.tolist() == [POS]
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


def test_single_member_ensemble_equals_that_member():
    ens = OnlineEnsemble(2, samplers=("OB",), n_members=1, seed=42)
    solo = MlpBank(2, [[42, 0, 0]])
    x = np.array([0.3, 0.6])
    [[score]] = _block(ens, [x], [POS], [[0]])
    assert score == _positive_prob(solo, x)


def test_batched_rounds_equal_sequential_member_training():
    seeds = [[7, 0, i] for i in range(3)]
    bank = MlpBank(2, seeds)
    solos = [MlpBank(2, [s]) for s in seeds]
    rng = np.random.default_rng(11)
    for _ in range(30):
        x = rng.uniform(0, 1, 2)
        y = POS if rng.random() < 0.4 else NEG
        ks = rng.integers(0, 4, size=3)
        _rounds(bank, x, y, ks)
        for solo, k in zip(solos, ks):
            for _ in range(k):
                _rounds(solo, x, y, ONE_STEP)
    x = np.array([0.5, 0.25])
    stacked = _forward(bank, x)[1][:, 0]
    for i, solo in enumerate(solos):
        assert stacked[i] == pytest.approx(_positive_prob(solo, x), abs=0.0)


def test_forward_pass_results_are_the_banks():
    # what a forward pass returns lives in the bank's buffers, which its
    # next pass overwrites
    bank = MlpBank(3, [[2, 0, i] for i in range(4)])
    x = np.array([0.2, 0.5, 0.9])
    a1, probs = bank.kernel(_rows(bank, x))
    kept = a1.copy(), probs.copy()
    again = bank.kernel(_rows(bank, [0.7, 0.1, 0.3]))
    assert again[0] is a1 and again[1] is probs
    assert not np.array_equal(a1, kept[0]) and not np.array_equal(probs, kept[1])
    assert np.array_equal(_forward(bank, x)[1], kept[1])
    _rounds(bank, x, NEG, [2, 0, 1, 3])
    assert not np.array_equal(_forward(bank, x)[1], kept[1])  # the bank did learn


def test_interleaved_ensembles_step_as_if_alone():
    # each bank's work buffers are its own: running two ensembles' schedules
    # a round each in turn gives each the scores and weights of running it
    # alone
    def make():
        return [
            OnlineEnsemble(2, samplers=("OB", "OOB"), n_members=5, seed=s)
            for s in (31, 32)
        ]

    rng = np.random.default_rng(5)
    n = 150
    xs = rng.uniform(0, 1, (n, 2))
    labels = [POS if u < 0.3 else NEG for u in rng.random(n)]
    sizes = np.full(n, 0.2), np.full(n, 0.8)

    def counts(ens):
        return ens.draw_counts(ens.sampling_rates(labels, *sizes, 1.5)[1])

    interleaved, alone = make(), make()
    schedules = [RowSchedule(ens, n) for ens in interleaved]
    for schedule, ens in zip(schedules, interleaved):
        schedule.add(xs, labels, counts(ens))
    while not all(schedule.can_retire for schedule in schedules):
        for schedule in schedules:
            schedule.run(1)
    for i, ens in enumerate(alone):
        assert np.array_equal(_block(ens, xs, labels, counts(ens)), schedules[i].retire())
        assert np.array_equal(
            _slice_params(ens._bank, 0, 10), _slice_params(interleaved[i]._bank, 0, 10)
        )


def test_full_training_is_deterministic():
    def run():
        ens = OnlineEnsemble(2, samplers=("OOB",), n_members=5, seed=99)
        rng = np.random.default_rng(1234)
        xs = rng.uniform(0, 1, (300, 2))
        labels = [POS if u < 0.2 else NEG for u in rng.random(300)]
        return _learn(ens, xs, labels, ClassSizeTracker()).tolist()

    assert run() == run()


def test_reset_reinitializes_from_derived_seeds():
    a = OnlineEnsemble(2, n_members=4, seed=5)
    b = OnlineEnsemble(2, n_members=4, seed=5)
    _learn(a, np.tile([0.2, 0.8], (50, 1)), [POS] * 50, ClassSizeTracker())
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
        _rounds(stacked, x, y, ks)
        for b, part in zip(banks, np.split(ks, 3)):
            _rounds(b, x, y, part)
    for name in STORED:
        assert np.array_equal(
            getattr(stacked, name),
            np.concatenate([getattr(b, name) for b in banks]),
        )


def test_reset_touches_only_its_own_ensemble():
    tracker = ClassSizeTracker()
    tracker.w = {POS: 0.2, NEG: 0.8}
    ens = OnlineEnsemble(3, samplers=("OB", "OOB", "UOB"), n_members=4, seed=8)
    _learn(ens, np.tile([0.1, 0.5, 0.9], (20, 1)), [POS] * 20, tracker)
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
        (bank._params, STORED),
        (bank._grads, ("_grad_neg_W1", "_neg_dz1", "_grad_W2", "_probs")),
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
    for name in STORED:
        assert np.array_equal(getattr(bank, name)[rows], getattr(fresh, name)), name
    assert not np.array_equal(bank._params, before)
    assert np.array_equal(
        bank._params, np.concatenate([getattr(bank, n).ravel() for n in STORED])
    )
    # a pass with every step size 0 leaves the parameter buffer as it was
    before = bank._params.copy()
    rng = np.random.default_rng(d)
    X = rng.uniform(0, 1, (3 * members, d))
    score = np.empty(3 * members)
    bank.kernel(X, np.array([1.0, 0.0]), _steps(np.zeros(3 * members)), score)
    assert np.array_equal(bank._params, before)
    # the kernel's rows-last views are transposes of the work buffers, so the
    # outer products that run through them write into the gradient buffer,
    # each gradient at its place
    for view, buffer, axes in (
        (bank._grad_neg_W1_rl, bank._grad_neg_W1, (2, 0, 1)),
        (bank._grad_W2_rl, bank._grad_W2, (2, 0, 1)),
        (bank._neg_dz1_rl_col[:, 0], bank._neg_dz1, (1, 0)),
    ):
        back = view.transpose(axes)
        assert back.ctypes.data == buffer.ctypes.data
        assert back.strides == buffer.strides and np.shares_memory(view, bank._grads)
    # the per-column calls run through the columns of their buffers, and
    # the output error's columns lie in the gradient buffer
    for cols, buffer in (
        (bank._z2_cols, bank._z2),
        (bank._e_cols, bank._e),
        (bank._probs_cols, bank._probs),
    ):
        assert len(cols) == buffer.shape[1]
        for c, col in enumerate(cols):
            assert col.shape == (len(buffer),) and col.strides == buffer.strides[:1]
            assert col.ctypes.data == buffer.ctypes.data + c * buffer.strides[1]
    assert all(np.shares_memory(col, bank._grads) for col in bank._probs_cols)
    # a pass at random step sizes: the softmax is that of the shifted outputs,
    # the score is P(+1), and the gradient buffer holds both outer products,
    # the negated layer's from -dz1, which the update subtracts from the
    # parameters
    bank.kernel(X)
    z2, probs = bank._z2.copy(), bank._probs.copy()
    assert (z2.max(axis=1) == 0.0).all()
    e = np.exp(z2)
    assert np.array_equal(probs, e / e.sum(axis=1, keepdims=True))
    steps, T = rng.uniform(0.0, 0.5, 3 * members), np.array([0.0, 1.0])
    before = bank._params.copy()
    bank.kernel(X, T, _steps(steps), score)
    assert np.array_equal(score, probs[:, 0])
    dz2 = (probs - T) * steps[:, None]
    assert np.array_equal(bank._probs, dz2)
    a1 = bank._a1
    assert np.array_equal(bank._grad_W2, dz2[:, :, None] * a1[:, None, :])
    assert np.array_equal(bank._neg_dz1, -(bank._da1 * a1 * (1.0 - a1)))
    assert np.array_equal(bank._grad_neg_W1, bank._neg_dz1[:, :, None] * X[:, None, :])
    assert np.array_equal(bank._params, before - bank._grads)


def test_the_kernels_one_cannot_be_written():
    # the 0-d 1.0 that every pass reads is shared by every bank
    one = learners._ONE
    assert one.shape == () and one.dtype == np.float64 and one == 1.0
    assert not one.flags.writeable
    with pytest.raises(ValueError):
        one[...] = 2.0
    with pytest.raises(ValueError):
        np.add(one, one, out=one)
    assert one == 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_a_round_makes_24_numpy_calls(d, monkeypatch):
    # a round is numpy calls on small arrays, each of which costs more than
    # the arithmetic it does: the forward pass (14), the copy of the scores
    # (1) and the gradient step (9). The kernel's numpy callables are names
    # in `learners` that a bank binds as it is made, so counters put there
    # before see every call a round makes
    calls = []

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)

        return wrapper

    wrapped = [
        name
        for name, value in vars(learners).items()
        if name.startswith("_") and getattr(np, name[1:], None) is value
    ]
    assert "_copyto" in wrapped and "_matmul" in wrapped
    for name in wrapped:
        monkeypatch.setattr(learners, name, counted(name, getattr(learners, name)))
    ens = OnlineEnsemble(d, samplers=SAMPLERS, n_members=15, seed=4)
    schedule = RowSchedule(ens, 1)
    rng = np.random.default_rng(d)
    schedule.add(rng.uniform(0, 1, (1, d)), [POS], np.ones((1, 45), dtype=int))
    calls.clear()
    schedule.run(1)
    assert schedule.round == 1
    assert len(calls) == 24, sorted(calls)


@pytest.mark.parametrize("d", [4, 6])
def test_init_weights_draws_what_four_draws_per_member_do(d):
    # one draw per member for all four weights, against the frozen four, at
    # hidden sizes other than d (the frozen-reference tests run d = h = 2, 3)
    h = default_hidden_size(d)
    seeds = [[3, 0, i] for i in range(6)]
    bank = MlpBank(d, seeds)
    for name, got, want in zip(TEXTBOOK, _textbook(bank), _ref_init(d, h, seeds)):
        assert np.array_equal(got, want), name
    # a re-initialization of some members leaves the others as they were,
    # and stores the hidden layer negated as at start-up
    before = _textbook(bank)
    fresh = [[3, 1, i] for i in range(2)]
    bank.init_weights(fresh, first=2)
    for name, was, got, want in zip(
        TEXTBOOK, before, _textbook(bank), _ref_init(d, h, fresh)
    ):
        assert np.array_equal(got[2:4], want), name
        assert np.array_equal(got[:2], was[:2]) and np.array_equal(got[4:], was[4:])


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
    # the kernel a step at a time: a schedule of one-step blocks, which is a
    # run at a block size of 1. A drift alarm between a step's prediction and
    # its training (a rewind), an input that the caller changes once the
    # step is laid out, and steps at which no row trains all predict and
    # learn as the frozen kernel does
    tracker = ClassSizeTracker()
    tracker.w = {POS: 0.05, NEG: 0.95}  # pinned: POS is the minority
    seed, lr = 17, 0.1
    ens = OnlineEnsemble(
        d, samplers=samplers, n_members=members, seed=seed, lr=lr
    )
    schedule = RowSchedule(ens, 1)
    h = ens._bank.hidden
    params = _ref_init(d, h, [[seed, 0, i] for i in range(members)] * 3)
    ref_rngs = [np.random.default_rng([seed, 1]) for _ in samplers]
    reset_counts = [0, 0, 0]
    rng = np.random.default_rng(d * 100 + members)
    cases = {"no_training": 0, "reset": 0, "mutated_x": 0}
    for step in range(240):
        x = rng.uniform(0, 1, d)
        label = POS if rng.random() < 0.3 else NEG
        ks = np.concatenate(
            [
                r.poisson(lam, members)
                for r, lam in zip(ref_rngs, _rates(ens, label, tracker))
            ]
        )
        predicted_x = x.copy()
        schedule.add(x[None], [label], ks[None])
        if step % 11 == 6:  # the caller reuses its array
            x[:] = rng.uniform(0, 1, d)
            cases["mutated_x"] += 1
        schedule.run(1)  # every row's first pass: the step's prediction
        assert schedule.predicted() == [step + 1] * 3
        _, ref_probs = _ref_forward(*params, predicted_x)
        ref_scores = ref_probs[:, 0].reshape(3, members).mean(axis=1)
        assert np.array_equal(schedule.scores(step, step + 1)[0], ref_scores)
        if step % 9 == 4:  # a drift alarm between predict and training
            e = step % 3
            schedule.rewind(e, step)
            reset_counts[e] += 1
            fresh = _ref_init(d, h, [[seed, reset_counts[e], i] for i in range(members)])
            for p, f in zip(params, fresh):
                p[e * members : (e + 1) * members] = f
            cases["reset"] += 1
        schedule.run()
        assert np.array_equal(schedule.retire()[0], ref_scores)
        if ks.any():  # training learns the predicted example
            _ref_train_rounds(params, predicted_x, label, ks, lr)
        else:
            cases["no_training"] += 1
        for name, got, ref in zip(TEXTBOOK, _textbook(ens._bank), params):
            assert np.array_equal(got, ref), (step, name)
    assert ens.reset_counts == reset_counts
    assert all(cases.values()), cases




def test_a_schedule_holds_two_whole_blocks_and_retires_only_passed_ones():
    # the per-step tables are a ring of two blocks: a third block, or one
    # after a short block, would overwrite held steps; and a block's scores
    # are read only once every row has taken its passes there
    ens = OnlineEnsemble(2, samplers=("OB",), n_members=3, seed=5)
    schedule = RowSchedule(ens, 4)
    rng = np.random.default_rng(0)

    def block(n):
        return rng.uniform(0, 1, (n, 2)), [POS] * n, rng.poisson(2.0, (n, 3))

    schedule.add(*block(4))
    schedule.add(*block(4))
    with pytest.raises(ValueError, match="at most one is held"):
        schedule.add(*block(4))
    assert not schedule.can_retire
    with pytest.raises(ValueError, match="still to take"):
        schedule.retire()
    schedule.run()
    assert schedule.can_retire and schedule.retire().shape == (4, 1)
    schedule.add(*block(3))
    schedule.run()
    schedule.retire()
    with pytest.raises(ValueError, match="follows a whole one"):
        schedule.add(*block(4))


def brute_force_predicted(schedule):
    """For each ensemble, the steps all of its rows have predicted: the
    retired ones, and of the held ones those whose first pass lies before
    the current round, counted row by row."""
    rows = len(schedule._cols)
    slots = [t % schedule._n_slots for t in range(schedule.retired, schedule.planned)]
    # by ensemble, each held step's first pass of each row, as a position
    first = schedule._first[:, slots] // rows + schedule._base
    held = (first < schedule.round).sum(axis=1).min(axis=1)
    return (schedule.retired + held).tolist()


def entered(schedule, t):
    """Whether some row has taken its first pass of held step ``t``."""
    first = int(schedule._first[:, t % schedule._n_slots].min())
    return first // len(schedule._cols) + schedule._base < schedule.round


def _train_with_alarms(schedule, blocks, alarms, rounds):
    """Train ``blocks``, each (xs, labels, ks), as a run does: two planned
    ahead of the retired steps, ``rounds`` rounds at a time, ensemble e
    rewound as soon as all of its rows have predicted step t, for each (t,
    e) in ``alarms``, as a detector would, and the oldest block retired once
    every row is past it and every ensemble has been checked through it.
    After every run and every rewind, `predicted` must equal a brute-force
    count, and the held steps an ensemble has been checked at keep their
    scores across a rewind.

    Returns the scores as (steps, ensembles); by rewind, (t, e, whether the
    block before t's was still held, whether some row had entered the block
    after t's); and by block added, the codes and history before and after.
    """
    block, steps = schedule._block, sum(len(ks) for _, _, ks in blocks)
    seen = [0, 0, 0]  # the steps each ensemble has been checked for alarms at
    scores, rewinds, adds = [], [], []
    while schedule.retired < steps:
        while len(adds) < len(blocks) and schedule.planned < schedule.retired + 2 * block:
            before = schedule._code, schedule._hist
            schedule.add(*blocks[len(adds)])
            adds.append((before, (schedule._code, schedule._hist)))
        schedule.run(rounds)
        assert schedule.predicted() == brute_force_predicted(schedule)
        for e, ready in enumerate(schedule.predicted()):
            while seen[e] < ready:
                seen[e] += 1
                if (seen[e] - 1, e) in alarms:
                    t = seen[e] - 1
                    # the steps each ensemble has been checked at, t the last of e
                    done = [min(s, r) for s, r in zip(seen, schedule.predicted())]
                    lo = schedule.retired
                    kept = [schedule.scores(lo, hi, f) for f, hi in enumerate(done)]
                    nxt = (t // block + 1) * block
                    rewinds.append((
                        t,
                        e,
                        lo < t // block * block,
                        nxt < schedule.planned and entered(schedule, nxt),
                    ))
                    schedule.rewind(e, t)
                    assert schedule.predicted() == brute_force_predicted(schedule)
                    assert schedule.predicted()[e] == t + 1
                    for f, hi in enumerate(done):
                        assert np.array_equal(schedule.scores(lo, hi, f), kept[f])
                    break
        if schedule.can_retire and min(seen) >= min(schedule.retired + block, steps):
            scores.append(schedule.retire())
    return np.concatenate(scores), rewinds, adds


@pytest.mark.parametrize(
    "d, rounds, members",
    [(2, 1, 4), (3, 1, 4), (2, 8, 4), (3, 8, 4), (2, 8, 30), (3, 8, 30)],
    ids=["1-2", "1-3", "8-2", "8-3", "90rows-8-2", "90rows-8-3"],
)
def test_row_schedule_equals_frozen_reference(d, rounds, members):
    # one run's schedule through three blocks of up to 30 steps, two held at
    # a time and each row running on from one into the next: a block, one
    # with more passes, which grows the positions, and a short last one,
    # laid out into the positions kept. Resets at a block's first and last
    # step, at two steps in a row, at a step where no row of the reset
    # ensemble trains, at a step of a block while the one before is held,
    # at a block's last step once faster rows have entered the next, and
    # past the busiest row's planned passes, all predict and learn as the
    # frozen kernel does step by step; on 12 rows and on 90, an acceptance
    # fixture's bank
    samplers, seed, lr, block = ("OB", "OOB", "UOB"), 23, 0.1, 30
    rng = np.random.default_rng(d)
    blocks = []
    for n, scale in ((block, 1.0), (block, 3.0), (12, 1.0)):
        xs = rng.uniform(0, 1, (n, d))
        labels = [POS if u < 0.3 else NEG for u in rng.random(n)]
        rates = scale * rng.choice([0.3, 1.0, 4.0], (n, 1))
        blocks.append((xs, labels, rng.poisson(rates, (n, 3 * members))))
    blocks[0][2][12:14, members : 2 * members] = 0
    alarms = {
        (0, 2), (12, 1), (13, 1), (20, 0), (29, 2), (29, 0),
        (30, 1), (33, 2), (41, 0), (59, 1),
        (60, 2), (66, 0), (71, 1),
    }
    ens = OnlineEnsemble(d, samplers=samplers, n_members=members, seed=seed, lr=lr)
    schedule = RowSchedule(ens, block)
    scores, rewinds, adds = _train_with_alarms(schedule, blocks, alarms, rounds)
    assert sorted((t, e) for t, e, _, _ in rewinds) == sorted(alarms)
    # a step of a block rewound while the one before was held, and the
    # first block's last step once some row had entered the second
    assert any(t >= block and older for t, _, older, _ in rewinds)
    assert any(t == block - 1 and ahead for t, _, _, ahead in rewinds)
    # no row waits for another at a block's end, and the rewinds took rows
    # past the busiest row's planned passes
    ks = np.concatenate([ks for _, _, ks in blocks])
    assert schedule.round > np.maximum(ks, 1).sum(axis=0).max()
    # the second block grew the positions; the last was laid out into them
    (code0, hist0), (code1, hist1) = adds[1]
    assert len(hist1) > len(hist0) and len(code1) == len(hist1)
    (code0, hist0), (code1, hist1) = adds[2]
    assert code1 is code0 and hist1 is hist0
    h = ens._bank.hidden
    params = _ref_init(d, h, [[seed, 0, i] for i in range(members)] * 3)
    reset_counts = [0, 0, 0]
    xs = np.concatenate([xs for xs, _, _ in blocks])
    labels = [label for _, part, _ in blocks for label in part]
    ref_scores = np.empty((len(ks), 3))
    for t in range(len(ks)):
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
    assert np.array_equal(scores, ref_scores)
    for name, got, ref in zip(TEXTBOOK, _textbook(ens._bank), params):
        assert np.array_equal(got, ref), name
