"""Metric-layer tests: brute-force oracles, frozen examples, invariants."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.signal
import scipy.stats

from skewstream.labels import NEG, POS
from skewstream.metrics import (
    ScoreWindow,
    TooFewPairsError,
    _midranks,
    decayed_confusion_series,
    decayed_recall_gmean_series,
    prequential_auc,
    wilcoxon_signed_rank,
)

# ---------------------------------------------------------------------------
# brute-force oracles (independent recomputation from scratch)
# ---------------------------------------------------------------------------


def brute_decayed_cells(updates, eta):
    """Decayed cell value = sum of eta^age over the updates that hit it."""
    n = len(updates)
    cells = {"tp": 0.0, "fn": 0.0, "fp": 0.0, "tn": 0.0}
    for i, (truth, pred) in enumerate(updates):
        age = n - 1 - i
        if truth == POS:
            key = "tp" if pred == POS else "fn"
        else:
            key = "tn" if pred == NEG else "fp"
        cells[key] += eta**age
    return cells


def brute_auc(pairs):
    """All-pairs Mann-Whitney fraction, ties 0.5."""
    pos = [s for s, lab in pairs if lab == POS]
    neg = [s for s, lab in pairs if lab == NEG]
    if not pos or not neg:
        return 0.5
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# decayed confusion cells
# ---------------------------------------------------------------------------


def cells_of(truths, preds, eta):
    """The last step's (tp, fn, fp, tn) of the decayed series."""
    return tuple(
        float(c[-1])
        for c in decayed_confusion_series(np.array(truths), np.array(preds), eta)
    )


def test_update_hits_exactly_one_cell():
    assert cells_of([POS], [POS], 0.9) == (1.0, 0.0, 0.0, 0.0)
    assert cells_of([POS], [NEG], 0.9) == (0.0, 1.0, 0.0, 0.0)
    assert cells_of([NEG], [POS], 0.9) == (0.0, 0.0, 1.0, 0.0)
    assert cells_of([NEG], [NEG], 0.9) == (0.0, 0.0, 0.0, 1.0)


def test_decayed_update_direct_formula():
    # each cell hit once, then a true negative: every cell fades by 0.9
    # per step, and the true negatives gain one
    got = cells_of([POS, POS, NEG, NEG, NEG], [POS, NEG, POS, NEG, NEG], 0.9)
    assert got == pytest.approx((0.9**4, 0.9**3, 0.9**2, 0.9 + 1.0), abs=1e-15)


def test_decayed_eta_one_equals_cumulative():
    rng = np.random.default_rng(11)
    truths = rng.choice([POS, NEG], 1000)
    preds = rng.choice([POS, NEG], 1000)
    got = decayed_confusion_series(truths, preds, 1.0)
    for series, (t, p) in zip(got, ((POS, POS), (POS, NEG), (NEG, POS), (NEG, NEG))):
        assert np.array_equal(series, np.cumsum((truths == t) & (preds == p)))


def test_decayed_counts_match_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        eta = rng.uniform(0.5, 0.999)
        updates = [
            (rng.choice((POS, NEG)), rng.choice((POS, NEG)))
            for _ in range(rng.randrange(1, 120))
        ]
        truths, preds = (np.array(u) for u in zip(*updates))
        series = decayed_confusion_series(truths, preds, eta)
        for i in range(len(updates)):
            ref = brute_decayed_cells(updates[: i + 1], eta)
            for key, got in zip(("tp", "fn", "fp", "tn"), series):
                assert abs(got[i] - ref[key]) < 1e-12


# ---------------------------------------------------------------------------
# decayed per-class recall and G-mean
# ---------------------------------------------------------------------------


def final_measures(truths, preds):
    """The last step's (recall_pos, recall_neg, g_mean), cumulative (eta 1)."""
    return tuple(
        float(s[-1])
        for s in decayed_recall_gmean_series(np.array(truths), np.array(preds), 1.0)
    )


def record_of(tp=0, fn=0, fp=0, tn=0):
    """A (truths, preds) record with the given cumulative cells."""
    pairs = [(POS, POS)] * tp + [(POS, NEG)] * fn + [(NEG, POS)] * fp
    pairs += [(NEG, NEG)] * tn
    return tuple(list(u) for u in zip(*pairs))


def test_recall_examples():
    assert final_measures(*record_of(tp=9, fn=1))[0] == 0.9
    assert final_measures(*record_of(tp=3, fn=7))[0] == pytest.approx(0.3)
    # no positive yet: recall 0, not NaN
    assert final_measures(*record_of(tn=4))[0] == 0.0


def test_g_mean_example():
    gm = final_measures(*record_of(tp=8, fn=2, fp=4, tn=6))[2]
    assert gm == pytest.approx(math.sqrt(0.8 * 0.6), abs=1e-12)
    assert gm == pytest.approx(0.69282, abs=1e-4)


def test_per_class_recall_examples():
    assert final_measures(*record_of(tp=1, fp=1))[:2] == (1.0, 0.0)
    assert final_measures(*record_of(tp=45, fn=5, fp=10, tn=90))[:2] == (0.9, 0.9)
    # each step before the first example of a class reads 0 for that class
    rp, rn, gm = decayed_recall_gmean_series(
        np.array([POS, POS, NEG]), np.array([POS, NEG, NEG]), 0.9
    )
    assert rn[:2].tolist() == [0.0, 0.0] and gm[:2].tolist() == [0.0, 0.0]
    assert rn[2] == 1.0


def test_measures_bounded_and_gmean_dominated():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        eta = float(rng.uniform(0.5, 1.0))
        truths = rng.choice([POS, NEG], n)
        preds = rng.choice([POS, NEG], n)
        rp, rn, gm = decayed_recall_gmean_series(truths, preds, eta)
        for series in (rp, rn, gm):
            assert ((series >= 0.0) & (series <= 1.0)).all()
        assert (gm <= np.maximum(rp, rn) + 1e-12).all()


# ---------------------------------------------------------------------------
# prequential AUC
# ---------------------------------------------------------------------------


def fill(window, pairs):
    for score, label in pairs:
        window.push(score, label)
    return window


def test_auc_trivial_cases():
    assert prequential_auc(fill(ScoreWindow(10), [(0.9, POS), (0.1, NEG)])) == 1.0
    assert prequential_auc(fill(ScoreWindow(10), [(0.5, POS), (0.5, NEG)])) == 0.5
    assert prequential_auc(fill(ScoreWindow(10), [(0.9, POS)])) == 0.5  # one class only
    assert prequential_auc(ScoreWindow(10)) == 0.5


def test_auc_four_pair_enumeration():
    pairs = [(0.8, POS), (0.4, POS), (0.6, NEG), (0.2, NEG)]
    assert prequential_auc(fill(ScoreWindow(10), pairs)) == pytest.approx(0.75)


def test_auc_matches_pairwise_oracle():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(2, 60)
        # coarse score grid forces genuine ties
        pairs = [
            (rng.randrange(0, 8) / 8.0, rng.choice((POS, NEG))) for _ in range(n)
        ]
        w = fill(ScoreWindow(64), pairs)
        assert prequential_auc(w) == pytest.approx(brute_auc(pairs), abs=1e-12)


def test_auc_respects_capacity_eviction():
    w = ScoreWindow(2)
    w.push(0.9, POS)
    w.push(0.1, NEG)
    w.push(0.05, POS)  # evicts the 0.9 positive
    assert len(w) == 2
    # only (0.05 POS, 0.1 NEG) is left; with the 0.9 still in, AUC would be 0.5
    assert prequential_auc(w) == 0.0


def pair_count_auc(pairs):
    """AUC from the doubled pairwise count 2U: 2 per win, 1 per tie."""
    pos = [s for s, lab in pairs if lab == POS]
    neg = [s for s, lab in pairs if lab == NEG]
    if not pos or not neg:
        return 0.5
    u2 = sum(2 if sp > sn else 1 if sp == sn else 0 for sp in pos for sn in neg)
    return (u2 / 2) / (len(pos) * len(neg))


def rank_sum_auc(pairs):
    """AUC from the positives' mid-rank sum, as a from-scratch re-ranking."""
    scores = np.array([s for s, _ in pairs])
    pos_mask = np.array([lab == POS for _, lab in pairs])
    n_pos = int(pos_mask.sum())
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    u = float(scipy.stats.rankdata(scores)[pos_mask].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def test_incremental_auc_equals_recount_exactly():
    # ties (coarse grid), wrap-around eviction (long runs into small windows)
    # and clear(), all compared with == against a from-scratch recount
    rng = random.Random(41)
    for capacity in (1, 2, 7, 33, 100):
        w = ScoreWindow(capacity)
        kept = []
        for step in range(1500):
            if rng.random() < 0.002:
                w.clear()
                kept = []
            pair = (rng.randrange(0, 12) / 12.0, rng.choice((POS, NEG, NEG)))
            w.push(*pair)
            kept = (kept + [pair])[-capacity:]
            assert len(w) == len(kept)
            got = prequential_auc(w)
            assert got == pair_count_auc(kept)
            assert got == rank_sum_auc(kept)


def test_score_window_rejects_nan_scores():
    w = ScoreWindow(4)
    with pytest.raises(ValueError):
        w.push(float("nan"), POS)
    assert len(w) == 0


def test_auc_invariant_under_monotone_transform():
    rng = random.Random(31)
    pairs = [(rng.random(), rng.choice((POS, NEG))) for _ in range(80)]
    base = prequential_auc(fill(ScoreWindow(100), pairs))
    squashed = [(math.tanh(3 * s) * 0.5 + 0.5, lab) for s, lab in pairs]
    assert prequential_auc(fill(ScoreWindow(100), squashed)) == pytest.approx(
        base, abs=1e-12
    )


def test_auc_unchanged_by_duplicating_negatives():
    rng = random.Random(37)
    pairs = [(rng.randrange(0, 10) / 10.0, rng.choice((POS, NEG))) for _ in range(40)]
    doubled = pairs + [(s, lab) for s, lab in pairs if lab == NEG]
    a = prequential_auc(fill(ScoreWindow(200), pairs))
    b = prequential_auc(fill(ScoreWindow(200), doubled))
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------

# published two-sided alpha=0.05 critical values (reject when W <= c)
CLASSIC_CRITICAL = {
    6: 0, 7: 2, 8: 3, 9: 5, 10: 8, 11: 10, 12: 13, 13: 17, 14: 21, 15: 25,
    16: 29, 17: 34, 18: 40, 19: 46, 20: 52, 21: 58, 22: 65, 23: 73, 24: 81,
    25: 89,
}


def test_wilcoxon_identical_sequences_not_significant():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0] * 4, [1.0, 2.0, 3.0] * 4)
    assert not res.significant
    assert res.statistic == 0.0
    assert res.n == 0


def test_wilcoxon_saturated_shift_significant():
    b = [float(i) for i in range(30)]
    a = [v + 1.0 for v in b]
    res = wilcoxon_signed_rank(a, b)
    assert res.significant
    assert res.p_value < 1e-5


def test_wilcoxon_too_few_pairs():
    with pytest.raises(TooFewPairsError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])


def test_wilcoxon_exact_decision_reproduces_published_table():
    # With untied ranks 1..n, the largest W accepted as significant must
    # match the classic critical-value table.
    for n, crit in CLASSIC_CRITICAL.items():
        b = [0.0] * n
        for w in range(0, crit + 3):
            # build sign-flipped differences with untied ranks 1..n whose
            # negative rank sum is exactly w (greedy subset of ranks)
            remaining = w
            negative = set()
            for rank in range(n, 0, -1):
                if remaining >= rank:
                    negative.add(rank)
                    remaining -= rank
            assert remaining == 0, "greedy subset always representable"
            a = [
                (-(rank) if rank in negative else rank) for rank in range(1, n + 1)
            ]
            res = wilcoxon_signed_rank([float(v) for v in a], b)
            assert res.statistic == float(w)
            assert res.significant == (w <= crit), (n, w, crit, res)


def test_wilcoxon_matches_scipy_exact_and_approx():
    rng = np.random.default_rng(42)
    for n in (8, 14, 20, 25):
        for _ in range(20):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            res = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, method="exact")
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-10)
    for n in (26, 40, 80):
        for _ in range(20):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            res = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, method="approx", correction=False)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)


def test_midranks_equal_rankdata():
    rng = np.random.default_rng(6)
    for n in (1, 2, 5, 30, 200):
        for _ in range(20):
            # few distinct values, so most ranks are shared
            x = rng.integers(0, max(2, n // 3), size=n) / 4.0
            assert np.array_equal(_midranks(x), scipy.stats.rankdata(x))
        x = rng.normal(size=n)
        assert np.array_equal(_midranks(x), scipy.stats.rankdata(x))


def test_wilcoxon_null_rejection_rate_calibrated():
    rng = np.random.default_rng(2024)
    for n in (20, 40):  # exact path and normal-approximation path
        rejections = 0
        for _ in range(1000):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if wilcoxon_signed_rank(a, b).significant:
                rejections += 1
        assert 0.03 <= rejections / 1000 <= 0.07


# ---------------------------------------------------------------------------
# vectorized decayed series
# ---------------------------------------------------------------------------


def test_decayed_series_matches_online_loop():
    rng = np.random.default_rng(9)
    truths = rng.choice([POS, NEG], size=400)
    preds = rng.choice([POS, NEG], size=400)
    updates = list(zip(truths.tolist(), preds.tolist()))
    for eta in (0.9, 0.995):
        rp, rn, gm = decayed_recall_gmean_series(truths, preds, eta)
        for i in range(len(truths)):
            c = brute_decayed_cells(updates[: i + 1], eta)
            tp_fn, tn_fp = c["tp"] + c["fn"], c["tn"] + c["fp"]
            rp_i = c["tp"] / tp_fn if tp_fn > 0.0 else 0.0
            rn_i = c["tn"] / tn_fp if tn_fp > 0.0 else 0.0
            assert rp[i] == pytest.approx(rp_i, abs=1e-9)
            assert rn[i] == pytest.approx(rn_i, abs=1e-9)
            assert gm[i] == pytest.approx(math.sqrt(rp_i * rn_i), abs=1e-9)


def test_decayed_series_bit_identical_to_lfilter():
    rng = np.random.default_rng(10)
    truths = rng.choice([POS, NEG], size=3000, p=[0.1, 0.9])
    preds = rng.choice([POS, NEG], size=3000)
    cells = (
        (truths == POS) & (preds == POS),
        (truths == POS) & (preds == NEG),
        (truths == NEG) & (preds == POS),
        (truths == NEG) & (preds == NEG),
    )
    for eta in (0.5, 0.9, 0.995, 1.0):
        got = decayed_confusion_series(truths, preds, eta)
        for series, ind in zip(got, cells):
            ref = scipy.signal.lfilter([1.0], [1.0, -eta], ind.astype(float))
            assert np.array_equal(series, ref)
    empty = decayed_confusion_series(truths[:0], preds[:0], 0.9)
    assert all(s.shape == (0,) for s in empty)
