"""Release acceptance gate: one test per shipping criterion.

Each test prints one PASS/FAIL line per checked claim (visible with
``pytest -s`` and in the failure output) and fails if any claim inside it
fails, so a plain ``pytest -v tests/test_acceptance.py`` is the release
verdict.  The stream experiments run 30 seeds per pipeline and take a few
minutes each; everything is deterministic from fixed base seeds.
"""
from __future__ import annotations

import filecmp
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from one_step import step
from skewstream.detectors import AucDropDetector, FourRatesDetector, Verdict
from skewstream.harness import (
    ExperimentConfig,
    PipelineSpec,
    _segmented_series,
    aggregate_and_test,
    run_experiment,
)
from skewstream.imbalance import ClassSizeTracker
from skewstream.labels import LABELS, NEG, POS
from skewstream.learners import MlpBank
from skewstream.metrics import (
    ScoreWindow,
    decayed_confusion_series,
    decayed_recall_gmean_series,
    prequential_auc,
    wilcoxon_signed_rank,
)
from skewstream.presets import PRESETS
from skewstream.streams import StreamGenerator, mixture_weight, stationary_schedule

RUNS = 30
BASE_SEED = 0
README = Path(__file__).resolve().parent.parent / "README.md"


def check(fails: list, tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}", flush=True)
    if not ok:
        fails.append(f"{tag}: {detail}")


def finish(fails: list) -> None:
    assert not fails, "failed claims -> " + " | ".join(fails)


def run_report(preset: str, pipes: list[PipelineSpec]):
    cfg = ExperimentConfig(
        schedule=PRESETS[preset],
        pipelines=pipes,
        runs=RUNS,
        base_seed=BASE_SEED,
    )
    return aggregate_and_test(run_experiment(cfg), cfg)


def post_gmeans(report, name: str) -> np.ndarray:
    return np.array([a.post_gmean for a in report.per_run[name]])


@pytest.fixture(scope="session")
def prior_flip_report():
    return run_report(
        "sine1-py",
        [
            PipelineSpec("OB", "OB"),
            PipelineSpec("OOB", "OOB"),
            PipelineSpec("OB+lfr", "OB", "lfr"),
            PipelineSpec("OOB+lfr", "OOB", "lfr"),
            PipelineSpec("OB+auc", "OB", "pauc-ph"),
            PipelineSpec("OOB+auc", "OOB", "pauc-ph"),
        ],
    )


@pytest.fixture(scope="session")
def feature_shift_report():
    return run_report(
        "sine1-pxy",
        [
            PipelineSpec("OB", "OB"),
            PipelineSpec("OOB", "OOB"),
            PipelineSpec("OB+ddm", "OB", "ddm-oci"),
            PipelineSpec("OOB+ddm", "OOB", "ddm-oci"),
            PipelineSpec("OB+lfr", "OB", "lfr"),
            PipelineSpec("OOB+lfr", "OOB", "lfr"),
        ],
    )


@pytest.fixture(scope="session")
def boundary_shift_report():
    return run_report(
        "sea-pyx",
        [
            PipelineSpec("OB", "OB"),
            PipelineSpec("OOB", "OOB"),
            PipelineSpec("OB+ddm", "OB", "ddm-oci"),
            PipelineSpec("OB+lfr", "OB", "lfr"),
            PipelineSpec("OB+auc", "OB", "pauc-ph"),
            PipelineSpec("OOB+auc", "OOB", "pauc-ph"),
        ],
    )


@pytest.fixture(scope="session")
def gradual_boundary_shift_report():
    return run_report(
        "seag-pyx",
        [
            PipelineSpec("OB+auc", "OB", "pauc-ph"),
            PipelineSpec("OOB+auc", "OOB", "pauc-ph"),
        ],
    )


# ---------------------------------------------------------------------------
# 1. streaming metrics against brute-force oracles
# ---------------------------------------------------------------------------


def brute_ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def test_streaming_metric_oracles_match_brute_force():
    fails = []
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 121))
        eta = float(rng.choice([1.0, 0.995, 0.99, 0.9, rng.uniform(0.5, 1.0)]))
        truths = rng.choice(LABELS, n)
        preds = rng.choice(LABELS, n)
        scores = rng.random(n)

        # decayed confusion cells, both per-class recalls and the G-mean at
        # every step: each cell is the sum of eta^age over the steps it hit
        series = decayed_confusion_series(truths, preds, eta)
        series += decayed_recall_gmean_series(truths, preds, eta)
        keys = [
            ("tp" if p == t else "fn") if t == POS else ("tn" if p == t else "fp")
            for t, p in zip(truths, preds)
        ]
        for s in range(n):
            cells = {"tp": 0.0, "fn": 0.0, "fp": 0.0, "tn": 0.0}
            for i in range(s + 1):
                cells[keys[i]] += eta ** (s - i)
            rp = brute_ratio(cells["tp"], cells["tp"] + cells["fn"])
            rn = brute_ratio(cells["tn"], cells["tn"] + cells["fp"])
            want = (
                cells["tp"], cells["fn"], cells["fp"], cells["tn"],
                rp, rn, math.sqrt(rp * rn),
            )
            worst = max(worst, max(abs(g[s] - w) for g, w in zip(series, want)))

        # windowed ranking quality against the all-pairs count
        capacity = int(rng.integers(5, 61))
        win = ScoreWindow(capacity)
        for s, t in zip(scores, truths):
            win.push(float(s), int(t))
        kept = list(zip(scores, truths))[-capacity:]
        pos = [s for s, t in kept if t == POS]
        neg = [s for s, t in kept if t == NEG]
        if pos and neg:
            wins = sum(
                1.0 if sp > sn else 0.5 if sp == sn else 0.0
                for sp in pos for sn in neg
            )
            brute = wins / (len(pos) * len(neg))
        else:
            brute = 0.5
        worst = max(worst, abs(prequential_auc(win) - brute))

        # time-decayed class sizes
        theta = float(rng.uniform(0.5, 0.99))
        tracker = ClassSizeTracker(theta)
        tracker.track(truths.tolist())
        for label in LABELS:
            w = (theta**n) * 0.5 + (1.0 - theta) * sum(
                theta ** (n - 1 - i) for i, t in enumerate(truths) if t == label
            )
            worst = max(worst, abs(tracker.w[label] - w))

    check(fails, "c1 metric-oracles", worst < 1e-12,
          f"worst |streaming - brute| = {worst:.2e} over 1000 sequences "
          "(need < 1e-12)")
    finish(fails)


# ---------------------------------------------------------------------------
# 2. abrupt prior flip on the sine boundary
# ---------------------------------------------------------------------------


def test_prior_flip_reproduction(prior_flip_report):
    rep = prior_flip_report
    fails = []

    for name in ("OB+auc", "OOB+auc"):
        s = rep.detector_scores[name]
        check(fails, "c2a ranking-monitor-silent-on-prior-flip",
              s.tdr == 0.0, f"{name} tdr={s.tdr:.3f} (need exactly 0)")
    for name in ("OB+lfr", "OOB+lfr"):
        s = rep.detector_scores[name]
        check(fails, "c2b rate-monitor-catches-prior-flip",
              s.tdr >= 0.90, f"{name} tdr={s.tdr:.3f} (need >= 0.90)")
    gm = post_gmeans(rep, "OOB")
    check(fails, "c2c oversampling-post-drift-gmean-level",
          abs(gm.mean() - 0.83) <= 0.08,
          f"OOB post-drift G-mean mean={gm.mean():.4f} (need 0.83 +/- 0.08)")
    res = wilcoxon_signed_rank(gm, post_gmeans(rep, "OB"))
    ok = res.significant and gm.mean() > post_gmeans(rep, "OB").mean()
    check(fails, "c2d oversampling-beats-plain-bagging",
          ok,
          f"OOB {gm.mean():.3f} vs OB {post_gmeans(rep, 'OB').mean():.3f}, "
          f"p={res.p_value:.2e} (need significant at 0.05)")
    finish(fails)


# ---------------------------------------------------------------------------
# 3. minority-feature shift on the sine boundary
# ---------------------------------------------------------------------------


def test_minority_feature_shift_reproduction(feature_shift_report):
    rep = feature_shift_report
    fails = []

    rp = np.array([a.post_recall_pos for a in rep.per_run["OB"]])
    check(fails, "c3a plain-bagging-minority-collapse",
          rp.mean() <= 0.02,
          f"OB post-drift minority recall mean={rp.mean():.4f} "
          "(need <= 0.02)")
    gm = post_gmeans(rep, "OOB")
    check(fails, "c3b oversampling-absorbs-feature-shift",
          gm.mean() >= 0.70,
          f"OOB post-drift G-mean mean={gm.mean():.4f} (need >= 0.70)")
    for det in ("ddm", "lfr"):
        s_ob = rep.detector_scores[f"OB+{det}"]
        s_oob = rep.detector_scores[f"OOB+{det}"]
        check(fails, f"c3c {det}-blind-without-oversampling",
              s_ob.tdr <= 0.10,
              f"OB+{det} tdr={s_ob.tdr:.3f} (need <= 0.10)")
        check(fails, f"c3d {det}-sees-drift-with-oversampling",
              s_oob.tdr >= 0.90,
              f"OOB+{det} tdr={s_oob.tdr:.3f} (need >= 0.90)")
    finish(fails)


def test_readme_quotes_the_failing_claims_as_measured(
    prior_flip_report, feature_shift_report
):
    # README's paragraph on the claims that fail quotes the acceptance
    # fixtures' figures, each at the precision it prints
    shift = feature_shift_report

    def mean(name: str, field: str) -> float:
        return np.mean([getattr(a, field) for a in shift.per_run[name]])

    ob = shift.records["OB"]
    recall = np.mean(
        [_segmented_series(r, shift.config.schedule, shift.config.metric_decay)[0]
         for r in ob],
        axis=0,
    )
    at = {step: recall[step - ob[0].warm_up - 1] for step in (1600, 2000, 3000)}
    lfr = shift.detector_scores["OB+lfr"]
    quoted = [
        f"averages {post_gmeans(prior_flip_report, 'OOB').mean():.4f}, above the "
        "pinned band",
        f"averages {mean('OB', 'pre_recall_pos'):.3f} over the pre-drift window "
        f"(`OOB`: {mean('OOB', 'pre_recall_pos'):.3f})",
        f"still {at[1600]:.3f} at step 1600, {at[2000]:.3f} at step 2000 and "
        f"{at[3000]:.3f} at step 3000",
        f"therefore {mean('OB', 'post_recall_pos'):.3f} (target <= 0.02)",
        f"detects the drift in {lfr.tdr:.3f} of the runs",
        f"{lfr.dod:.0f} steps after the shift on average",
    ]
    readme = " ".join(README.read_text(encoding="utf-8").split())
    assert [q for q in quoted if q not in readme] == []


# ---------------------------------------------------------------------------
# 4. boundary threshold shift (ordinal claims only)
# ---------------------------------------------------------------------------


def test_boundary_shift_ordinal_claims(
    boundary_shift_report, gradual_boundary_shift_report
):
    rep = boundary_shift_report
    fails = []

    ob_based = ("OB", "OB+ddm", "OB+lfr", "OB+auc")
    for name in ("OOB", "OOB+auc"):
        mine = post_gmeans(rep, name).mean()
        for other in ob_based:
            theirs = post_gmeans(rep, other).mean()
            check(fails, "c4a oversampling-dominates-plain-pipelines",
                  mine > theirs,
                  f"{name} {mine:.4f} > {other} {theirs:.4f}")
    for stream, r in (("sea-pyx", rep), ("seag-pyx", gradual_boundary_shift_report)):
        for name in ("OB+auc", "OOB+auc"):
            s = r.detector_scores[name]
            check(fails, "c4b ranking-monitor-silent-on-shallow-shift",
                  s.tdr == 0.0,
                  f"{stream} {name} tdr={s.tdr:.3f} (need exactly 0)")
    finish(fails)


# ---------------------------------------------------------------------------
# 5. stationary-null calibration with a simulated classifier
# ---------------------------------------------------------------------------


def test_stationary_null_detector_calibration():
    fails = []

    # ranking monitor: balanced stream, fixed-quality noisy scores
    false_alarms = []
    for run in range(RUNS):
        rng = np.random.default_rng([101, run])
        det = AucDropDetector()
        alarms = 0
        for _ in range(3000):
            truth = POS if rng.random() < 0.5 else NEG
            mu = 0.65 if truth == POS else 0.35
            score = float(np.clip(rng.normal(mu, 0.2), 0.0, 1.0))
            if step(det, truth, None, score=score) is Verdict.DRIFT:
                alarms += 1
        false_alarms.append(alarms)
    fa = float(np.mean(false_alarms))
    check(fails, "c5a ranking-monitor-null-rate",
          fa <= 2.0,
          f"mean false alarms per 3000 steps = {fa:.2f} over {RUNS} runs "
          "(need <= 2)")

    # rate monitor, free running: per-comparison violation rate vs its level
    drifts = 0
    checks = 0
    level = None
    for run in range(100):
        rng = np.random.default_rng([202, run])
        det = FourRatesDetector(auto_rearm=False)
        level = det.table.detect_level
        for _ in range(3000):
            truth = POS if rng.random() < 0.5 else NEG
            pred = truth if rng.random() < 0.8 else -truth
            if step(det, truth, pred) is Verdict.DRIFT:
                drifts += 1
        checks += det.checks
    rate = drifts / checks
    check(fails, "c5b rate-monitor-null-calibration",
          level / 3.0 <= rate <= 3.0 * level,
          f"violation rate {rate:.2e} over {checks} comparisons "
          f"(need within 3x of level {level:.0e})")
    finish(fails)


# ---------------------------------------------------------------------------
# 6. stream generator statistics
# ---------------------------------------------------------------------------


def test_generator_prior_statistics_and_gradual_cutover():
    fails = []
    n = 10_000
    worst = 0.0
    for name, schedule in sorted(PRESETS.items()):
        for which in ("old", "new"):
            concept = getattr(schedule, which)
            gen = StreamGenerator(stationary_schedule(concept, n), seed=42)
            got = np.mean([label == POS for _, label in gen])
            p = concept.positive_prior
            se = math.sqrt(p * (1.0 - p) / n)
            z = abs(got - p) / se
            worst = max(worst, z)
            if z > 3.0:
                check(fails, "c6a preset-priors-within-3se", False,
                      f"{name}.{which}: prior {got:.4f} vs {p} (z={z:.2f})")
    check(fails, "c6a preset-priors-within-3se", worst <= 3.0,
          f"worst z over {2 * len(PRESETS)} stationary concepts = {worst:.2f} "
          "(need <= 3)")

    gradual = {k: v for k, v in PRESETS.items() if v.drift_duration > 0}
    ok = all(
        mixture_weight(2001, s) == 1.0 and mixture_weight(2000, s) < 1.0
        for s in gradual.values()
    )
    check(fails, "c6b gradual-cutover-at-step-2001", ok,
          f"{sorted(gradual)} reach 100% new-concept sampling at step 2001 "
          "and not before")
    finish(fails)


# ---------------------------------------------------------------------------
# 7. the training kernel's update against central finite differences
# ---------------------------------------------------------------------------


def test_mlp_gradients_match_finite_differences():
    # One round of the kernel, as `RowSchedule.run` makes it: a forward pass
    # and a gradient step on every row of a bank, each row on its own input,
    # one-hot target and step size. At step size 1 a row's weights move by
    # minus the gradient of its cross-entropy, so (weights before - weights
    # after) must match central differences of -log P(label | x), taken on
    # the weights before the round; a row at step size 0 must not move. The
    # weights are the ones the bank stores, the hidden layer negated, and
    # the loss is taken as a function of them.
    fails = []
    worst = 0.0
    unmoved = True
    eps = 1e-5
    names = ("neg_W1", "neg_b1", "W2", "b2")
    m = 4
    for seed in range(10):
        rng = np.random.default_rng([7, seed])
        bank = MlpBank(3, [[seed, i] for i in range(m)])
        X = rng.uniform(0.0, 10.0, (m, 3))
        cls = rng.integers(0, 2, m)  # column 0 is POS, 1 is NEG
        T = np.eye(2)[cls]
        still = int(rng.integers(m))
        steps = np.ones((m, 2))  # a row's step size, in both class columns
        steps[still] = 0.0
        before = [getattr(bank, n).copy() for n in names]
        bank.kernel(X, T, steps, np.empty(m))
        grads = [b - getattr(bank, n) for n, b in zip(names, before)]
        unmoved &= all(
            np.array_equal(getattr(bank, n)[still], b[still])
            for n, b in zip(names, before)
        )
        for n, b in zip(names, before):
            getattr(bank, n)[...] = b
        coords = [
            (k, r, i)
            for k, b in enumerate(before)
            for r in range(m)
            if r != still
            for i in range(b[r].size)
        ]
        for coord in rng.choice(len(coords), 10, replace=False):
            k, r, i = coords[coord]
            w, v = getattr(bank, names[k])[r], before[k][r].flat[i]
            w.flat[i] = v + eps
            up = -math.log(bank.kernel(X)[1][r, cls[r]])
            w.flat[i] = v - eps
            down = -math.log(bank.kernel(X)[1][r, cls[r]])
            w.flat[i] = v
            fd = (up - down) / (2.0 * eps)
            g = grads[k][r].flat[i]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
            worst = max(worst, rel)
    check(fails, "c7 gradient-check", worst < 1e-4 and unmoved,
          f"worst relative error {worst:.2e} of one kernel round on {m} rows "
          "over 10 coords x 10 seeds (need < 1e-4); step-0 rows unmoved: "
          f"{unmoved} (need True)")
    finish(fails)


# ---------------------------------------------------------------------------
# 8. lock-file replay through the command line
# ---------------------------------------------------------------------------


REPLAY_CONFIG = """
[experiment]
runs = 2
base_seed = 11
members = 5

[stream]
generator = sine1
total_steps = 600
drift_start = 301
positive_prior = 0.1
new_positive_prior = 0.9

[pipeline OB+ddm]
learner = ob
detector = ddm-oci

[pipeline OOB]
learner = oob
"""


def tree_files(root: Path) -> dict[str, Path]:
    return {
        str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_cli_lock_replay_byte_identical(tmp_path):
    fails = []
    cfg = tmp_path / "exp.ini"
    cfg.write_text(REPLAY_CONFIG)
    first = tmp_path / "first"
    second = tmp_path / "second"
    for src, out in ((cfg, first), (first / "config.lock", second)):
        res = subprocess.run(
            [sys.executable, "-m", "skewstream.cli", "run", str(src),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        check(fails, "c8 cli-run-succeeds", res.returncode == 0,
              f"exit {res.returncode} for {src.name}: {res.stderr.strip()[:200]}")
    a, b = tree_files(first), tree_files(second)
    check(fails, "c8 replay-same-file-set", a.keys() == b.keys(),
          f"{sorted(a.keys() ^ b.keys()) or 'identical file lists'}")
    diff = [
        rel for rel in sorted(a.keys() & b.keys())
        if not filecmp.cmp(a[rel], b[rel], shallow=False)
    ]
    check(fails, "c8 replay-byte-identical", not diff,
          f"differing files: {diff or 'none'} "
          f"({len(a)} files compared)")
    finish(fails)
