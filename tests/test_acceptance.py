"""Release acceptance gate: one test per shipping criterion.

Each test prints one PASS/FAIL line per checked value (visible with
``pytest -s`` and in the failure output) and fails if any claim inside it
fails, so a plain ``pytest -v tests/test_acceptance.py`` is the release
verdict. The stream experiments (rows of ``FIXTURES``, read by the rows of
``CLAIMS``) run 30 seeds per pipeline, take 6-10 s each and run once per
session; everything is deterministic from fixed base seeds.
"""
from __future__ import annotations

import filecmp
import functools
import math
import re
import subprocess
import sys
from collections import namedtuple
from itertools import product
from operator import eq, ge, le, lt
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from one_step import step
from skewstream.detectors import AucDropDetector, FourRatesDetector, Verdict
from skewstream.harness import (
    NO_DETECTOR, ExperimentConfig, PipelineSpec, _segmented_series,
    aggregate_and_test, run_experiment,
)
from skewstream.imbalance import ClassSizeTracker
from skewstream.labels import LABELS, NEG, POS
from skewstream.learners import MlpBank
from skewstream.metrics import (
    ScoreWindow, decayed_confusion_series, decayed_recall_gmean_series,
    prequential_auc, wilcoxon_signed_rank,
)
from skewstream.presets import PRESETS
from skewstream.streams import StreamGenerator, mixture_weight, stationary_schedule

RUNS = 30
README = Path(__file__).resolve().parent.parent / "README.md"


def check(fails: list, tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}", flush=True)
    if not ok:
        fails.append(f"{tag}: {detail}")


def finish(fails: list) -> None:
    assert not fails, "failed claims -> " + " | ".join(fails)


class Band(NamedTuple):
    """A claim's target: the text its line prints after "need", and its test."""

    text: str
    holds: Callable[[float], bool]


def compare(op: str, x: str) -> Band:
    test = {"<": lt, "<=": le, ">=": ge, "exactly": eq, "significant at": le}[op]
    return Band(f"{op} {x}", lambda v: test(v, float(x)))


def near(x: str, r: str) -> Band:
    return Band(f"{x} +/- {r}", lambda v: abs(v - float(x)) <= float(r))


# the fixtures: stream experiments, each run once per session; a pipeline is
# named by its learner, then "+" and its detector's short name
Fixture = namedtuple("Fixture", "preset pipelines runs base_seed", defaults=(RUNS, 0))
FIXTURES = {
    "prior-flip": Fixture("sine1-py", "OB OOB OB+lfr OOB+lfr OB+auc OOB+auc"),
    "feature-shift": Fixture("sine1-pxy", "OB OOB OB+ddm OOB+ddm OB+lfr OOB+lfr"),
    "boundary-shift": Fixture("sea-pyx", "OB OOB OB+ddm OB+lfr OB+auc OOB+auc"),
    "gradual-boundary-shift": Fixture("seag-pyx", "OB+auc OOB+auc"),
}
DETECTOR_NAMES = {"": NO_DETECTOR, "ddm": "ddm-oci", "lfr": "lfr", "auc": "pauc-ph"}


def pipeline_spec(name: str) -> PipelineSpec:
    learner, _, detector = name.partition("+")
    return PipelineSpec(name, learner, DETECTOR_NAMES[detector])


@functools.cache
def fixture_report(name: str):
    preset, pipelines, runs, base_seed = FIXTURES[name]
    pipes = [pipeline_spec(p) for p in pipelines.split()]
    cfg = ExperimentConfig(PRESETS[preset], pipes, runs=runs, base_seed=base_seed)
    return aggregate_and_test(run_experiment(cfg), cfg)


class Claim(NamedTuple):
    """A claim on a fixture, one line per entry (a pipeline or a pair).
    ``value(report, entry)`` is the number the band judges, or a dict of the
    line's fields holding it as "value" and an "ok" that must hold too.
    ``readme`` is the phrase README quotes a failing value in."""

    tag: str
    fixture: str
    entries: tuple
    value: Callable
    line: str
    band: Band | None = None
    readme: str | None = None


def tdr(rep, pipe: str) -> float:
    return rep.detector_scores[pipe].tdr


def run_mean(field: str) -> Callable:
    return lambda rep, pipe: np.mean([getattr(a, field) for a in rep.per_run[pipe]])


def beats(rep, pair) -> dict:
    mine, theirs = (run_mean("post_gmean")(rep, p) for p in pair)
    return {"value": mine, "mine": mine, "theirs": theirs, "ok": mine > theirs}


def beats_significantly(rep, pair) -> dict:
    gmeans = [[a.post_gmean for a in rep.per_run[p]] for p in pair]
    return {**beats(rep, pair), "value": wilcoxon_signed_rank(*gmeans).p_value}


TDR = "{e} tdr={value:.3f}"
POST_GMEAN = "{e} post-drift G-mean mean={value:.4f}"
CLAIMS = [
    Claim("c2a ranking-monitor-silent-on-prior-flip", "prior-flip",
          ("OB+auc", "OOB+auc"), tdr, TDR, compare("exactly", "0")),
    Claim("c2b rate-monitor-catches-prior-flip", "prior-flip", ("OB+lfr", "OOB+lfr"),
          tdr, TDR, compare(">=", "0.90")),
    Claim("c2c oversampling-post-drift-gmean-level", "prior-flip", ("OOB",),
          run_mean("post_gmean"), POST_GMEAN, near("0.83", "0.08"),
          "averages {value:.4f}, above the pinned band {band}"),
    Claim("c2d oversampling-beats-plain-bagging", "prior-flip", (("OOB", "OB"),),
          beats_significantly,
          "{e[0]} {mine:.3f} vs {e[1]} {theirs:.3f}, p={value:.2e}",
          compare("significant at", "0.05")),
    Claim("c3a plain-bagging-minority-collapse", "feature-shift", ("OB",),
          run_mean("post_recall_pos"),
          "{e} post-drift minority recall mean={value:.4f}", compare("<=", "0.02"),
          "therefore {value:.3f} (target {band})"),
    Claim("c3b oversampling-absorbs-feature-shift", "feature-shift", ("OOB",),
          run_mean("post_gmean"), POST_GMEAN, compare(">=", "0.70")),
    *(
        Claim(f"{cid} {det}-{what}", "feature-shift", (f"{learner}+{det}",), tdr, TDR,
              band, readme)
        for det in ("ddm", "lfr")
        for cid, what, learner, band, readme in (
            ("c3c", "blind-without-oversampling", "OB", compare("<=", "0.10"),
             "detects the drift in {value:.3f} of the runs (target {band})"),
            ("c3d", "sees-drift-with-oversampling", "OOB", compare(">=", "0.90"), None),
        )
    ),
    Claim("c4a oversampling-dominates-plain-pipelines", "boundary-shift",
          tuple(product(("OOB", "OOB+auc"), ("OB", "OB+ddm", "OB+lfr", "OB+auc"))),
          beats, "{e[0]} {mine:.4f} > {e[1]} {theirs:.4f}"),
    *(
        Claim("c4b ranking-monitor-silent-on-shallow-shift", fixture,
              ("OB+auc", "OOB+auc"), tdr, "{preset} " + TDR, compare("exactly", "0"))
        for fixture in ("boundary-shift", "gradual-boundary-shift")
    ),
]


def verdicts(claim: Claim):
    """(fields, line without PASS/FAIL, ok) for each of the claim's entries."""
    report = fixture_report(claim.fixture)
    for entry in claim.entries:
        got = claim.value(report, entry)
        fields = {"preset": FIXTURES[claim.fixture].preset, "e": entry}
        fields.update(got if isinstance(got, dict) else {"value": got})
        line = claim.line.format(**fields)
        ok = fields.get("ok", True)
        if claim.band:
            line += f" (need {claim.band.text})"
            ok = ok and claim.band.holds(fields["value"])
        yield fields, line, ok


def judge(criterion: str) -> None:
    """Print the criterion's claim lines; fail if any claim fails."""
    fails = []
    for claim in (c for c in CLAIMS if c.tag.startswith(criterion)):
        for _, line, ok in verdicts(claim):
            check(fails, claim.tag, ok, line)
    finish(fails)


def test_claims_table_is_consistent():
    # runs no experiment, so a typo in the table shows before a fixture does
    for claim in CLAIMS:
        runs = FIXTURES[claim.fixture].pipelines.split()
        assert set(np.ravel(claim.entries)) <= set(runs), claim.tag
        if claim.readme:
            claim.readme.format(value=0.0, band=claim.band.text)
    for preset, pipelines, *_ in FIXTURES.values():
        assert preset in PRESETS and all(map(pipeline_spec, pipelines.split()))
    assert set(FIXTURES) == {c.fixture for c in CLAIMS}
    assert {c.tag[:2] for c in CLAIMS} == {"c2", "c3", "c4"}


# 1. streaming metrics against brute-force oracles
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

    band = compare("<", "1e-12")
    check(fails, "c1 metric-oracles", band.holds(worst),
          f"worst |streaming - brute| = {worst:.2e} over 1000 sequences "
          f"(need {band.text})")
    finish(fails)


# 2. abrupt prior flip on the sine boundary
# 3. minority-feature shift on the sine boundary
# 4. boundary threshold shift (ordinal claims only)
def test_prior_flip_reproduction():
    judge("c2")


def test_minority_feature_shift_reproduction():
    judge("c3")


def test_boundary_shift_ordinal_claims():
    judge("c4")


def test_readme_quotes_the_failing_claims_as_measured():
    # README names the experiment claims that fail, by test, and quotes each
    # failing value in its claim's README phrase, beside the claim's band
    readme = " ".join(README.read_text(encoding="utf-8").split())
    failing, quoted = set(), []
    for claim in CLAIMS:
        for fields, _, ok in verdicts(claim):
            if not ok:
                failing.add(claim.tag[:3])
                assert claim.readme, f"README quotes no phrase for {claim.tag}"
                quoted.append(claim.readme.format(**fields, band=claim.band.text))
    named = set()
    for test, ids in re.findall(r"`(test_\w+)`, claims? ([^:]+):", readme):
        assert test in globals(), f"README names no test {test}"
        named.update(re.findall(r"c\d[a-z]", ids))
    assert named == failing

    # the diagnostics README gives for them, each at its printed precision
    flip, shift = fixture_report("prior-flip"), fixture_report("feature-shift")
    curve = flip.curves["OOB"]
    steps = np.arange(len(curve)) + flip.config.warm_up + 1
    level = next(c.band for c in CLAIMS if c.tag[:3] == "c2c").text.split()[0]  # centre
    flipped = steps >= flip.config.schedule.drift_start
    last_below = steps[(curve < float(level)) & flipped].max()
    late = curve[steps >= 2000]
    cfg = shift.config
    recall = np.mean([_segmented_series(r, cfg.schedule, cfg.metric_decay)[0]
                      for r in shift.records["OB"]], axis=0)
    at = {s: recall[s - cfg.warm_up - 1] for s in (1600, 2000, 3000)}
    pre = [run_mean("pre_recall_pos")(shift, p) for p in ("OB", "OOB")]
    quoted += [
        f"{curve[steps == 1400][0]:.3f} at step 1400",
        f"{curve[steps == 1510][0]:.2f} at step 1510",
        f"back above {level} from step {last_below + 1} on (it is last below "
        f"at step {last_below})",
        f"{late.min():.2f}–{late.max():.2f} from step 2000 on",
        f"averages {pre[0]:.3f} over the pre-drift window (`OOB`: {pre[1]:.3f})",
        f"still {at[1600]:.3f} at step 1600, {at[2000]:.3f} at step 2000 and "
        f"{at[3000]:.3f} at step 3000",
        f"{shift.detector_scores['OB+lfr'].dod:.0f} steps after the shift on average",
    ]
    assert [q for q in quoted if q not in readme] == []


# 5. stationary-null calibration with a simulated classifier
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
    band = compare("<=", "2")
    check(fails, "c5a ranking-monitor-null-rate", band.holds(fa),
          f"mean false alarms per 3000 steps = {fa:.2f} over {RUNS} runs "
          f"(need {band.text})")

    # rate monitor, free running: per-comparison violation rate vs its level
    drifts = checks = 0
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
    k = 3
    check(fails, "c5b rate-monitor-null-calibration",
          level / k <= rate <= k * level,
          f"violation rate {rate:.2e} over {checks} comparisons "
          f"(need within {k}x of level {level:.0e})")
    finish(fails)


# 6. stream generator statistics
def test_generator_prior_statistics_and_gradual_cutover():
    fails = []
    n = 10_000
    worst = 0.0
    band = compare("<=", "3")
    for name, schedule in sorted(PRESETS.items()):
        for which in ("old", "new"):
            concept = getattr(schedule, which)
            gen = StreamGenerator(stationary_schedule(concept, n), seed=42)
            got = np.mean([label == POS for _, label in gen])
            p = concept.positive_prior
            z = abs(got - p) / math.sqrt(p * (1.0 - p) / n)
            worst = max(worst, z)
            if not band.holds(z):
                check(fails, "c6a preset-priors-within-3se", False,
                      f"{name}.{which}: prior {got:.4f} vs {p} (z={z:.2f})")
    check(fails, "c6a preset-priors-within-3se", band.holds(worst),
          f"worst z over {2 * len(PRESETS)} stationary concepts = {worst:.2f} "
          f"(need {band.text})")

    gradual = {k: v for k, v in PRESETS.items() if v.drift_duration > 0}
    ok = all(
        mixture_weight(2001, s) == 1.0 and mixture_weight(2000, s) < 1.0
        for s in gradual.values()
    )
    check(fails, "c6b gradual-cutover-at-step-2001", ok,
          f"{sorted(gradual)} reach 100% new-concept sampling at step 2001 "
          "and not before")
    finish(fails)


# 7. the training kernel's update against central finite differences
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
    band = compare("<", "1e-4")
    check(fails, "c7 gradient-check", band.holds(worst) and unmoved,
          f"worst relative error {worst:.2e} of one kernel round on {m} rows "
          f"over 10 coords x 10 seeds (need {band.text}); step-0 rows unmoved: "
          f"{unmoved} (need True)")
    finish(fails)


# 8. lock-file replay through the command line
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
    first, second = tmp_path / "first", tmp_path / "second"
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
          f"differing files: {diff or 'none'} ({len(a)} files compared)")
    finish(fails)
