"""Stream generator tests: label rules, drift ramp, priors, determinism."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from skewstream.labels import NEG, POS
from skewstream.presets import PRESETS, preset_schedule
from skewstream.streams import (
    SEA,
    SINE1,
    ConceptSpec,
    DriftSchedule,
    InfeasibleConceptError,
    Skew,
    StreamExhausted,
    StreamGenerator,
    dump_stream,
    mixture_weight,
    sea_label,
    sine1_label,
    stationary_schedule,
)


def test_sine1_label_rule():
    assert sine1_label(0.5, 0.0) == POS  # strictly below the curve
    assert sine1_label(0.0, 0.0) == NEG  # on the curve counts as above
    assert sine1_label(0.9, 0.7) == POS  # sin(0.9) ~ 0.783 > 0.7


def test_sea_label_rule():
    assert sea_label(3.0, 4.0, 7.0) == POS  # boundary inclusive
    assert sea_label(9.0, 9.0, 7.0) == NEG
    assert sea_label(6.0, 6.0, 13.0) == POS


def make_schedule(duration=0):
    return DriftSchedule(
        old=ConceptSpec(SINE1, 0.1),
        new=ConceptSpec(SINE1, 0.9),
        drift_start=1501,
        drift_duration=duration,
        total_steps=3000,
    )


def test_mixture_weight_pinned_points():
    abrupt = make_schedule(0)
    assert mixture_weight(1500, abrupt) == 0.0
    assert mixture_weight(1501, abrupt) == 1.0
    gradual = make_schedule(500)
    assert mixture_weight(1751, gradual) == pytest.approx(0.5)
    assert mixture_weight(2000, gradual) < 1.0
    assert mixture_weight(2001, gradual) == 1.0
    assert mixture_weight(3000, gradual) == 1.0


def test_mixture_weight_monotone():
    gradual = make_schedule(500)
    ws = [mixture_weight(t, gradual) for t in range(1, 3001)]
    assert all(b >= a for a, b in zip(ws, ws[1:]))
    assert ws[2000] == 1.0  # t = 2001


def test_schedule_validation():
    with pytest.raises(ValueError):
        DriftSchedule(
            ConceptSpec(SINE1, 0.1), ConceptSpec(SINE1, 0.9),
            drift_start=2900, drift_duration=500, total_steps=3000,
        )
    with pytest.raises(ValueError):
        DriftSchedule(
            ConceptSpec(SINE1, 0.1), ConceptSpec(SEA, 0.1), total_steps=3000
        )
    with pytest.raises(ValueError):
        ConceptSpec(SINE1, 0.0)
    with pytest.raises(ValueError):
        ConceptSpec(SEA, 0.5, threshold=25.0)
    with pytest.raises(ValueError):
        ConceptSpec("SPIRAL", 0.5)


def test_same_seed_reproduces_stream_exactly():
    sched = preset_schedule("sine1g-py")
    gen = StreamGenerator(sched, seed=77)
    a = [(x.tolist(), label) for x, label in gen]
    b = [(x.tolist(), label) for x, label in StreamGenerator(sched, seed=77)]
    assert a == b
    assert len(a) == 3000
    assert gen.t == 3000


def _reference_stream(schedule, seed):
    """(t, features, label) drawn with one numpy call per random value: the
    plain form of the generator's draw order, which its block-drawn doubles
    must reproduce exactly."""
    rng = np.random.default_rng(seed)
    for t in range(1, schedule.total_steps + 1):
        w = mixture_weight(t, schedule)
        if w >= 1.0:
            concept = schedule.new
        elif w <= 0.0:
            concept = schedule.old
        else:
            concept = schedule.new if rng.random() < w else schedule.old
        high = concept.feature_high
        label = POS if rng.random() < concept.positive_prior else NEG
        low_side = None
        skew = concept.skew
        if skew is not None and skew.label == label:
            low_side = rng.random() < skew.prob
        for _ in range(10_000):
            feats = rng.uniform(0.0, high, size=concept.n_features)
            if low_side is not None:
                if low_side:
                    feats[skew.feature] = rng.uniform(0.0, skew.split)
                else:
                    feats[skew.feature] = rng.uniform(skew.split, high)
            if concept.label_of(feats) == label:
                break
        else:
            raise AssertionError(f"no example at step {t}")
        yield t, tuple(float(v) for v in feats), label


@pytest.mark.parametrize("seed", [0, 1, 1000])
def test_block_drawn_stream_equals_per_call_draws(seed):
    for name in sorted(PRESETS):
        sched = preset_schedule(name)
        got = [
            (t, tuple(x.tolist()), label)
            for t, (x, label) in enumerate(StreamGenerator(sched, seed), start=1)
        ]
        assert got == list(_reference_stream(sched, seed)), name


def test_exhaustion_raises():
    gen = StreamGenerator(stationary_schedule(ConceptSpec(SINE1, 0.5), 5), seed=1)
    for _ in range(5):
        gen.next_example()
    with pytest.raises(StreamExhausted):
        gen.next_example()


def test_labels_match_concept_rule():
    for concept in (
        ConceptSpec(SINE1, 0.3),
        ConceptSpec(SINE1, 0.3, invert=True),
        ConceptSpec(SEA, 0.3, threshold=7.0),
        ConceptSpec(SEA, 0.3, threshold=13.0),
        ConceptSpec(SINE1, 0.1, skew=Skew(NEG, 0, 0.5, 0.9)),
    ):
        gen = StreamGenerator(stationary_schedule(concept, 500), seed=3)
        for x, label in gen:
            assert label == concept.label_of(x)
            assert x.dtype == np.float64 and x.shape == (concept.n_features,)
            for v in x:
                assert 0.0 <= v <= concept.feature_high


def test_transition_examples_come_from_one_of_the_concepts():
    sched = preset_schedule("sine1g-pyx")  # old and new disagree everywhere
    gen = StreamGenerator(sched, seed=5)
    for x, label in gen:
        assert label in (sched.old.label_of(x), sched.new.label_of(x))


def test_prior_flip_across_drift():
    sched = preset_schedule("sine1-py")
    gen = StreamGenerator(sched, seed=11)
    labels = [label for _, label in gen]
    pre = np.mean([lab == POS for lab in labels[:1500]])
    post = np.mean([lab == POS for lab in labels[1500:]])
    se = math.sqrt(0.1 * 0.9 / 1500)
    assert abs(pre - 0.1) < 3 * se
    assert abs(post - 0.9) < 3 * se


def test_fixed_imbalance_through_feature_drift():
    sched = preset_schedule("sea-pxy")
    gen = StreamGenerator(sched, seed=13)
    labels = [label for _, label in gen]
    frac = np.mean([lab == POS for lab in labels])
    assert abs(frac - 0.1) < 3 * math.sqrt(0.1 * 0.9 / 3000)


def test_skew_shapes_negative_class_density():
    concept = ConceptSpec(SINE1, 0.1, skew=Skew(NEG, 0, 0.5, 0.9))
    gen = StreamGenerator(stationary_schedule(concept, 4000), seed=17)
    neg_first = [x[0] for x, label in gen if label == NEG]
    below = np.mean([v < 0.5 for v in neg_first])
    se = math.sqrt(0.9 * 0.1 / len(neg_first))
    assert abs(below - 0.9) < 3 * se


def test_skew_leaves_other_class_alone():
    concept = ConceptSpec(SINE1, 0.5, skew=Skew(NEG, 0, 0.5, 0.9))
    gen = StreamGenerator(stationary_schedule(concept, 4000), seed=19)
    pos_first = [x[0] for x, label in gen if label == POS]
    # positives of SINE1 without skew have P(x < 0.5) = area ratio
    # int_0^0.5 sin / int_0^1 sin = (1 - cos 0.5) / (1 - cos 1)
    expected = (1 - math.cos(0.5)) / (1 - math.cos(1.0))
    se = math.sqrt(expected * (1 - expected) / len(pos_first))
    assert abs(np.mean([v < 0.5 for v in pos_first]) - expected) < 4 * se


def test_impossible_constraint_reports_infeasible():
    # positives need x1 + x2 <= 7 but the skew parks x1 at >= 9.9
    concept = ConceptSpec(
        SEA, 0.9, threshold=7.0, skew=Skew(POS, 0, 9.9, 0.01)
    )
    gen = StreamGenerator(stationary_schedule(concept, 1000), seed=23)
    with pytest.raises(InfeasibleConceptError):
        for _ in gen:
            pass


def test_preset_inventory():
    assert len(PRESETS) == 12
    for name, sched in PRESETS.items():
        assert sched.total_steps == 3000
        assert sched.drift_start == 1501
        assert sched.drift_duration == (500 if name.startswith(("sine1g", "seag")) else 0)
    with pytest.raises(KeyError):
        preset_schedule("sine2-py")
    assert preset_schedule("SINE1-Py") is PRESETS["sine1-py"]


def test_preset_settings_pinned():
    py = preset_schedule("sine1-py")
    assert (py.old.positive_prior, py.new.positive_prior) == (0.1, 0.9)
    assert py.old.skew is None and not py.old.invert

    sea_py = preset_schedule("sea-py")
    assert (sea_py.old.positive_prior, sea_py.new.positive_prior) == (0.5, 0.1)
    assert sea_py.old.threshold == sea_py.new.threshold == 7.0

    pxy = preset_schedule("sine1-pxy")
    assert pxy.old.positive_prior == pxy.new.positive_prior == 0.1
    assert pxy.old.skew == Skew(NEG, 0, 0.5, 0.9)
    assert pxy.new.skew == Skew(NEG, 0, 0.5, 0.1)

    sea_pxy = preset_schedule("seag-pxy")
    assert sea_pxy.old.skew == Skew(NEG, 0, 5.0, 0.9)
    assert sea_pxy.new.skew == Skew(NEG, 0, 5.0, 0.1)
    assert sea_pxy.drift_duration == 500

    pyx = preset_schedule("sine1-pyx")
    assert not pyx.old.invert and pyx.new.invert

    sea_pyx = preset_schedule("sea-pyx")
    assert (sea_pyx.old.threshold, sea_pyx.new.threshold) == (7.0, 13.0)
    assert sea_pyx.old.positive_prior == sea_pyx.new.positive_prior == 0.1


# ---------------------------------------------------------------------------
# dump_stream
# ---------------------------------------------------------------------------


def test_dump_stream_writes_a_header_and_one_row_per_example(tmp_path):
    path = tmp_path / "stream.csv"
    stream = list(StreamGenerator(preset_schedule("sea-py"), seed=4))[:5]
    assert dump_stream(stream, path) == 5
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f1,f2,f3,label"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]


def test_dump_stream_without_examples_writes_only_a_header(tmp_path):
    path = tmp_path / "empty.csv"
    assert dump_stream([], path) == 0
    assert path.read_text().splitlines() == ["t,label"]


def test_dump_stream_round_trips_features_exactly(tmp_path):
    path = tmp_path / "stream.csv"
    stream = list(StreamGenerator(preset_schedule("sea-py"), seed=4))[:50]
    assert dump_stream(stream, path) == 50
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 50
    for t, ((x, label), row) in enumerate(zip(stream, rows), start=1):
        assert int(row[0]) == t
        assert int(row[-1]) == label
        assert [float(v) for v in row[1:-1]] == x.tolist()  # repr is exact


def _csv_module_bytes(examples) -> bytes:
    """What `csv.writer` with its default dialect writes for ``examples``,
    in `dump_stream`'s layout."""
    import io

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for t, (x, label) in enumerate(examples, start=1):
        if t == 1:
            writer.writerow(["t", *(f"f{j + 1}" for j in range(len(x))), "label"])
        writer.writerow([t, *map(repr, x.tolist()), label])
    if not examples:
        writer.writerow(["t", "label"])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", ["sea-py", "edge-values", "empty"])
def test_dump_stream_writes_the_bytes_of_the_csv_module(case, tmp_path):
    # rows are joined by hand: no field of a stream needs quoting, so they
    # are the bytes `csv.writer` gives, "\r\n" line ends included
    if case == "sea-py":
        examples = list(StreamGenerator(preset_schedule("sea-py"), seed=9))[:40]
    elif case == "edge-values":
        values = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 2.5e17]
        examples = [(np.array([v, 0.1 * i]), POS if i % 2 else NEG)
                    for i, v in enumerate(values)]
    else:
        examples = []
    path = tmp_path / "stream.csv"
    assert dump_stream(examples, path) == len(examples)
    assert path.read_bytes() == _csv_module_bytes(examples)


def test_importing_the_package_does_not_import_csv():
    # every command and every spawned worker imports the package, and none
    # of them pays for the csv module
    import os
    import subprocess
    import sys
    from pathlib import Path

    import skewstream

    src = str(Path(skewstream.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, skewstream.cli, skewstream.streams; print('csv' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False", out.stderr
