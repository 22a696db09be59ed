"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench

They use small configs without the four-rates detector, so no bound table is
built, and point SKEWSTREAM_CACHE at a temporary directory.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import job  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = """\
[experiment]
runs = 2
members = 3
base_seed = 5

[stream]
generator = sine1
total_steps = 400
drift_start = 201
positive_prior = 0.1
new_positive_prior = 0.9

[pipeline OB+ddm]
learner = OB
detector = ddm-oci

[pipeline OOB+auc]
learner = OOB
detector = auc-drop
min_fill = 50
"""


@pytest.fixture
def tiny_config(tmp_path, monkeypatch):
    monkeypatch.setenv("SKEWSTREAM_CACHE", str(tmp_path / "cache"))
    path = tmp_path / "tiny.ini"
    path.write_text(TINY, encoding="utf-8")
    return path


def run_tiny(config: Path, out: Path) -> None:
    from skewstream import harness

    cfg = harness.load_config(config)
    report = harness.aggregate_and_test(harness.run_experiment(cfg), cfg)
    harness.emit_report(report, out)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_partition_the_root_span_exactly():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    class Layer:
        def leaf(self):
            clock.now += 2.0

        def middle(self):
            clock.now += 1.0
            self.leaf()
            clock.now += 0.5
            self.leaf()

        def root(self):
            clock.now += 3.0
            self.middle()
            self.leaf()

    for attr in ("leaf", "middle", "root"):
        tr.wrap(Layer, attr, attr)
    Layer().root()
    tr.uninstall()
    assert tr.self_time == {"leaf": 6.0, "middle": 1.5, "root": 3.0}
    assert tr.total["root"] == 10.5
    assert sum(tr.self_time.values()) == tr.total["root"]
    assert Layer.root.__name__ == "root" and not hasattr(Layer.root, "__wrapped__")


def test_missing_call_is_reported_absent_not_raised():
    tr = spans.Tracer()

    class Layer:
        pass

    tr.wrap(Layer, "gone", "layer.gone")
    assert tr.absent == ["layer.gone"]


def test_traced_experiment_spans_cover_the_wall_time(tiny_config, tmp_path):
    tr = spans.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        run_tiny(tiny_config, tmp_path / "out")
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert tr.absent == []
    assert min(tr.self_time.values()) >= 0.0
    roots = sum(tr.total[name] for name in spans.ROOT_SPANS)
    assert sum(tr.self_time.values()) == pytest.approx(roots, rel=1e-9)
    assert roots == pytest.approx(wall, rel=0.05)
    m = spans.layer_metrics(tr, cpu_s=0.0, import_s=0.0, emit_bytes=0)
    steps = m["streams.calls"][0]
    assert steps == 2 * 2 * 400
    # every step's time is some layer's self time or the loop's own
    in_loop = [
        "streams.next_example", "imbalance.update", "imbalance.status",
        "learners.predict", "learners.train_one", "learners.train_rounds",
        "learners.reset", "detectors.recall_drop.step", "detectors.auc_drop.step",
        "metrics.prequential_auc", "harness.run_experiment",
    ]
    per_step = sum(tr.self_time[n] for n in in_loop) * 1e6 / steps
    loop_wall_us = tr.total["harness.run_experiment"] * 1e6 / steps
    assert per_step == pytest.approx(loop_wall_us, rel=1e-9)
    assert m["harness.loop_self_us"][0] < loop_wall_us


def test_round_useful_frac_on_hand_built_ks():
    ks = [[0, 1, 2], [3, 0, 0], [1, 1, 1]]
    rounds, updates, useful = spans.ks_stats(ks, steps=4)
    assert rounds == (2 + 3 + 1) / 4
    assert updates == (3 + 3 + 3) / 4
    assert useful == 9 / (2 * 3 + 3 * 3 + 1 * 3)
    assert spans.ks_stats([], steps=0) == (0.0, 0.0, 0.0)


def test_digest_is_stable_across_runs_and_lock_replay(tiny_config, tmp_path):
    first, second, replay = (tmp_path / n for n in ("a", "b", "replay"))
    run_tiny(tiny_config, first)
    run_tiny(tiny_config, second)
    run_tiny(first / "config.lock", replay)
    assert run.expected_outputs_present(first)
    digest = run.output_digest(first)
    assert run.output_digest(second) == digest
    assert run.output_digest(replay) == digest
    curve = next((first / "curves").iterdir())
    curve.write_bytes(curve.read_bytes() + b"\n")
    assert run.output_digest(first) != digest


def test_kernels_repeat_the_same_work():
    assert job.reference_kernel() == job.reference_kernel()
    assert job.array_kernel() == job.array_kernel()


def test_probed_numpy_forwards_and_probes_each_quantile():
    import numpy as np

    probes = []
    proxy = job.ProbedNumpy(np, probes)
    assert proxy.zeros(2).tolist() == [0.0, 0.0]
    assert probes == []
    assert proxy.quantile(np.arange(5.0), 0.5) == 2.0
    [(start, took, slowdown)] = probes
    assert took > 0.0 and start + took <= job.now()
    assert slowdown == took / job.ARRAY_KERNEL_S


def test_each_stretch_is_scaled_by_the_slowdown_probed_at_its_end():
    # 2 s at slow-down 1, then 3 s at slow-down 2 (the probes themselves
    # left out), then 1 s with the probe after the set-up at 2
    probes = [(12.0, 1.0, 1.0), (16.0, 0.5, 2.0)]
    after = (17.5, 0.25, 2.0)
    assert job.at_reference_speed(10.0, probes, 17.5, after) == 2.0 / 1.5 + 3.0 / 1.5 + 0.5
    # a lone outlier among steady probes is voted down by its neighbours
    steady = [(float(i), 0.0, 2.0) for i in range(1, 10)]
    steady[4] = (5.0, 0.0, 40.0)
    assert job.at_reference_speed(0.0, steady, 10.0, (10.0, 0.0, 2.0)) == 5.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_metrics_match_the_per_layer_list():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer"]}
    reported = spans.layer_metrics(spans.Tracer(), cpu_s=0.0, import_s=0.0, emit_bytes=0)
    reported = {name: unit for name, (_, unit) in reported.items()}
    # added by run.py from the cold set-up and the untraced run
    reported["detectors.bound_table.build_s"] = "s"
    reported["trace.overhead_frac"] = "ratio"
    assert reported == declared
