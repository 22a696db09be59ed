"""The benchmark's workloads give the output directories its baseline records.

``perfbench/baseline.json`` keeps a digest of the output directory of each
workload in ``perfbench/workloads/`` at its default and held-out seeds. Each
test here runs one of them the way ``skewstream run`` does, ``load_config``
-> ``run_experiment`` -> ``aggregate_and_test`` -> ``emit_report``, and
compares the digest, taken with the benchmark's own ``output_digest`` (read
from ``perfbench/job.py`` without changing it). A change that moves one
output byte changes the program's results.

The digests hold only where numpy and its BLAS are the baseline's: the
kernel's products round as that BLAS's fused multiply-adds do, so another
build may move the last bits of a score, and with them the outputs.
"""
from __future__ import annotations

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skewstream.harness import (
    aggregate_and_test,
    emit_report,
    load_config,
    run_experiment,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BASELINE = json.loads((PERFBENCH / "baseline.json").read_text())


def _output_digest():
    spec = importlib.util.spec_from_file_location("perfbench_job", PERFBENCH / "job.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job.output_digest


output_digest = _output_digest()


def _mismatch() -> str | None:
    """How this numpy and BLAS differ from the baseline's, if they do."""
    want = BASELINE["environment"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        have = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy builds that do not report it
        have = "unknown"
    if np.__version__ != want["numpy"]:
        return f"numpy {np.__version__}, baseline {want['numpy']}"
    if have != want["blas"]:
        return f"BLAS {have}, baseline {want['blas']}"
    return None


MISMATCH = _mismatch()
CASES = [
    (workload.stem, seed)
    for workload in sorted((PERFBENCH / "workloads").glob("*.ini"))
    for seed in sorted(BASELINE["seeds"].values())
]


@pytest.mark.skipif(
    MISMATCH is not None,
    reason=f"the digests depend on the baseline's numpy and BLAS: {MISMATCH}",
)
@pytest.mark.parametrize(
    "workload, seed", CASES, ids=[f"{w}-{s}" for w, s in CASES]
)
def test_workload_outputs_match_the_baseline_digest(workload, seed, tmp_path):
    cfg = load_config(PERFBENCH / "workloads" / f"{workload}.ini")
    cfg = replace(cfg, base_seed=seed)
    report = aggregate_and_test(run_experiment(cfg), cfg)
    emit_report(report, tmp_path / "out")
    assert output_digest(tmp_path / "out") == BASELINE["digests"][workload][str(seed)]
