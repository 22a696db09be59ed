"""One skewstream job in a fresh interpreter, as the benchmark measures it.

    python3 perfbench/job.py --config C --out DIR --spawned T [--seconds S] [--trace setup|all]
    python3 perfbench/job.py --config C --out DIR --spawned T --setup-only

The job first does what every run pays before its first step: import
skewstream, ``load_config`` and build each pipeline's detector (which loads
or builds the four-rates bound table under ``$SKEWSTREAM_CACHE``). Its
``setup_s`` runs from ``T``, the CLOCK_MONOTONIC reading the caller took just
before starting this interpreter, to the last detector built. With
``--setup-only`` the job stops there.

It then runs the config the way ``skewstream run`` does, ``run_experiment`` ->
``aggregate_and_test`` -> ``emit_report``, as repetitions of the same
experiment: the first writes into DIR, and another (written next to DIR and
removed once checked) starts while one as long as the last still ends within
S seconds of the first one's start. Every repetition's records, emitted
tables and output digest are checked.

The host's speed is not steady: it switches, for seconds to minutes at a
time, between two levels almost a factor of two apart (contention from
outside the container). So untraced, the job also probes the host's speed:
it times a fixed kernel and divides by the kernel's time on an unloaded core
(its slow-down), with a kernel that slows down as the work at hand does:
`reference_kernel` every PROBE_EVERY prequential steps (from a wrapper on
``StreamGenerator.next_example``) and before each repetition;
`python_kernel` every IMPORT_PROBE_EVERY modules imported and after the
set-up (see `ImportProbes`); and `array_kernel` at each ``quantile`` call of
the bound-table build (see `ProbedNumpy`). Each stretch of work is
then divided by the slow-down probed at the time, which gives its time at
the reference speed. ``rep_s`` and ``setup_s`` are wall times less the probes
in them; ``rep_ref_s`` and ``setup_ref_s`` are the same at the reference
speed.

``--trace setup`` installs the layer spans of `spans.Tracer` for the set-up
only, to time the bound-table constructor; ``--trace all`` keeps them for one
traced repetition and reports the per-layer metrics.

The last line of standard output is one JSON object with the job's numbers.
The caller sets ``PYTHONPATH`` to the source tree under test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

OUTPUT_ENTRIES = ("config.lock", "summary.csv", "detectors.csv", "runs", "alarms", "curves")
# probes of reference_kernel: one per this many steps (~3 % of the time),
# and this many before each repetition and after the set-up; and of
# python_kernel, one per this many modules imported
PROBE_EVERY = 64
PROBES = 8
IMPORT_PROBE_EVERY = 16
# each kernel's time on an unloaded core of the machine the baseline was
# recorded on (Intel Xeon, 2 vCPUs): the reference speed
REFERENCE_KERNEL_S = 0.0006
ARRAY_KERNEL_S = 0.0068
PYTHON_KERNEL_S = 0.00053


def now() -> float:
    # system-wide, so the caller's reading before the spawn is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def output_digest(out_dir: Path) -> str:
    """sha256 over the relative path and bytes of every output file, in order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def expected_outputs_present(out_dir: Path) -> bool:
    names = sorted(p.name for p in out_dir.iterdir())
    return names == sorted(OUTPUT_ENTRIES)


def check_records(cfg, records) -> int:
    """Runs that are missing, of the wrong length, or with a non-finite score."""
    import numpy as np

    n = cfg.schedule.total_steps - cfg.warm_up
    failed = 0
    for pipe in cfg.pipelines:
        recs = records.get(pipe.name, [])
        failed += max(0, cfg.runs - len(recs))
        for rec in recs[: cfg.runs]:
            arrays = (rec.truths, rec.preds, rec.scores)
            if any(len(a) != n for a in arrays) or not np.isfinite(rec.scores).all():
                failed += 1
    return failed


def reference_kernel() -> float:
    """A fixed piece of work in the program's own mix, to time the host by.

    Gradient steps of a stack of 15 tiny one-hidden-layer nets, the shape of
    the learners' hot path, written here so that no change to the program
    changes it; then a loop of small matrix-vector products. It allocates
    its arrays afresh and updates nothing, so every call does the same work.
    """
    import numpy as np

    rng = np.random.default_rng(7)
    m, h, d = 15, 4, 2
    w1, b1 = rng.uniform(-0.5, 0.5, (m, h, d)), rng.uniform(-0.5, 0.5, (m, h))
    w2, b2 = rng.uniform(-0.5, 0.5, (m, 2, h)), rng.uniform(-0.5, 0.5, (m, 2))
    x = np.array([0.3, 0.7])
    total = 0.0
    for _ in range(6):
        a1 = 1.0 / (1.0 + np.exp(-((w1.reshape(m * h, d) @ x).reshape(m, h) + b1)))
        z2 = (w2 @ a1[:, :, None])[:, :, 0] + b2
        e = np.exp(z2 - z2.max(axis=1, keepdims=True))
        dz2 = e / e.sum(axis=1, keepdims=True)
        dz2[:, 1] -= 1.0
        da1 = (w2.transpose(0, 2, 1) @ dz2[:, :, None])[:, :, 0]
        dz1 = da1 * a1 * (1.0 - a1)
        total += float((dz2[:, :, None] * a1[:, None, :]).sum() + (dz1[:, :, None] * x).sum())
    a, v = rng.random((16, 8)), rng.random((8, 4))
    for i in range(150):
        total += float((a[i % 16] @ v).sum())
    return total


def python_kernel() -> float:
    """A fixed piece of plain interpreter work, the mix of module imports.

    It needs no import, so it can time the host while ``numpy`` is loading.
    """
    table: dict = {}
    total = 0.0
    for i in range(1200):
        key = f"k{i % 37}"
        table[key] = table.get(key, 0.0) * 0.5 + i
        total += table[key] / (i % 11 + 1)
    names = sorted((str(i * 7919 % 1000) for i in range(300)), reverse=True)
    return total + len("".join(names))


class ImportProbes:
    """A ``sys.meta_path`` entry that finds nothing but probes the host.

    Every IMPORT_PROBE_EVERY-th module looked up, it probes `python_kernel`,
    so the imports of a set-up are probed all through.
    """

    def __init__(self, probes: list):
        self.probes = probes
        self.lookups = 0

    def find_spec(self, name, path=None, target=None):
        self.lookups += 1
        if self.lookups % IMPORT_PROBE_EVERY == 0:
            self.probes.append(probe(python_kernel, PYTHON_KERNEL_S))
        return None


_paths: list = []  # array_kernel's buffer, allocated once


def array_kernel() -> float:
    """A fixed step of Monte Carlo paths, the shape of the bound-table build.

    One decayed update of 31 x 25,000 paths from one shared uniform vector,
    on a buffer reset at each call, so every call does the same work.
    """
    import numpy as np

    if not _paths:
        _paths.append(np.empty((31, 25000)))
    paths = _paths[0]
    paths.fill(0.5)
    hit = np.random.default_rng(3).random(25000)[None, :] < np.linspace(0.01, 0.99, 31)[:, None]
    paths *= 0.99
    np.add(paths, 0.01, out=paths, where=hit)
    return float(paths[:, 0].sum())


def probe(kernel=reference_kernel, reference_s: float = REFERENCE_KERNEL_S):
    """Time one kernel call: (start, wall time, slow-down against the reference)."""
    t0 = now()
    kernel()
    took = now() - t0
    return t0, took, took / reference_s


def mean_slowdown(probes: list) -> float:
    return sum(p[2] for p in probes) / len(probes)


def probe_batch(kernel=reference_kernel, reference_s: float = REFERENCE_KERNEL_S):
    """PROBES probes in a row, as one: (start, wall time, mean slow-down)."""
    batch = [probe(kernel, reference_s) for _ in range(PROBES)]
    return batch[0][0], sum(p[1] for p in batch), mean_slowdown(batch)


def at_reference_speed(start: float, probes: list, end: float, after: tuple) -> float:
    """Time from ``start`` to ``end``, less the probes, at the reference speed.

    The stretch up to each probe in ``probes`` (in time order) is divided by
    that probe's slow-down, taken as the median over it and its two
    neighbours on each side, so that one probe hit by a preemption does not
    count; the rest, to ``end``, by the slow-down of the probe taken right
    after (``after``). Each stretch is thus scaled by the host's speed at the
    time, however unevenly the probes are spread.
    """
    slows = [p[2] for p in probes]
    total, t = 0.0, start
    for i, (t0, took, _) in enumerate(probes):
        total += (t0 - t) / statistics.median(slows[max(0, i - 2):i + 3])
        t = t0 + took
    return total + (end - t) / after[2]


class ProbedNumpy:
    """Stands in for ``numpy`` as the detectors module sees it, during set-up.

    It forwards every name, but first probes `array_kernel` on each
    ``quantile`` call: the bound-table build makes one per recorded update
    count, so a cold set-up is probed all through its Monte Carlo run.
    """

    def __init__(self, np, probes: list):
        self._np = np
        self._probes = probes

    def __getattr__(self, name):
        return getattr(self._np, name)

    def quantile(self, *args, **kwargs):
        self._probes.append(probe(array_kernel, ARRAY_KERNEL_S))
        return self._np.quantile(*args, **kwargs)


def install_probes(probes: list) -> bool:
    """Probe `reference_kernel` on every PROBE_EVERY-th ``next_example``.

    Returns False, changing nothing, if the program has no such call.
    """
    from skewstream import streams

    cls = getattr(streams, "StreamGenerator", None)
    fn = getattr(cls, "next_example", None)
    if not callable(fn):
        return False
    calls = [0]

    def next_example(*args, **kwargs):
        calls[0] += 1
        if calls[0] % PROBE_EVERY == 0:
            probes.append(probe())
        return fn(*args, **kwargs)

    cls.next_example = next_example
    return True


def tables_rebuild(harness, out: Path) -> bool:
    summary, detectors = harness.rebuild_tables(out)
    return (
        summary == (out / "summary.csv").read_text(encoding="utf-8")
        and detectors == (out / "detectors.csv").read_text(encoding="utf-8")
    )


def run_job(config: str, out_dir: str, spawned: float, trace: str, seconds: float,
            setup_only: bool = False) -> dict:
    probing = trace == "none"
    during: list = []  # probes inside the set-up, in time order
    if probing:
        sys.meta_path.insert(0, ImportProbes(during))
    t0 = now()
    from skewstream import detectors, harness

    import_s = now() - t0
    if probing:
        del sys.meta_path[0]
    real_np = getattr(detectors, "np", None)
    tracer = None
    if probing:
        if real_np is not None:
            detectors.np = ProbedNumpy(real_np, during)
    else:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cfg = harness.load_config(config)
    for pipe in cfg.pipelines:
        harness.build_detector(pipe)
    end = now()
    result = {"setup_s": end - spawned - sum(p[1] for p in during)}
    probes: list = []  # probes inside the current repetition
    if probing:
        if real_np is not None:
            detectors.np = real_np
        after = probe_batch(python_kernel, PYTHON_KERNEL_S)
        result["setup_ref_s"] = at_reference_speed(spawned, during, end, after)
        every = during + [after]  # all probes (and batches) of the job
        if not install_probes(probes):
            result["absent"] = ["streams.next_example"]
    else:
        result["bound_table_s"] = tracer.total["detectors.bound_table.init"]
        result["absent"] = tracer.absent
        if trace == "setup":
            tracer.uninstall()
            tracer = None

    result.update(runs_attempted=0, runs_failed=0, tables_ok=True, complete=True,
                  digests=[], rep_s=[], rep_ref_s=[])
    if setup_only:
        result["slowdowns"] = [p[2] for p in every]
        return result
    out = Path(out_dir)
    first = now()
    while True:
        n = len(result["rep_s"])
        dest = out if n == 0 else out.with_name(f"{out.name}-rep{n}")
        attempted = len(cfg.pipelines) * cfg.runs
        result["runs_attempted"] += attempted
        if probing:
            before = [probe() for _ in range(PROBES)]
            probes.clear()
        cpu0 = time.process_time()
        t1 = now()
        try:
            records = harness.run_experiment(cfg)
            report = harness.aggregate_and_test(records, cfg)
            paths = harness.emit_report(report, dest)
        except Exception:
            result["runs_failed"] += attempted
            result["error"] = traceback.format_exc()
            return result
        wall = now() - t1
        result["rep_s"].append(wall - sum(p[1] for p in probes))
        if probing:
            result["rep_ref_s"].append(result["rep_s"][-1] / mean_slowdown(before + probes))
            every += before + probes
        if n == 0:
            # ru_maxrss is in KiB on Linux: set-up plus one experiment
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.uninstall()
                result["layers"] = spans.layer_metrics(
                    tracer, cpu_s=time.process_time() - cpu0, import_s=import_s,
                    emit_bytes=sum(p.stat().st_size for p in paths),
                )
        result["tables_ok"] &= tables_rebuild(harness, dest)
        result["complete"] &= expected_outputs_present(dest)
        result["runs_failed"] += check_records(cfg, records)
        result["digests"].append(output_digest(dest))
        if n:
            shutil.rmtree(dest)
        if not probing or now() - first + wall > seconds:
            break
    if probing:
        result["slowdowns"] = [p[2] for p in every]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="CLOCK_MONOTONIC seconds just before this process started")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="repeat the experiment while a repetition ends within this")
    p.add_argument("--trace", choices=("none", "setup", "all"), default="none")
    p.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = p.parse_args(argv)
    print(json.dumps(run_job(args.config, args.out, args.spawned, args.trace, args.seconds,
                             args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
