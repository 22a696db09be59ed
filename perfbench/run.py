"""skewstream benchmark: time to a result, set-up and memory, per workload.

    python3 perfbench/run.py --workload detect-sweep --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the program under test is ``src/``.
Each workload is an experiment config in ``workloads/``, run as a batch job
the way ``skewstream run`` runs it, with ``--seed`` as its ``base_seed``.
Every job (`job.py`) is a fresh interpreter that sets up, then runs the
experiment repeatedly for a few seconds; jobs run one at a time, each
replaying the ``config.lock`` of the one before, with ``SKEWSTREAM_CACHE``
pointed at a bound-table cache directory the benchmark owns under
``.bench_work/``. Before them, cold jobs only set up, each from an empty
cache. Everything there is removed at exit.

The host these numbers come from switches, for seconds to minutes at a
time, between two speeds almost a factor of two apart (contention from
outside the container), so a wall time, or any statistic of a few of them,
moves with the host. The jobs therefore probe the host's speed with fixed
kernels while they work, at the same moments and on the same core, and
report each timing at the reference speed: the time it would take on a core
where the kernels run as fast as on an unloaded core of the machine the
baseline was recorded on (`job.at_reference_speed`). A program that does the
same work in half the time reads half as much. The wall times are printed
too.

``--trace 0`` runs jobs for about ``--seconds`` and reports the end-to-end
metrics:

* ``experiment_s``: the time to a result, from entering ``run_experiment`` to
  the return of ``emit_report``, at the reference speed; the median over all
  repetitions of all jobs.
* ``setup_s``: time from starting a fresh interpreter until it has imported
  skewstream, loaded the config and built each pipeline's detector, with the
  bound-table cache filled, at the reference speed; the median over the warm
  jobs.
* ``cold_setup_s``: the same with an empty cache, as on a first run, when
  the set-up builds any bound table a detector needs; the median over the
  cold jobs (one on detect-sweep, whose ~15 s build fills their budget).
* ``peak_rss_mb``: peak resident memory of a job that has set up and run the
  experiment once; the median over jobs.
* ``run_success_frac``: 1 - failed runs / pipeline runs attempted. A run
  fails if it raised, or if its record has the wrong length or a non-finite
  score; every run fails if the output digests of the repetitions differ.
  (Reported as a success share so that it is never 0.)

``--trace 1`` runs a cold job with its set-up traced, then a warm traced
replay of its ``config.lock``, and reports the per-layer metrics of
`spans.layer_metrics` plus ``detectors.bound_table.build_s`` (the
bound-table constructor in the cold set-up) and ``trace.overhead_frac``
(traced minus untraced wall time of one repetition, over untraced; one pair,
so it carries the host's noise).

Both modes check the outputs: the emitted tables rebuild byte for byte from
the per-run tables, and the sha256 digest of the output directory is the same
for every repetition, replay and traced run. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import expected_outputs_present, output_digest  # noqa: F401  (re-exported)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect-sweep", "resample-mix")
# an invocation must end within 180 s; leave room to clean up and report
DEADLINE_S = 165.0
# each job repeats the experiment for about this long after its set-up
JOB_SECONDS = 8.0
# cold jobs run until their set-up times add up to this; then warm ones
COLD_BUDGET_S = 8.0
MIN_WARM = 2


class BenchError(RuntimeError):
    """A job could not be run or did not report its numbers."""


def write_config(workload: str, seed: int, dest: Path) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(HERE / "workloads" / f"{workload}.ini", encoding="utf-8")
    parser["experiment"]["base_seed"] = str(seed)
    with dest.open("w", encoding="utf-8") as f:
        parser.write(f)


def environment() -> dict:
    """Machine and library versions to store next to the numbers."""
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy builds that do not report it
        pass
    return info


class Bench:
    """Runs the jobs of one invocation under one work directory and deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.n_dirs = 0

    def fresh_dir(self, stem: str, make: bool = True) -> Path:
        self.n_dirs += 1
        path = self.work / f"{stem}-{self.n_dirs}"
        if make:
            path.mkdir(parents=True)
        return path

    def job(self, config: Path, cache: Path, trace: str = "none", seconds: float = 0.0,
            setup_only: bool = False) -> dict:
        """Run one job.py interpreter and return its result."""
        out = self.fresh_dir("out", make=False)
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the next job")
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        argv = [sys.executable, str(HERE / "job.py"), "--config", str(config),
                "--out", str(out), "--spawned", repr(spawned), "--trace", trace,
                "--seconds", repr(seconds)] + (["--setup-only"] if setup_only else [])
        try:
            proc = subprocess.run(
                argv, env=dict(self.env, SKEWSTREAM_CACHE=str(cache)), cwd=ROOT,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"job on {config} ran past the deadline") from None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError(
                f"job on {config} exited {proc.returncode} without a result:\n"
                f"{proc.stderr[-2000:]}"
            ) from None
        if "error" in result:
            print(f"experiment failed:\n{result['error']}", file=sys.stderr)
        elif not setup_only:
            result["lock"] = out / "config.lock"
        return result


def facts_of(results: list[dict]) -> dict:
    """What the correctness check needs from a list of jobs."""
    return {
        "attempted": sum(r["runs_attempted"] for r in results),
        "failed": sum(r["runs_failed"] for r in results),
        "digests": [d for r in results for d in r["digests"]],
        "checks_ok": all(
            "error" not in r and r["complete"] and r["tables_ok"] for r in results
        ),
        "absent": sorted({a for r in results for a in r.get("absent", [])}),
    }


def measure_untraced(bench: Bench, config: Path, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, plus the facts the correctness check needs.

    Jobs run one after another. First come cold ones, each of which only
    sets up, from an empty bound-table cache, until their set-up times add
    up to COLD_BUDGET_S. Then warm ones share the cache the last cold job
    filled, each replaying the config.lock of the one before and repeating
    the experiment for JOB_SECONDS. After MIN_WARM warm jobs, another starts
    only if one more as long as the last still ends within ``seconds``.
    """
    start = time.perf_counter()
    cold, warm = [], []
    while sum(r["setup_s"] for r in cold) < COLD_BUDGET_S:
        cache = bench.fresh_dir("cache")
        cold.append(bench.job(config, cache, setup_only=True))
    lock, last = config, 0.0
    while len(warm) < MIN_WARM or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        result = bench.job(lock, cache, seconds=JOB_SECONDS)
        last = time.perf_counter() - t0
        warm.append(result)
        if "error" in result:
            break
        lock = result["lock"]
    jobs = cold + warm
    done = [r for r in jobs if "rss_mb" in r]
    reps = [t for r in done for t in r["rep_ref_s"]]
    slowdowns = [x for r in jobs for x in r.get("slowdowns", [])]
    print(f"{len(jobs)} jobs, {len(reps)} repetitions, {len(slowdowns)} speed probes")
    if slowdowns:
        print(f"host slow-down: median {statistics.median(slowdowns):.3g}, "
              f"range {min(slowdowns):.3g} to {max(slowdowns):.3g}")
    walls = (("experiment", [t for r in done for t in r["rep_s"]]),
             ("warm set-up", [r["setup_s"] for r in warm]),
             ("cold set-up", [r["setup_s"] for r in cold]))
    for name, values in walls:
        if values:
            print(f"{name} wall time: median {statistics.median(values):.4g} s, "
                  f"shortest {min(values):.4g} s")
    metrics = {
        "experiment_s": (statistics.median(reps) if reps else 0.0, "s"),
        "setup_s": (statistics.median(r["setup_ref_s"] for r in warm) if warm else 0.0, "s"),
        "cold_setup_s": (statistics.median(r["setup_ref_s"] for r in cold), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in done) if done else 0.0, "MB"),
    }
    return metrics, facts_of(jobs)


def measure_traced(bench: Bench, config: Path) -> tuple[dict, dict]:
    """A cold job with its set-up traced, then a traced warm replay of it."""
    cache = bench.fresh_dir("cache")
    plain = bench.job(config, cache, trace="setup")
    results = [plain]
    if "error" not in plain:
        results.append(bench.job(plain["lock"], cache, trace="all"))
    facts = facts_of(results)
    traced = results[-1]
    if "layers" not in traced:
        facts["checks_ok"] = False
        return {}, facts
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["detectors.bound_table.build_s"] = (plain["bound_table_s"], "s")
    metrics["trace.overhead_frac"] = (
        (traced["rep_s"][0] - plain["rep_s"][0]) / plain["rep_s"][0], "ratio"
    )
    return metrics, facts


def recorded_digest(workload: str, seed: int) -> str | None:
    try:
        baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return baseline.get("digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="skewstream benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "skewstream" / "harness.py").is_file():
        print(f"error: no skewstream source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(work, start + DEADLINE_S)
        config = work / "config.ini"
        write_config(args.workload, args.seed, config)
        if args.trace:
            metrics, facts = measure_traced(bench, config)
        else:
            metrics, facts = measure_untraced(bench, config, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation's work directory is still there

    digests = facts["digests"]
    same = len(set(digests)) == 1
    failed = facts["attempted"] if not same else facts["failed"]
    correct = same and facts["checks_ok"] and failed == 0
    if not args.trace:
        metrics["run_success_frac"] = (1.0 - failed / facts["attempted"], "ratio")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if digests:
        recorded = recorded_digest(args.workload, args.seed)
        verdict = ("no recorded digest" if recorded is None
                   else "matches recorded" if recorded == digests[0] else "DIFFERS from recorded")
        print(f"output digest {digests[0]} ({len(digests)} outputs, "
              f"{'identical' if same else 'NOT identical'}; {verdict})")
    for name in facts.get("absent", []):
        print(f"absent layer call: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(facts["attempted"]),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
