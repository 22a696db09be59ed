"""Tests for the drift detectors and alarm scoring.

The scripted scenarios are fully deterministic (fixed seeds, fixed scripts),
so first-alarm step indices are frozen exactly.
"""
import math
import os
import pickle
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest

from skewstream import detectors
from skewstream.detectors import (
    AucDropDetector,
    BoundTable,
    DetectionLog,
    DriftDetector,
    FourRatesDetector,
    RecallDropDetector,
    Verdict,
    adopt_bound_tables,
    default_bound_table,
    score_detections,
)
from skewstream.labels import NEG, POS


def detector_state(det):
    if isinstance(det, RecallDropDetector):
        return (det.recall, det.best, det.best_s, det.n)
    if isinstance(det, FourRatesDetector):
        return (tuple(det.rates), tuple(det.successes), tuple(det.counts))
    if isinstance(det, AucDropDetector):
        return (det.m, det.m_min, det.auc_mean, det.auc_count, len(det.window))
    raise TypeError(det)


def test_base_interface_is_abstract():
    base = DriftDetector()
    with pytest.raises(NotImplementedError):
        base.step(POS, POS)
    with pytest.raises(NotImplementedError):
        base.reset()


# ---------------------------------------------------------------------------
# RecallDropDetector
# ---------------------------------------------------------------------------


def test_recall_drop_stays_quiet_on_perfect_minority():
    det = RecallDropDetector()
    for _ in range(500):
        assert det.step(POS, POS, minority=POS) is Verdict.NORMAL


def test_recall_drop_ignores_majority_examples():
    det = RecallDropDetector()
    for _ in range(40):
        det.step(POS, POS, minority=POS)
    before = detector_state(det)
    for _ in range(100):
        # wrong majority predictions must not move the monitored recall
        assert det.step(NEG, POS, minority=POS) is Verdict.NORMAL
    assert detector_state(det) == before


def test_recall_drop_tracks_normalized_decayed_recall_value():
    det = RecallDropDetector(decay=0.99)
    for _ in range(3):
        det.step(POS, POS, minority=POS)
    # ratio of decayed hit sum to decayed count: all hits give exactly 1
    assert det.recall == pytest.approx(1.0, abs=1e-12)
    det.step(POS, NEG, minority=POS)
    num = 0.99 * (1 - 0.99**3)
    den = 0.99 * (1 - 0.99**3) + 0.01
    assert det.recall == pytest.approx(num / den, abs=1e-12)


def test_recall_drop_warns_before_drifting_on_collapse():
    # Warm with a four-hits-one-miss pattern (best ~0.836, s ~0.0756, so the
    # 2s bound sits at ~0.685 and the 3s bound at ~0.609); each further miss
    # then multiplies the decayed hit sum by the decay, walking the recall
    # down one clear stage at a time: 0.704 (normal), 0.648 (2s warning),
    # 0.596 (first 3s violation, reported as a warning pending confirmation),
    # 0.548 (second consecutive violation: drift).
    det = RecallDropDetector()
    for _ in range(60):
        for _ in range(4):
            det.step(POS, POS, minority=POS)
        det.step(POS, NEG, minority=POS)
    tail = [det.step(POS, NEG, minority=POS) for _ in range(4)]
    assert tail == [
        Verdict.NORMAL, Verdict.WARNING, Verdict.WARNING, Verdict.DRIFT,
    ]


def test_recall_drop_rearms_after_drift():
    det = RecallDropDetector()
    for _ in range(300):
        det.step(POS, POS, minority=POS)
    while det.step(POS, NEG, minority=POS) is not Verdict.DRIFT:
        pass
    assert detector_state(det) == detector_state(RecallDropDetector())


def test_recall_drop_min_updates_suppresses_early_alarms():
    det = RecallDropDetector(min_updates=400)
    for _ in range(300):
        det.step(POS, POS, minority=POS)
    for _ in range(30):
        assert det.step(POS, NEG, minority=POS) is Verdict.NORMAL


def test_recall_drop_defaults_to_positive_minority():
    a = RecallDropDetector()
    b = RecallDropDetector()
    for _ in range(50):
        a.step(POS, POS)
        b.step(POS, POS, minority=POS)
    assert detector_state(a) == detector_state(b)


def test_recall_drop_rejects_bad_decay():
    with pytest.raises(ValueError):
        RecallDropDetector(decay=1.0)


# ---------------------------------------------------------------------------
# BoundTable
# ---------------------------------------------------------------------------


def small_table(**kwargs):
    kwargs.setdefault("n_paths", 2000)
    kwargs.setdefault("max_n", 50)
    return BoundTable(**kwargs)


def test_bound_table_quantiles_are_nested(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    assert (np.diff(table.table, axis=2) >= 0).all()


def test_bound_table_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    first = small_table()
    files = list(tmp_path.glob("rate_bounds_*.npz"))
    assert len(files) == 1
    second = small_table()
    assert np.array_equal(first.table, second.table)


def test_bound_table_rebuilds_on_corrupt_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    first = small_table()
    [cache] = tmp_path.glob("rate_bounds_*.npz")
    cache.write_bytes(b"not an npz file")
    second = small_table()
    assert np.array_equal(first.table, second.table)


def test_bound_table_rebuilds_on_misshapen_cache_and_says_so(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    first = small_table()
    [cache] = tmp_path.glob("rate_bounds_*.npz")
    np.savez(cache, table=first.table[:, :-1])
    capsys.readouterr()
    second = small_table()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(cache) in lines[0]
    assert str(first.table[:, :-1].shape) in lines[0]
    assert np.array_equal(second.table, first.table)


@pytest.mark.parametrize(
    "params",
    [
        {"decay": 1.5},
        {"decay": 1.0},
        {"decay": 0.0},
        {"warn_level": 0.001, "detect_level": 0.01},
        {"detect_level": 2.0},
        {"detect_level": 0.0},
        {"warn_level": 1.0},
    ],
)
def test_bound_table_rejects_bad_parameters_before_any_work(params, monkeypatch):
    def unreachable(self):
        raise AssertionError("reached the cache or the simulation")

    monkeypatch.setattr(BoundTable, "_load_cache", unreachable)
    monkeypatch.setattr(BoundTable, "_simulate", unreachable)
    key = "decay" if "decay" in params else "level"
    with pytest.raises(ValueError, match=key):
        small_table(**params)


def test_bound_table_accepts_equal_levels(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table(warn_level=0.01, detect_level=0.01)
    assert (np.diff(table.table, axis=2) >= 0).all()


def test_bound_table_query_at_grid_point_matches_table(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    pi, ni = 7, 4
    got = table.bounds(float(table.p_grid[pi]), int(table.n_grid[ni]))
    assert np.allclose(got, table.table[pi, ni], atol=1e-12)


def test_bound_table_interpolates_between_neighbours(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    p = 0.5 * (table.p_grid[10] + table.p_grid[11])
    n = int(table.n_grid[5])
    got = table.bounds(p, n)
    lo = np.minimum(table.table[10, 5], table.table[11, 5])
    hi = np.maximum(table.table[10, 5], table.table[11, 5])
    assert (got >= lo - 1e-12).all() and (got <= hi + 1e-12).all()


def test_bound_table_clamps_out_of_grid_queries(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    assert np.array_equal(table.bounds(1e-9, 10), table.bounds(table.p_grid[0], 10))
    assert np.array_equal(table.bounds(0.5, 10**9), table.bounds(0.5, table.max_n))


def bilinear_bounds(table, p, n):
    """The bilinear (p, n) interpolation of the table, evaluated from scratch."""
    p = min(max(p, table.p_grid[0]), table.p_grid[-1])
    n = min(max(n, 1), table.max_n)
    pi = min(max(np.searchsorted(table.p_grid, p), 1), len(table.p_grid) - 1)
    p0, p1 = table.p_grid[pi - 1], table.p_grid[pi]
    fp = (p - p0) / (p1 - p0)
    ni = min(max(np.searchsorted(table.n_grid, n), 1), len(table.n_grid) - 1)
    n0, n1 = table.n_grid[ni - 1], table.n_grid[ni]
    fn = (n - n0) / (n1 - n0)
    row0 = (1 - fn) * table.table[pi - 1, ni - 1] + fn * table.table[pi - 1, ni]
    row1 = (1 - fn) * table.table[pi, ni - 1] + fn * table.table[pi, ni]
    return (1 - fp) * row0 + fp * row1


def test_bound_table_rows_equal_bilinear_formula(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    rng = np.random.default_rng(12)
    grid_p = [float(p) for p in table.p_grid]
    mid_p = [0.5 * (a + b) for a, b in zip(grid_p, grid_p[1:])]
    clamp_p = [-1.0, 0.0, 1e-9, 0.999, 1.0, 2.0]
    ps = grid_p + mid_p + clamp_p + rng.uniform(-0.05, 1.05, 200).tolist()
    ns = [int(n) for n in table.n_grid] + [-5, 0, 1, 2, table.max_n - 1,
                                           table.max_n, table.max_n + 1, 10**6]
    ns += rng.integers(1, table.max_n + 1, 50).tolist()
    for p in ps:
        for n in ns:
            assert np.array_equal(table.bounds(p, n), bilinear_bounds(table, p, n))


def sliced_row_bounds(table, rows, p, n):
    """The lookup as it reads a numpy slice of ``rows``, the table's
    `_n_rows()`, through ``tolist``: the oracle of `bounds`, which reads the
    same rows from a flat array of doubles."""
    grid = table.p_grid.tolist()
    p = min(max(p, grid[0]), grid[-1])
    n = min(max(n, 1), table.max_n)
    pi = bisect_left(grid, p, 1, len(grid) - 1)
    p0 = grid[pi - 1]
    fp = (p - p0) / (grid[pi] - p0)
    q = 1 - fp
    (a0, a1, a2, a3), (b0, b1, b2, b3) = rows[n - 1, pi - 1 : pi + 1].tolist()
    return (q * a0 + fp * b0, q * a1 + fp * b1, q * a2 + fp * b2, q * a3 + fp * b3)


def test_bound_lookup_equals_the_sliced_rows(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table(max_n=300)
    rng = np.random.default_rng(20_000)
    grid = table.p_grid.tolist()
    # random rates and counts, both past the grid's ends, and every grid rate
    ps = rng.uniform(-0.05, 1.05, 20_000).tolist()
    ns = rng.integers(-3, table.max_n + 4, 20_000).tolist()
    ps[: len(grid)] = grid
    ns[-8:] = [-1, 0, 1, 2, table.max_n - 1, table.max_n, table.max_n + 1, 10**6]
    rows, clamped = table._n_rows(), 0
    for p, n in zip(ps, ns):
        assert table.bounds(p, n) == sliced_row_bounds(table, rows, p, n), (p, n)
        clamped += not (grid[0] <= p <= grid[-1] and 1 <= n <= table.max_n)
    assert clamped > 1000


def masked_simulate(table):
    """Reference build of the table with the masked-ufunc updates."""
    rng = np.random.default_rng(table.seed)
    n_p = len(table.p_grid)
    paths = np.full((n_p, table.n_paths), 0.5)
    successes = np.zeros((n_p, table.n_paths))
    p_col = table.p_grid[:, None]
    out = np.empty((n_p, len(table.n_grid), 4))
    record = {n: i for i, n in enumerate(table.n_grid)}
    gain = 1.0 - table.decay
    for n in range(1, table.max_n + 1):
        hit = rng.random(table.n_paths)[None, :] < p_col
        paths *= table.decay
        np.add(paths, gain, out=paths, where=hit)
        np.add(successes, 1.0, out=successes, where=hit)
        if n in record:
            deviation = paths - (successes + 0.5) / (n + 1.0)
            out[:, record[n], :] = np.quantile(deviation, table.levels, axis=1).T
    return out


def test_bound_table_build_equals_masked_reference(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    assert np.array_equal(table.table, masked_simulate(table))


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def thread_pools(monkeypatch):
    """The worker counts of the thread pools made, in order."""
    import concurrent.futures

    sizes = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return sizes


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_bound_table_build_is_the_same_on_any_number_of_cpus(
    cpus, tmp_path, monkeypatch, thread_pools
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    usable_cpus(monkeypatch, cpus)
    table = small_table()
    # one thread per block, and never more blocks than p rows
    assert thread_pools == ([] if cpus == 1 else [min(cpus, len(table.p_grid))])
    assert np.array_equal(table.table, masked_simulate(table))
    usable_cpus(monkeypatch, 1)
    assert np.array_equal(table.table, table._simulate())


def test_bound_table_build_raises_a_blocks_error_and_caches_nothing(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    usable_cpus(monkeypatch, 3)
    real_rows = BoundTable._simulate_rows

    def middle_block_fails(self, p_rows):
        if 0.5 in p_rows:
            raise RuntimeError("block failed")
        return real_rows(self, p_rows)

    monkeypatch.setattr(BoundTable, "_simulate_rows", middle_block_fails)
    with pytest.raises(RuntimeError, match="block failed"):
        small_table()
    assert list(tmp_path.iterdir()) == []


def test_bound_table_build_imports_thread_pools_only_on_several_cpus(tmp_path):
    src = str(Path(detectors.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env[BoundTable.CACHE_ENV] = str(tmp_path)
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus}));"
        "from skewstream.detectors import BoundTable;"
        "BoundTable(n_paths=2000, max_n={max_n});"
        "print('concurrent.futures' in sys.modules)"
    )

    def imports_pools(cpus, max_n):
        res = subprocess.run(
            [sys.executable, "-c", code.format(cpus=cpus, max_n=max_n)],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout.strip()

    assert imports_pools(cpus=1, max_n=50) == "False"
    # another max_n: a table not in the cache yet
    assert imports_pools(cpus=2, max_n=40) == "True"
    # the same table again is loaded from the cache, not simulated
    assert imports_pools(cpus=2, max_n=40) == "False"


def test_default_bound_table_is_built_once_for_concurrent_callers(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(detectors, "_default_tables", {})
    calls = []

    def slow_simulate(self):
        calls.append(self.decay)
        time.sleep(0.2)
        return np.zeros((len(self.p_grid), len(self.n_grid), 4))

    monkeypatch.setattr(BoundTable, "_simulate", slow_simulate)
    callers = 8  # more than the CPUs
    start = threading.Barrier(callers)
    tables = []

    def ask():
        start.wait(timeout=30)
        tables.append(default_bound_table(0.97))

    threads = [threading.Thread(target=ask) for _ in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [0.97]
    assert len(tables) == callers and all(t is tables[0] for t in tables)


def test_bound_table_stores_through_unique_temp_files(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    table._store_cache()
    table._store_cache()
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(Path(src).parent == tmp_path for src in sources)
    # nothing but the cache file is left behind
    assert [f.name for f in tmp_path.iterdir()] == [table._cache_path().name]


def test_bound_table_unwritable_cache_warns_and_still_builds(
    tmp_path, monkeypatch, capsys
):
    # a cache root below a regular file can be neither created nor written
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(blocker / "cache"))
    table = small_table()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(table._cache_path()) in lines[0]
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path / "ok"))
    assert np.array_equal(table.table, small_table().table)


def test_bound_table_matches_stationary_normal_approximation():
    # At n = max_n the deviation between the decayed statistic (stationary
    # variance p(1-p)(1-d)/(1+d)) and the cumulative mean (variance ~p(1-p)/n,
    # covariance with the decayed side ~p(1-p)/n) has variance
    # p(1-p)((1-d)/(1+d) - 1/n); the Monte Carlo quantiles should sit near
    # the matching centered normal quantiles.
    table = default_bound_table()
    sd = math.sqrt(0.25 * ((1 - 0.99) / (1 + 0.99) - 1 / table.max_n))
    lo_d, lo_w, hi_w, hi_d = table.bounds(0.5, table.max_n)
    z_w, z_d = 2.5758, 3.2905  # two-sided 0.01 / 0.001
    assert lo_w == pytest.approx(-z_w * sd, abs=0.008)
    assert hi_w == pytest.approx(z_w * sd, abs=0.008)
    assert lo_d == pytest.approx(-z_d * sd, abs=0.008)
    assert hi_d == pytest.approx(z_d * sd, abs=0.008)


def test_default_bound_table_is_shared_per_parameter_set():
    assert default_bound_table() is default_bound_table()


def test_bound_table_pickles_without_its_query_index(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    blob = pickle.dumps(table)
    index_bytes = table._rows.itemsize * len(table._rows)
    assert len(blob) < table.table.nbytes + 4096 < index_bytes
    copy = pickle.loads(blob)
    assert copy._rows == table._rows
    for p, n in [(0.001, 0), (0.3, 7), (0.5, 50), (0.97, 80)]:
        assert copy.bounds(p, n) == table.bounds(p, n)


def test_adopted_bound_tables_serve_the_detectors(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(detectors, "_default_tables", {})
    table = pickle.loads(pickle.dumps(small_table(decay=0.98)))
    adopt_bound_tables([table])
    assert FourRatesDetector(decay=0.98).table is table
    # a table this process already shares is kept
    adopt_bound_tables([small_table(decay=0.98)])
    assert default_bound_table(0.98) is table


# ---------------------------------------------------------------------------
# FourRatesDetector
# ---------------------------------------------------------------------------


def test_four_rates_updates_one_row_and_one_column_rate():
    det = FourRatesDetector()
    det.step(POS, POS)  # tpr hit, ppv hit
    det.step(POS, NEG)  # tpr miss, npv miss
    det.step(NEG, POS)  # tnr miss, ppv miss
    det.step(NEG, NEG)  # tnr hit, npv hit
    assert det.counts == [2, 2, 2, 2]
    assert det.successes == [1, 1, 1, 1]
    hit_then_miss = 0.99 * (0.99 * 0.5 + 0.01)
    miss_then_hit = 0.99 * (0.99 * 0.5) + 0.01
    assert det.rates[0] == pytest.approx(hit_then_miss, abs=1e-12)  # tpr
    assert det.rates[1] == pytest.approx(miss_then_hit, abs=1e-12)  # tnr
    assert det.rates[2] == pytest.approx(hit_then_miss, abs=1e-12)  # ppv
    assert det.rates[3] == pytest.approx(miss_then_hit, abs=1e-12)  # npv


def scripted_accuracy_stream(seed, n, accuracy_at):
    rng = np.random.default_rng(seed)
    for t in range(1, n + 1):
        truth = POS if rng.random() < 0.5 else NEG
        acc = accuracy_at(t)
        if rng.random() < acc:
            yield t, truth, truth
        else:
            yield t, truth, NEG if truth == POS else POS


def test_four_rates_quiet_on_stationary_stream():
    det = FourRatesDetector()
    for _, truth, pred in scripted_accuracy_stream(3, 1000, lambda t: 0.9):
        assert det.step(truth, pred) is not Verdict.DRIFT


def test_four_rates_fires_soon_after_accuracy_collapse():
    det = FourRatesDetector()
    first = None
    for t, truth, pred in scripted_accuracy_stream(
        3, 2000, lambda t: 0.9 if t <= 1000 else 0.3
    ):
        if det.step(truth, pred) is Verdict.DRIFT:
            first = t
            break
    assert first == 1019


def test_four_rates_rearms_after_drift():
    det = FourRatesDetector()
    last = None
    for _, truth, pred in scripted_accuracy_stream(
        3, 1019, lambda t: 0.9 if t <= 1000 else 0.3
    ):
        last = det.step(truth, pred)
    assert last is Verdict.DRIFT
    assert detector_state(det) == detector_state(FourRatesDetector())


def test_four_rates_min_updates_suppresses_early_alarms():
    lax = FourRatesDetector(min_updates=10_000)
    for _, truth, pred in scripted_accuracy_stream(
        3, 2000, lambda t: 0.9 if t <= 1000 else 0.3
    ):
        assert lax.step(truth, pred) is Verdict.NORMAL


def test_four_rates_accepts_injected_table(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table()
    det = FourRatesDetector(table=table)
    assert det.table is table


def test_four_rates_pure_streaks_never_alarm():
    # a degenerate classifier that only ever sees one class and echoes it
    # keeps TNR and NPV on all-hit streaks; a streak is consistent with an
    # underlying rate of exactly 1, so no amount of it is evidence of change
    det = FourRatesDetector()
    for _ in range(2000):
        assert det.step(NEG, NEG) is Verdict.NORMAL
    assert det.checks == 0
    # the first miss makes TNR's history mixed, so checking begins
    det.step(NEG, POS)
    assert det.checks == 1


def test_four_rates_check_counter_survives_rearm():
    det = FourRatesDetector()
    stream = scripted_accuracy_stream(3, 2000, lambda t: 0.9 if t <= 1000 else 0.3)
    for _, truth, pred in stream:
        if det.step(truth, pred) is Verdict.DRIFT:
            break
    at_drift = det.checks
    assert at_drift > 0
    for _, truth, pred in stream:
        det.step(truth, pred)
    assert det.checks > at_drift


# ---------------------------------------------------------------------------
# AucDropDetector
# ---------------------------------------------------------------------------


def test_auc_drop_requires_score():
    det = AucDropDetector()
    with pytest.raises(ValueError):
        det.step(POS, POS)


def separation_stream(seed, n, flipped_after):
    rng = np.random.default_rng(seed)
    for t in range(1, n + 1):
        truth = POS if rng.random() < 0.5 else NEG
        high = rng.uniform(0.6, 1.0)
        low = rng.uniform(0.0, 0.4)
        if t <= flipped_after:
            score = high if truth == POS else low
        else:
            score = low if truth == POS else high
        yield t, truth, score


def test_auc_drop_quiet_while_separation_holds():
    det = AucDropDetector()
    for _, truth, score in separation_stream(5, 1200, flipped_after=1200):
        assert det.step(truth, None, score=score) is Verdict.NORMAL


def test_auc_drop_warns_then_fires_after_score_flip():
    det = AucDropDetector()
    events = []
    for t, truth, score in separation_stream(5, 1200, flipped_after=600):
        v = det.step(truth, None, score=score)
        if v is not Verdict.NORMAL:
            events.append((t, v))
    assert events == [(t, Verdict.WARNING) for t in range(763, 811)] + [
        (811, Verdict.DRIFT)
    ]


def test_auc_drop_rearms_after_drift():
    det = AucDropDetector()
    for t, truth, score in separation_stream(5, 811, flipped_after=600):
        v = det.step(truth, None, score=score)
    assert v is Verdict.DRIFT
    assert detector_state(det) == detector_state(AucDropDetector())


def test_auc_drop_quiet_until_window_min_fill():
    det = AucDropDetector(min_fill=100)
    rng = np.random.default_rng(0)
    for i in range(99):
        # adversarial garbage below the fill threshold cannot alarm
        v = det.step(POS if i % 2 else NEG, None, score=rng.random())
        assert v is Verdict.NORMAL
        assert det.auc_count == 0


# ---------------------------------------------------------------------------
# catch-up stretches
# ---------------------------------------------------------------------------


def phased_stream(seed, n=4000):
    """(truths, preds, scores, minorities) as lists: predictions that are
    mostly right, then mostly wrong, and so on in phases, with scores on the
    predicted side of 0.5, under a minority that comes and goes, so that
    every detector warns and drifts."""
    rng = np.random.default_rng(seed)
    phases = 8
    truths = np.where(rng.random(n) < 0.3, POS, NEG)
    accuracy = np.repeat(np.resize([0.95, 0.35], phases), n // phases)
    preds = np.where(rng.random(n) < accuracy, truths, -truths)
    margin = rng.uniform(0.0, 0.5, n)
    scores = np.where(preds == POS, 0.5 + margin, 0.5 - margin)
    minorities = np.repeat(np.resize([POS, 0, POS, NEG], phases), n // phases)
    return truths.tolist(), preds.tolist(), scores.tolist(), minorities.tolist()


def full_state(det):
    """`detector_state` with the counters it leaves out."""
    extra = {
        RecallDropDetector: ("_num", "_den", "_streak"),
        FourRatesDetector: ("checks",),
        AucDropDetector: (),
    }[type(det)]
    window = getattr(det, "window", None)
    fifo = list(window._fifo) if window is not None else None
    return detector_state(det), tuple(getattr(det, k) for k in extra), fifo


STRETCH_DETECTORS = {
    "recall-drop": lambda table: RecallDropDetector(),
    "four-rates": lambda table: FourRatesDetector(min_updates=10, table=table),
    "four-rates-free": lambda table: FourRatesDetector(
        min_updates=10, auto_rearm=False, table=table
    ),
    "auc-drop": lambda table: AucDropDetector(
        window=100, min_fill=40, delta=0.05, threshold=4.0
    ),
}


@pytest.mark.parametrize("kind", list(STRETCH_DETECTORS))
def test_catch_up_stretches_equal_one_step_at_a_time(kind, tmp_path, monkeypatch):
    # a stretch stops after its first drift, as a harness catch-up does, and
    # the next one starts on the step after it
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table(decay=0.95, max_n=100)
    make = STRETCH_DETECTORS[kind]
    mid_stretch_drifts = warnings = 0
    for seed in range(3):
        stream = phased_stream(seed)
        n = len(stream[0])
        stretched, stepped = make(table), make(table)
        got, want = [], []
        rng = np.random.default_rng([seed, 1])
        t = 0
        while t < n:
            stop = min(n, t + int(rng.integers(1, 60)))
            verdicts = stretched.catch_up(*(part[t:stop] for part in stream))
            got += [(t + i, v) for i, v in verdicts]
            assert Verdict.DRIFT not in [v for _, v in verdicts[:-1]]
            drifts = [i for i, v in verdicts if v is Verdict.DRIFT]
            if drifts:
                mid_stretch_drifts += t + drifts[0] + 1 < stop
                stop = t + drifts[0] + 1
            for i in range(t, stop):
                truth, pred, score, minority = (part[i] for part in stream)
                v = stepped.step(truth, pred, score=score, minority=minority)
                if v is not Verdict.NORMAL:
                    want.append((i, v))
            assert full_state(stretched) == full_state(stepped), (seed, stop)
            t = stop
        assert got == want, seed
        warnings += sum(v is Verdict.WARNING for _, v in got)
    assert mid_stretch_drifts and warnings, (mid_stretch_drifts, warnings)


# ---------------------------------------------------------------------------
# score_detections
# ---------------------------------------------------------------------------


def test_score_detections_splits_true_and_false_alarms():
    logs = [DetectionLog(run=0, seed=7, alarms=[100, 1600, 1700])]
    got = score_detections(logs, drift_start=1501, n_runs=len(logs))
    assert got.tdr == 1.0
    assert got.fa == 2.0
    assert got.dod == 99.0


def test_score_detections_alarm_at_drift_start_counts_with_zero_delay():
    logs = [DetectionLog(run=0, seed=0, alarms=[1501])]
    got = score_detections(logs, drift_start=1501, n_runs=len(logs))
    assert (got.tdr, got.fa, got.dod) == (1.0, 0.0, 0.0)


def test_score_detections_no_alarms_gives_none_delay():
    logs = [DetectionLog(run=0, seed=0, alarms=[])]
    got = score_detections(logs, drift_start=1501, n_runs=len(logs))
    assert got.tdr == 0.0
    assert got.fa == 0.0
    assert got.dod is None


def test_score_detections_normalizes_by_requested_runs():
    logs = [
        DetectionLog(run=0, seed=0, alarms=[1600]),
        DetectionLog(run=1, seed=1, alarms=[200]),
    ]
    got = score_detections(logs, drift_start=1501, n_runs=4)
    assert got.tdr == 0.25
    assert got.fa == 0.25
    assert got.dod == 99.0


def test_score_detections_is_insensitive_to_alarm_order():
    shuffled = [DetectionLog(run=0, seed=0, alarms=[1700, 100, 1600])]
    ordered = [DetectionLog(run=0, seed=0, alarms=[100, 1600, 1700])]
    assert score_detections(shuffled, 1501, 1) == score_detections(ordered, 1501, 1)


def test_score_detections_validates_run_counts():
    logs = [DetectionLog(run=0, seed=0, alarms=[])] * 3
    with pytest.raises(ValueError):
        score_detections(logs, drift_start=1501, n_runs=2)
    with pytest.raises(ValueError):
        score_detections([], drift_start=1501, n_runs=0)
    with pytest.raises(TypeError):  # a run without alarms may have no log
        score_detections(logs, drift_start=1501)
