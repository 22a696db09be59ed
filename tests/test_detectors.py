"""Tests for the drift detectors and alarm scoring.

The scripted scenarios are fully deterministic (fixed seeds, fixed scripts),
so first-alarm step indices are frozen exactly.
"""
import math
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
from array import array
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest

from frozen_detectors import FrozenAucDrop, FrozenFourRates
from one_step import step
from skewstream import detectors
from skewstream.detectors import (
    AucDropDetector,
    BoundTable,
    DriftDetector,
    FourRatesDetector,
    RecallDropDetector,
    Verdict,
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
        base.catch_up((POS,), (POS,), (None,), (None,))
    with pytest.raises(NotImplementedError):
        base.reset()


# ---------------------------------------------------------------------------
# RecallDropDetector
# ---------------------------------------------------------------------------


def test_recall_drop_stays_quiet_on_perfect_minority():
    det = RecallDropDetector()
    for _ in range(500):
        assert step(det, POS, POS, minority=POS) is Verdict.NORMAL


def test_recall_drop_ignores_majority_examples():
    det = RecallDropDetector()
    for _ in range(40):
        step(det, POS, POS, minority=POS)
    before = detector_state(det)
    for _ in range(100):
        # wrong majority predictions must not move the monitored recall
        assert step(det, NEG, POS, minority=POS) is Verdict.NORMAL
    assert detector_state(det) == before


def test_recall_drop_tracks_normalized_decayed_recall_value():
    det = RecallDropDetector(decay=0.99)
    for _ in range(3):
        step(det, POS, POS, minority=POS)
    # ratio of decayed hit sum to decayed count: all hits give exactly 1
    assert det.recall == pytest.approx(1.0, abs=1e-12)
    step(det, POS, NEG, minority=POS)
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
            step(det, POS, POS, minority=POS)
        step(det, POS, NEG, minority=POS)
    tail = [step(det, POS, NEG, minority=POS) for _ in range(4)]
    assert tail == [
        Verdict.NORMAL, Verdict.WARNING, Verdict.WARNING, Verdict.DRIFT,
    ]


def test_recall_drop_rearms_after_drift():
    det = RecallDropDetector()
    for _ in range(300):
        step(det, POS, POS, minority=POS)
    while step(det, POS, NEG, minority=POS) is not Verdict.DRIFT:
        pass
    assert detector_state(det) == detector_state(RecallDropDetector())


def test_recall_drop_min_updates_suppresses_early_alarms():
    det = RecallDropDetector(min_updates=400)
    for _ in range(300):
        step(det, POS, POS, minority=POS)
    for _ in range(30):
        assert step(det, POS, NEG, minority=POS) is Verdict.NORMAL


def test_recall_drop_defaults_to_positive_minority():
    a = RecallDropDetector()
    b = RecallDropDetector()
    for _ in range(50):
        step(a, POS, POS)
        step(b, POS, POS, minority=POS)
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
        {"max_n": 0},
        {"max_n": -3},
        {"n_paths": 0},
        {"n_paths": -1},
        {"max_n": 50.0},
    ],
)
def test_bound_table_rejects_bad_parameters_before_any_work(
    params, tmp_path, monkeypatch
):
    def unreachable(self):
        raise AssertionError("reached the cache or the simulation")

    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    for name in ("_load_cache", "_simulate", "_store_cache"):
        monkeypatch.setattr(BoundTable, name, unreachable)
    key = next(iter(params))
    with pytest.raises(ValueError, match="level" if key.endswith("_level") else key):
        small_table(**params)
    assert list(tmp_path.iterdir()) == []


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


def n_rows(table):
    """rows[n - 1] = the table interpolated along n at update count n, for
    n = 1..max_n, in one whole-array pass: the oracle of the query index,
    which `_index` writes in place a chunk of n at a time."""
    n = np.arange(1, table.max_n + 1)
    ni = np.clip(np.searchsorted(table.n_grid, n), 1, len(table.n_grid) - 1)
    n0, n1 = table.n_grid[ni - 1], table.n_grid[ni]
    fn = ((n - n0) / np.maximum(n1 - n0, 1))[:, None, None]
    t = table.table.transpose(1, 0, 2)
    return (1 - fn) * t[ni - 1] + fn * t[ni]


# the tables that ship with the package, wherever a test points the lookup
SHIPPED = detectors.SHIPPED_TABLES
REGENERATE = (
    "to regenerate the shipped table: delete the file in "
    "src/skewstream/tables/, run `SKEWSTREAM_CACHE=$(mktemp -d) PYTHONPATH=src "
    "python -c 'from skewstream.detectors import BoundTable; "
    "print(BoundTable()._cache_path())'` and copy the printed file there"
)


@pytest.fixture
def no_shipped_tables(tmp_path, monkeypatch):
    """Point the shipped-table lookup at an empty directory, so a table for
    the default parameters is looked up in the cache and built like any
    other."""
    empty = tmp_path / "shipped"
    empty.mkdir()
    monkeypatch.setattr(detectors, "SHIPPED_TABLES", empty)


def random_nested_tables(monkeypatch, seed):
    """Make `_simulate` return random nested quantiles, so a table of any
    max_n is built without the Monte Carlo simulation (with the shipped
    tables hidden, `no_shipped_tables`, for the default max_n)."""
    rng = np.random.default_rng(seed)

    def simulate(self):
        shape = (len(self.p_grid), len(self.n_grid), 4)
        return np.sort(rng.normal(scale=0.1, size=shape), axis=2)

    monkeypatch.setattr(BoundTable, "_simulate", simulate)


@pytest.mark.parametrize(
    "max_n",
    [1, detectors.INDEX_CHUNK - 1, detectors.INDEX_CHUNK,
     detectors.INDEX_CHUNK + 1, 1000],
)
def test_query_index_equals_the_whole_array_rows(
    max_n, tmp_path, monkeypatch, no_shipped_tables
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    random_nested_tables(monkeypatch, seed=max_n)
    table = BoundTable(max_n=max_n)
    oracle = array("d", n_rows(table).tobytes())
    assert table._rows == oracle
    assert pickle.loads(pickle.dumps(table))._rows == oracle


@pytest.mark.parametrize("max_n", [1, 2, 3, 40, 1000, 5000])
def test_bound_table_grids_equal_the_unique_formula(
    max_n, tmp_path, monkeypatch, no_shipped_tables
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    random_nested_tables(monkeypatch, seed=max_n)
    table = BoundTable(max_n=max_n)
    p_grid = np.unique(np.concatenate(
        [np.linspace(0.01, 0.99, 25), [0.02, 0.03, 0.05, 0.95, 0.97, 0.98]]
    ))
    n_grid = np.unique(np.rint(np.geomspace(1, max_n, 40)).astype(int))
    for got, want in [(table.p_grid, p_grid), (table.n_grid, n_grid)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_default_bound_table_keeps_its_cache_name(
    tmp_path, monkeypatch, no_shipped_tables
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    random_nested_tables(monkeypatch, seed=0)
    name = BoundTable()._cache_path().name
    assert name == "rate_bounds_4ac972d0b67fbbf3.npz"


def fresh_python(code, cache, src=None):
    """Run ``code`` in a fresh interpreter that imports skewstream from the
    directory ``src`` (this checkout's by default), with ``cache`` as its
    bound-table cache."""
    if src is None:
        src = Path(detectors.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env[BoundTable.CACHE_ENV] = str(cache)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )



def test_bound_table_loads_without_numpy_ma(tmp_path, monkeypatch):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    BoundTable(n_paths=200, max_n=30)
    code = (
        "import sys\n"
        "from skewstream.detectors import BoundTable\n"
        "def unreachable(self): raise AssertionError('simulated, not loaded')\n"
        "BoundTable._simulate = unreachable\n"
        "BoundTable(n_paths=200, max_n=30)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    res = fresh_python(code, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_shipped_bound_table_equals_a_fresh_build(
    tmp_path, monkeypatch, no_shipped_tables
):
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path / "cache"))
    built = BoundTable()
    name = built._cache_path().name
    assert sorted(f.name for f in SHIPPED.iterdir()) == [name], REGENERATE
    with np.load(SHIPPED / name) as data:
        shipped = data["table"]
    assert shipped.dtype == built.table.dtype, REGENERATE
    assert shipped.shape == built.table.shape, REGENERATE
    same_bits = np.array_equal(shipped.view(np.int64), built.table.view(np.int64))
    assert same_bits, REGENERATE


def test_a_cold_default_bound_table_loads_the_shipped_one(tmp_path):
    code = (
        "import numpy as np\n"
        "from skewstream.detectors import BoundTable, SHIPPED_TABLES\n"
        "def unreachable(self): raise AssertionError('simulated, not loaded')\n"
        "BoundTable._simulate = unreachable\n"
        "table = BoundTable()\n"
        "with np.load(SHIPPED_TABLES / table._cache_path().name) as data:\n"
        "    print(np.array_equal(table.table, data['table']))\n"
    )
    res = fresh_python(code, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True" and res.stderr == ""
    assert list(tmp_path.iterdir()) == []


def test_other_bound_tables_are_still_built_and_cached(tmp_path):
    code = (
        "from skewstream.detectors import BoundTable\n"
        "real = BoundTable._simulate\n"
        "def simulate(self):\n"
        "    print('simulated')\n"
        "    return real(self)\n"
        "BoundTable._simulate = simulate\n"
        "print(BoundTable(decay=0.97, n_paths=2000, max_n=50)._cache_path().name)\n"
    )
    res = fresh_python(code, tmp_path)
    assert res.returncode == 0, res.stderr
    said, name = res.stdout.split()
    assert said == "simulated"
    assert [f.name for f in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("fault", ["unreadable", "misshapen"])
@pytest.mark.parametrize("fallback", ["cache", "build"])
def test_a_bad_shipped_bound_table_is_reported_and_passed_over(
    fault, fallback, tmp_path
):
    # a copy of the package, whose shipped table is spoiled
    src = tmp_path / "src"
    shutil.copytree(
        SHIPPED.parent, src / "skewstream",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    [spoiled] = (src / "skewstream" / "tables").iterdir()
    if fault == "unreadable":
        spoiled.write_bytes(b"not an npz file")
    else:
        np.savez(spoiled, table=np.zeros((31, 34, 4)))
    cache = tmp_path / "cache"
    cache.mkdir()
    if fallback == "cache":
        shutil.copy(SHIPPED / spoiled.name, cache)
    # a build says so, and returns the intact shipped table at no cost
    code = (
        "import numpy as np\n"
        "from skewstream.detectors import BoundTable\n"
        "def simulate(self):\n"
        "    print('simulated')\n"
        f"    with np.load({str(SHIPPED / spoiled.name)!r}) as data:\n"
        "        return data['table']\n"
        "BoundTable._simulate = simulate\n"
        "print(BoundTable().table.shape)\n"
    )
    res = fresh_python(code, cache, src=src)
    assert res.returncode == 0, res.stderr
    [line] = res.stderr.splitlines()
    assert f"ignoring {fault} bound-table file {spoiled}" in line
    built = [] if fallback == "cache" else ["simulated"]
    assert res.stdout.splitlines() == built + ["(31, 35, 4)"]
    assert [f.name for f in cache.iterdir()] == [spoiled.name]


def test_package_data_ships_every_bound_table():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["skewstream"]
    package = SHIPPED.parent
    packaged = {path for glob in globs for path in package.glob(glob)}
    shipped = {path for path in SHIPPED.rglob("*") if path.is_file()}
    assert shipped and shipped <= packaged


def sliced_row_bounds(table, rows, p, n):
    """The lookup as it reads a numpy slice of ``rows``, the table's
    `n_rows`, through ``tolist``: the oracle of `bounds`, which reads the
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
    rows, clamped = n_rows(table), 0
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


def int32_simulate_rows(table, p_rows):
    """Reference rows of the table for the rates ``p_rows``, adding each
    step's hits to int32 counts."""
    rng = np.random.default_rng(table.seed)
    paths = np.full((len(p_rows), table.n_paths), 0.5)
    successes = np.zeros((len(p_rows), table.n_paths), dtype=np.int32)
    out = np.empty((len(p_rows), len(table.n_grid), 4))
    record = {n: i for i, n in enumerate(table.n_grid)}
    for n in range(1, table.max_n + 1):
        hit = rng.random(table.n_paths)[None, :] < p_rows[:, None]
        paths *= table.decay
        paths += hit * (1.0 - table.decay)
        successes += hit
        if n in record:
            deviation = paths - (successes + 0.5) / (n + 1.0)
            out[:, record[n], :] = np.quantile(deviation, table.levels, axis=1).T
    return out


def test_bound_table_rows_count_more_hits_than_int8_holds(tmp_path, monkeypatch):
    # at max_n = 1000 some recorded update counts are more than 127 steps
    # apart, and paths at p near 1 hit nearly every step, so the build's int8
    # hit counts must be added up between recorded counts
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table(n_paths=64, max_n=1000)
    assert np.diff(table.n_grid).max() > np.iinfo(np.int8).max
    rows = table.p_grid
    assert np.array_equal(table._simulate_rows(rows), int32_simulate_rows(table, rows))


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
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus}));"
        "from skewstream.detectors import BoundTable;"
        "BoundTable(n_paths=2000, max_n={max_n});"
        "print('concurrent.futures' in sys.modules)"
    )

    def imports_pools(cpus, max_n):
        res = fresh_python(code.format(cpus=cpus, max_n=max_n), tmp_path)
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


# ---------------------------------------------------------------------------
# FourRatesDetector
# ---------------------------------------------------------------------------


def test_four_rates_updates_one_row_and_one_column_rate():
    det = FourRatesDetector()
    step(det, POS, POS)  # tpr hit, ppv hit
    step(det, POS, NEG)  # tpr miss, npv miss
    step(det, NEG, POS)  # tnr miss, ppv miss
    step(det, NEG, NEG)  # tnr hit, npv hit
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
        assert step(det, truth, pred) is not Verdict.DRIFT


def test_four_rates_fires_soon_after_accuracy_collapse():
    det = FourRatesDetector()
    first = None
    for t, truth, pred in scripted_accuracy_stream(
        3, 2000, lambda t: 0.9 if t <= 1000 else 0.3
    ):
        if step(det, truth, pred) is Verdict.DRIFT:
            first = t
            break
    assert first == 1019


def test_four_rates_rearms_after_drift():
    det = FourRatesDetector()
    last = None
    for _, truth, pred in scripted_accuracy_stream(
        3, 1019, lambda t: 0.9 if t <= 1000 else 0.3
    ):
        last = step(det, truth, pred)
    assert last is Verdict.DRIFT
    assert detector_state(det) == detector_state(FourRatesDetector())


def test_four_rates_min_updates_suppresses_early_alarms():
    lax = FourRatesDetector(min_updates=10_000)
    for _, truth, pred in scripted_accuracy_stream(
        3, 2000, lambda t: 0.9 if t <= 1000 else 0.3
    ):
        assert step(lax, truth, pred) is Verdict.NORMAL


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
        assert step(det, NEG, NEG) is Verdict.NORMAL
    assert det.checks == 0
    # the first miss makes TNR's history mixed, so checking begins
    step(det, NEG, POS)
    assert det.checks == 1


def test_four_rates_check_counter_survives_rearm():
    det = FourRatesDetector()
    stream = scripted_accuracy_stream(3, 2000, lambda t: 0.9 if t <= 1000 else 0.3)
    for _, truth, pred in stream:
        if step(det, truth, pred) is Verdict.DRIFT:
            break
    at_drift = det.checks
    assert at_drift > 0
    for _, truth, pred in stream:
        step(det, truth, pred)
    assert det.checks > at_drift


# ---------------------------------------------------------------------------
# AucDropDetector
# ---------------------------------------------------------------------------


def test_auc_drop_requires_score():
    det = AucDropDetector()
    with pytest.raises(ValueError):
        step(det, POS, POS)


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
        assert step(det, truth, None, score=score) is Verdict.NORMAL


def test_auc_drop_warns_then_fires_after_score_flip():
    det = AucDropDetector()
    events = []
    for t, truth, score in separation_stream(5, 1200, flipped_after=600):
        v = step(det, truth, None, score=score)
        if v is not Verdict.NORMAL:
            events.append((t, v))
    assert events == [(t, Verdict.WARNING) for t in range(763, 811)] + [
        (811, Verdict.DRIFT)
    ]


def test_auc_drop_rearms_after_drift():
    det = AucDropDetector()
    for t, truth, score in separation_stream(5, 811, flipped_after=600):
        v = step(det, truth, None, score=score)
    assert v is Verdict.DRIFT
    assert detector_state(det) == detector_state(AucDropDetector())


def test_auc_drop_quiet_until_window_min_fill():
    det = AucDropDetector(min_fill=100)
    rng = np.random.default_rng(0)
    for i in range(99):
        # adversarial garbage below the fill threshold cannot alarm
        v = step(det, POS if i % 2 else NEG, None, score=rng.random())
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
                v = step(stepped, truth, pred, score=score, minority=minority)
                if v is not Verdict.NORMAL:
                    want.append((i, v))
            assert full_state(stretched) == full_state(stepped), (seed, stop)
            t = stop
        assert got == want, seed
        warnings += sum(v is Verdict.WARNING for _, v in got)
    assert mid_stretch_drifts and warnings, (mid_stretch_drifts, warnings)


FROZEN_DETECTORS = {
    "four-rates": lambda table: (
        FourRatesDetector(decay=0.95, min_updates=10, table=table),
        FrozenFourRates(table, decay=0.95, min_updates=10),
    ),
    "four-rates-free": lambda table: (
        FourRatesDetector(decay=0.95, min_updates=10, auto_rearm=False, table=table),
        FrozenFourRates(table, decay=0.95, min_updates=10, auto_rearm=False),
    ),
    "auc-drop": lambda table: (
        AucDropDetector(window=100, min_fill=40, delta=0.05, threshold=4.0),
        FrozenAucDrop(window=100, min_fill=40, delta=0.05, threshold=4.0),
    ),
    "auc-drop-defaults": lambda table: (AucDropDetector(), FrozenAucDrop()),
}


def frozen_state(det):
    """The state a detector and its frozen loop share: the rates, counts and
    ``checks``, or the accumulator and the whole score window."""
    if isinstance(det, (FourRatesDetector, FrozenFourRates)):
        return tuple(det.rates), tuple(det.successes), tuple(det.counts), det.checks
    w = det.window
    return (
        (det.m, det.m_min, det.auc_mean, det.auc_count),
        (list(w._fifo), list(w._pos), list(w._neg), w._u2),
    )


@pytest.mark.parametrize("kind", list(FROZEN_DETECTORS))
def test_catch_ups_equal_the_frozen_loops(kind, tmp_path, monkeypatch):
    # random cuts, each stretch stopped after its first drift as a harness
    # catch-up stops it; the frozen loops are an oracle apart from
    # `catch_up`, which a stretch of one (`one_step.step`) is not
    monkeypatch.setenv(BoundTable.CACHE_ENV, str(tmp_path))
    table = small_table(decay=0.95, max_n=100)
    drifts = warnings = 0
    for seed in range(3):
        stream = phased_stream(seed)
        n = len(stream[0])
        det, frozen = FROZEN_DETECTORS[kind](table)
        rng = np.random.default_rng([seed, 2])
        t = 0
        while t < n:
            stop = min(n, t + int(rng.integers(1, 60)))
            stretch = [part[t:stop] for part in stream]
            got = det.catch_up(*stretch)
            assert got == frozen.catch_up(*stretch), (seed, t)
            assert frozen_state(det) == frozen_state(frozen), (seed, t)
            if got and got[-1][1] is Verdict.DRIFT:
                drifts += 1
                stop = t + got[-1][0] + 1
            warnings += sum(v is Verdict.WARNING for _, v in got)
            t = stop
    assert drifts and warnings, (drifts, warnings)


@pytest.mark.parametrize("bad", [None, float("nan")], ids=["None", "NaN"])
def test_auc_drop_refuses_a_stretch_with_a_bad_score_before_any_step(bad):
    det = AucDropDetector(window=100, min_fill=40, delta=0.05, threshold=4.0)
    truths, preds, scores, minorities = phased_stream(0, n=400)
    det.catch_up(truths[:150], preds[:150], scores[:150], minorities[:150])
    before = full_state(det), det.window._pos[:], det.window._neg[:], det.window._u2
    # the bad score comes after steps that would move every field
    scores = scores[150:200]
    scores[30] = bad
    with pytest.raises(ValueError, match="score"):
        det.catch_up(truths[150:200], preds[150:200], scores, minorities[150:200])
    after = full_state(det), det.window._pos[:], det.window._neg[:], det.window._u2
    assert after == before


# ---------------------------------------------------------------------------
# score_detections
# ---------------------------------------------------------------------------


def test_score_detections_splits_true_and_false_alarms():
    got = score_detections([[100, 1600, 1700]], drift_start=1501)
    assert got.tdr == 1.0
    assert got.fa == 2.0
    assert got.dod == 99.0


def test_score_detections_alarm_at_drift_start_counts_with_zero_delay():
    got = score_detections([[1501]], drift_start=1501)
    assert (got.tdr, got.fa, got.dod) == (1.0, 0.0, 0.0)


def test_score_detections_no_alarms_gives_none_delay():
    got = score_detections([[]], drift_start=1501)
    assert got.tdr == 0.0
    assert got.fa == 0.0
    assert got.dod is None


def test_score_detections_normalizes_by_requested_runs():
    # silent runs count: the rates are per run, not per run with an alarm
    got = score_detections([[1600], [200], [], []], drift_start=1501)
    assert got.tdr == 0.25
    assert got.fa == 0.25
    assert got.dod == 99.0


def test_score_detections_is_insensitive_to_alarm_order():
    shuffled, ordered = [[1700, 100, 1600]], [[100, 1600, 1700]]
    assert score_detections(shuffled, 1501) == score_detections(ordered, 1501)


def test_score_detections_validates_run_counts():
    with pytest.raises(ValueError, match="need at least one run"):
        score_detections([], drift_start=1501)
