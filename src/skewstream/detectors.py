"""Active drift detectors and scoring of their alarms.

Three detectors share one verdict interface: `catch_up` steps through a
stretch of prequential observations (true labels, predicted labels, scores
and the tracker's minorities) in one call, stopping after the first Drift,
and `step(...) -> Verdict` is its one-observation case:

* RecallDropDetector — tracks the time-decayed recall of the current minority
  class and fires when it falls 2 (warning) or 3 (drift) dispersion units
  below its running best, the classic error-monitoring construction applied
  to minority recall.
* FourRatesDetector — tracks decayed TPR/TNR/PPV/NPV and compares each,
  whenever it updates, against Monte Carlo null quantiles for its current
  update count; any detect-level violation is a drift.
* AucDropDetector — prequential AUC over a recent-score window fed to a
  Page-Hinkley accumulator on the decrease direction.

All three re-arm themselves (reset to the freshly initialized state) upon
emitting Drift. Warnings are informational only.

`score_detections` turns per-run alarm logs into the usual detection scores:
true-detection rate, false alarms per run, and mean delay to the first
post-drift alarm.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys
import tempfile
import threading
import zipfile
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .cpus import usable_cpus
from .labels import NEG, POS
from .metrics import ScoreWindow, prequential_auc


class Verdict(Enum):
    NORMAL = "normal"
    WARNING = "warning"
    DRIFT = "drift"


class DriftDetector:
    """Interface: feed prequential observations, get verdicts back.

    A minority of None or 0 means that the tracker designates none.
    """

    def catch_up(
        self, truths, preds, scores, minorities
    ) -> list[tuple[int, Verdict]]:
        """Step through the observations ``(truths[i], preds[i], scores[i],
        minorities[i])`` in order, up to and including the first that gives
        Drift; returns the non-Normal verdicts with their indices. A stretch
        is exactly that many `step` calls."""
        raise NotImplementedError

    def step(
        self,
        truth: int,
        predicted: int,
        score: float | None = None,
        minority: int | None = None,
    ) -> Verdict:
        """The verdict on one observation: `catch_up` on a stretch of one."""
        verdicts = self.catch_up((truth,), (predicted,), (score,), (minority,))
        return verdicts[0][1] if verdicts else Verdict.NORMAL

    def reset(self) -> None:
        raise NotImplementedError


def _require_finite(**params) -> None:
    """Reject a non-finite parameter, naming it: with a NaN or infinite bound
    or margin the test means nothing (a NaN bound is never crossed, so the
    detector would run blind)."""
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")


class RecallDropDetector(DriftDetector):
    """Decayed minority-recall monitor with 2s/3s drop bounds.

    Only examples whose true class is the current minority update the decayed
    recall R. R is the ratio of a decayed hit sum to a decayed count, so it
    is an unbiased level estimate from the first update on rather than a
    zero-anchored accumulator that spends hundreds of rare minority examples
    climbing toward the true level. Its dispersion is
    s = sqrt(max(R(1-R), floor) / min(n, n_eff)) with
    n_eff = (1+decay)/(1-decay), the decayed estimator's variance-matched
    effective sample count (the number of equally-weighted draws giving the
    same variance; the weight-sum count 1/(1-decay) overstates the variance
    roughly twofold and would push the 3s bound out to ~4 true standard
    deviations). The variance floor is the one-pseudocount value
    n_eff/(n_eff+1) * 1/(n_eff+1), so a spotless streak (R = 1, nominal
    variance 0) cannot produce zero-width bounds. The best R seen since
    (re)arm and the dispersion at that best define the drop bounds. Verdicts
    and best-tracking start after ``min_updates`` monitored examples so a
    lucky first few observations cannot pin an unbeatable best.

    The default decay keeps the monitor's horizon at a couple dozen minority
    examples: long enough for stable bounds, short enough that a recall dip
    lasting tens of minority examples (a few hundred stream steps at one-in-
    ten imbalance) registers before it heals.

    A drift verdict additionally requires the 3s violation to hold on
    ``confirm`` consecutive monitored updates. A single minority example
    moves the decayed estimate by up to (1-decay), so one unlucky example
    can clip the bound for exactly one update and bounce straight back; a
    real drop keeps the estimate below the bound across updates. The
    confirmation step filters those one-update clips (each of which would
    otherwise reset the paired model and blind the pipeline) at the price of
    ``confirm - 1`` extra monitored examples of detection delay.
    """

    def __init__(
        self,
        decay: float = 0.92,
        warn_scale: float = 2.0,
        drift_scale: float = 3.0,
        min_updates: int = 30,
        confirm: int = 2,
    ):
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        _require_finite(warn_scale=warn_scale, drift_scale=drift_scale)
        self.decay = decay
        self.warn_scale = warn_scale
        self.drift_scale = drift_scale
        self.min_updates = int(min_updates)
        self.confirm = int(confirm)
        self.n_eff = (1.0 + decay) / (1.0 - decay)
        q = self.n_eff / (self.n_eff + 1.0)
        self._var_floor = q * (1.0 - q)
        self.reset()

    def reset(self) -> None:
        self.recall = 0.0
        self.best = 0.0
        self.best_s = 0.0
        self.n = 0
        self._num = 0.0
        self._den = 0.0
        self._streak = 0

    def catch_up(self, truths, preds, scores, minorities):
        verdicts = []
        decay = self.decay
        gain = 1.0 - decay
        min_updates, confirm = self.min_updates, self.confirm
        drift_scale, warn_scale = self.drift_scale, self.warn_scale
        n, num, den, recall = self.n, self._num, self._den, self.recall
        best, best_s, streak = self.best, self.best_s, self._streak
        for i, (truth, predicted, minority) in enumerate(
            zip(truths, preds, minorities)
        ):
            # only the minority's examples update; POS while none is designated
            if truth != (minority or POS):
                continue
            n += 1
            num = decay * num + gain * float(predicted == truth)
            den = decay * den + gain
            recall = num / den
            if n < min_updates:
                continue
            if recall >= best:
                best = recall
                var = max(recall * (1.0 - recall), self._var_floor)
                best_s = math.sqrt(var / min(n, self.n_eff))
            if recall < best - drift_scale * best_s:
                streak += 1
                if streak >= confirm:
                    self.reset()
                    verdicts.append((i, Verdict.DRIFT))
                    return verdicts
                verdicts.append((i, Verdict.WARNING))
                continue
            streak = 0
            if recall < best - warn_scale * best_s:
                verdicts.append((i, Verdict.WARNING))
        self.n, self._num, self._den, self.recall = n, num, den, recall
        self.best, self.best_s, self._streak = best, best_s, streak
        return verdicts


# ---------------------------------------------------------------------------
# Four-rates detector and its Monte Carlo bound table
# ---------------------------------------------------------------------------

_TPR, _TNR, _PPV, _NPV = 0, 1, 2, 3
_RATE_NAMES = ("tpr", "tnr", "ppv", "npv")


class BoundTable:
    """Null quantiles of a decayed-vs-cumulative deviation, indexed by (p, n).

    Under the null, a rate's indicator stream is i.i.d. Bernoulli(p); the
    decayed statistic follows R_n = decay*R_{n-1} + (1-decay)*B_n from
    R_0 = 0.5 and the cumulative estimate is p_hat_n = (successes+0.5)/(n+1).
    The monitored deviation is D_n = R_n - p_hat_n. Tabulating D rather than
    R alone matters: both estimates are computed from the same indicators,
    so they are strongly correlated (nearly identical at moderate n) and the
    deviation has far less spread than R itself — bounds on R at a
    data-estimated center would be wildly conservative. The table holds
    Monte Carlo quantiles of D_n on a grid of underlying rates p and a
    ladder of update counts n (saturating at max_n, past which the
    distribution is stationary), at four tail levels: detect-low, warn-low,
    warn-high, detect-high. Queries interpolate bilinearly and clamp outside
    the grid; the interpolation along n is done once, at construction, for
    every integer n up to max_n, so a query interpolates only along p.

    Built once per parameter set from a fixed seed and cached on disk, so
    bounds are reproducible across processes. The build splits the p rows
    into one contiguous block per usable CPU and simulates the blocks in
    threads. The split is exact: a row's paths depend only on its own p and
    on each step's uniform vector, which every row shares, so a block that
    draws from its own generator on the same seed sees the same vectors,
    and every update and quantile is computed row by row. The table is the
    same bit for bit on any number of CPUs.
    """

    CACHE_ENV = "SKEWSTREAM_CACHE"

    def __init__(
        self,
        decay: float = 0.99,
        warn_level: float = 0.01,
        detect_level: float = 0.001,
        n_paths: int = 25000,
        max_n: int = 1000,
        seed: int = 20240605,
    ):
        # a decay outside (0, 1) diverges and un-nested levels fail only
        # after the simulation, so both are refused before any cache lookup
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay!r}")
        if not 0.0 < detect_level <= warn_level < 1.0:
            raise ValueError(
                "detect_level and warn_level must satisfy 0 < detect_level "
                f"<= warn_level < 1, got {detect_level!r} and {warn_level!r}"
            )
        self.decay = decay
        self.warn_level = warn_level
        self.detect_level = detect_level
        self.n_paths = n_paths
        self.max_n = max_n
        self.seed = seed
        self.p_grid = np.unique(
            np.concatenate(
                [np.linspace(0.01, 0.99, 25), [0.02, 0.03, 0.05, 0.95, 0.97, 0.98]]
            )
        )
        self.n_grid = np.unique(
            np.rint(np.geomspace(1, max_n, 40)).astype(int)
        )
        self.levels = np.array(
            [detect_level / 2, warn_level / 2, 1 - warn_level / 2, 1 - detect_level / 2]
        )
        cached = self._load_cache()
        if cached is not None:
            self.table = cached
        else:
            self.table = self._simulate()
            self._store_cache()
        self._index()

    def _index(self) -> None:
        self._p_list = self.p_grid.tolist()
        # `_n_rows` in C order as a flat array of doubles: a query's two
        # neighbouring p rows at one n are eight consecutive entries, and an
        # array slice unpacks into Python floats without numpy's call costs
        self._rows = array("d", self._n_rows().tobytes())

    # pickled without the query index, 28 times the table's size: a table
    # handed to a worker process travels as ~36 KB and is indexed there
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_p_list"], state["_rows"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index()

    # -- cache ---------------------------------------------------------------

    def _cache_path(self) -> Path:
        key = repr(
            (
                "deviation-v1",
                self.decay,
                self.warn_level,
                self.detect_level,
                self.n_paths,
                self.max_n,
                self.seed,
                self.p_grid.tolist(),
                self.n_grid.tolist(),
            )
        ).encode()
        digest = hashlib.sha256(key).hexdigest()[:16]
        root = os.environ.get(self.CACHE_ENV)
        if root is None:
            xdg = os.environ.get("XDG_CACHE_HOME", str(Path.home() / ".cache"))
            root = str(Path(xdg) / "skewstream")
        return Path(root) / f"rate_bounds_{digest}.npz"

    def _load_cache(self) -> np.ndarray | None:
        path = self._cache_path()
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                table = data["table"]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            print(f"skewstream: ignoring unreadable bound-table cache {path}: {exc}",
                  file=sys.stderr)
            return None
        expected = (len(self.p_grid), len(self.n_grid), 4)
        if table.shape != expected:
            print(f"skewstream: ignoring misshapen bound-table cache {path}: "
                  f"found shape {table.shape}, expected {expected}",
                  file=sys.stderr)
            return None
        return table

    def _store_cache(self) -> None:
        """Write the table atomically: a unique temp file, then a rename, so
        concurrent writers never see or leave a partial file. The cache is an
        optimization only, so a failure is reported and the run goes on."""
        path = self._cache_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem + ".", suffix=".tmp.npz"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    np.savez(f, table=self.table)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            print(f"skewstream: could not cache bound table at {path}: {exc}",
                  file=sys.stderr)

    # -- construction --------------------------------------------------------

    def _simulate(self) -> np.ndarray:
        # one block of contiguous p rows per usable CPU, each in its own
        # thread: numpy releases the GIL in the updates, the draws and the
        # partition behind quantile, so the blocks run in parallel
        blocks = np.array_split(self.p_grid, min(usable_cpus(), len(self.p_grid)))
        if len(blocks) == 1:
            parts = [self._simulate_rows(blocks[0])]
        else:
            # imported only here: a build on one CPU starts no thread
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(len(blocks)) as pool:
                parts = list(pool.map(self._simulate_rows, blocks))
        table = np.concatenate(parts)
        if not (np.diff(table, axis=2) >= 0).all():
            raise AssertionError("bound quantiles must be nested")
        return table

    def _simulate_rows(self, p_rows: np.ndarray) -> np.ndarray:
        """The table's rows for the rates ``p_rows``, a block of p_grid."""
        rng = np.random.default_rng(self.seed)
        n_p = len(p_rows)
        paths = np.full((n_p, self.n_paths), 0.5)
        successes = np.zeros((n_p, self.n_paths), dtype=np.int32)
        hit = np.empty((n_p, self.n_paths), dtype=bool)
        p_col = p_rows[:, None]
        table = np.empty((n_p, len(self.n_grid), 4))
        record = {n: i for i, n in enumerate(self.n_grid)}
        gain = 1.0 - self.decay
        for n in range(1, self.max_n + 1):
            # one shared uniform vector per step: marginals per p stay exact
            np.less(rng.random(self.n_paths), p_col, out=hit)
            paths *= self.decay
            # a miss adds 0.0, which leaves a (positive) path unchanged
            paths += hit * gain
            successes += hit
            i = record.get(n)
            if i is not None:
                deviation = paths - (successes + 0.5) / (n + 1.0)
                table[:, i, :] = np.quantile(deviation, self.levels, axis=1).T
        return table

    # -- queries -------------------------------------------------------------

    def _n_rows(self) -> np.ndarray:
        """rows[n - 1] = the table interpolated along n at update count n,
        for n = 1..max_n, shape (max_n, len(p_grid), 4)."""
        n = np.arange(1, self.max_n + 1)
        ni = np.clip(np.searchsorted(self.n_grid, n), 1, len(self.n_grid) - 1)
        n0, n1 = self.n_grid[ni - 1], self.n_grid[ni]
        # a one-point ladder (max_n = 1) has n0 == n1 == n, so fn = 0
        fn = ((n - n0) / np.maximum(n1 - n0, 1))[:, None, None]
        t = self.table.transpose(1, 0, 2)
        return (1 - fn) * t[ni - 1] + fn * t[ni]

    def bounds(self, p: float, n: int) -> tuple[float, float, float, float]:
        """(detect_low, warn_low, warn_high, detect_high) deviation quantiles
        for underlying rate p after n updates (an integer count)."""
        grid = self._p_list
        if p < grid[0]:
            p = grid[0]
        elif p > grid[-1]:
            p = grid[-1]
        if n > self.max_n:
            n = self.max_n
        elif n < 1:
            n = 1
        pi = bisect_left(grid, p, 1, len(grid) - 1)
        p0 = grid[pi - 1]
        fp = (p - p0) / (grid[pi] - p0)
        q = 1 - fp
        at = ((n - 1) * len(grid) + pi - 1) * 4
        a0, a1, a2, a3, b0, b1, b2, b3 = self._rows[at : at + 8]
        return (q * a0 + fp * b0, q * a1 + fp * b1, q * a2 + fp * b2, q * a3 + fp * b3)


_default_tables: dict[tuple, BoundTable] = {}
# held across a build, so experiments started from several threads build
# (or load) each table once
_default_tables_lock = threading.Lock()


def default_bound_table(
    decay: float = 0.99, warn_level: float = 0.01, detect_level: float = 0.001
) -> BoundTable:
    """Process-wide shared bound table for the given parameters."""
    key = (decay, warn_level, detect_level)
    with _default_tables_lock:
        if key not in _default_tables:
            _default_tables[key] = BoundTable(
                decay=decay, warn_level=warn_level, detect_level=detect_level
            )
        return _default_tables[key]


def adopt_bound_tables(tables) -> None:
    """Share ``tables``, made by `default_bound_table` in another process,
    as this process's tables for their parameters, so none is rebuilt here."""
    with _default_tables_lock:
        for table in tables:
            key = (table.decay, table.warn_level, table.detect_level)
            _default_tables.setdefault(key, table)


class FourRatesDetector(DriftDetector):
    """Monitors decayed TPR, TNR, PPV and NPV against null deviation bounds.

    Each step updates exactly two of the four rates (one row rate picked by
    the true class, one column rate picked by the predicted class). A rate is
    tested only when it has just updated, has accumulated ``min_updates``
    updates since (re)arm, and its history holds at least one hit and one
    miss: a pure streak is the extreme trajectory consistent with an
    underlying rate of 1 (or 0), so it carries no evidence of change, and
    comparing that boundary trajectory against interpolated quantiles would
    false-alarm on interpolation error alone. The tested statistic is the
    deviation of the decayed rate from the cumulative estimate
    p_hat = (successes + 0.5)/(count + 1): the decayed side reacts to a rate
    change within ~1/(1-decay) updates while the cumulative side lags, so a
    change opens a gap that the null quantiles (tabulated for exactly this
    deviation) flag. Any detect-level violation re-arms the detector.
    ``checks`` counts bound comparisons cumulatively across re-arms, giving
    null-calibration measurements their denominator.

    With ``auto_rearm=False`` the detector still emits Drift verdicts but
    keeps its state (free-running mode). Violations of the slowly-moving
    deviation statistic come in multi-step episodes; re-arming collapses
    each episode into a single alarm, so measuring the per-comparison
    false-alarm probability against the configured detect level requires
    counting every violating comparison, not one per episode.
    """

    def __init__(
        self,
        decay: float = 0.99,
        warn_level: float = 0.01,
        detect_level: float = 0.001,
        min_updates: int = 20,
        auto_rearm: bool = True,
        table: BoundTable | None = None,
    ):
        if table is None:
            table = default_bound_table(decay, warn_level, detect_level)
        self.table = table
        self.decay = decay
        self.min_updates = int(min_updates)
        self.auto_rearm = bool(auto_rearm)
        self.checks = 0
        self.reset()

    def reset(self) -> None:
        self.rates = [0.5, 0.5, 0.5, 0.5]
        self.successes = [0, 0, 0, 0]
        self.counts = [0, 0, 0, 0]

    def catch_up(self, truths, preds, scores, minorities):
        verdicts = []
        decay = self.decay
        gain = 1.0 - decay
        min_updates, bounds = self.min_updates, self.table.bounds
        rates, successes, counts = self.rates, self.successes, self.counts
        checks = self.checks
        for i, (truth, predicted) in enumerate(zip(truths, preds)):
            # one row rate, picked by the true class, and one column rate,
            # picked by the predicted class, update; then each is tested
            if truth == POS:
                row, row_hit = _TPR, predicted == POS
            else:
                row, row_hit = _TNR, predicted == NEG
            if predicted == POS:
                col, col_hit = _PPV, truth == POS
            else:
                col, col_hit = _NPV, truth == NEG
            for idx, hit in ((row, row_hit), (col, col_hit)):
                rates[idx] = decay * rates[idx] + gain * float(hit)
                successes[idx] += int(hit)
                counts[idx] += 1
            verdict = Verdict.NORMAL
            for idx in (row, col):
                n, hits = counts[idx], successes[idx]
                if n < min_updates or hits == 0 or hits == n:
                    continue
                checks += 1
                p_hat = (hits + 0.5) / (n + 1.0)
                lo_d, lo_w, hi_w, hi_d = bounds(p_hat, n)
                d = rates[idx] - p_hat
                if d < lo_d or d > hi_d:
                    self.checks = checks
                    if self.auto_rearm:
                        self.reset()
                    verdicts.append((i, Verdict.DRIFT))
                    return verdicts
                if d < lo_w or d > hi_w:
                    verdict = Verdict.WARNING
            if verdict is Verdict.WARNING:
                verdicts.append((i, verdict))
        self.checks = checks
        return verdicts


class AucDropDetector(DriftDetector):
    """Page-Hinkley test on decreases of windowed prequential AUC.

    Every step pushes (score, truth label) into the window; once the window
    holds ``min_fill`` examples the AUC series feeds the accumulator
    m += (running mean AUC) - AUC - delta, and drift fires when m exceeds its
    running minimum by more than ``threshold``. Warning at half the gap.

    The AUC series over an overlapping window is autocorrelated on the
    window's timescale, so below-mean stretches persist for hundreds of
    steps and the accumulator's null excursions are orders of magnitude
    larger than single-step noise. delta is therefore a dip-depth filter,
    not a per-step noise margin: it must exceed both stationary AUC noise
    (sd ~0.02 at window 500) and the transient dent a still-learnable
    boundary shift leaves in the ranking. threshold then separates dip
    *budgets* (depth x persistence): a gradual concept changeover, whose
    mixed-label phase degrades the ranking mildly for a few hundred steps,
    accumulates at most a few units of gap even past delta, while a genuine
    ranking collapse (windowed AUC falling toward or below 0.5) accumulates
    a deficit of several tenths per step and blows through tens of units
    within a window's turnover. The defaults keep a stationary stream at
    roughly zero false alarms per 3,000 steps, sit ~3x above the worst
    gradual-changeover excursion observed across the bundled presets, and
    ~5x below a true collapse's gap.
    """

    def __init__(
        self,
        window: int = 500,
        delta: float = 0.10,
        threshold: float = 20.0,
        min_fill: int = 100,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        if min_fill > window:  # the window would never fill: no test, ever
            raise ValueError(
                f"min_fill must be <= window ({window!r}), got {min_fill!r}"
            )
        _require_finite(delta=delta, threshold=threshold)
        self.capacity = int(window)
        self.delta = delta
        self.threshold = threshold
        self.min_fill = int(min_fill)
        self.window = ScoreWindow(self.capacity)
        self.reset()

    def reset(self) -> None:
        self.window.clear()
        self.m = 0.0
        self.m_min = 0.0
        self.auc_mean = 0.0
        self.auc_count = 0

    def catch_up(self, truths, preds, scores, minorities):
        verdicts = []
        window, min_fill, delta = self.window, self.min_fill, self.delta
        threshold, warn = self.threshold, self.threshold / 2.0
        m, m_min = self.m, self.m_min
        auc_mean, auc_count = self.auc_mean, self.auc_count
        for i, (truth, score) in enumerate(zip(truths, scores)):
            if score is None:
                raise ValueError("AucDropDetector needs the classifier score")
            window.push(score, truth)
            if len(window) < min_fill:
                continue
            auc = prequential_auc(window)
            auc_count += 1
            auc_mean += (auc - auc_mean) / auc_count
            m += auc_mean - auc - delta
            if m < m_min:
                m_min = m
            gap = m - m_min
            if gap > threshold:
                self.reset()
                verdicts.append((i, Verdict.DRIFT))
                return verdicts
            if gap > warn:
                verdicts.append((i, Verdict.WARNING))
        self.m, self.m_min = m, m_min
        self.auc_mean, self.auc_count = auc_mean, auc_count
        return verdicts


# ---------------------------------------------------------------------------
# Alarm scoring
# ---------------------------------------------------------------------------


@dataclass
class DetectionLog:
    """Drift-alarm time steps for one run, in increasing order."""

    run: int
    seed: int
    alarms: list[int]


@dataclass(frozen=True)
class DetectorScore:
    """tdr: fraction of runs with a post-drift alarm; fa: mean false alarms
    per run; dod: mean delay of the first post-drift alarm (None if no run
    detected)."""

    tdr: float
    fa: float
    dod: float | None


def score_detections(
    logs: list[DetectionLog], drift_start: int, n_runs: int
) -> DetectorScore:
    """Score alarm logs of ``n_runs`` runs against a known drift time.

    Alarms before drift_start are false; from drift_start on, the first alarm
    in each run is the true detection and any further ones are false. A run
    without alarms may have no log, so the rates are per ``n_runs``, not per
    log.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    if len(logs) > n_runs:
        raise ValueError(f"{len(logs)} logs for {n_runs} runs")
    detected = 0
    false_alarms = 0
    delays = []
    for log in logs:
        alarms = sorted(log.alarms)
        pre = [t for t in alarms if t < drift_start]
        post = [t for t in alarms if t >= drift_start]
        false_alarms += len(pre)
        if post:
            detected += 1
            delays.append(post[0] - drift_start)
            false_alarms += len(post) - 1
    return DetectorScore(
        tdr=detected / n_runs,
        fa=false_alarms / n_runs,
        dod=float(np.mean(delays)) if delays else None,
    )
