"""The compiled MLP round: the C source `mlp_round.c`, built once and cached,
and numpy's own float64 loops, which it calls.

`load` builds the library at its first call, never at import: with ``cc
-O2 -ffp-contract=off -fPIC -shared`` (no fused multiply-adds, no fast
math), under `cache_root`, in a file named by a hash of the source, the
flags and the platform. A build writes a unique temp file and renames it into
place, so processes that build at once each load a whole library, and leave
one. A cached file cut short is rebuilt, with a line on stderr; a box with no
C compiler gets an error that says so.

The round calls numpy's inner loops of ``np.exp`` and ``np.matmul``, read
from the all-float64 entry of each ufunc's loop table, so that it computes
what a numpy call computes, bit for bit: the same `exp` dispatch, and the
same BLAS calls for the products. `load` checks both loops against numpy on
a probe before the library is used.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .cache import cache_root

SOURCE = Path(__file__).with_name("mlp_round.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

# the exceptions the round returns, as `mlp_round.c` encodes them: those first
# raised in an exponential in the low bits, the rest from bit 4 up
_RAISED = ((1, "overflow"), (2, "invalid value"), (4, "divide by zero"))
_ERRSTATE = {"overflow": "over", "invalid value": "invalid", "divide by zero": "divide"}

_loaded = None  # (mlp_round, mlp_run, numpy's loops), once loaded


class Bank(ctypes.Structure):
    """``bank_t`` of `mlp_round.c`: numpy's loops, the bank's sizes and the
    addresses of its flat buffers and work buffers."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("exp", "matmul", "exp_data", "matmul_data")),
        *((name, ctypes.c_ssize_t) for name in ("rows", "d", "h", "size")),
        *((name, ctypes.c_void_p)
          for name in ("params", "grads", "x", "a1", "z2", "e", "da1")),
    ]


class Schedule(ctypes.Structure):
    """``schedule_t`` of `mlp_round.c`: the ring's size, the rounds run, and
    the addresses of a `learners.RowSchedule`'s tables, cursors and work
    buffers."""

    _fields_ = [
        ("slots", ctypes.c_ssize_t), ("round", ctypes.c_ssize_t),
        *((name, ctypes.c_void_p) for name in (
            "ks", "inputs", "targets", "sizes", "hist",
            "at", "done", "pred", "unscored", "code", "score",
        )),
    ]


class _UFunc(ctypes.Structure):
    """The head of numpy's ``PyUFuncObject``, up to its loop table."""

    _fields_ = [
        ("head", ctypes.c_char * object.__basicsize__),
        ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
        ("identity", ctypes.c_int),
        ("functions", ctypes.POINTER(ctypes.c_void_p)),
        ("data", ctypes.POINTER(ctypes.c_void_p)),
        ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
        ("name", ctypes.c_char_p), ("types", ctypes.POINTER(ctypes.c_char)),
    ]


def library_path() -> Path:
    """The cached library of this source, these flags and this platform."""
    key = repr((SOURCE.read_bytes(), FLAGS, sys.platform, platform.machine()))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_root() / f"mlp_round_{digest}.so"


def compiler() -> str | None:
    """The C compiler a build runs: ``cc`` on the PATH, or None."""
    return shutil.which("cc")


def load():
    """``(mlp_round, mlp_run, loops)``: the library's two functions, with
    their argument types set, and numpy's loops as `Bank` takes them. Built,
    loaded and checked at the first call."""
    global _loaded
    if _loaded is None:
        path = library_path()
        if not path.exists():
            _build(path)
        elif _cut_short(path):
            print(f"skewstream: rebuilding the truncated MLP round library {path}",
                  file=sys.stderr)
            _build(path)
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise RuntimeError(
                f"cannot load the MLP round library {path}: {exc}; delete it to "
                "have it rebuilt"
            ) from exc
        ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
        one, run = lib.mlp_round, lib.mlp_run
        one.argtypes = [ptr] * 6
        run.argtypes = [ptr, ptr, size, size, size]
        one.restype = run.restype = ctypes.c_int
        _loaded = (one, run, _checked_loops())
    return _loaded


def bank(**fields) -> tuple[Bank, int]:
    """A `Bank` of these fields and numpy's loops, and its address, which
    the round takes. The caller keeps the structure, and the arrays it
    points into, alive."""
    made = Bank(*load()[2], **fields)
    return made, ctypes.addressof(made)


def schedule(**fields) -> tuple[Schedule, int]:
    """A `Schedule` of these fields, and its address, which ``mlp_run``
    takes. The caller keeps the structure, and the arrays it points into,
    alive."""
    made = Schedule(**fields)
    return made, ctypes.addressof(made)


def warn_raised(flags: int) -> None:
    """Report the floating-point exceptions a call of the round returned as
    numpy reports those of its own calls, under numpy's error state: a
    RuntimeWarning by default, a FloatingPointError where it is "raise", and
    nothing where it is "ignore"."""
    state = np.geterr()
    for shift, where in ((0, "exp"), (4, "the MLP round")):
        for bit, what in _RAISED:
            if flags >> shift & bit:
                message = f"{what} encountered in {where}"
                mode = state[_ERRSTATE[what]]
                if mode == "raise":
                    raise FloatingPointError(message)
                if mode != "ignore":
                    warnings.warn(message, RuntimeWarning, stacklevel=2)


def _build(path: Path) -> None:
    """Compile the source into ``path``, through a unique temp file."""
    import subprocess  # only a build pays for it

    cc = compiler()
    if cc is None:
        raise RuntimeError(
            "skewstream's MLP round is C and needs a C compiler: "
            "shutil.which('cc') found no `cc` on the PATH to build "
            f"{path} (the cache is $SKEWSTREAM_CACHE, else "
            "$XDG_CACHE_HOME/skewstream, else ~/.cache/skewstream)"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp.so")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"], capture_output=True, text=True
        )
        if done.returncode:
            raise RuntimeError(
                f"building the MLP round library {path} with {cc} failed "
                f"(exit {done.returncode}):\n{done.stderr}"
            )
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cut_short(path: Path) -> bool:
    """Whether an ELF library ends before its section header table, which
    the linker writes last. dlopen would map the pages missing from such a
    file, and the process die of SIGBUS on touching them; a file too short
    for an ELF header, or not ELF, dlopen refuses with an error."""
    data = path.read_bytes()
    if len(data) < 64 or data[:4] != b"\x7fELF":
        return False
    order = "<" if data[5] == 1 else ">"
    if data[4] == 2:  # 64-bit
        (offset,), (entry, count) = struct.unpack_from(order + "Q", data, 0x28), \
            struct.unpack_from(order + "HH", data, 0x3A)
    else:
        (offset,), (entry, count) = struct.unpack_from(order + "I", data, 0x20), \
            struct.unpack_from(order + "HH", data, 0x2E)
    return len(data) < offset + entry * count


def _loop(ufunc, types: str):
    """(function, data) of the loop that ``ufunc`` runs on the type
    signature ``types``, e.g. ``"d->d"``, read from its loop table."""
    nargs = ufunc.nin + ufunc.nout
    u = _UFunc.from_address(id(ufunc))
    seen = (u.nin, u.nout, u.nargs, u.ntypes, u.name)
    want = (ufunc.nin, ufunc.nout, nargs, ufunc.ntypes, ufunc.__name__.encode())
    if seen != want:
        raise RuntimeError(
            f"numpy {np.__version__}'s ufunc object is not laid out as expected: "
            f"read (nin, nout, nargs, ntypes, name) {seen} from np.{ufunc.__name__}, "
            f"which has {want}"
        )
    i = ufunc.types.index(types)
    codes = u.types[i * nargs : (i + 1) * nargs]
    if any(c != np.dtype(np.float64).num for c in codes):
        raise RuntimeError(f"np.{ufunc.__name__}'s loop {types} is not all float64")
    data = u.data[i] if u.data else None
    return u.functions[i], data


def _call(loop, data, arrays, dims, steps) -> None:
    """Call a numpy inner loop on ``arrays`` with these dimensions and byte
    strides."""
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    ctypes.CFUNCTYPE(None, ptr, ptr, ptr, ptr)(loop)(
        (ptr * len(arrays))(*(a.ctypes.data for a in arrays)),
        (size * len(dims))(*dims),
        (size * len(steps))(*steps),
        data,
    )


def _checked_loops():
    """The float64 loops of np.exp and np.matmul as ``bank_t`` takes them,
    each checked on a probe against the numpy call."""
    exp, exp_data = _loop(np.exp, "d->d")
    matmul, matmul_data = _loop(np.matmul, "dd->d")
    x = np.linspace(-700.0, 700.0, 1001)
    out = np.empty_like(x)
    _call(exp, exp_data, (x, out), (x.size,), (8, 8))
    if not np.array_equal(out.view(np.uint64), np.exp(x).view(np.uint64)):
        raise RuntimeError("the float64 loop read from np.exp's loop table does "
                           "not compute np.exp on a probe")
    # a (rows, m, n) by (rows, n, 1) product, with the strides the round uses
    rows, m, n = 3, 4, 5
    A = np.sin(np.arange(rows * m * n)).reshape(rows, m, n)
    v = np.cos(np.arange(rows * n)).reshape(rows, n, 1)
    out = np.empty((rows, m, 1))
    steps = (m * n * 8, n * 8, m * 8, n * 8, 8, 8, 0, 8, 0)
    _call(matmul, matmul_data, (A, v, out), (rows, m, n, 1), steps)
    if not np.array_equal(out.view(np.uint64), np.matmul(A, v).view(np.uint64)):
        raise RuntimeError("the float64 loop read from np.matmul's loop table does "
                           "not compute np.matmul on a probe")
    return exp, matmul, exp_data, matmul_data
