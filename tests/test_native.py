"""The compiled round's library (`skewstream.native`): where it is cached, how
it is built and loaded, and what a build or a load refuses.

Each test that builds points ``$SKEWSTREAM_CACHE`` at an empty directory and
forgets the library this process loaded, so that `native.load` builds and
loads one anew there.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skewstream import native
from skewstream.cache import CACHE_ENV, cache_root
from skewstream.detectors import BoundTable

SRC = Path(native.__file__).resolve().parents[1]


def _fresh_cache(monkeypatch, root: Path) -> None:
    monkeypatch.setenv(CACHE_ENV, str(root))
    monkeypatch.setattr(native, "_loaded", None)


def test_the_library_shares_the_bound_tables_cache_root(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
    assert cache_root() == tmp_path / "env"
    assert BoundTable()._cache_path().parent == native.library_path().parent
    monkeypatch.delenv(CACHE_ENV)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert native.library_path().parent == tmp_path / "xdg" / "skewstream"


def _env(cache: Path) -> dict:
    env = dict(os.environ, **{CACHE_ENV: str(cache)})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_only_the_first_bank_imports_and_builds_the_library(tmp_path):
    # importing the package and every command's module compiles, builds and
    # loads nothing of the round; the first bank does all three
    code = (
        "import sys, skewstream, skewstream.cli, skewstream.engine; "
        "print('skewstream.native' in sys.modules); "
        "from skewstream.learners import MlpBank; MlpBank(2, [[0]]); "
        "print('skewstream.native' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(tmp_path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
    [library] = tmp_path.iterdir()
    assert library.name == native.library_path().name


# a bank's first forward pass, its class probabilities as hex
PASS = (
    "import numpy as np; from skewstream.learners import MlpBank; "
    "bank = MlpBank(3, [[1, 0, i] for i in range(4)]); "
    "print(bank.kernel(np.ones((4, 3)))[1].tobytes().hex())"
)


def test_two_processes_building_at_once_both_run_and_leave_one_library(tmp_path):
    procs = [
        subprocess.Popen([sys.executable, "-c", PASS], env=_env(tmp_path), text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0] and outs[0][0].strip()
    # no temp file is left, and the one library is whole
    [library] = tmp_path.iterdir()
    assert library.name.startswith("mlp_round_") and library.suffix == ".so"
    assert not native._cut_short(library)


def test_a_truncated_library_is_rebuilt_and_said_so(monkeypatch, tmp_path, capfd):
    # a whole library, as this process loaded it, cut short past its headers:
    # loaded as it is, it would die of SIGBUS
    native.load()
    whole = native.library_path().read_bytes()
    _fresh_cache(monkeypatch, tmp_path)
    path = native.library_path()
    path.write_bytes(whole[: len(whole) // 2])
    assert native._cut_short(path)
    native.load()
    assert f"rebuilding the truncated MLP round library {path}" in capfd.readouterr().err
    assert not native._cut_short(path)


def test_an_unloadable_library_is_reported_with_its_path(monkeypatch, tmp_path):
    _fresh_cache(monkeypatch, tmp_path)
    path = native.library_path()
    path.write_bytes(b"not a library")
    with pytest.raises(RuntimeError, match="cannot load the MLP round library") as err:
        native.load()
    assert str(path) in str(err.value)


def test_no_compiler_is_an_error_that_says_so(monkeypatch, tmp_path):
    _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(native, "compiler", lambda: None)
    with pytest.raises(RuntimeError, match="needs a C compiler") as err:
        native.load()
    assert "shutil.which('cc')" in str(err.value)
    assert str(native.library_path()) in str(err.value)
    assert not any(tmp_path.iterdir())


def test_a_loop_that_is_not_numpys_is_refused(monkeypatch, tmp_path):
    # the loop bound for exp is checked against np.exp at load
    _fresh_cache(monkeypatch, tmp_path)
    loop = native._loop
    monkeypatch.setattr(
        native, "_loop", lambda ufunc, types: loop(np.sqrt if ufunc is np.exp else ufunc, types)
    )
    with pytest.raises(RuntimeError, match="np.exp's loop table"):
        native.load()
