"""Where skewstream caches what it builds: the bound tables of the detectors
and the compiled MLP round of the learners.
"""
from __future__ import annotations

import os
from pathlib import Path

CACHE_ENV = "SKEWSTREAM_CACHE"


def cache_root() -> Path:
    """``$SKEWSTREAM_CACHE``, else ``$XDG_CACHE_HOME/skewstream``, else
    ``~/.cache/skewstream``."""
    root = os.environ.get(CACHE_ENV)
    if root is None:
        xdg = os.environ.get("XDG_CACHE_HOME", str(Path.home() / ".cache"))
        root = str(Path(xdg) / "skewstream")
    return Path(root)
