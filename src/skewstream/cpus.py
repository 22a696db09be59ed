"""The CPUs this process may use.

One definition for everything that spreads work over the CPUs, the run
pool of the run engine and the bound-table build of the detectors alike, so
one affinity mask (``taskset``) governs both.
"""
from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
