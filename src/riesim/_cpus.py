"""Whether this process may use a second CPU: the one test behind every
second thread or forked child in the package."""

from __future__ import annotations

import os


def two_cpus() -> bool:
    """True when the process may run on at least two CPUs; False on one, or
    where os.sched_getaffinity is missing."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2
