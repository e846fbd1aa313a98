"""Test helper: run one job the way every caller does.

A plain module rather than a ``conftest.py`` function, because the
benchmarks directory has a ``conftest`` of its own and a full-tree
collection would shadow one with the other.
"""

from repro.runtime import make_job, run_job


def run_ooc(algo, source, k, **knobs):
    """``run_job(make_job(algo, source, k, **knobs), source=source)``."""
    return run_job(make_job(algo, source, k, **knobs), source=source)
