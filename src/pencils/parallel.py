"""Process-parallel map behind the ``--jobs`` option of ``table`` and
``verify``."""

from __future__ import annotations

import os

from .errors import DomainError

__all__ = ["map_jobs"]


def map_jobs(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]`` across at most ``jobs`` worker processes.

    ``jobs`` must be at least 1 and is clamped to the CPU count; at 1 the
    map runs in this process and no pool is started.  Items travel to the
    workers in about four batches per worker, not one call per item.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))
