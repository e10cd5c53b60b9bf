"""Deterministic fan-out of independent Monte Carlo trials.

Worker count comes from the ORDERSTAT_THREADS environment variable (default
1), capped at the trial count and the CPU count.  Results are always
assembled in trial order, so output is identical at any worker count.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

T = TypeVar("T")

ENV_THREADS = "ORDERSTAT_THREADS"


def worker_count() -> int:
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_THREADS} must be a positive integer, got {raw!r}") from exc
    if count < 1:
        raise ValueError(f"{ENV_THREADS} must be a positive integer, got {count}")
    return count


def pool_size(count: int) -> int:
    """Threads for ``count`` trials: the requested workers, at most one per trial and CPU."""
    workers = min(worker_count(), count)
    return workers if workers <= 1 else min(workers, os.cpu_count() or 1)


def trial_map(fn: Callable[[int], T], count: int) -> list[T]:
    """Apply ``fn`` to trial indices 0..count-1, merging results in index order."""
    workers = pool_size(count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # only here: a serial run need not load it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
