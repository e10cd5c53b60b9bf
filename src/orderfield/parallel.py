"""The trial loop of a sweep cell: every trial in order, on the calling thread."""

from __future__ import annotations

import os
from typing import Callable

# Read by no command: only the benchmark's tracer (perfbench/tracing.py) reports the
# value as its worker count; they go with this module once the tracer stops reading them.
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


def trial_map(fn: Callable[[int], object], count: int) -> list:
    """Apply ``fn`` to trial indices 0..count-1 in order, on the calling thread."""
    return [fn(i) for i in range(count)]
