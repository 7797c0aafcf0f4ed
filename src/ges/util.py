"""Small shared helpers: worker pools and deterministic text formatting."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count(requested: int | None = None) -> int:
    """Effective worker count: the requested count, at least 1; None means 1."""
    return 1 if requested is None else max(1, int(requested))


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: int | None = None) -> list[R]:
    """Order-preserving map; results are assembled by input index so the
    output is identical for any worker count."""
    n = worker_count(workers)
    items = list(items)
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form, identical across runs."""
    return repr(float(x))
