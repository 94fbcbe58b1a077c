"""Shared plumbing: parse errors, atomic file writes, worker pool sizing."""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "TPS_THREADS"


class ParseError(ValueError):
    """A data file violates its declared format; messages carry path and line."""


def worker_count() -> int:
    """Worker cap: TPS_THREADS when set, otherwise one per CPU (at most 8)."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return min(os.cpu_count() or 1, 8)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {value}")
    return value


def map_ordered(fn: Callable[[T], R], items: Sequence[T], workers: int | None = None) -> list[R]:
    """Apply fn to every item, preserving input order in the result.

    Runs on a thread pool when more than one worker is allowed; results are
    collected in input order either way, so callers see identical output
    regardless of the worker count.
    """
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write through a sibling temp file + rename so partial output is never visible."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="-" + os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
