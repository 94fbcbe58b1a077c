"""Shared plumbing: parse errors, UTF-8 line reads, atomic file and CSV writes, worker pool and chunk sizing."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "TPS_THREADS"

# Element budget of one row chunk of a similarity product, whatever the
# number of rows: 4M values, 32 MB in float64 (the neighbor search) and
# 16 MB in float32 (dbscan's eps pairs).
CHUNK_ELEMENTS = 4_000_000


class ParseError(ValueError):
    """A data file violates its declared format; messages carry path and line."""


def utf8_lines(path: str | os.PathLike, newline: str | None = None) -> Iterator[str]:
    """The lines that open(path, encoding="utf-8", newline=newline) yields.

    A line that is not valid UTF-8 raises ParseError with the path, the line
    number and the offending bytes, where open() would raise a bare codec
    error from somewhere in the file.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as err:
                # Only escaped invalid bytes decode to surrogates.
                bad = line[err.start : err.end].encode("utf-8", "surrogateescape")
                raise ParseError(f"{path}:{lineno}: {bad!r} is not valid UTF-8") from None
            yield line


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


def chunk_rows(columns: int) -> int:
    """Rows per chunk of a product with `columns` columns, within CHUNK_ELEMENTS."""
    return max(1, CHUNK_ELEMENTS // max(1, columns))


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
        # open(path, "w")'s mode, not mkstemp's 0o600; the umask can only be read by setting it.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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


def atomic_write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as "\n"-terminated CSV through atomic_write_text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())
