"""Shared plumbing: parse errors, UTF-8 line reads, atomic file and CSV writes, worker pool, chunk sizing, the float32 margin and spanning forests."""

from __future__ import annotations

import csv
import io
import os
import secrets
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "TPS_THREADS"

# Element budget of one row chunk of a product, whatever the number of rows:
# 4M float32 values, 16 MB.  A neighbor search pass holds its block product,
# the product's partitioned copy and its float32 vocabulary tile within it,
# and its words' rows, running top values and kept rows within as much
# again, per worker; dbscan's eps pairs hold at most half of it.
CHUNK_ELEMENTS = 4_000_000

# A float32 similarity is trusted only outside a margin.  Let u = 2^-24, the
# float32 unit roundoff, and let a, b be rows of R^d within
# clustering._UNIT_TOL of unit length, so that |a|.|b| (coordinates taken in
# absolute value) is at most (1 + _UNIT_TOL)^2.  Casting to float32 moves
# each coordinate by at most u relative, so the cast rows' exact dot product
# is within (2u + u^2) |a|.|b| of a.b.  Rounding the d products and summing
# them in float32, in any order, adds at most d u / (1 - d u) |a|.|b|
# (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).  To
# first order the float32 similarity is therefore within (d + 2) u of a.b.
# The margin doubles that, which covers the higher-order terms, the unit
# tolerance and the float64 rounding (about d 2^-53) of the exact
# similarity that decides the values inside it.  Cuts taken from it are
# rounded outward, so their own rounding cannot move a value across.
_FLOAT32_UNIT = 2.0**-24


def _float32_margin(dim: int) -> float:
    """Distance from a value inside which a float32 similarity is not trusted."""
    return 2.0 * (dim + 2) * _FLOAT32_UNIT


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
    """Worker cap: TPS_THREADS when set, otherwise 8, and never more than the CPU count."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return min(cpus, 8)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {value}")
    return min(cpus, value)


def chunk_rows(columns: int) -> int:
    """Rows per chunk of a product with `columns` columns, within CHUNK_ELEMENTS."""
    return max(1, CHUNK_ELEMENTS // max(1, columns))


def map_ordered(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """Apply fn to every item, preserving input order in the result.

    Runs on a thread pool when more than one worker is allowed; results are
    collected in input order either way, so callers see identical output
    regardless of the worker count.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write through a sibling temp file + rename so partial output is never visible."""
    # A name of fixed length: one derived from path's own could pass NAME_MAX when path's is near it.
    tmp = os.path.join(os.path.dirname(path), f".tmp-{secrets.token_hex(8)}")
    # open(path, "w")'s mode: the kernel applies the umask; O_EXCL never opens an existing file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def atomic_write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as "\n"-terminated CSV through atomic_write_text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def spanning_forest(count: int, heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kruskal's forest of the edges (heads[i], tails[i]) taken in list order, by Borůvka rounds.

    Returns ``(kept, root)``: whether each edge is in the forest, and for
    each of the `count` vertices a root that exactly the vertices of its
    component share.  Each round, every component hooks onto another along
    its first edge in list order.  Positions order the edges totally, so the
    hooks form no cycle but a pair of components hooked onto each other
    along one edge, whose lower end stays a root, and each round at least
    halves the components that have an edge out.  Pointer jumping then
    halves every hook path per step: a chain of any length takes
    O(log count) steps.
    """
    size = heads.shape[0]
    kept = np.zeros(size, dtype=bool)
    root = np.arange(count, dtype=np.int32)
    live = np.arange(size, dtype=np.int32)
    ends = heads, tails
    while True:
        between = ends[0] != ends[1]
        if not between.all():
            live, ends = live[between], (ends[0][between], ends[1][between])
        if live.size == 0:
            return kept, root
        first = np.full(count, size, dtype=np.int32)
        np.minimum.at(first, ends[0], live)
        np.minimum.at(first, ends[1], live)
        comps = np.flatnonzero(first < size).astype(np.int32)
        edges = first[comps]
        kept[edges] = True
        near, far = root[heads[edges]], root[tails[edges]]
        targets = np.where(near == comps, far, near)
        parent = np.arange(count, dtype=np.int32)
        parent[comps] = targets
        mutual = comps[(parent[targets] == comps) & (comps < targets)]
        parent[mutual] = mutual
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        root = parent[root]
        ends = parent[ends[0]], parent[ends[1]]
