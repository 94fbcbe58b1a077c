"""Word vector ingestion and auxiliary count tables.

The embedding store is an immutable vocabulary + N x d float64 matrix.  Text
formats handled here: the ".vec" format (header "N d", then one
"word v1 ... vd" row per line), plain UTF-8 corpora, and "word<TAB>count"
TSV tables.
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Mapping

import numpy as np

from ._util import ParseError, atomic_write_text, chunk_rows, utf8_lines, worker_count

# Row norms in this range come from squares that neither underflow nor
# overflow.
_SAFE_NORMS = (1e-150, 1e150)

# Float64 bytes of one np.loadtxt result, and of one block of rows that
# load_unit_vectors moves.  loadtxt grows its buffer by a
# quarter plus 8-16 KiB at a time, so every buffer stays under glibc's default
# 128 KiB mmap threshold: blocks come from the heap, and freeing them never
# raises the dynamic threshold, which would move later large temporaries onto
# the heap too and raise peak RSS.
_PARSE_BLOCK_BYTES = 64 * 1024
# np.loadtxt also splits on these; bytes.split() does not, and float() cannot
# read a token holding one.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Smallest byte range of a .vec body worth a forked parse worker; smaller
# files are parsed in this process alone.
_MIN_RANGE_BYTES = 1 << 20

_COUNT_RE = re.compile(r"[0-9]+")
# For str patterns, [^\W_] is exactly str.isalnum() and \S is not str.isspace().
_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?")


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Vocabulary plus row-aligned dense vectors.

    Immutable after construction (the matrix is marked read-only), so
    instances can be shared freely across worker threads.  ``normalized``
    records whether every row has unit L2 norm.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool = False
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        words = tuple(self.words)
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-d matrix, got shape {vectors.shape}")
        if len(words) != vectors.shape[0]:
            raise ValueError(f"{len(words)} words but {vectors.shape[0]} vector rows")
        if vectors.size and not np.isfinite(vectors).all():
            raise ValueError("vectors contain non-finite components")
        index = dict(zip(words, range(len(words))))
        if len(index) < len(words):
            seen: set[str] = set()
            # The earliest second occurrence: a b b a names b.
            raise ValueError(f"duplicate word {next(w for w in words if w in seen or seen.add(w))!r}")
        vectors.setflags(write=False)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def row(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise KeyError(f"word {word!r} not in vocabulary") from None


def load_vec_file(path) -> EmbeddingSet:
    """Parse a ".vec" text file into an EmbeddingSet, preserving file order.

    Every line, the header included, splits on ASCII whitespace.  Words are
    UTF-8; numbers are ASCII decimal as float() reads them, without "_"
    digit grouping.  Raises ParseError (with the offending line number) on a
    malformed header or one too large to allocate, a word that is not valid
    UTF-8, wrong row arity, unparseable or non-finite numbers, duplicate
    words, or a row count that contradicts the header.

    The rows are parsed in up to worker_count() newline-aligned byte ranges,
    all but the first in forked workers; any error is raised by parsing the
    body again in this process.  A worker that dies raises ChildProcessError.
    """
    with open(path, "rb") as handle:
        header = handle.readline()
        parts = header.split()
        shown = header.strip().decode("utf-8", "backslashreplace")
        if len(parts) != 2:
            got = repr(shown) if parts else "empty line"
            raise ParseError(f"{path}:1: expected header 'N d', got {got}")
        try:
            # ASCII digits only, as in rows: int() also takes "_", a sign and spaces.
            if not (parts[0].isdigit() and parts[1].isdigit()):
                raise ValueError
            # int() refuses digit strings over sys.get_int_max_str_digits() long.
            declared, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:1: header fields must be integers, got {shown!r}") from None
        if dim < 1:
            raise ParseError(f"{path}:1: header needs N >= 0 and d >= 1, got N={declared} d={dim}")

        try:
            rows = np.empty((declared, dim), dtype=np.float64)
        except (MemoryError, ValueError):
            raise ParseError(
                f"{path}:1: header N={declared} d={dim} needs {declared * dim * 8:,} bytes "
                "of float64, more than can be allocated"
            ) from None

        def add(seen: dict[str, int], block: list[tuple[int, bytes, bytes]]) -> None:
            """Check and store a block of split lines after seen's rows; raise the first error in file order."""
            values = _parse_numbers([rest for _, _, rest in block], dim)
            if values is not None:
                finite = np.isfinite(values).all(axis=1).tolist()
            else:
                # Each line alone, its numbers rejoined so that a lone \r stays whitespace.
                values = [_parse_numbers([b" ".join(rest.split())], dim) for _, _, rest in block]
                finite = [None if row is None else np.isfinite(row).all() for row in values]
            start = len(seen)
            # finite is None for a line whose numbers did not parse.
            for (lineno, raw, rest), row_finite in zip(block, finite):
                try:
                    word = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError(f"{path}:{lineno}: word {raw!r} is not valid UTF-8") from None
                if row_finite is None and len(rest.split()) != dim:
                    raise ParseError(
                        f"{path}:{lineno}: expected {dim} components for {word!r}, got {len(rest.split())}"
                    )
                if word in seen:
                    raise ParseError(
                        f"{path}:{lineno}: duplicate word {word!r} (first seen on line {seen[word]})"
                    )
                if len(seen) == declared:
                    raise ParseError(f"{path}:{lineno}: more rows than the declared {declared}")
                seen[word] = lineno
                if row_finite is None:
                    raise ParseError(f"{path}:{lineno}: unparseable number in row for {word!r}")
                if not row_finite:
                    raise ParseError(f"{path}:{lineno}: non-finite component in row for {word!r}")
            # A line parsed alone is a 1 x dim matrix.
            rows[start : len(seen)] = np.reshape(values, (-1, dim))

        def parse(handle: BinaryIO, end: int | None, seen: dict[str, int]) -> None:
            """Check and store handle's lines, numbered from 2, up to offset end or EOF."""
            step = max(1, _PARSE_BLOCK_BYTES // (8 * dim))
            block: list[tuple[int, bytes, bytes]] = []
            for lineno, line in enumerate(handle, start=2):
                fields = line.split(None, 1)
                if fields:
                    block.append((lineno, fields[0], fields[1] if len(fields) == 2 else b""))
                    if len(block) == step:
                        add(seen, block)
                        block = []
                if end is not None and handle.tell() >= end:
                    break
            if block:
                add(seen, block)

        def send(start: int, end: int | None, out: BinaryIO) -> None:
            """In a worker: parse [start, end), then send its words and rows, or None for an error."""
            seen: dict[str, int] = {}
            with open(path, "rb") as own:
                own.seek(start)
                try:
                    # Lines are numbered from 2 here too, but a number only names an error, which stays here.
                    parse(own, end, seen)
                except ParseError:
                    pickle.dump(None, out)
                    return
            pickle.dump(list(seen), out)
            out.write(rows[: len(seen)])

        cuts = _cuts(handle)
        ends = [*cuts, None]
        seen: dict[str, int] = {}
        workers: list[tuple[int, BinaryIO]] = []
        serial = False
        try:
            for start, end in zip(cuts, ends[1:]):
                workers.append(_fork(send, start, end))
            parse(handle, ends[0], seen)
            for pid, reader in workers:
                try:
                    theirs = pickle.load(reader)
                    # Their range holds an error, or their words repeat or overflow those before them.
                    serial = theirs is None or len(seen) + len(theirs) > declared or not seen.keys().isdisjoint(theirs)
                    if serial:
                        break
                    block = rows[len(seen) : len(seen) + len(theirs)]
                    if reader.readinto(block) != block.nbytes:
                        raise EOFError
                except (EOFError, pickle.UnpicklingError):
                    workers.remove((pid, reader))
                    reader.close()
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(
                        f"{path}: parse worker exited with status {status} before sending its rows"
                    ) from None
                seen.update(dict.fromkeys(theirs, 0))  # a line number past the first range is never named
        finally:
            for pid, reader in workers:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if serial:
            # With the workers gone, one pass in this process names the first error in file order, with its line.
            seen.clear()
            handle.seek(len(header))
            parse(handle, None, seen)
        if len(seen) != declared:
            raise ParseError(f"{path}: header declares {declared} rows, found {len(seen)}")
    return EmbeddingSet(words=tuple(seen), vectors=rows)


def _cuts(handle: BinaryIO) -> list[int]:
    """Line starts that split the rest of handle into up to worker_count() ranges of _MIN_RANGE_BYTES or more."""
    if not handle.seekable():  # a pipe is read once, front to back
        return []
    start, size = handle.tell(), os.fstat(handle.fileno()).st_size
    parts = min(worker_count(), (size - start) // _MIN_RANGE_BYTES)
    cuts: set[int] = set()
    for part in range(1, parts):
        handle.seek(start + part * (size - start) // parts - 1)
        handle.readline()
        cuts.add(handle.tell())
    handle.seek(start)
    return sorted(cuts - {size})


def _fork(work: Callable[..., None], *args) -> tuple[int, BinaryIO]:
    """Run work(*args, out) in a forked child that writes to a pipe; return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid, code = None, 1
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks, as OpenBLAS's
            # do.  The child calls no BLAS, and OpenBLAS has its own atfork handlers.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            with open(write_fd, "wb") as out:
                work(*args, out)
            code = 0
    finally:
        if pid == 0:
            # Whatever happened, the child never unwinds into its caller's stack.
            os._exit(code)
        os.close(write_fd)
        if pid is None:
            os.close(read_fd)
    return pid, open(read_fd, "rb")


def _parse_numbers(lines: list[bytes], dim: int) -> np.ndarray | None:
    """The len(lines) x dim matrix of the numbers in lines, or None if any line is not dim numbers.

    A blank line is not dim numbers.  Numbers split on ASCII whitespace and
    parse as float() reads them, except that "_" grouping and non-ASCII
    bytes are unparseable.
    """
    text = b"".join(lines)
    # loadtxt warns on input with no data, and skips blank lines within a call.
    if not text.strip() or any(space in text for space in _LOADTXT_ONLY_SPACE):
        return None
    try:
        values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2, encoding="ascii")
    except ValueError:  # UnicodeDecodeError, for a non-ASCII byte, is a ValueError too
        return None
    # loadtxt checks column counts only within a call.
    return values if values.shape == (len(lines), dim) else None


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Divide each nonzero row of vectors by its L2 norm in place; return the zero rows' indices."""
    n, d = vectors.shape
    step = chunk_rows(d)
    norms = np.empty(n)
    # np.linalg.norm's sqrt(add.reduce(x * x)), with the squares in one buffer
    # reused across row chunks; rows are independent, so chunking keeps the bits.
    squares = np.empty((min(step, n), d))
    with np.errstate(over="ignore"):
        for start in range(0, n, step):
            part = np.square(vectors[start : start + step], out=squares[: min(step, n - start)])
            np.sqrt(np.add.reduce(part, axis=1), out=norms[start : start + step])
    # Rows whose squares under- or overflow are rescaled by their largest
    # component first; the norms of all others are np.linalg.norm's, bit for bit.
    outside = np.flatnonzero((norms < _SAFE_NORMS[0]) | (norms > _SAFE_NORMS[1]))
    if outside.size:
        rows = vectors[outside]
        scale = np.abs(rows).max(axis=1)
        scale[scale == 0.0] = 1.0
        norms[outside] = np.linalg.norm(rows / scale[:, None], axis=1) * scale
    zero = np.flatnonzero(norms == 0.0)
    norms[zero] = 1.0
    vectors /= norms[:, None]
    return zero


def l2_normalize_all(embeddings: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit L2 norm; word order is unchanged."""
    vectors = embeddings.vectors.copy()
    zero = _normalize_rows(vectors)
    if zero.size:
        raise ValueError(f"cannot normalize zero vector for word {embeddings.words[zero[0]]!r}")
    return EmbeddingSet(words=embeddings.words, vectors=vectors, normalized=True)


def load_unit_vectors(path) -> tuple[EmbeddingSet, list[str]]:
    """Load a ".vec" file, drop its zero vectors and L2-normalize the rest.

    Zero vectors have no direction, so they cannot be scored or clustered;
    their words are returned in file order for the caller to report, and
    are out of vocabulary in the returned set.
    """
    embeddings = load_vec_file(path)
    words, vectors = embeddings.words, embeddings.vectors
    # The parsed set never leaves this function and owns its array: normalize in place.
    vectors.setflags(write=True)
    zero = _normalize_rows(vectors)
    dropped = [words[i] for i in zero]
    if not dropped:
        # Its words and index are checked already, and its rows are now unit.
        vectors.setflags(write=False)
        object.__setattr__(embeddings, "normalized", True)
        return embeddings, dropped
    skip = set(dropped)
    keep = np.delete(np.arange(len(words)), zero)
    # Compact in place, a heap-sized block at a time: each block is gathered
    # before it is written, from rows at or after it.
    step = max(1, _PARSE_BLOCK_BYTES // (8 * vectors.shape[1]))
    for start in range(int(zero[0]), len(keep), step):
        block = keep[start : start + step]
        vectors[start : start + len(block)] = vectors[block]
    words, vectors = tuple(w for w in words if w not in skip), vectors[: len(keep)]
    return EmbeddingSet(words=words, vectors=vectors, normalized=True), dropped


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric affixes.

    Tokens emptied by stripping (pure punctuation) are dropped.
    """
    return _TOKEN_RE.findall(text.lower())


def count_corpus(path) -> dict[str, int]:
    """Token frequencies of a plain-text corpus under `tokenize`."""
    counts: Counter[str] = Counter()
    for line in utf8_lines(path):
        counts.update(tokenize(line))
    return dict(counts)


def load_count_table(path) -> dict[str, int]:
    """Parse a "word<TAB>count" TSV; counts must be nonnegative integers up to 2**53."""
    entries: dict[str, int] = {}
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise ParseError(f"{path}:{lineno}: expected 'word<TAB>count', got {line!r}")
        word, raw_count = fields
        if not _COUNT_RE.fullmatch(raw_count):
            raise ParseError(
                f"{path}:{lineno}: count for {word!r} must be a nonnegative integer, got {raw_count!r}"
            )
        # Correlations take counts as float64, which holds every integer up to 2**53 (16 digits).
        digits = raw_count.lstrip("0") or "0"
        if len(digits) > 16 or int(digits) > 2**53:
            raise ParseError(f"{path}:{lineno}: count for {word!r} exceeds 2**53, the exact float64 limit")
        if word in entries:
            raise ParseError(f"{path}:{lineno}: duplicate word {word!r}")
        entries[word] = int(digits)
    return entries


def save_count_table(table: Mapping[str, int], path) -> None:
    """Write "word<TAB>count" lines in word order."""
    lines = [f"{word}\t{count}" for word, count in sorted(table.items())]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
