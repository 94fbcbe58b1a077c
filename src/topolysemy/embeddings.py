"""Word vector ingestion and auxiliary count tables.

The embedding store is an immutable vocabulary + N x d float64 matrix.  Text
formats handled here: the ".vec" format (header "N d", then one
"word v1 ... vd" row per line), plain UTF-8 corpora, and "word<TAB>count"
TSV tables.
"""

from __future__ import annotations

import mmap
import os
import pickle
import re
import signal
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

from ._util import ParseError, atomic_write_text, utf8_lines, worker_count

# Row norms in this range come from squares that neither underflow nor
# overflow.
_SAFE_NORMS = (1e-150, 1e150)

# Float64 bytes of one np.loadtxt result, of one block of rows that
# load_unit_vectors moves and of the squares that _normalize_rows sums, and
# the bytes of one read of .vec text, parsed or newline-counted.  loadtxt
# grows its buffer by a quarter plus 8-16 KiB at a time, so every buffer
# stays under glibc's default 128 KiB mmap threshold: blocks come from the
# heap, and freeing them never raises the dynamic threshold, which would
# move later large temporaries onto the heap too and raise peak RSS.
_PARSE_BLOCK_BYTES = 64 * 1024
# np.loadtxt also splits on these; bytes.split() does not, and float() cannot
# read a token holding one.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Smallest byte range of a .vec body worth a forked parse worker; smaller
# files are parsed in this process alone.  A worker first counts the
# newlines before its range, at about 0.32 ns a byte (page-cached, numpy
# compare and count_nonzero) against about 9 ns a byte to parse: the last
# of W workers counts (W - 1)/W of the body.  A blank line before a range
# makes its count too high, and the serial pass parses the body.
_MIN_RANGE_BYTES = 1 << 20

_COUNT_RE = re.compile(r"[0-9]+")
# For str patterns, [^\W_] is exactly str.isalnum() and \S is not str.isspace().
_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?")


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Vocabulary plus row-aligned dense vectors.

    Immutable after construction (the matrix is marked read-only), so
    instances can be shared freely across worker threads.  ``normalized``
    records that every row has unit L2 norm; only ``l2_normalize_all`` and
    ``load_unit_vectors`` set it, so it is not a constructor argument.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool = field(default=False, init=False)
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

    @classmethod
    def _parsed(cls, index: dict[str, int], vectors: np.ndarray) -> EmbeddingSet:
        """The set of index's words, each at its row of vectors, without __post_init__'s checks.

        For a caller that has checked them already: index maps distinct
        words to rows 0, 1, ... in order, and vectors is a C-contiguous
        float64 matrix of finite values with a row per word.
        """
        embeddings = object.__new__(cls)
        vectors.setflags(write=False)
        for name, value in (("words", tuple(index)), ("vectors", vectors), ("normalized", False), ("_index", index)):
            object.__setattr__(embeddings, name, value)
        return embeddings

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

    The N x d matrix is one shared anonymous mapping, made before any fork.
    A body that _cuts leaves whole (small, one worker, or a pipe) takes one
    _parse_serially pass, which names the first error.  Otherwise
    _parse_range, which names no error, parses it in up to worker_count()
    newline-aligned byte ranges, all but the first in forked workers.  A
    worker takes the newlines before its range as the row it starts at, and
    sends back that row and its words.  If a range fails or its rows do not
    start where those before it end, or the rows found are not N, the
    serial pass parses the body again in this process: a blank line before
    a range, or a repeated word, which leaves the index a row short, sends
    it there.  A worker that dies raises ChildProcessError.
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
            # Shared, so that the rows a forked worker writes are the ones this process returns.
            shared = mmap.mmap(-1, max(1, declared * dim * 8))
        except (OSError, OverflowError):
            raise ParseError(
                f"{path}:1: header N={declared} d={dim} needs {declared * dim * 8:,} bytes "
                "of float64, more than can be allocated"
            ) from None
        rows = np.frombuffer(shared, dtype=np.float64, count=declared * dim).reshape(declared, dim)
        step = max(1, _PARSE_BLOCK_BYTES // (8 * dim))

        def send(start: int, end: int | None, out: BinaryIO) -> None:
            """In a worker: store the rows of [start, end); send the row they start at and their words, or None."""
            with open(path, "rb") as own:
                offset = _rows_before(own, len(header), start)
                pickle.dump(_parse_range(_line_blocks(own, end, step), rows, offset), out)

        index: dict[str, int] = {}

        def admit(parsed: tuple[int, list[str]] | None) -> bool:
            """Index a range's words; False if it failed or its rows do not start where those before it end.

            A blank line or a repeated word before the range's end makes
            this offset, the next one or the final count miss the index.
            """
            if parsed is None or parsed[0] != len(index):
                return False
            offset, words = parsed
            index.update(zip(words, range(offset, offset + len(words))))
            return True

        cuts = _cuts(handle)
        if not cuts:
            return EmbeddingSet._parsed(_parse_serially(path, handle, rows, step), rows)
        workers: list[tuple[int, BinaryIO]] = []
        try:
            for start, end in zip(cuts, [*cuts[1:], None]):
                workers.append(_fork(send, start, end))
            complete = admit(_parse_range(_line_blocks(handle, cuts[0], step), rows, 0))
            for pid, reader in workers:
                if not complete:
                    break
                try:
                    theirs = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    workers.remove((pid, reader))
                    reader.close()
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(
                        f"{path}: parse worker exited with status {status} before sending its words"
                    ) from None
                complete = admit(theirs)
        finally:
            for pid, reader in workers:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if not complete or len(index) != declared:
            # With the workers gone, one pass in this process names the first error in file order, with its line.
            handle.seek(len(header))
            index = _parse_serially(path, handle, rows, step)
    return EmbeddingSet._parsed(index, rows)


def _parse_range(blocks: Iterable[list[bytes]], rows: np.ndarray, base: int) -> tuple[int, list[str]] | None:
    """Store the lines of blocks that are not blank as rows from base on; return base and their words.

    Each block takes one np.loadtxt, one np.isfinite and one decode.  The
    first that holds a word alone, a row not of d finite numbers, a word not
    UTF-8 or a row past the end of rows gives None, naming no error.
    """
    words: list[str] = []
    for lines in blocks:
        fields = [split for line in lines if (split := line.split(None, 1))]
        start = base + len(words)
        if start + len(fields) > len(rows):
            return None
        if not fields:
            continue
        try:
            values = _parse_numbers([rest for _, rest in fields], rows.shape[1])
            words += b"\n".join([word for word, _ in fields]).decode("utf-8").split("\n")
        except ValueError:  # a word alone, or one not UTF-8 (a UnicodeDecodeError)
            return None
        if values is None or not np.isfinite(values).all():
            return None
        rows[start : start + len(fields)] = values
    return base, words


def _parse_serially(path, handle: BinaryIO, rows: np.ndarray, step: int) -> dict[str, int]:
    """Store the lines from handle's position to EOF as rows from 0 on; return each word's row.

    Raises ParseError naming the first error in file order, with its line,
    or a row count other than the header's N.  Blocks of step lines go
    through _parse_range; only one that fails or repeats a word is checked
    line by line.
    """
    declared, dim = rows.shape
    seen: dict[str, int] = {}  # each word's first line, in row order
    lineno = 2
    for lines in _line_blocks(handle, None, step):
        first, lineno = lineno, lineno + len(lines)
        parsed = _parse_range([lines], rows, len(seen))
        if parsed is not None:
            block = dict(zip(parsed[1], (number for number, line in enumerate(lines, first) if line.strip())))
            if len(block) == len(parsed[1]) and seen.keys().isdisjoint(block):
                seen.update(block)
                continue
        # The block fails: check it line by line, in the order of the checks that name errors.
        for number, line in enumerate(lines, start=first):
            fields = line.split(None, 1)
            if not fields:
                continue
            raw, rest = fields[0], fields[1] if len(fields) == 2 else b""
            values = _parse_numbers([rest], dim)
            try:
                word = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{number}: word {raw!r} is not valid UTF-8") from None
            if values is None and len(rest.split()) != dim:
                raise ParseError(f"{path}:{number}: expected {dim} components for {word!r}, got {len(rest.split())}")
            if word in seen:
                raise ParseError(f"{path}:{number}: duplicate word {word!r} (first seen on line {seen[word]})")
            if len(seen) >= declared:
                raise ParseError(f"{path}:{number}: more rows than the declared {declared}")
            if values is None:
                raise ParseError(f"{path}:{number}: unparseable number in row for {word!r}")
            if not np.isfinite(values).all():
                raise ParseError(f"{path}:{number}: non-finite component in row for {word!r}")
            rows[len(seen)] = values[0]
            seen[word] = number
    if len(seen) != declared:
        raise ParseError(f"{path}: header declares {declared} rows, found {len(seen)}")
    return dict(zip(seen, range(declared)))


def _line_blocks(handle: BinaryIO, end: int | None, step: int) -> Iterator[list[bytes]]:
    """The lines in handle up to byte end, a line start (EOF when None), in lists of step.

    Each line keeps its "\\n", if it has one; the last list may be shorter.
    Lines are read whole, about _PARSE_BLOCK_BYTES at a time.
    """
    lines: list[bytes] = []
    while end is None or handle.tell() < end:
        got = handle.readlines(_PARSE_BLOCK_BYTES)
        if not got:
            break
        lines += got
        # The last read may pass end, by whole lines.
        over = 0 if end is None else handle.tell() - end
        while over > 0:
            over -= len(lines.pop())
        full = len(lines) - len(lines) % step
        for at in range(0, full, step):
            yield lines[at : at + step]
        del lines[:full]
    for at in range(0, len(lines), step):
        yield lines[at : at + step]


def _rows_before(handle: BinaryIO, start: int, stop: int) -> int:
    """The newlines in handle's bytes [start, stop); leave handle at stop.

    These are the rows before stop unless a line before it is blank; then
    admit refuses the range, and the serial pass parses the body.
    """
    handle.seek(start)
    text = np.empty(_PARSE_BLOCK_BYTES, dtype=np.uint8)
    newline = np.empty(_PARSE_BLOCK_BYTES, dtype=bool)
    lines = 0
    while start < stop:
        got = handle.readinto(text[: min(_PARSE_BLOCK_BYTES, stop - start)])
        if not got:
            break
        lines += np.count_nonzero(np.equal(text[:got], ord("\n"), out=newline[:got]))
        start += got
    return lines


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
    if b"\r" in text:  # loadtxt ends a line there too; bytes.split() reads it as a space
        lines = [line.replace(b"\r", b" ") for line in lines]
    try:
        values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2, encoding="ascii")
    except ValueError:  # UnicodeDecodeError, for a non-ASCII byte, is a ValueError too
        return None
    # loadtxt checks column counts only within a call.
    return values if values.shape == (len(lines), dim) else None


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Divide each nonzero row of vectors by its L2 norm in place; return the zero rows' indices."""
    n, d = vectors.shape
    step = max(1, _PARSE_BLOCK_BYTES // (8 * d))
    norms = np.empty(n)
    # np.linalg.norm's sqrt(add.reduce(x * x)), with the squares in one heap
    # buffer reused across row blocks; rows are independent, so blocking keeps the bits.
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
    return _marked_normalized(EmbeddingSet(words=embeddings.words, vectors=vectors))


def _marked_normalized(embeddings: EmbeddingSet) -> EmbeddingSet:
    """The set, marked as holding unit rows, which its caller has just made them."""
    object.__setattr__(embeddings, "normalized", True)
    return embeddings


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
        return _marked_normalized(embeddings), dropped
    skip = set(dropped)
    keep = np.delete(np.arange(len(words)), zero)
    # Compact in place, a heap-sized block at a time: each block is gathered
    # before it is written, from rows at or after it.
    step = max(1, _PARSE_BLOCK_BYTES // (8 * vectors.shape[1]))
    for start in range(int(zero[0]), len(keep), step):
        block = keep[start : start + step]
        vectors[start : start + len(block)] = vectors[block]
    index = dict(zip((w for w in words if w not in skip), range(len(keep))))
    return _marked_normalized(EmbeddingSet._parsed(index, vectors[: len(keep)])), dropped


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
