"""Word vector ingestion and auxiliary count tables.

The embedding store is an immutable vocabulary + N x d float64 matrix.  Text
formats handled here: the ".vec" format (header "N d", then one
"word v1 ... vd" row per line), plain UTF-8 corpora, and "word<TAB>count"
TSV tables.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._util import ParseError, atomic_write_text, chunk_rows, utf8_lines

# Row norms in this range come from squares that neither underflow nor
# overflow.
_SAFE_NORMS = (1e-150, 1e150)

# Float64 bytes of one np.loadtxt result.  loadtxt grows its buffer by a
# quarter plus 8-16 KiB at a time, so every buffer stays under glibc's default
# 128 KiB mmap threshold: blocks come from the heap, and freeing them never
# raises the dynamic threshold, which would move later large temporaries onto
# the heap too and raise peak RSS.
_PARSE_BLOCK_BYTES = 64 * 1024
# np.loadtxt also splits on these; bytes.split() does not, and float() cannot
# read a token holding one.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

_COUNT_RE = re.compile(r"\d+")
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
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-d matrix, got shape {vectors.shape}")
        if len(self.words) != vectors.shape[0]:
            raise ValueError(
                f"{len(self.words)} words but {vectors.shape[0]} vector rows"
            )
        if vectors.size and not np.isfinite(vectors).all():
            raise ValueError("vectors contain non-finite components")
        index: dict[str, int] = {}
        for position, word in enumerate(self.words):
            if word in index:
                raise ValueError(f"duplicate word {word!r}")
            index[word] = position
        vectors.setflags(write=False)
        object.__setattr__(self, "words", tuple(self.words))
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
    """
    with open(path, "rb") as handle:
        header = handle.readline()
        parts = header.split()
        shown = header.strip().decode("utf-8", "backslashreplace")
        if len(parts) != 2:
            got = repr(shown) if parts else "empty line"
            raise ParseError(f"{path}:1: expected header 'N d', got {got}")
        try:
            declared, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:1: header fields must be integers, got {shown!r}") from None
        if declared < 0 or dim < 1:
            raise ParseError(f"{path}:1: header needs N >= 0 and d >= 1, got N={declared} d={dim}")

        words: list[str] = []
        seen: dict[str, int] = {}
        try:
            rows = np.empty((declared, dim), dtype=np.float64)
        except (MemoryError, ValueError):
            raise ParseError(
                f"{path}:1: header N={declared} d={dim} needs {declared * dim * 8:,} bytes "
                "of float64, more than can be allocated"
            ) from None

        def add(block: list[tuple[int, list[bytes]]]) -> None:
            """Check and store a block of split lines; raise the first error in file order."""
            rests = [fields[1] for _, fields in block if len(fields) == 2]
            # Every line of a parsed block holds dim numbers, so only the word,
            # row-count and finiteness checks are left; otherwise each line
            # is checked alone.
            values = _parse_numbers(rests, dim) if len(rests) == len(block) else None
            if values is not None:
                finite = np.isfinite(values).all(axis=1).tolist()
            start = len(words)
            for i, (lineno, fields) in enumerate(block):
                try:
                    word = fields[0].decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError(f"{path}:{lineno}: word {fields[0]!r} is not valid UTF-8") from None
                if values is None:
                    tokens = fields[1].split() if len(fields) == 2 else []
                    if len(tokens) != dim:
                        raise ParseError(
                            f"{path}:{lineno}: expected {dim} components for {word!r}, got {len(tokens)}"
                        )
                if word in seen:
                    raise ParseError(
                        f"{path}:{lineno}: duplicate word {word!r} (first seen on line {seen[word]})"
                    )
                if len(words) == declared:
                    raise ParseError(f"{path}:{lineno}: more rows than the declared {declared}")
                if values is None:
                    row = _parse_numbers([b" ".join(tokens)], dim)
                    if row is None:
                        raise ParseError(f"{path}:{lineno}: unparseable number in row for {word!r}")
                    rows[len(words)] = row[0]
                    row_finite = np.isfinite(row).all()
                else:
                    row_finite = finite[i]
                if not row_finite:
                    raise ParseError(f"{path}:{lineno}: non-finite component in row for {word!r}")
                seen[word] = lineno
                words.append(word)
            if values is not None:
                rows[start : len(words)] = values

        step = max(1, _PARSE_BLOCK_BYTES // (8 * dim))
        block: list[tuple[int, list[bytes]]] = []
        for lineno, line in enumerate(handle, start=2):
            fields = line.split(None, 1)
            if fields:
                block.append((lineno, fields))
                if len(block) == step:
                    add(block)
                    block = []
        if block:
            add(block)
        if len(words) != declared:
            raise ParseError(f"{path}: header declares {declared} rows, found {len(words)}")
    return EmbeddingSet(words=tuple(words), vectors=rows)


def _parse_numbers(lines: list[bytes], dim: int) -> np.ndarray | None:
    """The len(lines) x dim matrix of the numbers in lines, or None if any line is not dim numbers.

    lines must be non-empty, and none blank.  Numbers split on ASCII
    whitespace and parse as float() reads them, except that "_" grouping
    and non-ASCII bytes are unparseable.
    """
    text = b"".join(lines)
    if any(space in text for space in _LOADTXT_ONLY_SPACE):
        return None
    try:
        values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2, encoding="ascii")
    except ValueError:  # UnicodeDecodeError, for a non-ASCII byte, is a ValueError too
        return None
    # loadtxt skips blank lines and checks column counts only within a call.
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
    if dropped:
        skip = set(dropped)
        words, vectors = tuple(w for w in words if w not in skip), np.delete(vectors, zero, axis=0)
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
    """Parse a "word<TAB>count" TSV; counts must be nonnegative integers."""
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
        if word in entries:
            raise ParseError(f"{path}:{lineno}: duplicate word {word!r}")
        entries[word] = int(raw_count)
    return entries


def save_count_table(table: Mapping[str, int], path) -> None:
    """Write "word<TAB>count" lines in word order."""
    lines = [f"{word}\t{count}" for word, count in sorted(table.items())]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
