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

from ._util import ParseError, atomic_write_text, chunk_rows

# Row norms in this range come from squares that neither underflow nor
# overflow.
_SAFE_NORMS = (1e-150, 1e150)

_COUNT_RE = re.compile(r"\d+")
# A .vec field is a run of characters other than ASCII whitespace, as fastText
# writes it, so a word may hold other whitespace (U+00A0, U+3000).
_VEC_FIELD_RE = re.compile(r"[^ \t\n\r\f\v]+")
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

    Raises ParseError (with the offending line number) on a malformed
    header or one too large to allocate, wrong row arity, unparseable or
    non-finite numbers, duplicate words, or a row count that contradicts the
    header.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header.strip():
            raise ParseError(f"{path}:1: expected header 'N d', got empty line")
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:1: expected header 'N d', got {header.strip()!r}")
        try:
            declared, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:1: header fields must be integers, got {header.strip()!r}") from None
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
        for lineno, line in enumerate(handle, start=2):
            fields = line.split()
            if not fields:
                continue
            # split() also splits on non-ASCII whitespace, which can cut or trim
            # a word.  When the word is not followed by an ASCII space, the fields
            # split on ASCII whitespace are used if their count fits.
            if not line.startswith(fields[0] + " "):
                ascii_fields = _VEC_FIELD_RE.findall(line)
                if len(ascii_fields) == dim + 1:
                    fields = ascii_fields
            word, values = fields[0], fields[1:]
            if len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} components for {word!r}, got {len(values)}"
                )
            if word in seen:
                raise ParseError(
                    f"{path}:{lineno}: duplicate word {word!r} (first seen on line {seen[word]})"
                )
            if len(words) == declared:
                raise ParseError(f"{path}:{lineno}: more rows than the declared {declared}")
            row = rows[len(words)]
            try:
                # numpy casts each str with float()'s grammar.
                row[:] = values
            except ValueError:
                raise ParseError(f"{path}:{lineno}: unparseable number in row for {word!r}") from None
            if not np.isfinite(row).all():
                raise ParseError(f"{path}:{lineno}: non-finite component in row for {word!r}")
            seen[word] = lineno
            words.append(word)
        if len(words) != declared:
            raise ParseError(f"{path}: header declares {declared} rows, found {len(words)}")
    return EmbeddingSet(words=tuple(words), vectors=rows)


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """L2 norm of each row, also for rows whose squared components under- or overflow."""
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
    # Only such rows are rescaled by their largest component first; the
    # norms of all others are np.linalg.norm's, bit for bit.
    outside = np.flatnonzero((norms < _SAFE_NORMS[0]) | (norms > _SAFE_NORMS[1]))
    if outside.size:
        rows = vectors[outside]
        scale = np.abs(rows).max(axis=1)
        scale[scale == 0.0] = 1.0
        norms[outside] = np.linalg.norm(rows / scale[:, None], axis=1) * scale
    return norms


def l2_normalize_all(embeddings: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit L2 norm; word order is unchanged."""
    norms = _row_norms(embeddings.vectors)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero vector for word {embeddings.words[zero[0]]!r}")
    return EmbeddingSet(
        words=embeddings.words,
        vectors=embeddings.vectors / norms[:, None],
        normalized=True,
    )


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
    # One norm pass serves the zero check and the division, as in
    # l2_normalize_all.
    norms = _row_norms(vectors)
    zero = norms == 0.0
    dropped = [words[i] for i in np.flatnonzero(zero)]
    if dropped:
        keep = np.flatnonzero(~zero)
        words, vectors, norms = tuple(words[i] for i in keep), vectors[keep], norms[keep]
    vectors /= norms[:, None]
    return EmbeddingSet(words=words, vectors=vectors, normalized=True), dropped


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric affixes.

    Tokens emptied by stripping (pure punctuation) are dropped.
    """
    return _TOKEN_RE.findall(text.lower())


def count_corpus(path) -> dict[str, int]:
    """Token frequencies of a plain-text corpus under `tokenize`."""
    counts: Counter[str] = Counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            counts.update(tokenize(line))
    return dict(counts)


def load_count_table(path) -> dict[str, int]:
    """Parse a "word<TAB>count" TSV; counts must be nonnegative integers."""
    entries: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
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
