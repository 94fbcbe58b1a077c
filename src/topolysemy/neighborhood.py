"""Punctured neighborhoods of a word vector and their unit-sphere projection.

A neighborhood cloud holds the n vocabulary vectors closest to a center word
by cosine similarity, never including the center itself.  The projected
cloud recenters each neighbor at the center vector and scales it to the unit
sphere, which is the input the persistence stage consumes.

Search runs on blocks of center words, one candidate pass per block: the
block is multiplied with one vocabulary tile at a time (in float32, the
tile cast into a reused buffer, unless the block is narrow), each word
keeps the rows near its running k-th largest product similarity, and an
exact float64 per-row similarity ranks them.  A pass holds at most twice
CHUNK_ELEMENTS float32 values (32 MB) per worker, whatever the vocabulary
size: the tile, the product and its partitioned copy within
CHUNK_ELEMENTS, and the words' rows, running top values and kept rows
within as much again, the block narrowed at large n to fit.  Only rows
tied with a word's cut within the float32 band can add to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._util import _float32_margin, chunk_rows
from .embeddings import EmbeddingSet

# Neighbors closer to the center than this are treated as coincident and
# cannot be projected to the sphere.
COINCIDENT_EPS = 1e-12

# Center words per candidate pass; every pass reads the whole vocabulary.
_BLOCK_WORDS = 256
# Blocks of at least this many words multiply in float32; a narrower block
# multiplies the float64 rows as they are, since casting a tile costs it
# more than the float32 product saves.  Per word of a pass at one thread
# over 100-dimensional rows, float32 took 0.63 ms and float64 0.67 at 32
# words (127,151 rows, n = 50), 0.25 and 0.25 (50,000 rows, n = 50), 0.16
# and 0.15 (20,000 rows, n = 1000); at 24 words 0.30 and 0.28 ms (50,000
# rows, n = 50) and 0.18 and 0.15 (20,000 rows, n = 1000); at 16 words
# float32 took 13-37% longer.
_FLOAT32_WORDS = 32
# Float32 values' worth of bytes that one word of a pass takes, per unit
# of n + 1 + d: its block row (gathered in float64, then cast or copied),
# its running k = n + 1 largest similarities and its kept rows.  Between
# prunes a block keeps at most 3k rows per word, an int64 key and a
# float32 value each, and a prune holds them with their concatenated copy,
# its word indices, floors and mask and the pruned result: about 25 bytes
# per row, 75k bytes.  The running top, a k-column array merged with up to
# k more, takes 16k bytes more.  That is about 23 values per unit of k,
# and at most 4 per unit of d; 32 leaves room for the temporaries of
# small k.
_KEPT_VALUES = 32


@dataclass(frozen=True)
class NeighborhoodCloud:
    """Point cloud around (and excluding) a center word.

    ``points`` rows align with ``words``.  ``skipped`` lists neighbors
    dropped as coincident with the center during sphere projection.
    """

    center: str
    words: tuple[str, ...]
    points: np.ndarray
    skipped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        points = np.ascontiguousarray(self.points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-d matrix, got shape {points.shape}")
        if len(self.words) != points.shape[0]:
            raise ValueError(f"{len(self.words)} words but {points.shape[0]} point rows")
        if self.center in self.words:
            raise ValueError(f"center {self.center!r} must not appear among its neighbors")
        points.setflags(write=False)
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "skipped", tuple(self.skipped))

    def __len__(self) -> int:
        return len(self.words)


def punctured_neighborhoods(
    embeddings: EmbeddingSet, words: Sequence[str], n: int, project: bool = False
) -> Iterator[NeighborhoodCloud]:
    """The n nearest neighbors of each word by cosine similarity, excluding it, one cloud at a time.

    Checks before it returns that the embeddings are unit-norm (so the dot
    product is the cosine), that n is at most the vocabulary size minus one
    and that every word is known.  Neighbors rank by an exact dot product
    computed row by row, so the result does not depend on which words
    share a block or a tile; equal similarities keep ascending vocabulary
    order.  Blocks of up to 256 words, and of at most
    CHUNK_ELEMENTS // (32 (n + 1 + d)) but at least one, share one candidate pass over the
    vocabulary, which holds at most twice CHUNK_ELEMENTS float32 values
    (32 MB) of tiles, products, similarities and kept rows, plus the rows
    tied within the float32 band with a word's (n + 1)-th largest
    similarity: a caller done with each cloud before the next holds one
    pass and one cloud, whatever the number of words.

    With ``project``, each neighbor v becomes (v - w) / ||v - w|| for the
    center vector w.  Neighbors within COINCIDENT_EPS of w cannot be
    projected: they are listed in ``skipped`` and the next-nearest
    candidates take their place, so the cloud has fewer than n points only
    when the vocabulary runs out.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > len(embeddings) - 1:
        raise ValueError(f"n={n} exceeds the {len(embeddings) - 1} available neighbors")
    if not embeddings.normalized:
        raise ValueError("neighborhood queries require L2-normalized embeddings")
    rows = [embeddings.row(word) for word in words]
    # Each word of a pass holds its row, its running n + 1 largest
    # similarities and its kept rows, so a block at large n has fewer words.
    block = min(_BLOCK_WORDS, chunk_rows(_KEPT_VALUES * (n + 1 + embeddings.dim)))
    return (
        cloud
        for start in range(0, len(rows), block)
        for cloud in _block_clouds(embeddings, rows[start : start + block], n, project)
    )


def punctured_neighborhood(
    embeddings: EmbeddingSet, word: str, n: int, project: bool = False
) -> NeighborhoodCloud:
    """One word's punctured_neighborhoods cloud."""
    return next(punctured_neighborhoods(embeddings, [word], n, project))


def _block_clouds(
    embeddings: EmbeddingSet, rows: list[int], n: int, project: bool
) -> Iterator[NeighborhoodCloud]:
    """Clouds of one block of center rows, from one candidate pass over the vocabulary."""
    for row, candidates in zip(rows, _candidates(embeddings.vectors, rows, n + 1)):
        yield _cloud(embeddings, row, candidates, n, project)


def _tile_rows(width: int, dim: int, dtype: type) -> int:
    """Vocabulary rows per tile, whose rows, product and product copy fit CHUNK_ELEMENTS float32 values.

    A float32 tile is sized for a full block: its cast rows and a 256-word
    product and copy fill the budget, and a narrower block holds less.
    Sized for a 60-word block instead, it held 16 MB, not 5.7 MB, and took
    0.66 ms per word, not 0.51, over 127,151 x 100 rows at n = 50.  A
    float64 block, narrower than _FLOAT32_WORDS, sizes its tiles for its
    own width: sized for a full block, a one-word pass over 50,000 x 100
    rows at n = 5000 took 1.93 ms, not 1.53.
    """
    if dtype is np.float32:
        return chunk_rows(2 * _BLOCK_WORDS + dim)
    return chunk_rows(4 * width + dim)


def _candidates(vectors: np.ndarray, rows: Sequence[int], k: int) -> list[np.ndarray]:
    """For each center row, the ascending rows that may be among its k most similar.

    Each vocabulary tile is multiplied with the block into one reused
    product: in float32, the tile cast into one reused buffer, from
    _FLOAT32_WORDS words on, and in float64 below.  A partitioned copy of
    the product gives each word's k largest values of the tile, which merge
    with the k largest so far into the running k-th largest, the cut.  Rows
    are kept while their similarity reaches the cut less the band, rounded
    outward.  The cut and a row's similarity are both products, each within
    _float32_margin of the exact similarity (a float64 product is far
    closer), so the band is twice that: the final cut is the k-th largest
    of the whole vocabulary, so the exact (k - 1)-th nearest row but the
    center lies within one margin below it, and so does every row tied with
    or nearer than that one, within one more margin.  Tile, product and
    copy hold at most CHUNK_ELEMENTS float32 values.  The kept rows are
    pruned to the cut whenever they outnumber 2k per word; since a tile
    adds at most k rows per word beyond those tied within the band with the
    cut, each word holds at most _KEPT_VALUES * (k + d) float32 values'
    worth of its row, kept rows and running top.
    """
    count, dim = vectors.shape
    width = len(rows)
    dtype = np.float32 if width >= _FLOAT32_WORDS else np.float64
    block = vectors[rows].astype(dtype)
    tile = min(count, _tile_rows(width, dim, dtype))
    cast = np.empty((tile, dim), dtype=np.float32) if dtype is np.float32 else None
    product = np.empty(width * tile, dtype=dtype)
    copy = np.empty(width * tile, dtype=dtype)
    band = 2.0 * _float32_margin(dim)
    top = np.empty((width, 0), dtype=dtype)
    floor = np.full(width, -np.inf, dtype=dtype)
    # Kept rows as word * count + row, with their similarities, one part per tile.
    keys: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for start in range(0, count, tile):
        span = min(tile, count - start)
        part = vectors[start : start + span]
        if cast is not None:
            part = cast[:span]
            part[...] = vectors[start : start + span]
        similarities = np.matmul(block, part.T, out=product[: width * span].reshape(width, span))
        best = copy[: width * span].reshape(width, span)
        best[...] = similarities
        if span > k:
            best.partition(span - k, axis=1)
            best = best[:, span - k :]
        top = np.concatenate([top, best], axis=1)
        if top.shape[1] >= k:
            top.partition(top.shape[1] - k, axis=1)
            top = top[:, top.shape[1] - k :]
            cut = top[:, 0].astype(np.float64)
            floor = np.nextafter((cut - band).astype(dtype), dtype(-np.inf))
        # The copy is free again: it holds the mask of this tile's kept rows.
        mask = np.greater_equal(
            similarities, floor[:, None], out=copy.view(np.bool_)[: width * span].reshape(width, span)
        )
        flat = np.flatnonzero(mask)
        keys.append(flat // span * count + (flat % span + start))
        values.append(similarities.ravel()[flat])
        if start + span == count or sum(piece.size for piece in keys) > 2 * width * k:
            found, value = np.concatenate(keys), np.concatenate(values)
            keys.clear()
            values.clear()
            kept = value >= floor[found // count]
            keys.append(found[kept])
            values.append(value[kept])
    found = keys[0]
    found.sort()
    return np.split(found % count, np.cumsum(np.bincount(found // count, minlength=width))[:-1])


def _ranked(vectors: np.ndarray, candidates: np.ndarray, center_row: int, k: int) -> np.ndarray:
    """The k - 1 nearest rows to the center but itself, nearest first.

    The candidates are ascending and hold every row that may rank, ties
    with the last included; the exact similarity depends only on the row
    and the center.
    """
    candidates = candidates[candidates != center_row]
    products = vectors[candidates]
    products *= vectors[center_row]
    return candidates[np.argsort(-products.sum(axis=1), kind="stable")[: k - 1]]


def _cloud(
    embeddings: EmbeddingSet, center_row: int, candidates: np.ndarray, n: int, project: bool
) -> NeighborhoodCloud:
    vectors = embeddings.vectors
    word = embeddings.words[center_row]
    k = n + 1
    while True:
        ranked = _ranked(vectors, candidates, center_row, k)
        if not project:
            return NeighborhoodCloud(
                center=word,
                words=tuple(embeddings.words[i] for i in ranked),
                points=vectors[ranked],
            )
        offsets = vectors[ranked] - vectors[center_row]
        distances = np.linalg.norm(offsets, axis=1)
        kept = distances >= COINCIDENT_EPS
        if kept.sum() == n or k == len(vectors):
            break
        # Coincident rows used up the candidates: widen past them.  Each
        # ranking extends the last one, so the kept rows never exceed n.
        k = min(len(vectors), n + 1 + int((~kept).sum()))
        candidates = _candidates(vectors, [center_row], k)[0]
    return NeighborhoodCloud(
        center=word,
        words=tuple(embeddings.words[i] for i in ranked[kept]),
        points=offsets[kept] / distances[kept, None],
        skipped=tuple(embeddings.words[i] for i in ranked[~kept]),
    )
