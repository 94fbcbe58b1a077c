"""Punctured neighborhoods of a word vector and their unit-sphere projection.

A neighborhood cloud holds the n vocabulary vectors closest to a center word
by cosine similarity, never including the center itself.  The projected
cloud recenters each neighbor at the center vector and scales it to the unit
sphere, which is the input the persistence stage consumes.

Search runs on blocks of center words, one candidate pass per block: the
block is multiplied in float32 with one vocabulary tile at a time, the tile
cast into a reused buffer, each word keeps the rows near its running k-th
largest product similarity, and an exact float64 per-row similarity ranks
them.  A pass holds at most twice CHUNK_ELEMENTS float32 values (32 MB)
per worker, whatever the vocabulary size: the tile, the product and its
partitioned copy within CHUNK_ELEMENTS, and the words' rows, running top
values and kept rows within as much again, the block narrowed at large n
to fit.  Only rows tied with a word's cut within the float32 band can add
to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from ._util import _float32_margin, chunk_rows, map_ordered, worker_count
from .embeddings import EmbeddingSet

R = TypeVar("R")

# Neighbors closer to the center than this are treated as coincident and
# cannot be projected to the sphere.
COINCIDENT_EPS = 1e-12

# Center words per candidate pass; every pass reads the whole vocabulary.
_BLOCK_WORDS = 256
# Float32 values' worth of bytes that one word of a pass takes, per unit
# of n + 1 + d: its block row (gathered in float64, then cast), its
# running k = n + 1 largest similarities and its kept rows.  Before a
# prune a word holds at most 2k rows, an int64 key and a float32 value
# each, and the prune holds them with their word indices, floors and mask
# and the pruned result: about 25 bytes per row, 50k bytes.  The running
# top, a k-column array merged with up to k more, takes 16k bytes more.
# That is about 17 values per unit of k, and at most 4 per unit of d; 32
# leaves room for the tile's new keys and the temporaries of small k.
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
    blocks = (rows[start : start + block] for start in range(0, len(rows), block))
    return (
        _cloud(embeddings, row, candidates, n, project)
        for part in blocks
        for row, candidates in zip(part, _candidates(embeddings.vectors, part, n + 1))
    )


def punctured_neighborhood(
    embeddings: EmbeddingSet, word: str, n: int, project: bool = False
) -> NeighborhoodCloud:
    """One word's punctured_neighborhoods cloud."""
    return next(punctured_neighborhoods(embeddings, [word], n, project))


def map_clouds(
    fn: Callable[[int, NeighborhoodCloud], R],
    embeddings: EmbeddingSet,
    words: Sequence[str],
    n: int,
    project: bool = False,
    workers: int | None = None,
) -> list[R]:
    """fn(i, cloud) for the punctured_neighborhoods cloud of each words[i], in word order.

    Worker j of W takes words j, j + W, ..., which spreads clouds of
    unequal cost more evenly than contiguous runs.  Every share's search is
    built, and its arguments checked, before any worker starts, even for no
    words.  Each worker searches its share in its own candidate passes and
    calls fn on each cloud as soon as it is built.
    """
    count = max(1, min(worker_count() if workers is None else workers, len(words)))
    shares = [
        (range(j, len(words), count), punctured_neighborhoods(embeddings, words[j::count], n, project))
        for j in range(count)
    ]
    done = map_ordered(lambda share: [fn(i, cloud) for i, cloud in zip(*share)], shares, workers=count)
    return [done[i % count][i // count] for i in range(len(words))]


def _tile_rows(dim: int) -> int:
    """Vocabulary rows per tile, whose cast rows and a full block's product and copy fill CHUNK_ELEMENTS.

    A narrower block holds less.  Sized for a 60-word block instead, a tile
    held 16 MB, not 5.7 MB, and took 0.66 ms per word, not 0.51, over
    127,151 x 100 rows at n = 50.
    """
    return chunk_rows(2 * _BLOCK_WORDS + dim)


def _candidates(vectors: np.ndarray, rows: Sequence[int], k: int) -> list[np.ndarray]:
    """For each center row, the ascending rows that may be among its k most similar.

    Each vocabulary tile is cast into one reused float32 buffer and
    multiplied with the block into one reused product.  A partitioned copy
    of the product gives each word's k largest values of the tile, which
    merge with the k largest so far into the running k-th largest, the cut.
    Rows are kept while their similarity reaches the cut less the band,
    rounded outward.  The cut and a row's similarity are both products,
    each within _float32_margin of the exact similarity, so the band is
    twice that: the final cut is the k-th largest of the whole vocabulary,
    so the exact (k - 1)-th nearest row but the center lies within one
    margin below it, and so does every row tied with or nearer than that
    one, within one more margin.  Tile, product and copy hold at most
    CHUNK_ELEMENTS float32 values.  After every tile the kept rows are
    pruned to the floor, the cut less the band, which never falls; a word
    then keeps k rows and adds at most k from the next tile, beyond those
    tied within the band with its cut, so it holds at most
    _KEPT_VALUES * (k + d) float32 values' worth of its row, kept rows and
    running top.
    """
    count, dim = vectors.shape
    width = len(rows)
    block = vectors[rows].astype(np.float32)
    tile = min(count, _tile_rows(dim))
    cast = np.empty((tile, dim), dtype=np.float32)
    product = np.empty(width * tile, dtype=np.float32)
    copy = np.empty(width * tile, dtype=np.float32)
    band = 2.0 * _float32_margin(dim)
    top = np.empty((width, 0), dtype=np.float32)
    floor = np.full(width, -np.inf, dtype=np.float32)
    # Kept rows as word * count + row, with their similarities.
    found = np.empty(0, dtype=np.int64)
    value = np.empty(0, dtype=np.float32)
    for start in range(0, count, tile):
        span = min(tile, count - start)
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
            floor = np.nextafter((cut - band).astype(np.float32), np.float32(-np.inf))
        # The copy is free again: it holds the mask of this tile's kept rows.
        mask = np.greater_equal(
            similarities, floor[:, None], out=copy.view(np.bool_)[: width * span].reshape(width, span)
        )
        flat = np.flatnonzero(mask)
        found = np.concatenate([found, flat // span * count + (flat % span + start)])
        value = np.concatenate([value, similarities.ravel()[flat]])
        kept = value >= floor[found // count]
        found, value = found[kept], value[kept]
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
                # A memoryview yields the rows as Python ints one at a time: they index
                # the tuple faster than numpy integers, and no list of n of them is held.
                words=tuple(embeddings.words[i] for i in memoryview(ranked)),
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
        words=tuple(embeddings.words[i] for i in memoryview(ranked[kept])),
        points=offsets[kept] / distances[kept, None],
        skipped=tuple(embeddings.words[i] for i in memoryview(ranked[~kept])),
    )
