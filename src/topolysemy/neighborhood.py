"""Punctured neighborhoods of a word vector and their unit-sphere projection.

A neighborhood cloud holds the n vocabulary vectors closest to a center word
by cosine similarity, never including the center itself.  The projected
cloud recenters each neighbor at the center vector and scales it to the unit
sphere, which is the input the persistence stage consumes.

Search runs on blocks of center words: one matrix product gives a block's
similarities to the whole vocabulary, a partition picks each word's
candidates, and an exact per-row similarity ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._util import chunk_rows
from .embeddings import EmbeddingSet

# Neighbors closer to the center than this are treated as coincident and
# cannot be projected to the sphere.
COINCIDENT_EPS = 1e-12

# Candidates keep every row whose block-product similarity lies within this
# of the cut.  A matrix product and an exact per-row dot product of unit
# vectors differ by about 1e-15, so no row of the exact top ranks is lost.
_CANDIDATE_MARGIN = 1e-9


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
    share a block; equal similarities keep ascending vocabulary order.
    Blocks of chunk_rows(len(embeddings)) words share one product with the
    vocabulary, about 32 MB: a caller done with each cloud before the next
    holds one product and one cloud, whatever the number of words.

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
    block = chunk_rows(len(embeddings))
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
    """Clouds of one block of center rows, from one product with the vocabulary.

    The product lives in this generator's frame, so it is freed when the
    block is done and before the next block's product is made.
    """
    vectors = embeddings.vectors
    for row, similarities in zip(rows, vectors[rows] @ vectors.T):
        yield _cloud(embeddings, row, similarities, n, project)


def _ranked(vectors: np.ndarray, similarities: np.ndarray, center_row: int, k: int) -> np.ndarray:
    """The k - 1 nearest rows to the center but itself, nearest first.

    At least k rows reach the k-th largest block similarity, so the exact
    (k - 1)-th nearest other row lies within rounding of it, and so does
    every row tied with or nearer than that one: all are candidates.  The
    exact similarity depends only on the row and the center.
    """
    cut = similarities.shape[0] - k
    threshold = np.partition(similarities, cut)[cut]
    candidates = np.flatnonzero(similarities >= threshold - _CANDIDATE_MARGIN)
    candidates = candidates[candidates != center_row]
    exact = np.multiply(vectors[candidates], vectors[center_row]).sum(axis=1)
    return candidates[np.argsort(-exact, kind="stable")[: k - 1]]


def _cloud(
    embeddings: EmbeddingSet, center_row: int, similarities: np.ndarray, n: int, project: bool
) -> NeighborhoodCloud:
    vectors = embeddings.vectors
    word = embeddings.words[center_row]
    k = n + 1
    while True:
        ranked = _ranked(vectors, similarities, center_row, k)
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
    return NeighborhoodCloud(
        center=word,
        words=tuple(embeddings.words[i] for i in ranked[kept]),
        points=offsets[kept] / distances[kept, None],
        skipped=tuple(embeddings.words[i] for i in ranked[~kept]),
    )
