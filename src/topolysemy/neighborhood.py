"""Punctured neighborhoods of a word vector and their unit-sphere projection.

A neighborhood cloud holds the n vocabulary vectors closest to a center word
by cosine similarity, never including the center itself.  The projected
cloud recenters each neighbor at the center vector and scales it to the unit
sphere, which is the input the persistence stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet

# Neighbors closer to the center than this are treated as coincident and
# cannot be projected to the sphere.
COINCIDENT_EPS = 1e-12


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


def punctured_neighborhood(
    embeddings: EmbeddingSet, word: str, n: int, project: bool = False
) -> NeighborhoodCloud:
    """The n nearest neighbors of `word` by cosine similarity, excluding it.

    Requires unit-norm embeddings so the dot product is the cosine, and
    n at most the vocabulary size minus one.  Equal similarities keep
    ascending vocabulary order (stable sort on the negated scores).

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
    center_row = embeddings.row(word)
    vectors = embeddings.vectors
    center = vectors[center_row]
    order = np.argsort(-(vectors @ center), kind="stable")
    ranked = order[order != center_row]
    if not project:
        chosen = ranked[:n]
        return NeighborhoodCloud(
            center=word,
            words=tuple(embeddings.words[i] for i in chosen),
            points=vectors[chosen],
        )

    kept_words: list[str] = []
    kept_points: list[np.ndarray] = []
    skipped: list[str] = []
    for row in ranked:
        offset = vectors[row] - center
        distance = float(np.linalg.norm(offset))
        if distance < COINCIDENT_EPS:
            skipped.append(embeddings.words[row])
            continue
        kept_words.append(embeddings.words[row])
        kept_points.append(offset / distance)
        if len(kept_words) == n:
            break
    return NeighborhoodCloud(
        center=word,
        words=tuple(kept_words),
        points=np.array(kept_points) if kept_points else np.empty((0, embeddings.dim)),
        skipped=tuple(skipped),
    )
