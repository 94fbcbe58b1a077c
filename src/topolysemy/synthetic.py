"""Synthetic embedding generators with known ground truth, for tests and demos.

Two constructions: neighborhoods planted as k well-separated spherical caps
(the score should grow with k), and a two-bundle vocabulary with contexts
drawn from bundle vocabularies (sense induction should recover the bundles
exactly).  Also a plain random embedding for throughput measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, l2_normalize_all
from .wsi import Instance, SenseKey


def pinched_neighborhood_embedding(
    k: int,
    per_cap: int = 50,
    dim: int = 8,
    spread: float = 0.05,
    offset: float = 0.2,
    seed: int = 0,
) -> tuple[EmbeddingSet, str]:
    """Embedding whose center word has k planted neighbor caps.

    The center sits at the first basis vector e0.  Each neighbor is
    (e0 + offset * u) normalized, with u a unit tangent (orthogonal to e0)
    drawn near one of k orthonormal tangent axes with the given angular
    spread.  All neighbors share the same cosine similarity to the center,
    so any neighborhood size up to k * per_cap selects whole caps, and the
    sphere projection maps the caps to a uniformly scaled copy of the
    tangent cloud.

    Returns the L2-normalized embedding and the center word.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dim < k + 1:
        raise ValueError(f"dim={dim} too small for {k} orthonormal tangent axes plus the center")
    rng = np.random.default_rng(seed)
    center = np.zeros(dim)
    center[0] = 1.0

    words = ["center"]
    vectors = [center]
    scale = 1.0 / math.sqrt(1.0 + offset * offset)
    for cap in range(k):
        axis = np.zeros(dim)
        axis[cap + 1] = 1.0
        for i in range(per_cap):
            tangent = axis + spread * rng.standard_normal(dim)
            tangent[0] = 0.0
            tangent /= np.linalg.norm(tangent)
            vectors.append((center + offset * tangent) * scale)
            words.append(f"cap{cap}_{i}")
    return l2_normalize_all(EmbeddingSet(words=tuple(words), vectors=np.array(vectors))), "center"


@dataclass(frozen=True)
class PlantedDataset:
    """Two-sense fixture: embedding, instances, and the planted gold key."""

    embeddings: EmbeddingSet
    instances: tuple[Instance, ...]
    gold: SenseKey
    target: str


def planted_two_sense_dataset(
    instances_per_sense: int = 10,
    bundle_size: int = 24,
    dim: int = 6,
    spread: float = 0.05,
    seed: int = 0,
) -> PlantedDataset:
    """Vocabulary of two tight word bundles plus one pivot between them.

    Bundle words sit near two orthogonal directions (intra-bundle cosine
    distance well under 0.09, inter-bundle near 1), the pivot is the
    normalized midpoint, and each instance's context samples words from a
    single bundle.  A sense induction run over the pivot's full
    neighborhood should recover the bundles, and the overlap rule should
    send every instance to its own bundle's sense.  The embedding is
    L2-normalized.
    """
    if bundle_size < 4:
        raise ValueError(f"bundle_size must be >= 4, got {bundle_size}")
    if instances_per_sense < 1:
        raise ValueError(f"instances_per_sense must be >= 1, got {instances_per_sense}")
    rng = np.random.default_rng(seed)
    target = "pivot.n"

    # Bundle noise lives in the coordinates unused by the bundle axes
    # (1 and 2), so inter-bundle similarity stays near zero.
    free_coords = [0] + list(range(3, dim))
    words: list[str] = ["pivot"]
    pivot = np.zeros(dim)
    pivot[1] = pivot[2] = 1.0
    vectors: list[np.ndarray] = [pivot / np.linalg.norm(pivot)]
    bundles: list[list[str]] = [[], []]
    for bundle, axis_coord in ((0, 1), (1, 2)):
        for i in range(bundle_size):
            vec = np.zeros(dim)
            vec[axis_coord] = 1.0
            vec[free_coords] += spread * rng.standard_normal(len(free_coords))
            vec /= np.linalg.norm(vec)
            word = f"b{bundle}w{i}"
            words.append(word)
            vectors.append(vec)
            bundles[bundle].append(word)
    embeddings = l2_normalize_all(EmbeddingSet(words=tuple(words), vectors=np.array(vectors)))

    instances: list[Instance] = []
    gold_rows: list[tuple[str, str, str]] = []
    fillers = ("the", "of", "and", "zzfiller")
    counter = 0
    for bundle in (0, 1):
        for _ in range(instances_per_sense):
            counter += 1
            instance_id = f"{target}.{counter}"
            sampled = rng.choice(bundle_size, size=6, replace=False)
            tokens = tuple(bundles[bundle][j] for j in sampled) + fillers + ("pivot",)
            instances.append(Instance(target=target, id=instance_id, tokens=tokens))
            gold_rows.append((target, instance_id, f"{target}.gold_{bundle}"))
    return PlantedDataset(
        embeddings=embeddings,
        instances=tuple(instances),
        gold=SenseKey(rows=tuple(gold_rows)),
        target=target,
    )


def random_embedding(n_words: int, dim: int, seed: int = 0) -> EmbeddingSet:
    """Gaussian random vectors named w0..w{n-1}, for scale and perf tests."""
    if n_words < 1 or dim < 1:
        raise ValueError(f"need n_words >= 1 and dim >= 1, got {n_words}, {dim}")
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_words, dim))
    words = tuple(f"w{i}" for i in range(n_words))
    return EmbeddingSet(words=words, vectors=vectors)
