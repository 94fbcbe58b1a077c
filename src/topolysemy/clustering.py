"""Clustering backends for neighborhood clouds: dbscan and Lloyd k-means.

Both operate on dense float64 point matrices.  The dbscan variant works in
cosine distance (1 - dot product) and therefore expects unit-norm rows;
k-means is plain Euclidean Lloyd iteration with a seeded farthest-first
initialization.  Cluster ids are always contiguous 0..n_clusters-1 with -1
reserved for dbscan noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import _float32_margin, chunk_rows, spanning_forest

NOISE = -1

_UNIT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Clustering:
    """Per-point integer labels with contiguous cluster ids.

    Labels are in {-1} | {0..n_clusters-1}; every id below n_clusters has
    at least one member; -1 marks noise.
    """

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
        if self.n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {self.n_clusters}")
        if labels.size:
            present = np.unique(labels)
            if present[0] < NOISE or (present.size and present[-1] >= self.n_clusters):
                raise ValueError(
                    f"labels must lie in [-1, {self.n_clusters}), got range "
                    f"[{present[0]}, {present[-1]}]"
                )
            expected = set(range(self.n_clusters))
            missing = expected.difference(present.tolist())
            if missing:
                raise ValueError(f"cluster ids {sorted(missing)} have no members")
        elif self.n_clusters != 0:
            raise ValueError("no points, so n_clusters must be 0")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def members(self, cluster_id: int) -> np.ndarray:
        """Ascending point indices labeled `cluster_id` (NOISE allowed)."""
        return np.flatnonzero(self.labels == cluster_id)


def _exact_within(points: np.ndarray, rows: np.ndarray, cols: np.ndarray, eps: float) -> np.ndarray:
    """Whether each pair (rows[i], cols[i]) has exact cosine distance <= eps.

    The per-pair dot product depends only on the two rows, whatever the
    batch; batches hold chunk_rows(d) pairs.
    """
    batch = chunk_rows(points.shape[1])
    within = np.empty(rows.shape[0], dtype=bool)
    for start in range(0, rows.shape[0], batch):
        pick = slice(start, start + batch)
        similarity = np.multiply(points[rows[pick]], points[cols[pick]]).sum(axis=1)
        within[pick] = 1.0 - similarity <= eps
    return within


def _eps_pairs(points: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Int32 index pairs (rows[i], cols[i]), rows < cols, within cosine distance eps.

    Pairs come in (row, col) order, each once and without the diagonal.
    Each chunk of chunk_rows(2 n) rows is multiplied in float32 with the
    rows at and after it only.  Pairs more than _float32_margin above the
    cut are in and pairs below it are out; _exact_within decides the rest,
    so every pair's decision depends only on its two rows, not on the chunk
    size.
    """
    n, dim = points.shape
    single = points.astype(np.float32)
    margin = _float32_margin(dim)
    floor = np.nextafter(np.float32(1.0 - eps - margin), np.float32(-np.inf))
    sure = np.nextafter(np.float32(1.0 - eps + margin), np.float32(np.inf))
    # A chunk's product takes half the CHUNK_ELEMENTS budget: 400 rows at
    # n = 5000, an 8 MB product and a 2 MB mask per worker.  On the
    # wsi-dbscan benchmark input (24 clouds of 5000 rows, 2 threads) a
    # full-budget chunk of 800 rows peaked at 150 MB VmHWM and took 20.2 ms
    # of eps pairs per cloud; 400 rows peaked at 121 MB in 19.7 ms, 200 rows
    # at 110 MB in 20.9 ms.
    chunk = chunk_rows(2 * n)
    # One buffer for every chunk, so the chunks allocate no float arrays.
    buffer = np.empty(min(chunk, n) * n, dtype=np.float32)
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        width = n - start
        out = buffer[: (stop - start) * width].reshape(stop - start, width)
        similarities = np.matmul(single[start:stop], single[start:].T, out=out)
        flat = np.flatnonzero(similarities >= floor)
        rows, cols = np.divmod(flat, width)
        upper = cols > rows
        flat, rows, cols = flat[upper], rows[upper] + start, cols[upper] + start
        keep = similarities.ravel()[flat] >= sure
        near = ~keep
        keep[near] = _exact_within(points, rows[near], cols[near], eps)
        row_parts.append(rows[keep].astype(np.int32))
        col_parts.append(cols[keep].astype(np.int32))
    return np.concatenate(row_parts), np.concatenate(col_parts)


def dbscan(points: np.ndarray, eps: float = 0.09, min_pts: int = 2) -> Clustering:
    """Density clustering in cosine distance over unit-norm rows.

    A point is core when at least min_pts points (itself included) lie
    within eps.  Clusters are the connected components of the core points;
    ids are assigned in order of each component's smallest core index.  A
    non-core point within eps of some core joins the cluster of the
    lowest-index such core; everything else is labeled NOISE.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-d matrix, got shape {points.shape}")
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    n = points.shape[0]
    if n == 0:
        raise ValueError("dbscan needs at least one point")
    norms = np.linalg.norm(points, axis=1)
    # Written so that a NaN norm fails it.
    if not np.abs(norms - 1.0).max() <= _UNIT_TOL:
        raise ValueError("dbscan expects finite unit-norm rows (cosine distance)")

    rows, cols = _eps_pairs(points, eps)
    core = 1 + np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n) >= min_pts
    core_idx = np.flatnonzero(core)

    labels = np.full(n, NOISE, dtype=np.int64)
    # Non-core points are singletons here; only the core points' roots are read.
    row_core, col_core = core[rows], core[cols]
    both = row_core & col_core
    _, root = spanning_forest(n, rows[both], cols[both])
    # Contiguous ids ordered by each component's smallest core index.
    _, first, inverse = np.unique(root[core_idx], return_index=True, return_inverse=True)
    labels[core_idx] = np.argsort(np.argsort(first))[inverse]

    # Each core/non-core pair offers its core to the non-core point.
    mixed = row_core != col_core
    first_core = np.full(n, n, dtype=np.int32)
    np.minimum.at(first_core, np.where(row_core, cols, rows)[mixed], np.where(row_core, rows, cols)[mixed])
    reached = np.flatnonzero(first_core < n)
    labels[reached] = labels[first_core[reached]]

    return Clustering(labels=labels, n_clusters=first.size)


def _squared_distances(
    points: np.ndarray, point_sq: np.ndarray, centers: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Squared Euclidean distances of points (squared norms point_sq) to centers, clamped at zero.

    ``out`` is an optional pair of n x k buffers to compute in; the result is its first.
    """
    # Two n x k arrays, not three; (-2p) + (a + b) rounds as (a + b) - 2p does.
    product, norms = out if out is not None else (None, None)
    sq = np.matmul(points, centers.T, out=product)
    sq *= -2.0
    sq += np.add(point_sq[:, None], (centers * centers).sum(axis=1)[None, :], out=norms)
    np.maximum(sq, 0.0, out=sq)
    return sq


def farthest_first_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-first center rows: first uniform, rest by max-min.

    Distance ties resolve to the lowest point index.
    """
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    point_sq = (points * points).sum(axis=1)
    chosen = [int(rng.integers(n))]
    min_sq = _squared_distances(points, point_sq, points[chosen[-1:]])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(min_sq))
        chosen.append(nxt)
        np.minimum(min_sq, _squared_distances(points, point_sq, points[nxt : nxt + 1])[:, 0], out=min_sq)
    return points[np.array(chosen)].copy()


@dataclass(frozen=True, eq=False)
class KmeansResult:
    clustering: Clustering
    centers: np.ndarray
    objective: float
    n_iter: int
    converged: bool


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iter: int = 100) -> KmeansResult:
    """Euclidean Lloyd k-means with seeded farthest-first initialization.

    Each step assigns points to their nearest center (ties to the lowest
    center id); each emptied cluster, in id order, then takes the point
    farthest from its own center (ties to the lowest index) among clusters
    that keep another member.  Only the clusters that gained or lost a
    point are then re-averaged: an unchanged member set gives its mean the
    same bits again, so the result is that of re-averaging every cluster.
    Stops at the label fixpoint or after max_iter steps; deterministic for a
    fixed seed.  Points must be finite.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-d matrix, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("kmeans expects finite points")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    centers = farthest_first_centers(points, k, rng)
    point_sq = (points * points).sum(axis=1)
    # Every step computes in the same two n x k buffers: fresh ones would be
    # fresh mappings at large n k, faulted in page by page on every step.
    buffers = (np.empty((points.shape[0], k)), np.empty((points.shape[0], k)))
    # No step labels a point NOISE, so the first step is never a fixpoint.
    labels = np.full(points.shape[0], NOISE, dtype=np.int64)
    for n_iter in range(1, max_iter + 1):
        sq = _squared_distances(points, point_sq, centers, buffers)
        step = sq.argmin(axis=1)
        empty = np.flatnonzero(np.bincount(step, minlength=k) == 0)
        if empty.size:
            # Farthest first, ties to the lowest index; each cluster keeps its last-ranked member.
            contributions = sq[np.arange(points.shape[0]), step]
            order = np.argsort(-contributions, kind="stable")
            _, kept = np.unique(step[order][::-1], return_index=True)
            step[np.delete(order, order.size - 1 - kept)[: empty.size]] = empty
        # A cluster whose members did not change keeps the bits of its mean.
        moved = step != labels
        for c in np.setdiff1d(np.union1d(step[moved], labels[moved]), NOISE):
            centers[c] = points[step == c].mean(axis=0)
        converged = not moved.any()
        labels = step
        if converged:
            break
    del sq, buffers
    # ((points - centers[labels]) ** 2).sum(), in one n x d array.
    offsets = centers[labels]
    np.subtract(points, offsets, out=offsets)
    np.square(offsets, out=offsets)
    return KmeansResult(
        clustering=Clustering(labels=labels, n_clusters=k),
        centers=centers,
        objective=float(offsets.sum()),
        n_iter=n_iter,
        converged=converged,
    )
