"""Degree-0 persistent homology of finite point clouds and Wasserstein costs.

The degree-0 diagram of a cloud under the Euclidean metric is exactly the
multiset of merge heights of its single-linkage dendrogram: every component
is born at radius 0 and dies when an MST edge joins it to an older one, so a
cloud of m points yields m - 1 bars (0, e) over the MST edge weights e (the
essential class that never dies is discarded).  Wasserstein matching costs
between diagrams use the q = 1 sum with the L-infinity ground metric, where
any bar may instead be matched to its closest diagonal point at cost
(death - birth) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Multiset of (birth, death) bars, stored sorted by (birth, death)."""

    bars: np.ndarray

    def __post_init__(self) -> None:
        bars = np.ascontiguousarray(self.bars, dtype=np.float64)
        if bars.size == 0:
            bars = bars.reshape(0, 2)
        if bars.ndim != 2 or bars.shape[1] != 2:
            raise ValueError(f"bars must have shape (m, 2), got {bars.shape}")
        if bars.size and not np.isfinite(bars).all():
            raise ValueError("bars contain non-finite values")
        if bars.size and (bars[:, 0] < 0.0).any():
            raise ValueError("births must be nonnegative")
        if bars.size and (bars[:, 1] < bars[:, 0]).any():
            raise ValueError("every death must be >= its birth")
        if bars.size:
            bars = bars[np.lexsort((bars[:, 1], bars[:, 0]))]
        bars.setflags(write=False)
        object.__setattr__(self, "bars", bars)

    def __len__(self) -> int:
        return int(self.bars.shape[0])

    @property
    def births(self) -> np.ndarray:
        return self.bars[:, 0]

    @property
    def deaths(self) -> np.ndarray:
        return self.bars[:, 1]

    @property
    def persistences(self) -> np.ndarray:
        return self.bars[:, 1] - self.bars[:, 0]


def degree0_diagram(points: np.ndarray) -> PersistenceDiagram:
    """Degree-0 diagram of a Euclidean point cloud; m points give m - 1 bars.

    The deaths are the single-linkage merge heights, i.e. the MST edge
    weights, zero-weight edges between coincident points included.  Clouds
    of zero or one point have no merges, so their diagram is empty.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-d matrix, got shape {points.shape}")
    if points.size and not np.isfinite(points).all():
        raise ValueError("points contain non-finite components")
    m = points.shape[0]
    if m < 2:
        return PersistenceDiagram(bars=np.empty((0, 2), dtype=np.float64))

    bars = np.zeros((m - 1, 2), dtype=np.float64)
    bars[:, 1] = linkage(points, "single")[:, 2]
    return PersistenceDiagram(bars=bars)


def wasserstein_norm(diagram: PersistenceDiagram) -> float:
    """q = 1 Wasserstein distance from the diagram to the empty diagram.

    Every bar is matched to the diagonal, so the cost is the sum of
    (death - birth) / 2 over all bars.
    """
    if len(diagram) == 0:
        return 0.0
    return float((diagram.persistences / 2.0).sum())


def wasserstein_distance(first: PersistenceDiagram, second: PersistenceDiagram) -> float:
    """Exact q = 1 Wasserstein distance between two diagrams.

    Solved as a square assignment problem: each diagram is augmented with
    the diagonal projections of the other side, direct matches cost the
    L-infinity distance between bars, a bar matched to the diagonal costs
    half its persistence, and diagonal-to-diagonal matches are free.
    """
    a = first.bars
    b = second.bars
    m, n = a.shape[0], b.shape[0]
    if m == 0 and n == 0:
        return 0.0
    if m == 0:
        return wasserstein_norm(second)
    if n == 0:
        return wasserstein_norm(first)

    to_diag_a = (a[:, 1] - a[:, 0]) / 2.0
    to_diag_b = (b[:, 1] - b[:, 0]) / 2.0
    forbidden = to_diag_a.sum() + to_diag_b.sum() + 1.0

    cost = np.full((m + n, m + n), forbidden, dtype=np.float64)
    cost[:m, :n] = np.maximum(
        np.abs(a[:, None, 0] - b[None, :, 0]),
        np.abs(a[:, None, 1] - b[None, :, 1]),
    )
    cost[np.arange(m), n + np.arange(m)] = to_diag_a
    cost[m + np.arange(n), np.arange(n)] = to_diag_b
    cost[m:, n:] = 0.0

    # Imported here: no CLI command calls this, and scipy.optimize is slow to load.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())
