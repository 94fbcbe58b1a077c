"""Degree-0 persistent homology of finite point clouds and Wasserstein costs.

The degree-0 diagram of a cloud under the Euclidean metric is exactly the
multiset of merge heights of its single-linkage dendrogram: every component
is born at radius 0 and dies when an MST edge joins it to an older one, so a
cloud of m points yields m - 1 bars (0, e) over the MST edge weights e (the
essential class that never dies is discarded).  Wasserstein matching costs
between diagrams use the q = 1 sum with the L-infinity ground metric, where
any bar may instead be matched to its closest diagonal point at cost
(death - birth) / 2.

The merge heights come from a certificate, not from a dendrogram library.
An edge that is strictly the heaviest edge of some cycle lies in no MST.
Approximate squared distances from one Gram product are each within delta
of pdist's (see _delta), and an MST of them, from Kruskal over the
least pairs, or Prim, is the approximate spanning tree.  Take a pair
whose approximate value is more than 2 delta above every approximate
value on a tree path between its ends, that is, above their minimax
(cophenetic) distance in the tree.  Its exact value exceeds its
approximate one less delta, and every path edge's exact value is at
most its approximate one plus delta, so the pair is strictly the
heaviest edge of the cycle the path closes, and in no MST.  Only the
other pairs, the candidates, get exact distances, each summed in
dimension order as pdist sums.  Every MST of the candidates is an MST
of the cloud, and all MSTs of a graph share one multiset of weights, so
the diagram is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import chunk_rows, spanning_forest


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
    if points.shape[1] == 0:
        # Zero-dimension points all coincide.
        return PersistenceDiagram(bars=np.zeros((m - 1, 2), dtype=np.float64))

    # Squares overflow beyond about 1e154; the bars reject an infinite death.
    with np.errstate(over="ignore", invalid="ignore"):
        heads, tails = _candidates(points)
        squared = np.empty(heads.shape[0])
        batch = chunk_rows(points.shape[1])
        for start in range(0, heads.shape[0], batch):
            pick = slice(start, start + batch)
            diffs = points[heads[pick]] - points[tails[pick]]
            diffs *= diffs
            # Summed in dimension order, as pdist sums: np.add.reduce may sum a row pairwise.
            squared[pick] = np.add.accumulate(diffs, axis=1)[:, -1]
    # The candidates hold the approximate tree's m - 1 edges; when that is all, they are the MST.
    if squared.size > m - 1:
        by_value = np.argsort(squared, kind="stable")
        kept, _ = spanning_forest(m, heads[by_value], tails[by_value])
        squared = squared[by_value[kept]]
    bars = np.zeros((m - 1, 2), dtype=np.float64)
    bars[:, 1] = np.sqrt(squared)
    return PersistenceDiagram(bars=bars)


# The approximate squared distance of rows a and b is (-2 a.b + |a|^2) + |b|^2
# over the rows less the cloud's first row, from one BLAS Gram product and its
# diagonal, while pdist sums the d terms (a_k - b_k)^2 of the rows as given,
# in dimension order.  Let u = 2^-53, the float64 unit roundoff, a and b the
# moved rows and N = |a|^2 + |b|^2, so that 2 |a||b| <= N and the exact
# squared distance is at most 2 N.  Rounding the moved rows moves their
# difference by at most u (|a| + |b|), and its square by at most 4 u N.  Dot
# products summed in any order, with or without fused multiply-adds, are
# within d u of exact relative to |a||b|: the two squared norms err by at
# most d u N together, and 2 a.b by at most d u N.  The two additions round
# results of at most 2 N, adding 4 u N.  Each pdist term errs by at most 3 u
# relative (a rounded difference, squared and rounded), and the d - 1
# additions of nonnegative terms add d - 1 more, relative to the sum: at most
# 2 (d + 2) u N.  To first order the two values differ by 4 (d + 3) u N,
# at most 8 (d + 3) u R^2 for R^2 the largest moved squared norm.  Delta
# doubles that, which covers the higher-order terms; the 2^-1074 term covers
# underflow, where a rounding errs by an absolute amount.
_UNIT = 2.0**-53


def _delta(dim: int, largest_sq_norm: float) -> float:
    """Bound on |approximate - pdist| squared distance for any pair of the cloud."""
    return 16.0 * (dim + 3) * (_UNIT * largest_sq_norm + 2.0**-1074)


def _candidates(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (heads[i], tails[i]) that may be MST edges.

    Each pair's value, its approximate squared distance sq[i, j] for i < j,
    is at least the tree's minimax distance between its ends, a tree edge,
    which is therefore at most the largest tree edge up to that value.  A
    pair more than 2 delta above that edge is dropped (see the module
    docstring), which leaves the tree's edges, the pairs within 2 delta of
    a tree edge, and none above the largest one plus 2 delta.
    """
    m = points.shape[0]
    # Moved to the first point: distances do not change, and delta shrinks with the norms.
    moved = points - points[0]
    sq = moved @ moved.T
    sq_norms = sq.diagonal().copy()
    largest_sq_norm = float(sq_norms.max())
    if not 4.0 * largest_sq_norm < np.inf:
        # The approximate values could overflow, so every pair is a candidate.
        return np.triu_indices(m, 1)
    margin = 2.0 * _delta(points.shape[1], largest_sq_norm)
    sq *= -2.0
    sq += sq_norms[:, None]
    sq += sq_norms
    sq.flat[:: m + 1] = np.inf
    # Each point's edge to its nearest neighbor is in an MST, so the MST's largest edge is at least this.
    bound = float(sq.min(axis=0).max()) + margin
    pool = _pairs_below(sq, bound, 0, m)
    tree = _tree_values(sq, *pool)
    limit = tree[-1] + margin
    # One block of rows at a time, which bounds the memory when most pairs are tested.
    block = chunk_rows(m)
    pairs = [pool] if limit <= bound else (_pairs_below(sq, limit, i, i + block) for i in range(0, m, block))
    heads, tails = [], []
    for rows, cols, values in pairs:
        keep = values <= tree[np.searchsorted(tree, values, side="right") - 1] + margin
        heads.append(rows[keep])
        tails.append(cols[keep])
    return np.concatenate(heads), np.concatenate(tails)


def _pairs_below(sq: np.ndarray, bound: float, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j with start <= i < stop whose sq[i, j] is at most bound, and their values."""
    rows, cols = np.divmod((sq[start:stop, start:] <= bound).ravel().nonzero()[0], sq.shape[0] - start)
    upper = rows < cols
    rows, cols = rows[upper] + start, cols[upper] + start
    return rows, cols, sq[rows, cols]


# The tree is Kruskal over the least pairs, or Prim.  Kruskal scans the pairs
# up to the largest nearest-neighbor distance when they number at most this
# many per point; Prim reads the whole matrix when they are more, as in
# uniform clouds in many dimensions, or do not span, as in separated ones.
_SCAN_PER_POINT = 32


def _tree_values(sq: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ascending edge values of an MST of sq's upper triangle (i < j), whose diagonal is +inf.

    Kruskal over the least pairs, the given ones, when they are few and
    span, or Prim over the whole triangle.
    """
    m = sq.shape[0]
    if values.size > _SCAN_PER_POINT * m:
        return _prim(sq)
    order = np.argsort(values, kind="stable")
    parent = list(range(m))
    joins: list[int] = []
    for k, a, b in zip(order.tolist(), rows[order].tolist(), cols[order].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            joins.append(k)
            if len(joins) == m - 1:
                return values[joins]
    return _prim(sq)


def _prim(sq: np.ndarray) -> np.ndarray:
    """Ascending edge values of an MST of sq's upper triangle, grown from point 0 by Prim.

    Point j's pairs are column j above the diagonal and row j after it,
    both read in place.
    """
    m = sq.shape[0]
    # Each point's least pair to the tree; a point in the tree keeps +inf.
    least = sq[0].copy()
    outside = np.ones(m, dtype=bool)
    outside[0] = False
    tree = np.empty(m - 1)
    for step in range(m - 1):
        j = int(least.argmin())
        tree[step] = least[j]
        least[j] = np.inf
        outside[j] = False
        np.minimum(least[:j], sq[:j, j], out=least[:j], where=outside[:j])
        np.minimum(least[j + 1 :], sq[j, j + 1 :], out=least[j + 1 :], where=outside[j + 1 :])
    return np.sort(tree)


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
