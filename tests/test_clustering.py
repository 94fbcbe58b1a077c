"""Clustering backends: dbscan in cosine distance and seeded Lloyd k-means."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import random_unit_rows
from test_neighborhood import UNIT
from topolysemy import _util, dbscan, kmeans, pinched_neighborhood_embedding
from topolysemy._util import _float32_margin
from topolysemy.clustering import (
    _UNIT_TOL,
    NOISE,
    Clustering,
    _eps_pairs,
    _squared_distances,
    farthest_first_centers,
)


def unit_circle(degrees):
    """Unit rows in the plane at the given angles."""
    rad = np.deg2rad(np.asarray(degrees, dtype=float))
    return np.column_stack([np.cos(rad), np.sin(rad)])


def partition_of(clustering, order=None):
    """Frozensets of member positions (mapped through `order` if given)."""
    remap = order if order is not None else np.arange(len(clustering))
    groups = {
        frozenset(remap[i] for i in clustering.members(c).tolist())
        for c in range(clustering.n_clusters)
    }
    noise = frozenset(remap[i] for i in clustering.members(NOISE).tolist())
    return groups, noise


class TestDbscan:
    def test_chain_merges_into_one_cluster(self):
        step = math.degrees(math.acos(0.95))
        points = unit_circle([0.0, step, 2.0 * step])
        result = dbscan(points, eps=0.051, min_pts=2)
        assert result.n_clusters == 1
        assert result.labels.tolist() == [0, 0, 0]

    def test_isolated_point_is_noise(self):
        points = unit_circle([0.0, 1.0, 90.0])
        result = dbscan(points, eps=0.01, min_pts=2)
        assert result.labels.tolist() == [0, 0, NOISE]

    def test_min_pts_counts_the_point_itself(self):
        points = unit_circle([0.0, 0.0])
        assert dbscan(points, eps=0.001, min_pts=2).n_clusters == 1
        result = dbscan(points, eps=0.001, min_pts=3)
        assert result.n_clusters == 0
        assert result.labels.tolist() == [NOISE, NOISE]

    def test_single_point_with_min_pts_one(self):
        result = dbscan(unit_circle([17.0]), eps=0.01, min_pts=1)
        assert result.labels.tolist() == [0]
        # A row within the unit tolerance counts itself even when eps is
        # below its exact self-distance 1 - |a|^2.
        assert dbscan(np.array([[1 - 9e-7, 0.0]]), eps=1e-7, min_pts=1).labels.tolist() == [0]

    def test_ids_ordered_by_smallest_core_index(self):
        # Two interleaved pairs: indices {0, 2} sit at 90-91 degrees and
        # {1, 3} at 0-1.  The cluster containing index 0 must get id 0.
        points = unit_circle([90.0, 0.0, 91.0, 1.0])
        result = dbscan(points, eps=0.001, min_pts=2)
        assert result.labels.tolist() == [0, 1, 0, 1]

    def test_border_point_joins_lowest_index_core(self):
        # Two four-point cores at 40-43 and 0-3 degrees; a non-core point at
        # 21.5 degrees reaches exactly one core in each (indices 0 and 7).
        points = unit_circle([40.0, 41.0, 42.0, 43.0, 0.0, 1.0, 2.0, 3.0, 21.5])
        result = dbscan(points, eps=0.055, min_pts=4)
        assert result.n_clusters == 2
        assert result.labels.tolist()[:8] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert result.labels[8] == 0

    def test_partition_is_permutation_invariant(self, rng):
        points = random_unit_rows(rng, 40, 5)
        base = dbscan(points, eps=0.3, min_pts=3)
        order = rng.permutation(40)
        moved = dbscan(points[order], eps=0.3, min_pts=3)
        assert partition_of(base) == partition_of(moved, order=order)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            dbscan(np.empty((0, 3)))

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            dbscan(unit_circle([0.0]), eps=eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            dbscan(unit_circle([0.0]), eps=eps)

    def test_min_pts_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_pts"):
            dbscan(unit_circle([0.0]), min_pts=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_rows_rejected(self, bad, column):
        points = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        points[1, column] = bad
        with pytest.raises(ValueError, match="finite unit-norm rows"):
            dbscan(points, 0.5)

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="unit-norm"):
            dbscan(np.array([[1.0, 1.0]]))


def reference_dbscan(rows, eps, min_pts):
    """Plain-Python dbscan on exact dot products: (labels, n_clusters, adjacency)."""
    n = len(rows)
    near = [
        [j for j in range(n) if 1.0 - sum(a * b for a, b in zip(rows[i], rows[j])) <= eps]
        for i in range(n)
    ]
    core = [len(near[i]) >= min_pts for i in range(n)]
    labels = [NOISE] * n
    n_clusters = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != NOISE:
            continue
        labels[seed] = n_clusters
        stack = [seed]
        while stack:
            for j in near[stack.pop()]:
                if core[j] and labels[j] == NOISE:
                    labels[j] = n_clusters
                    stack.append(j)
        n_clusters += 1
    for i in range(n):
        reached = [j for j in near[i] if core[j]]
        if not core[i] and reached:
            labels[i] = labels[min(reached)]
    adjacency = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        adjacency[i, near[i]] = 1
    return labels, n_clusters, adjacency


@st.composite
def dyadic_clouds(draw):
    """(rows, eps, min_pts, block): unit rows of R^4 whose dot products are exact.

    Cosine distances between them are 0, 0.5, 1, 1.5 or 2, so at eps = 0.5,
    1 or 1.5 some pairs sit exactly on the cut, and just below 0.5 or 1 they
    miss it by one ulp.
    """
    picks = draw(st.lists(st.integers(0, len(UNIT) - 1), min_size=1, max_size=14))
    just_below = [float(np.nextafter(cut, 0.0)) for cut in (0.5, 1.0)]
    eps = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, *just_below]))
    min_pts = draw(st.integers(1, 5))
    block = draw(st.sampled_from([1, 3, len(picks)]))
    return [list(UNIT[p]) for p in picks], eps, min_pts, block


def eps_adjacency(points, eps):
    """_eps_pairs after checking their form, mirrored and given the diagonal."""
    n = points.shape[0]
    rows, cols = _eps_pairs(points, eps)
    assert rows.dtype == cols.dtype == np.int32
    assert (rows < cols).all()
    # Strictly increasing keys: the pairs are unique and in (i, j) order.
    assert (np.diff(rows.astype(np.int64) * n + cols) > 0).all()
    adjacency = np.eye(n, dtype=np.int8)
    adjacency[rows, cols] = adjacency[cols, rows] = 1
    return adjacency


@given(dyadic_clouds())
def test_dbscan_matches_plain_python_reference(case):
    rows, eps, min_pts, block = case
    labels, n_clusters, adjacency = reference_dbscan(rows, eps, min_pts)
    points = np.array(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_util, "CHUNK_ELEMENTS", 2 * block * len(rows))
        found = eps_adjacency(points, eps)
        result = dbscan(points, eps=eps, min_pts=min_pts)
    assert np.array_equal(found, adjacency)
    assert result.labels.tolist() == labels
    assert result.n_clusters == n_clusters


def scipy_component_labels(points, eps, min_pts):
    """dbscan labels with the core components from scipy's connected_components.

    The same id and border rules as dbscan, over the same eps pairs; only the
    components come from elsewhere.
    """
    n = points.shape[0]
    rows, cols = _eps_pairs(points, eps)
    core = 1 + np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n) >= min_pts
    core_idx = np.flatnonzero(core)
    labels = np.full(n, NOISE, dtype=np.int64)
    if core_idx.size == 0:
        return labels
    both = core[rows] & core[cols]
    graph = coo_matrix((np.ones(both.sum(), dtype=np.int8), (rows[both], cols[both])), shape=(n, n))
    _, components = connected_components(graph, directed=False)
    _, first, inverse = np.unique(components[core_idx], return_index=True, return_inverse=True)
    labels[core_idx] = np.argsort(np.argsort(first))[inverse]
    for i in np.flatnonzero(~core):
        near = np.concatenate([cols[rows == i], rows[cols == i]])
        near = near[core[near]]
        if near.size:
            labels[i] = labels[near.min()]
    return labels


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
@pytest.mark.parametrize("min_pts", [1, 2, 4])
def test_dbscan_labels_match_scipy_components_on_random_clouds(rng, eps, min_pts):
    for _ in range(4):
        # Tight groups around a few centers, so that clusters, borders and noise all occur.
        centers = random_unit_rows(rng, 6, 5)
        points = centers[rng.integers(0, 6, 150)] + 0.15 * rng.standard_normal((150, 5))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        result = dbscan(points, eps=eps, min_pts=min_pts)
        assert np.array_equal(result.labels, scipy_component_labels(points, eps, min_pts))


class CountingNumpy:
    """numpy, counting the convergence checks of spanning_forest's pointer jumping."""

    def __init__(self):
        self.checks = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array_equal(self, *args):
        self.checks += 1
        return np.array_equal(*args)


def test_chain_of_5000_points_is_one_cluster_in_log_n_jumps(monkeypatch):
    # Consecutive points on a circle are 1e-3 rad apart, so the eps graph is one path.
    n = 5000
    points = unit_circle(np.rad2deg(1e-3 * np.arange(n)))
    eps = 1.0 - np.cos(1.5e-3)
    counting = CountingNumpy()
    monkeypatch.setattr(_util, "np", counting)
    result = dbscan(points, eps=eps, min_pts=2)
    rows, cols = _eps_pairs(points, eps)
    assert rows.tolist() == list(range(n - 1)) and cols.tolist() == list(range(1, n))
    assert np.array_equal(result.labels, scipy_component_labels(points, eps, 2))
    assert result.n_clusters == 1
    # Label propagation would take a step per link; pointer jumping halves the chain per step.
    assert counting.checks <= 2 * n.bit_length()


@pytest.mark.parametrize("dim", [7, 100])
def test_pairs_planted_on_the_cut_are_decided_exactly(rng, dim):
    # eps is set to the exact cosine distance of a pair, or one ulp below it,
    # so the pair sits on or just off the cut and only the exact per-pair
    # product can decide it.
    points = random_unit_rows(rng, 40, dim)
    points[20:] = points[:20] + 0.3 * random_unit_rows(rng, 20, dim)
    points /= np.linalg.norm(points, axis=1, keepdims=True)

    def exact_distance(i, j):
        return 1.0 - np.multiply(points[[i]], points[[j]]).sum(axis=1)[0]

    for i in range(3):
        on_cut = exact_distance(i, 20 + i)
        eps = on_cut if i < 2 else float(np.nextafter(on_cut, 0.0))
        expected = np.array(
            [[exact_distance(a, b) <= eps for b in range(40)] for a in range(40)], dtype=np.int8
        )
        for block in (1, 3, 40):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_util, "CHUNK_ELEMENTS", 2 * block * 40)
                found = eps_adjacency(points, eps)
            assert found[i, 20 + i] == (eps == on_cut)
            assert np.array_equal(found, expected)


def test_identical_rows_give_every_pair_once(rng):
    points = np.repeat(random_unit_rows(rng, 1, 5), 300, axis=0)
    rows, cols = _eps_pairs(points, 0.09)
    assert rows.size == 300 * 299 // 2
    assert dbscan(points).labels.tolist() == [0] * 300


@pytest.mark.parametrize("dim", [1, 2, 4, 100, 300])
def test_float32_product_lies_within_half_the_filter_margin(rng, dim):
    points = random_unit_rows(rng, 300, dim)
    points *= 1.0 + rng.uniform(-_UNIT_TOL, _UNIT_TOL, size=(300, 1))
    single = points.astype(np.float32)
    exact = points @ points.T
    bound = _float32_margin(dim) / 2
    assert np.abs(single @ single.T - exact).max() <= bound
    # A one-row chunk takes a matrix-vector kernel with another summation order.
    assert np.abs(single[:1] @ single.T - exact[:1]).max() <= bound


@pytest.mark.parametrize("cluster", [dbscan, lambda points: kmeans(points, 1)], ids=["dbscan", "kmeans"])
def test_points_must_be_a_matrix(cluster):
    with pytest.raises(ValueError, match=r"points must be a 2-d matrix, got shape \(2,\)"):
        cluster(np.array([1.0, 0.0]))


class TestKmeans:
    def test_k_one_uses_the_mean(self, rng):
        points = rng.standard_normal((12, 3))
        result = kmeans(points, 1)
        assert result.clustering.labels.tolist() == [0] * 12
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0), atol=1e-12)
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert result.objective == pytest.approx(expected, abs=1e-9)

    def test_k_equals_n_gives_singletons(self, rng):
        points = rng.standard_normal((6, 2))
        result = kmeans(points, 6)
        assert sorted(result.clustering.labels.tolist()) == list(range(6))
        assert result.objective == pytest.approx(0.0, abs=1e-12)

    def test_separated_pairs_split_cleanly(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        result = kmeans(points, 2)
        labels = result.clustering.labels
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_out_of_range(self, rng, k):
        with pytest.raises(ValueError, match="k must be"):
            kmeans(rng.standard_normal((6, 2)), k)

    def test_fixed_seed_is_deterministic(self, rng):
        points = rng.standard_normal((30, 4))
        first = kmeans(points, 4, seed=7)
        second = kmeans(points, 4, seed=7)
        assert np.array_equal(first.clustering.labels, second.clustering.labels)
        assert first.objective == second.objective

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_separated_data_partition_is_seed_independent(self, seed):
        points = np.array(
            [[0.0, 0.0], [0.2, 0.0], [50.0, 0.0], [50.2, 0.0], [0.0, 50.0], [0.2, 50.0]]
        )
        labels = kmeans(points, 3, seed=seed).clustering.labels
        groups = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(3)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})}

    def test_objective_never_increases(self, rng):
        points = rng.standard_normal((50, 3))
        objectives = [kmeans(points, 5, max_iter=t).objective for t in range(1, 20)]
        for before, after in zip(objectives, objectives[1:]):
            assert after <= before + 1e-9

    def test_empty_cluster_is_repaired(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        for seed in range(8):
            # Farthest-first can only repeat a center here, so one cluster
            # starts empty.
            centers = farthest_first_centers(points, 3, np.random.default_rng(seed))
            assert len(np.unique(centers, axis=0)) < 3
            result = kmeans(points, 3, seed=seed)
            assert set(result.clustering.labels.tolist()) == {0, 1, 2}

    @pytest.mark.parametrize(
        "points, k, seed",
        [
            ([[0, 1], [0, 0], [0, 0], [0, 0], [0, -1], [0, -1]], 4, 0),
            ([[1, 0], [0, 1], [0, 1]], 3, 0),
        ],
    )
    def test_repair_never_empties_another_cluster(self, points, k, seed):
        # A repair that took a singleton's only point left that cluster empty.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(np.array(points, dtype=np.float64), k, seed=seed)
        assert result.converged
        assert set(result.clustering.labels.tolist()) == set(range(k))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_points_rejected(self, bad, column):
        points = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        points[1, column] = bad
        with pytest.raises(ValueError, match="finite points"):
            kmeans(points, 2)

    def test_max_iter_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(rng.standard_normal((6, 2)), 2, max_iter=0)

    def test_converged_flag_and_iteration_count(self, rng):
        points = rng.standard_normal((20, 2))
        result = kmeans(points, 3)
        assert result.converged
        assert 1 <= result.n_iter <= 100


def reference_kmeans(points, k, seed):
    """kmeans with its empty-cluster repair as a loop of argmax picks over donor clusters."""
    centers = farthest_first_centers(points, k, np.random.default_rng(seed))
    point_sq = (points * points).sum(axis=1)
    labels = np.full(points.shape[0], NOISE)
    for n_iter in range(1, 101):
        sq = _squared_distances(points, point_sq, centers)
        step = sq.argmin(axis=1)
        counts = np.bincount(step, minlength=k)
        contributions = sq[np.arange(points.shape[0]), step]
        for empty in np.flatnonzero(counts == 0):
            # Only clusters that keep another member give a point.
            pick = int(np.argmax(np.where(counts[step] > 1, contributions, -np.inf)))
            counts[step[pick]] -= 1
            counts[empty] = 1
            step[pick] = empty
        for c in range(k):
            centers[c] = points[step == c].mean(axis=0)
        converged = np.array_equal(step, labels)
        labels = step
        if converged:
            break
    return labels, centers, n_iter, converged


@st.composite
def grid_clouds(draw):
    """(points, k, seed) on a 3x3 integer grid.

    Points coincide often, so farthest-first repeats centers, clusters start
    empty, and the repair picks among tied contributions (often all zero).
    """
    cells = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=2, max_size=10))
    points = np.array(cells, dtype=np.float64)
    return points, draw(st.integers(2, len(cells))), draw(st.integers(0, 3))


@given(grid_clouds())
def test_kmeans_repair_matches_the_argmax_loop(case):
    points, k, seed = case
    labels, centers, n_iter, converged = reference_kmeans(points, k, seed)
    result = kmeans(points, k, seed=seed)
    assert result.clustering.labels.tolist() == labels.tolist()
    assert result.centers.tobytes() == centers.tobytes()
    assert (result.n_iter, result.converged) == (n_iter, converged)


def assert_matches_reference(points, k, seed):
    labels, centers, n_iter, converged = reference_kmeans(points, k, seed)
    result = kmeans(points, k, seed=seed)
    assert np.array_equal(result.clustering.labels, labels)
    assert result.centers.tobytes() == centers.tobytes()
    assert result.objective == float(((points - centers[labels]) ** 2).sum())
    assert (result.n_iter, result.converged) == (n_iter, converged)


def planted_caps():
    """2,000 x 30 rows in 20 planted caps of 100, without the center word."""
    embedding, _ = pinched_neighborhood_embedding(20, per_cap=100, dim=30, seed=1)
    return embedding.vectors[1:]


@pytest.fixture(scope="module", params=["random", "planted"])
def scale_cloud(request):
    if request.param == "random":
        return random_unit_rows(np.random.default_rng(7), 2000, 30)
    return planted_caps()


# The reference re-averages every cluster at every step; kmeans only those whose members changed.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 17, 100])
def test_kmeans_matches_the_reference_bits_at_scale(scale_cloud, k, seed):
    assert_matches_reference(scale_cloud, k, seed)


def test_kmeans_matches_the_reference_bits_when_the_repair_runs():
    # 12 distinct rows repeated: farthest-first must repeat centers, so clusters start empty.
    rng = np.random.default_rng(11)
    points = random_unit_rows(rng, 12, 30)[rng.integers(12, size=2000)]
    k, seed = 17, 0
    centers = farthest_first_centers(points, k, np.random.default_rng(seed))
    step = _squared_distances(points, (points * points).sum(axis=1), centers).argmin(axis=1)
    assert (np.bincount(step, minlength=k) == 0).any()
    assert_matches_reference(points, k, seed)


@pytest.mark.parametrize("k", [1, 17, 100])
def test_squared_distances_keep_the_bits_of_the_one_line_form(rng, k):
    centers = rng.standard_normal((k, 30))
    # Half the rows equal a center.  Each center's copies share one one-line
    # value, which rounds below zero about as often as above, so with 17 or
    # more centers the clamp fires.
    points = np.vstack([rng.standard_normal((1000, 30)), centers[rng.integers(k, size=1000)]])
    point_sq = (points * points).sum(axis=1)
    one_line = point_sq[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (points @ centers.T)
    assert k == 1 or (one_line < 0.0).any()
    np.maximum(one_line, 0.0, out=one_line)
    assert _squared_distances(points, point_sq, centers).tobytes() == one_line.tobytes()


class TestFarthestFirst:
    def test_deterministic_for_fixed_generator(self, rng):
        points = rng.standard_normal((15, 3))
        a = farthest_first_centers(points, 4, np.random.default_rng(3))
        b = farthest_first_centers(points, 4, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_spreads_over_separated_groups(self):
        points = np.array([[0.0, 0.0], [0.1, 0.1], [9.0, 0.0], [9.1, 0.1], [0.0, 9.0]])
        centers = farthest_first_centers(points, 3, np.random.default_rng(0))
        gaps = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(gaps) > 5.0

    def test_returns_copies(self, rng):
        points = rng.standard_normal((5, 2))
        centers = farthest_first_centers(points, 2, np.random.default_rng(0))
        centers[0, 0] += 1.0
        assert not np.shares_memory(centers, points)


class TestClusteringValidation:
    def test_missing_id_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            Clustering(labels=np.array([0, 2, 2]), n_clusters=3)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="labels must lie"):
            Clustering(labels=np.array([0, 5]), n_clusters=2)

    def test_label_below_noise_rejected(self):
        with pytest.raises(ValueError, match="labels must lie"):
            Clustering(labels=np.array([-2, 0]), n_clusters=1)

    @pytest.mark.parametrize(
        "labels, n_clusters, match",
        [([[0]], 1, r"labels must be 1-d, got shape \(1, 1\)"), ([], -1, "n_clusters must be >= 0, got -1")],
        ids=["2-d-labels", "negative-clusters"],
    )
    def test_malformed_arguments_rejected(self, labels, n_clusters, match):
        with pytest.raises(ValueError, match=match):
            Clustering(labels=np.array(labels, dtype=np.int64), n_clusters=n_clusters)

    def test_empty_needs_zero_clusters(self):
        with pytest.raises(ValueError, match="n_clusters must be 0"):
            Clustering(labels=np.empty(0, dtype=np.int64), n_clusters=1)
        empty = Clustering(labels=np.empty(0, dtype=np.int64), n_clusters=0)
        assert len(empty) == 0

    def test_members_and_sizes(self):
        clustering = Clustering(labels=np.array([0, NOISE, 1, 0]), n_clusters=2)
        assert clustering.members(0).tolist() == [0, 3]
        assert clustering.members(NOISE).tolist() == [1]

    def test_labels_are_read_only(self):
        clustering = Clustering(labels=np.array([0, 0]), n_clusters=1)
        with pytest.raises(ValueError):
            clustering.labels[0] = 1
