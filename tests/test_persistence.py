"""Degree-0 diagrams against a brute-force oracle; Wasserstein costs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import single_linkage_merge_heights, wasserstein_by_enumeration
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from conftest import random_cloud, random_diagram_bars
from topolysemy import degree0_diagram, pinched_neighborhood_embedding, punctured_neighborhood
from topolysemy import wasserstein_distance, wasserstein_norm
from topolysemy import _util, persistence
from topolysemy.persistence import PersistenceDiagram, _candidates


def diagram(bars):
    return PersistenceDiagram(bars=np.array(bars, dtype=float).reshape(-1, 2))


class TestDegree0Diagram:
    def test_points_on_a_line(self):
        d = degree0_diagram(np.array([[0.0], [1.0], [3.0]]))
        assert d.births.tolist() == [0.0, 0.0]
        assert d.deaths.tolist() == [1.0, 2.0]

    def test_single_point(self):
        assert len(degree0_diagram(np.array([[5.0, 5.0]]))) == 0

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_zero_dimension_points_coincide(self, m):
        points = np.zeros((m, 0))
        d = degree0_diagram(points)
        assert d.births.tolist() == [0.0] * (m - 1)
        assert d.deaths.tolist() == single_linkage_merge_heights(points.tolist())
        assert d.deaths.tolist() == linkage(pdist(points), "single")[:, 2].tolist()

    def test_coincident_pair(self):
        d = degree0_diagram(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d.bars.tolist() == [[0.0, 0.0]]

    def test_equilateral_triangle(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        deaths = degree0_diagram(points).deaths
        assert np.abs(deaths - 1.0).max() < 1e-12
        assert len(deaths) == 2

    def test_empty_input_rejected(self):
        # An empty cloud has no merges, so its diagram is empty.
        d = degree0_diagram(np.empty((0, 3)))
        assert len(d) == 0
        assert d.bars.shape == (0, 2)

    def test_bar_count_and_births(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 12))
            d = degree0_diagram(random_cloud(rng, m, 3))
            assert len(d) == m - 1
            assert (d.births == 0.0).all()

    def test_matches_single_linkage_oracle_exactly(self, rng):
        for dim in (1, 2, 3, 4, 5, 8, 16, 100):
            for trial in range(12):
                m = int(rng.integers(2, 13))
                points = random_cloud(rng, m, dim)
                if trial % 2:
                    # A duplicated row: the zero-weight edge must give a (0, 0) bar.
                    points[-1] = points[int(rng.integers(0, m - 1))]
                expected = single_linkage_merge_heights(points.tolist())
                got = sorted(degree0_diagram(points).deaths.tolist())
                assert got == expected, f"dim={dim} m={m}"

    def test_permutation_invariance(self, rng):
        points = random_cloud(rng, 9, 4)
        base = degree0_diagram(points).deaths
        for _ in range(5):
            perm = rng.permutation(9)
            assert np.array_equal(degree0_diagram(points[perm]).deaths, base)

    def test_rigid_motion_invariance(self, rng):
        points = random_cloud(rng, 8, 3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = points @ q.T + rng.standard_normal(3)
        base = degree0_diagram(points).deaths
        assert np.abs(degree0_diagram(moved).deaths - base).max() < 1e-9

    def test_scaling_is_exact_for_powers_of_two(self, rng):
        points = random_cloud(rng, 7, 3)
        base = degree0_diagram(points)
        for lam in (0.5, 2.0, 4.0):
            scaled = degree0_diagram(lam * points)
            assert np.array_equal(scaled.deaths, lam * base.deaths)
            assert wasserstein_norm(scaled) == lam * wasserstein_norm(base)


def linkage_deaths(points):
    # What linkage(points, "single") computes, without its check that a square input is not a distance matrix.
    return np.sort(linkage(pdist(points), "single")[:, 2])


def projected(rng, m, d):
    """A cloud as tps scores it: offsets from a center, scaled to the unit sphere."""
    offsets = rng.standard_normal((m, d)) - rng.standard_normal(d)
    return offsets / np.linalg.norm(offsets, axis=1, keepdims=True)


@st.composite
def tie_heavy_clouds(draw):
    """Clouds with duplicate rows and exact distance ties, and sphere-projected ones."""
    m = draw(st.integers(2, 64))
    d = draw(st.sampled_from([1, 2, 16, 100]))
    kind = draw(st.sampled_from(["lattice", "simplex", "duplicates", "projected"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        return rng.integers(-2, 3, size=(m, d)).astype(float)
    if kind == "simplex":
        # Vertices of a regular simplex, scaled, with repeats: every distinct pair ties.
        return 3.0 * np.eye(d)[rng.integers(0, d, m)]
    points = projected(rng, m, d)
    if kind == "duplicates":
        points[rng.integers(0, m, m // 2)] = points[rng.integers(0, m, m // 2)]
    return points


class TestExactAgainstLinkage:
    @settings(max_examples=200)
    @given(tie_heavy_clouds())
    def test_deaths_are_linkage_heights_bit_for_bit(self, points):
        assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))

    def test_a_thousand_point_projected_cloud(self):
        points = projected(np.random.default_rng(17), 1000, 100)
        assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))

    @pytest.mark.parametrize("shape", ["simplex", "lattice"])
    def test_ties_give_more_candidates_than_tree_edges(self, shape):
        if shape == "simplex":
            points = np.eye(12)
        else:
            points = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
        m = points.shape[0]
        assert _candidates(points)[0].size > m - 1
        assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))

    @pytest.mark.parametrize("seed", range(10))
    def test_near_ties_that_the_gram_product_reorders(self, seed):
        # A rotated regular simplex moved by 1e-15: its pairwise distances differ by less than
        # the Gram product's error, so only the 2 delta margin keeps the true MST's edges.
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        points = 3.0 * basis[:12] + 1e-15 * rng.standard_normal((12, 100))
        assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))

    @settings(max_examples=100)
    @given(tie_heavy_clouds(), st.sampled_from([0, 1]), st.sampled_from([1, 3, None]))
    def test_prim_builds_what_the_scan_leaves(self, points, per_point, block):
        # With at most m or no pairs to scan, Prim builds the tree whenever Kruskal's pool is
        # larger or does not span; the matrix is also read in blocks of 1 or 3 rows.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persistence, "_SCAN_PER_POINT", per_point)
            if block:
                patch.setattr(_util, "CHUNK_ELEMENTS", block * points.shape[0])
            assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))

    @pytest.mark.parametrize("shape", ["separated", "uniform", "pinched-2", "pinched-4"])
    def test_clouds_the_scan_cannot_span(self, shape, monkeypatch):
        rng = np.random.default_rng(5)
        if shape == "separated":
            # The largest nearest-neighbor distance falls short of the gap between the groups.
            points = np.concatenate([rng.standard_normal((30, 3)), 50.0 + rng.standard_normal((30, 3))])
        elif shape == "uniform":
            # More pairs lie below the largest nearest-neighbor distance than the scan takes.
            points = rng.standard_normal((600, 100))
        else:
            # A polysemous word's cloud as tps scores it: no nearest-neighbor pair bridges two caps.
            k, per_cap = {"pinched-2": (2, 100), "pinched-4": (4, 250)}[shape]
            embedding, center = pinched_neighborhood_embedding(k, per_cap=per_cap, dim=100, seed=k)
            points = punctured_neighborhood(embedding, center, k * per_cap, project=True).points
        calls = []
        prim = persistence._prim
        monkeypatch.setattr(persistence, "_prim", lambda sq: calls.append(1) or prim(sq))
        assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))
        assert calls

    def test_points_beyond_the_square_root_of_the_largest_float(self):
        # Moved to its first point the cloud is small, and its bars are exact.
        close = np.array([[1e200, 0.0], [1e200, 1.0], [1e200, 3.0]])
        assert np.array_equal(degree0_diagram(close).deaths, linkage_deaths(close))
        # A squared distance that overflows gives an infinite death, which the bars reject.
        with pytest.raises(ValueError, match="non-finite"):
            degree0_diagram(np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]]))

    def test_sums_run_in_dimension_order_for_a_single_pair(self):
        # numpy's reduce sums these 16 squares pairwise and lands one ulp off pdist.
        points = np.random.default_rng(3).standard_normal((2, 16))
        squares = (points[0] - points[1]) ** 2
        assert np.sqrt(np.add.reduce(squares[None, :], axis=1))[0] != linkage_deaths(points)[0]
        assert np.array_equal(degree0_diagram(points).deaths, linkage_deaths(points))


class TestDiagramValidation:
    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError, match="death"):
            diagram([[1.0, 0.5]])

    def test_negative_birth_rejected(self):
        with pytest.raises(ValueError, match="birth"):
            diagram([[-0.1, 0.5]])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            PersistenceDiagram(bars=np.zeros((2, 3)))

    def test_bars_sorted_canonically(self):
        d = diagram([[0.0, 3.0], [0.0, 1.0], [0.0, 2.0]])
        assert d.deaths.tolist() == [1.0, 2.0, 3.0]

    def test_persistences(self):
        d = diagram([[0.5, 2.0]])
        assert d.persistences.tolist() == [1.5]


class TestWassersteinNorm:
    def test_empty(self):
        assert wasserstein_norm(diagram([])) == 0.0

    def test_single_bar(self):
        assert wasserstein_norm(diagram([[0.0, 2.0]])) == 1.0

    def test_two_bars(self):
        assert wasserstein_norm(diagram([[0.0, 1.0], [0.0, 3.0]])) == 2.0


class TestWassersteinDistance:
    def test_identity(self, rng):
        for _ in range(10):
            d = PersistenceDiagram(bars=random_diagram_bars(rng, 5))
            assert wasserstein_distance(d, d) == 0.0

    def test_norm_consistency_hand(self):
        d = diagram([[0.0, 2.0]])
        assert wasserstein_distance(d, diagram([])) == wasserstein_norm(d) == 1.0

    def test_direct_beats_diagonal(self):
        # Matching (0,2) to (0,4) directly costs 2; via the diagonal 1+2=3.
        assert wasserstein_distance(diagram([[0.0, 2.0]]), diagram([[0.0, 4.0]])) == 2.0

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(30):
            a = random_diagram_bars(rng, 3)
            b = random_diagram_bars(rng, 3)
            expected = wasserstein_by_enumeration(a.tolist(), b.tolist())
            got = wasserstein_distance(
                PersistenceDiagram(bars=a), PersistenceDiagram(bars=b)
            )
            assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = PersistenceDiagram(bars=random_diagram_bars(rng, 5))
            b = PersistenceDiagram(bars=random_diagram_bars(rng, 5))
            assert wasserstein_distance(a, b) == pytest.approx(
                wasserstein_distance(b, a), abs=1e-12
            )

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a, b, c = (
                PersistenceDiagram(bars=random_diagram_bars(rng, 5)) for _ in range(3)
            )
            ab = wasserstein_distance(a, b)
            bc = wasserstein_distance(b, c)
            ac = wasserstein_distance(a, c)
            assert ac <= ab + bc + 1e-9
