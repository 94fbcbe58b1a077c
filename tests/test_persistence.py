"""Degree-0 diagrams against a brute-force oracle; Wasserstein costs."""

import numpy as np
import pytest
from oracles import single_linkage_merge_heights, wasserstein_by_enumeration

from conftest import random_cloud, random_diagram_bars
from topolysemy import degree0_diagram, wasserstein_distance, wasserstein_norm
from topolysemy.persistence import PersistenceDiagram


def diagram(bars):
    return PersistenceDiagram(bars=np.array(bars, dtype=float).reshape(-1, 2))


class TestDegree0Diagram:
    def test_points_on_a_line(self):
        d = degree0_diagram(np.array([[0.0], [1.0], [3.0]]))
        assert d.births.tolist() == [0.0, 0.0]
        assert d.deaths.tolist() == [1.0, 2.0]

    def test_single_point(self):
        assert len(degree0_diagram(np.array([[5.0, 5.0]]))) == 0

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
