"""Punctured neighborhoods: ranking, ties, projection, coincident handling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topolysemy import EmbeddingSet, _util, neighborhood, punctured_neighborhood, punctured_neighborhoods
from topolysemy.embeddings import l2_normalize_all
from topolysemy.neighborhood import COINCIDENT_EPS, NeighborhoodCloud


def embedding(words, rows):
    return l2_normalize_all(EmbeddingSet(words=tuple(words), vectors=np.array(rows, dtype=float)))


class TestPuncturedNeighborhood:
    def test_nearest_by_cosine(self):
        emb = embedding(["w", "a", "b"], [[1, 0], [0.9, 0.436], [0, 1]])
        cloud = punctured_neighborhood(emb, "w", 1)
        assert cloud.words == ("a",)
        assert cloud.center == "w"
        assert cloud.skipped == ()

    def test_full_vocabulary(self):
        emb = embedding(["w", "a", "b"], [[1, 0], [0.9, 0.436], [0, 1]])
        assert punctured_neighborhood(emb, "w", 2).words == ("a", "b")

    def test_n_too_large(self):
        emb = embedding(["w", "a"], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="exceeds"):
            punctured_neighborhood(emb, "w", 2)

    def test_oov_word(self):
        emb = embedding(["w", "a"], [[1, 0], [0, 1]])
        with pytest.raises(KeyError):
            punctured_neighborhood(emb, "nope", 1)

    def test_requires_normalized(self):
        emb = EmbeddingSet(words=("w", "a"), vectors=np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="normalized"):
            punctured_neighborhood(emb, "w", 1)

    def test_ties_by_vocabulary_index(self):
        # x and y are identical vectors; x comes first in the vocabulary.
        emb = embedding(["w", "y", "x"], [[1, 0], [0, 1], [0, 1]])
        cloud = punctured_neighborhood(emb, "w", 2)
        assert cloud.words == ("y", "x")
        emb2 = embedding(["w", "x", "y"], [[1, 0], [0, 1], [0, 1]])
        assert punctured_neighborhood(emb2, "w", 1).words == ("x",)

    def test_extension_by_one(self, rng):
        vectors = rng.standard_normal((12, 4))
        emb = l2_normalize_all(
            EmbeddingSet(words=tuple(f"w{i}" for i in range(12)), vectors=vectors)
        )
        for n in range(1, 11):
            small = punctured_neighborhood(emb, "w0", n)
            large = punctured_neighborhood(emb, "w0", n + 1)
            assert large.words[:n] == small.words

    def test_scale_invariant_ordering(self, rng):
        vectors = rng.standard_normal((10, 3))
        words = tuple(f"w{i}" for i in range(10))
        base = l2_normalize_all(EmbeddingSet(words=words, vectors=vectors))
        for lam in (0.25, 0.5, 2.0, 8.0):
            scaled = l2_normalize_all(EmbeddingSet(words=words, vectors=lam * vectors))
            assert (
                punctured_neighborhood(scaled, "w0", 9).words
                == punctured_neighborhood(base, "w0", 9).words
            )


class TestNormalizeCloud:
    """Sphere projection of the cloud: punctured_neighborhood(..., project=True)."""

    def test_projection(self):
        emb = embedding(["w", "v"], [[1, 0], [0, 1]])
        out = punctured_neighborhood(emb, "w", 1, project=True)
        np.testing.assert_allclose(out.points[0], np.array([-1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)
        assert out.skipped == ()

    def test_antipodal_pair(self):
        # up and down mirror each other through the center's axis, and so do
        # their projections.
        emb = embedding(["w", "up", "down"], [[1, 0], [0, 1], [0, -1]])
        out = punctured_neighborhood(emb, "w", 2, project=True)
        assert out.words == ("up", "down")
        assert np.array_equal(out.points[1], out.points[0] * [1.0, -1.0])
        assert np.linalg.norm(out.points[0] - out.points[1]) == pytest.approx(np.sqrt(2.0))

    def test_unit_norms(self, rng):
        emb = l2_normalize_all(
            EmbeddingSet(words=tuple(f"v{i}" for i in range(21)), vectors=rng.standard_normal((21, 5)))
        )
        out = punctured_neighborhood(emb, "v0", 20, project=True)
        assert len(out) == 20
        assert np.abs(np.linalg.norm(out.points, axis=1) - 1.0).max() < 1e-9

    def test_coincident_dropped_and_replaced(self):
        emb = embedding(["w", "dup", "near", "far"], [[1, 0], [1, 0], [0.9, 0.1], [0, 1]])
        out = punctured_neighborhood(emb, "w", 2, project=True)
        assert out.skipped == ("dup",)
        assert out.words == ("near", "far")
        assert len(out) == 2

    def test_coincident_without_reserve_shrinks(self):
        # No candidate is left to replace the coincident one.
        emb = embedding(["w", "dup", "near"], [[1, 0], [1, 0], [0.9, 0.1]])
        out = punctured_neighborhood(emb, "w", 2, project=True)
        assert out.skipped == ("dup",)
        assert out.words == ("near",)
        assert out.points.shape == (1, 2)

    def test_end_to_end_replacement(self):
        emb = embedding(["w", "dup", "far"], [[1, 0], [1, 0], [0, 1]])
        out = punctured_neighborhood(emb, "w", 1, project=True)
        assert out.skipped == ("dup",)
        assert out.words == ("far",)
        assert len(out) == 1


# Unit vectors in R^4 with dyadic coordinates: every dot product, offset and
# squared distance between them is exact, so a plain-Python reference sees
# exactly the ties and coincidences the program sees.
AXES = [tuple(sign * (i == axis) for i in range(4)) for axis in range(4) for sign in (1.0, -1.0)]
HALVES = [
    tuple(0.5 * (-1.0 if bits >> i & 1 else 1.0) for i in range(4)) for bits in range(16)
]
UNIT = AXES + HALVES


def reference_neighborhood(rows, center, n, project):
    """Sort by (-cosine, row), drop the center, skip coincident rows, keep n."""
    unit = [[x / math.sqrt(sum(y * y for y in row)) for x in row] for row in rows]
    w = unit[center]
    cosine = [sum(a * b for a, b in zip(v, w)) for v in unit]
    kept, points, skipped = [], [], []
    for r in sorted(range(len(rows)), key=lambda r: (-cosine[r], r)):
        if r == center:
            continue
        if len(kept) == n:
            break
        if not project:
            kept.append(r)
            continue
        offset = [a - b for a, b in zip(unit[r], w)]
        distance = math.sqrt(sum(x * x for x in offset))
        if distance < COINCIDENT_EPS:
            skipped.append(r)
            continue
        kept.append(r)
        points.append([x / distance for x in offset])
    return kept, points, skipped


@st.composite
def planted_vocabularies(draw):
    """(rows, center, n): exact ties, scaled duplicates, copies of the center."""
    picks = draw(st.lists(st.integers(0, len(UNIT) - 1), min_size=2, max_size=12))
    center = draw(st.integers(0, len(picks) - 1))
    plant = draw(st.sampled_from(["none", "some", "all"]))
    if plant == "all":
        picks = [picks[center]] * len(picks)
    elif plant == "some":
        copies = draw(st.sets(st.integers(0, len(picks) - 1)))
        picks = [picks[center] if i in copies else p for i, p in enumerate(picks)]
    scales = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(picks), max_size=len(picks)))
    rows = [[scale * x for x in UNIT[p]] for p, scale in zip(picks, scales)]
    n = draw(st.integers(1, len(picks) - 1))
    return rows, center, n


@given(planted_vocabularies())
def test_matches_plain_python_reference(case):
    rows, center, n = case
    emb = embedding([f"w{i}" for i in range(len(rows))], rows)

    kept, _, _ = reference_neighborhood(rows, center, n, project=False)
    raw = punctured_neighborhood(emb, f"w{center}", n)
    assert raw.words == tuple(f"w{r}" for r in kept)
    assert raw.skipped == ()

    kept, points, skipped = reference_neighborhood(rows, center, n, project=True)
    out = punctured_neighborhood(emb, f"w{center}", n, project=True)
    assert out.words == tuple(f"w{r}" for r in kept)
    assert out.skipped == tuple(f"w{r}" for r in skipped)
    assert out.points.shape == (len(kept), 4)
    np.testing.assert_allclose(out.points, np.array(points).reshape(-1, 4), rtol=0, atol=1e-12)


@st.composite
def batched_searches(draw):
    """(rows, queries, n, project, block, tile): every word queried, in any order."""
    rows, _, n = draw(planted_vocabularies())
    if draw(st.booleans()):
        n = len(rows) - 1
    queries = draw(st.permutations(range(len(rows))))
    block = draw(st.sampled_from([1, 3, len(rows)]))
    tile = draw(st.sampled_from([1, 3, len(rows)]))
    return rows, queries, n, draw(st.booleans()), block, tile


def patch_search(patch, block, tile):
    """Candidate passes of `block` words over vocabulary tiles of `tile` rows."""
    patch.setattr(neighborhood, "_BLOCK_WORDS", block)
    patch.setattr(neighborhood, "_tile_rows", lambda dim: tile)


@given(batched_searches())
def test_batched_search_matches_plain_python_reference(case):
    rows, queries, n, project, block, tile = case
    words = [f"w{i}" for i in range(len(rows))]
    emb = embedding(words, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch_search(patch, block, tile)
        clouds = list(punctured_neighborhoods(emb, [words[q] for q in queries], n, project=project))
    assert [cloud.center for cloud in clouds] == [words[q] for q in queries]
    assert len(clouds) == len(queries)
    for center, cloud in zip(queries, clouds):
        kept, points, skipped = reference_neighborhood(rows, center, n, project)
        assert cloud.words == tuple(words[r] for r in kept)
        assert cloud.skipped == tuple(words[r] for r in skipped)
        if project:
            np.testing.assert_allclose(
                cloud.points, np.array(points).reshape(-1, 4), rtol=0, atol=1e-12
            )
        else:
            assert np.array_equal(cloud.points, emb.vectors[kept].reshape(-1, 4))


@pytest.mark.parametrize("block,tile", [(1, 1), (3, 3), (20, 7), (40, 40)])
def test_near_ties_rank_by_the_exact_similarity(block, tile):
    # Twenty rows whose cosines to w step by 1e-12: one float32 value for all
    # of them, twenty float64 values.  Their vocabulary order is shuffled, so
    # a ranking by the float32 product and vocabulary order would differ.
    rng = np.random.default_rng(7)
    steps = rng.permutation(20)
    angles = np.arccos(0.8 - 1e-12 * steps)
    rows = [[1.0, 0.0, 0.0, 0.0]] + [[np.cos(a), np.sin(a), 0.0, 0.0] for a in angles]
    rows += [[0.0, 0.0, 1.0, 0.0]] * 9 + [[0.5, 0.0, 0.0, 1.0]] * 10
    words = [f"w{i}" for i in range(len(rows))]
    emb = embedding(words, rows)
    near = emb.vectors[1:21]
    assert np.unique(near.astype(np.float32) @ emb.vectors[0].astype(np.float32)).size == 1
    exact = near @ emb.vectors[0]
    assert np.unique(exact).size == 20
    order = 1 + np.argsort(-exact, kind="stable")
    with pytest.MonkeyPatch.context() as patch:
        patch_search(patch, block, tile)
        for n in (1, 7, 20):
            assert punctured_neighborhood(emb, "w0", n).words == tuple(words[r] for r in order[:n])
            projected = punctured_neighborhood(emb, "w0", n, project=True)
            assert projected.words == tuple(words[r] for r in order[:n])
        clouds = list(punctured_neighborhoods(emb, words[::-1], 8))
    for center, cloud in zip(range(len(rows) - 1, -1, -1), clouds):
        similarity = emb.vectors @ emb.vectors[center]
        similarity[center] = -np.inf
        expected = np.argsort(-similarity, kind="stable")[:8]
        assert cloud.words == tuple(words[r] for r in expected)


@pytest.mark.parametrize("tile", [1, 7, 64])
def test_rows_the_float32_product_misorders_are_kept(tile):
    # Sixty rows at exact cosines 0.8 + i * 1e-9 to w in R^100, whose float32
    # similarities scatter over about 1e-7: below the cut, in float32, lie
    # rows that the exact similarity ranks above it.
    rng = np.random.default_rng(3)
    dim = 100
    center = random_unit(rng, dim)
    cosines = 0.8 + 1e-9 * rng.permutation(60)
    rows = [center]
    for cosine in cosines:
        other = random_unit(rng, dim)
        other -= (other @ center) * center
        other /= np.linalg.norm(other)
        rows.append(cosine * center + np.sqrt(1.0 - cosine**2) * other)
    rows += list(random_unit(rng, dim) * 0.5 for _ in range(40))
    words = [f"w{i}" for i in range(len(rows))]
    emb = embedding(words, rows)
    single32 = emb.vectors.astype(np.float32) @ emb.vectors[0].astype(np.float32)
    exact = emb.vectors[1:61] @ emb.vectors[0]
    order = 1 + np.argsort(-exact, kind="stable")
    assert np.unique(exact).size == 60
    assert single32[order[10:]].max() > single32[order[:10]].min()
    with pytest.MonkeyPatch.context() as patch:
        patch_search(patch, 1, tile)
        for n in (1, 10, 30):
            assert punctured_neighborhood(emb, "w0", n).words == tuple(words[r] for r in order[:n])


def random_unit(rng, dim):
    row = rng.standard_normal(dim)
    return row / np.linalg.norm(row)


def test_coincident_copies_past_n_widen_the_search():
    # Five copies of w (some scaled) rank ahead of every other word, so the
    # first n + 1 candidates hold no projectable neighbor.
    emb = embedding(
        ["far", "w", "c1", "c2", "c3", "c4", "c5", "near"],
        [[0, 1], [1, 0], [1, 0], [2, 0], [0.5, 0], [1, 0], [4, 0], [1, 1]],
    )
    out = punctured_neighborhood(emb, "w", 2, project=True)
    assert out.skipped == ("c1", "c2", "c3", "c4", "c5")
    assert out.words == ("near", "far")
    assert punctured_neighborhood(emb, "w", 2).words == ("c1", "c2")


def test_empty_query_list():
    emb = embedding(["w", "a"], [[1, 0], [0, 1]])
    assert list(punctured_neighborhoods(emb, [], 1)) == []


def test_clouds_are_built_one_at_a_time(monkeypatch):
    rows = np.random.default_rng(0).standard_normal((30, 4))
    words = [f"w{i}" for i in range(30)]
    emb = embedding(words, rows)
    built = []
    cloud = neighborhood._cloud

    def counted(embeddings, center_row, *rest):
        built.append(center_row)
        return cloud(embeddings, center_row, *rest)

    monkeypatch.setattr(neighborhood, "_cloud", counted)
    first = next(punctured_neighborhoods(emb, words, 5, project=True))
    assert first.center == "w0"
    assert built == [0]


def test_one_block_product_is_alive_at_a_time(monkeypatch):
    rows = np.random.default_rng(0).standard_normal((20_000, 4))
    emb = embedding([f"w{i}" for i in range(len(rows))], rows)
    monkeypatch.setattr(_util, "CHUNK_ELEMENTS", 10 * len(emb))
    # A full block's float32 product, its partitioned copy and the cast
    # tile fill the per-worker budget, whatever the vocabulary size; at
    # n = 5 each word's row, running top values and kept rows add little.
    budget = 10 * len(emb) * 4
    for words, low in ((neighborhood._BLOCK_WORDS, 0.9 * budget), (40, 0)):
        tracemalloc.start()
        try:
            for _ in punctured_neighborhoods(emb, emb.words[:words], 5, project=True):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert low <= peak < 1.25 * budget


def test_a_pass_holds_at_most_twice_the_budget(monkeypatch):
    # At n = 5000 a block holds one word, whose tiles of 326 rows hold fewer
    # rows than n + 1.  A pass holds at least the cast tile, the word's
    # running top of k float32 values and, while a prune copies them, its k
    # kept rows' int64 keys and float32 values twice.
    rows = np.random.default_rng(2).standard_normal((20_000, 100))
    emb = embedding([f"w{i}" for i in range(len(rows))], rows)
    monkeypatch.setattr(_util, "CHUNK_ELEMENTS", 10 * len(emb))
    budget = 10 * len(emb) * 4
    k = 5001
    low = 4 * neighborhood._tile_rows(100) * 100 + 4 * k + 2 * 12 * k
    original, passes = neighborhood._candidates, []

    def traced(vectors, centers, k):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        found = original(vectors, centers, k)
        passes.append((len(centers), tracemalloc.get_traced_memory()[1] - start))
        return found

    monkeypatch.setattr(neighborhood, "_candidates", traced)
    tracemalloc.start()
    try:
        for _ in punctured_neighborhoods(emb, emb.words[:3], 5000):
            pass
    finally:
        tracemalloc.stop()
    assert [width for width, _ in passes] == [1, 1, 1]
    assert all(low < peak < 2 * budget for _, peak in passes)


def test_blocks_hold_fewer_words_at_large_n(monkeypatch):
    rows = np.random.default_rng(1).standard_normal((30, 4))
    words = [f"w{i}" for i in range(30)]
    emb = embedding(words, rows)
    expected = list(punctured_neighborhoods(emb, words, 20, project=True))
    original, widths = neighborhood._candidates, []

    def counted(vectors, centers, k):
        widths.append(len(centers))
        return original(vectors, centers, k)

    monkeypatch.setattr(neighborhood, "_candidates", counted)
    monkeypatch.setattr(_util, "CHUNK_ELEMENTS", 2 * neighborhood._KEPT_VALUES * (21 + 4))
    clouds = list(punctured_neighborhoods(emb, words, 20, project=True))
    assert widths == [2] * 15
    assert [cloud.words for cloud in clouds] == [cloud.words for cloud in expected]
    assert all(np.array_equal(a.points, b.points) for a, b in zip(clouds, expected))


class TestUpFrontChecks:
    """punctured_neighborhoods raises before it returns, not when iterated."""

    def test_bad_n(self):
        emb = embedding(["w", "a"], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="n must be >= 1"):
            punctured_neighborhoods(emb, ["w"], 0)
        with pytest.raises(ValueError, match="exceeds"):
            punctured_neighborhoods(emb, ["w"], 2)

    def test_raw_set(self):
        emb = EmbeddingSet(words=("w", "a"), vectors=np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="normalized"):
            punctured_neighborhoods(emb, ["w"], 1)

    def test_unknown_word_after_known_ones(self):
        emb = embedding(["w", "a"], [[1, 0], [0, 1]])
        with pytest.raises(KeyError, match="ghost"):
            punctured_neighborhoods(emb, ["w", "a", "ghost"], 1)


def test_all_coincident_vocabulary_gives_an_empty_cloud():
    emb = embedding(["w", "a", "b"], [[1, 0], [2, 0], [0.5, 0]])
    out = punctured_neighborhood(emb, "w", 2, project=True)
    assert out.words == ()
    assert out.skipped == ("a", "b")
    assert out.points.shape == (0, 2)


class TestCloudValidation:
    def test_center_among_neighbors_rejected(self):
        with pytest.raises(ValueError, match="center"):
            NeighborhoodCloud(center="w", words=("w",), points=np.array([[1.0]]))

    def test_word_point_mismatch(self):
        with pytest.raises(ValueError):
            NeighborhoodCloud(center="w", words=("a",), points=np.zeros((2, 1)))

    def test_points_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=r"points must be a 2-d matrix, got shape \(1,\)"):
            NeighborhoodCloud(center="w", words=("a",), points=np.zeros(1))
