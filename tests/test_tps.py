"""Polysemy scores: pipeline behavior, percentiles, and the k predictor."""

import math
import os

import numpy as np
import pytest

from topolysemy import EmbeddingSet, ParseError, neighborhood, save_tps_csv, tps, tps_batch, tps_score
from topolysemy.embeddings import l2_normalize_all
from topolysemy.tps import PercentileTable, TpsReport, load_tps_csv, predicted_k


def caps_embedding(axes, per_cap, rng, dim=6, spread=0.05, offset=0.2):
    """Center at e0 plus one neighbor cap around each tangent axis."""
    center = np.zeros(dim)
    center[0] = 1.0
    words = ["center"]
    vectors = [center]
    scale = 1.0 / math.sqrt(1.0 + offset * offset)
    for cap_idx, axis in enumerate(axes):
        for i in range(per_cap):
            tangent = np.asarray(axis, dtype=float) + spread * rng.standard_normal(dim)
            tangent[0] = 0.0
            tangent /= np.linalg.norm(tangent)
            vectors.append((center + offset * tangent) * scale)
            words.append(f"c{cap_idx}_{i}")
    return EmbeddingSet(words=tuple(words), vectors=np.array(vectors))


class TestTpsScore:
    def test_collapsed_neighborhood_scores_zero(self):
        center = np.array([1.0, 0.0, 0.0])
        neighbor = np.array([1.0, 0.2, 0.0])
        neighbor /= np.linalg.norm(neighbor)
        vectors = np.vstack([center] + [neighbor] * 5)
        emb = EmbeddingSet(
            words=("w",) + tuple(f"n{i}" for i in range(5)), vectors=vectors
        )
        report = tps_score(emb, "w", 5)
        assert report.score == 0.0
        assert report.bars_used == 4

    def test_two_antipodal_caps_beat_one_cap_at_same_n(self, rng):
        axis = np.zeros(6)
        axis[1] = 1.0
        one_cap = caps_embedding([axis], per_cap=40, rng=rng)
        two_caps = caps_embedding([axis, -axis], per_cap=20, rng=rng)
        low = tps_score(one_cap, "center", 40).score
        high = tps_score(two_caps, "center", 40).score
        assert high > low

    def test_n_too_large_rejected(self, small_embedding):
        with pytest.raises(ValueError, match="exceeds"):
            tps_score(small_embedding, "w0", len(small_embedding))

    def test_oov_word(self, small_embedding):
        with pytest.raises(KeyError):
            tps_score(small_embedding, "nope", 5)

    def test_rotation_invariance(self, rng, small_embedding):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = EmbeddingSet(
            words=small_embedding.words, vectors=small_embedding.vectors @ q.T
        )
        base = tps_score(small_embedding, "w3", 12).score
        moved = tps_score(rotated, "w3", 12).score
        assert abs(base - moved) < 1e-6

    def test_bars_used_with_coincident_replacement(self):
        emb = EmbeddingSet(
            words=("w", "dup", "a", "b"),
            vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]),
        )
        report = tps_score(emb, "w", 2)
        assert report.skipped == ("dup",)
        assert report.bars_used == 1

    def test_score_is_nonnegative(self, small_embedding, rng):
        for word in ("w0", "w7", "w21"):
            assert tps_score(small_embedding, word, 10).score >= 0.0


class TestTpsBatch:
    def test_order_matches_input(self, small_embedding):
        words = ["w5", "w1", "w9"]
        reports = tps_batch(small_embedding, words, n=8)
        assert [r.word for r in reports] == words

    def test_worker_count_does_not_change_results(self, small_embedding):
        words = [f"w{i}" for i in range(10)]
        serial = tps_batch(small_embedding, words, n=8, workers=1)
        threaded = tps_batch(small_embedding, words, n=8, workers=4)
        assert [r.score for r in serial] == [r.score for r in threaded]

    def test_matches_individual_scores(self, small_embedding):
        words = ["w2", "w4"]
        batch = tps_batch(small_embedding, words, n=6)
        singles = [tps_score(small_embedding, w, 6) for w in words]
        assert [r.score for r in batch] == [r.score for r in singles]

    def test_missing_word_rejected(self, small_embedding):
        with pytest.raises(KeyError):
            tps_batch(small_embedding, ["w0", "ghost"], n=5)

    @pytest.mark.parametrize(
        "words,n,error",
        [(["w0", "w1", "w2", "ghost"], 5, KeyError), (["w0", "w1", "w2", "w3"], 40, ValueError)],
    )
    def test_bad_arguments_raise_before_any_scoring(self, small_embedding, monkeypatch, words, n, error):
        scored = []
        monkeypatch.setattr(tps, "_report", lambda cloud, n: scored.append(cloud))
        with pytest.raises(error):
            tps_batch(small_embedding, words, n=n, workers=2)
        assert scored == []

    def test_three_workers_take_interleaved_shares(self, small_embedding, monkeypatch, candidate_passes):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        words = [f"w{i}" for i in range(29, 4, -1)]
        rows = [small_embedding.row(word) for word in words]
        reports = []
        for threads, shares in (("1", [rows]), ("3", [rows[0::3], rows[1::3], rows[2::3]])):
            monkeypatch.setenv("TPS_THREADS", threads)
            candidate_passes.clear()
            reports.append(tps_batch(small_embedding, words, n=8))
            assert sorted(candidate_passes) == sorted(shares)
        assert reports[1] == reports[0]
        assert [r.word for r in reports[1]] == words

    @pytest.mark.parametrize("block", [1, 3, 40])
    def test_blocks_and_workers_do_not_change_reports(self, rng, monkeypatch, block):
        vectors = rng.standard_normal((40, 5))
        vectors[7] = vectors[3]
        vectors[11] = 2.0 * vectors[3]
        vectors[20] = vectors[21]
        emb = l2_normalize_all(EmbeddingSet(words=tuple(f"w{i}" for i in range(40)), vectors=vectors))
        words = [f"w{i}" for i in (39, 3, 0, 21, 7, 11, 20, 5, 16, 30)]
        singles = [tps_score(emb, w, 6) for w in words]
        monkeypatch.setattr(neighborhood, "_BLOCK_WORDS", block)
        for tile in (1, 3, 40):
            monkeypatch.setattr(neighborhood, "_tile_rows", lambda dim: tile)
            assert tps_batch(emb, words, n=6, workers=1) == singles
            assert tps_batch(emb, words, n=6, workers=2) == singles


class TestPercentileTable:
    def table(self):
        return PercentileTable(scores={"lo": 10.0, "mid": 15.0, "hi": 20.0})

    def test_extremes(self):
        table = self.table()
        assert table.percentile("lo") == 0
        assert table.percentile("hi") == 100

    def test_exact_midpoint_ceils_to_fifty(self):
        assert self.table().percentile("mid") == 50

    def test_ceiling_rounds_up(self):
        table = PercentileTable(scores={"a": 0.0, "b": 0.001, "c": 1.0})
        assert table.percentile("b") == 1

    def test_degenerate_table_raises_on_query(self):
        table = PercentileTable(scores={"a": 5.0, "b": 5.0})
        with pytest.raises(ValueError, match="degenerate"):
            table.percentile("a")

    def test_unknown_word(self):
        with pytest.raises(KeyError):
            self.table().percentile("ghost")

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="zero scores"):
            PercentileTable(scores={})


class TestPredictedK:
    @pytest.mark.parametrize(
        "percentile,expected",
        [(0, 2), (1, 2), (2, 3), (50, 51), (99, 100), (100, 100)],
    )
    def test_values(self, percentile, expected):
        assert predicted_k(percentile) == expected

    def test_monotone_and_full_range(self):
        values = [predicted_k(p) for p in range(101)]
        assert values == sorted(values)
        assert set(values) == set(range(2, 101))

    @pytest.mark.parametrize("bad", [-1, 101])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            predicted_k(bad)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            predicted_k(50.0)


class TestTpsCsv:
    def test_round_trip(self, tmp_path):
        reports = [
            TpsReport(word="alpha", n=50, score=26.612345),
            TpsReport(word="beta", n=50, score=0.5),
        ]
        path = tmp_path / "t.csv"
        save_tps_csv(reports, path)
        loaded = load_tps_csv(path)
        assert [r.word for r in loaded] == ["alpha", "beta"]
        assert loaded[0].n == 50
        assert loaded[0].score == pytest.approx(26.612345, abs=5e-7)

    def test_header_written(self, tmp_path):
        path = tmp_path / "t.csv"
        save_tps_csv([], path)
        assert path.read_text() == "word,n,tps\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,header,row\n")
        with pytest.raises(ParseError, match="header"):
            load_tps_csv(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("word,n,tps\na,5,1.0\na,5,2.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_tps_csv(path)

    def test_unparseable_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("word,n,tps\na,five,1.0\n")
        with pytest.raises(ParseError, match="unparseable"):
            load_tps_csv(path)

    # int() reads the first three as -5, 10 and 5.
    @pytest.mark.parametrize("raw_n", ["-5", "1_0", "\u0665", "0"], ids=["signed", "grouped", "arabic-indic", "zero"])
    def test_n_is_a_positive_integer_of_ascii_digits(self, tmp_path, raw_n):
        path = tmp_path / "t.csv"
        path.write_text(f"word,n,tps\na,50,1.0\nb,{raw_n},1.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as raised:
            load_tps_csv(path)
        assert str(raised.value) == f"{path}:3: n for 'b' must be a positive integer, got {raw_n!r}"

    # float() reads these as 10.0, 2.5 and 3.0.
    @pytest.mark.parametrize("raw_score", ["1_0", " 2.5 ", "\u0663"], ids=["grouped", "spaced", "arabic-indic"])
    def test_tps_is_an_ascii_decimal(self, tmp_path, raw_score):
        path = tmp_path / "t.csv"
        path.write_text(f"word,n,tps\na,50,1.0\nb,50,{raw_score}\n", encoding="utf-8")
        with pytest.raises(ParseError) as raised:
            load_tps_csv(path)
        assert str(raised.value) == f"{path}:3: unparseable row {['b', '50', raw_score]!r}"


def test_report_rejects_negative_score():
    with pytest.raises(ValueError):
        TpsReport(word="a", n=5, score=-0.1)
