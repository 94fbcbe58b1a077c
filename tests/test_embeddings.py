"""Vector file parsing, normalization, tokenization, and count tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topolysemy import (
    EmbeddingSet,
    ParseError,
    count_corpus,
    load_count_table,
    load_unit_vectors,
    load_vec_file,
    save_count_table,
)
from topolysemy.embeddings import CountTable, l2_normalize_all, save_vec_file, tokenize

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadVecFile:
    def test_two_rows(self, tmp_path):
        path = write(tmp_path / "v.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        emb = load_vec_file(path)
        assert emb.words == ("a", "b")
        assert emb.dim == 3
        assert emb.vectors.shape == (2, 3)
        assert np.array_equal(emb.vectors[1], [0.0, 1.0, 0.0])

    def test_preserves_file_order(self, tmp_path):
        path = write(tmp_path / "v.vec", "3 1\nz 1\ny 2\nx 3\n")
        assert load_vec_file(path).words == ("z", "y", "x")

    def test_arity_error_reports_line(self, tmp_path):
        path = write(tmp_path / "v.vec", "1 3\na 1 0\n")
        with pytest.raises(ParseError, match=r":2"):
            load_vec_file(path)

    def test_duplicate_word(self, tmp_path):
        path = write(tmp_path / "v.vec", "2 1\na 1\na 2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_vec_file(path)

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path / "v.vec", "banana\na 1\n")
        with pytest.raises(ParseError, match=":1"):
            load_vec_file(path)

    def test_non_finite_component(self, tmp_path):
        path = write(tmp_path / "v.vec", "1 2\na 1 nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_vec_file(path)

    def test_unparseable_number(self, tmp_path):
        path = write(tmp_path / "v.vec", "1 2\na 1 apple\n")
        with pytest.raises(ParseError, match="unparseable"):
            load_vec_file(path)

    def test_row_count_mismatch(self, tmp_path):
        path = write(tmp_path / "v.vec", "3 1\na 1\nb 2\n")
        with pytest.raises(ParseError, match="declares 3"):
            load_vec_file(path)

    def test_too_many_rows(self, tmp_path):
        path = write(tmp_path / "v.vec", "1 1\na 1\nb 2\n")
        with pytest.raises(ParseError, match="more rows"):
            load_vec_file(path)


class TestEmbeddingSet:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSet(words=("a", "a"), vectors=np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet(words=("a",), vectors=np.array([[np.inf]]))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingSet(words=("a",), vectors=np.eye(2))

    def test_vectors_read_only(self):
        emb = EmbeddingSet(words=("a",), vectors=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 9.0

    def test_lookup(self):
        emb = EmbeddingSet(words=("a", "b"), vectors=np.eye(2))
        assert "a" in emb and "c" not in emb
        assert emb.row("b") == 1
        assert np.array_equal(emb.vectors[emb.row("b")], [0.0, 1.0])
        with pytest.raises(KeyError):
            emb.row("c")


class TestSaveVecFile:
    def test_round_trip_values(self, tmp_path, rng):
        emb = EmbeddingSet(
            words=("alpha", "beta", "gamma"), vectors=rng.standard_normal((3, 4))
        )
        path = tmp_path / "out.vec"
        save_vec_file(emb, path)
        loaded = load_vec_file(path)
        assert loaded.words == emb.words
        assert np.allclose(loaded.vectors, emb.vectors, rtol=1e-8, atol=0)

    def test_save_load_save_is_fixpoint(self, tmp_path, rng):
        # Formatting at 9 significant digits is stable after one round trip.
        emb = EmbeddingSet(words=("a", "b"), vectors=rng.standard_normal((2, 3)))
        first = tmp_path / "one.vec"
        second = tmp_path / "two.vec"
        save_vec_file(emb, first)
        save_vec_file(load_vec_file(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestL2NormalizeAll:
    def test_three_four_five(self):
        emb = EmbeddingSet(words=("a",), vectors=np.array([[3.0, 4.0]]))
        out = l2_normalize_all(emb)
        assert np.array_equal(out.vectors[0], [0.6, 0.8])
        assert out.normalized

    def test_unit_row_unchanged(self):
        emb = EmbeddingSet(words=("a",), vectors=np.array([[1.0, 0.0]]))
        assert np.array_equal(l2_normalize_all(emb).vectors[0], [1.0, 0.0])

    def test_zero_vector_names_word(self):
        emb = EmbeddingSet(words=("ok", "bad"), vectors=np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="'bad'"):
            l2_normalize_all(emb)

    @given(
        st.lists(
            st.lists(finite_floats, min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    def test_idempotent_and_unit(self, rows):
        vectors = np.array(rows)
        norms = np.linalg.norm(vectors, axis=1)
        if (norms == 0.0).any() or not np.isfinite(norms).all():
            return
        emb = EmbeddingSet(
            words=tuple(f"w{i}" for i in range(len(rows))), vectors=vectors
        )
        once = l2_normalize_all(emb)
        twice = l2_normalize_all(once)
        assert np.abs(np.linalg.norm(once.vectors, axis=1) - 1.0).max() < 1e-6
        assert np.abs(twice.vectors - once.vectors).max() < 1e-12


def test_tiny_and_huge_rows_normalize_to_unit():
    # Squaring 1.5e-161 underflows and squaring 3e200 overflows.
    emb = EmbeddingSet(
        words=("tiny", "huge", "plain"),
        vectors=np.array([[0.0, 0.0, 1.5e-161], [3e200, -4e200, 0.0], [3.0, 4.0, 0.0]]),
    )
    np.testing.assert_allclose(
        l2_normalize_all(emb).vectors,
        [[0.0, 0.0, 1.0], [0.6, -0.8, 0.0], [0.6, 0.8, 0.0]],
        rtol=1e-15,
        atol=0,
    )


def test_load_unit_vectors_drops_zero_rows_in_file_order(tmp_path):
    path = tmp_path / "v.vec"
    path.write_text("4 2\nz 0 0\na 3 4\ny 0 0\nb 0 2\n")
    emb, dropped = load_unit_vectors(path)
    assert dropped == ["z", "y"]
    assert emb.words == ("a", "b")
    assert emb.normalized
    assert np.array_equal(emb.vectors, [[0.6, 0.8], [0.0, 1.0]])


class TestTokenize:
    def test_punctuation_stripped(self):
        assert list(tokenize("Dog, dog!")) == ["dog", "dog"]

    def test_inner_punctuation_kept(self):
        assert list(tokenize("don't stop-go")) == ["don't", "stop-go"]

    def test_pure_punctuation_dropped(self):
        assert list(tokenize("... -- !!")) == []

    def test_lowercase_and_split(self):
        assert list(tokenize("The CAT  sat")) == ["the", "cat", "sat"]


class TestCountFrequencies:
    def test_count_corpus(self, tmp_path):
        path = write(tmp_path / "c.txt", "The cat.\nthe DOG!\n")
        assert count_corpus(path).entries == {"the": 2, "cat": 1, "dog": 1}


class TestCountTable:
    def test_load(self, tmp_path):
        path = write(tmp_path / "c.tsv", "house\t14\ncat\t3\n")
        table = load_count_table(path)
        assert table["house"] == 14 and table.get("dog") is None

    def test_empty_file(self, tmp_path):
        assert len(load_count_table(write(tmp_path / "c.tsv", ""))) == 0

    def test_negative_count(self, tmp_path):
        with pytest.raises(ParseError, match="nonnegative"):
            load_count_table(write(tmp_path / "c.tsv", "x\t-1\n"))

    def test_non_integer_count(self, tmp_path):
        with pytest.raises(ParseError, match="nonnegative"):
            load_count_table(write(tmp_path / "c.tsv", "x\t1.5\n"))

    def test_duplicate_word(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            load_count_table(write(tmp_path / "c.tsv", "x\t1\nx\t2\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError, match="word<TAB>count"):
            load_count_table(write(tmp_path / "c.tsv", "just-one-field\n"))

    def test_round_trip(self, tmp_path):
        table = CountTable(entries={"b": 2, "a": 1})
        path = tmp_path / "c.tsv"
        save_count_table(table, path)
        assert load_count_table(path).entries == table.entries

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            CountTable(entries={"x": -1})
