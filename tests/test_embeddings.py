"""Vector file parsing, normalization, tokenization, and count tables."""

import io
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fed_fifo, save_vec_file
from topolysemy import (
    EmbeddingSet,
    ParseError,
    count_corpus,
    load_count_table,
    load_unit_vectors,
    load_vec_file,
    punctured_neighborhood,
    save_count_table,
)
from topolysemy import embeddings
from topolysemy.embeddings import l2_normalize_all, tokenize

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def parse_in_ranges(patch, workers):
    """Split every .vec body, however small, into up to `workers` byte ranges."""
    # TPS_THREADS is capped at the CPU count.
    patch.setenv("TPS_THREADS", str(workers))
    patch.setattr(os, "cpu_count", lambda: workers)
    patch.setattr(embeddings, "_MIN_RANGE_BYTES", 1)


def serial_passes(patch):
    """A list that gains an item at each serial pass over a .vec body."""
    parse, passes = embeddings._parse_serially, []
    patch.setattr(embeddings, "_parse_serially", lambda *args: passes.append(args) or parse(*args))
    return passes


class TestLoadVecFile:
    def test_words_may_hold_non_ascii_whitespace(self, tmp_path):
        # Fields split on ASCII whitespace only, as fastText writes them, so
        # these four words stay distinct.
        text = "4 2\n10\u00a0000 0 1\n\u3000x 1 0\nx 1 1\nx\u3000 2 1\n"
        emb = load_vec_file(write(tmp_path / "v.vec", text))
        assert emb.words == ("10\u00a0000", "\u3000x", "x", "x\u3000")
        assert emb.vectors.tolist() == [[0, 1], [1, 0], [1, 1], [2, 1]]

    def test_fields_split_on_ascii_whitespace_only(self, tmp_path):
        path = write(tmp_path / "v.vec", "1 2\na 1.0\u30002.0\n")
        with pytest.raises(ParseError, match=r":2: expected 2 components for 'a', got 1$"):
            load_vec_file(path)

    def test_word_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_bytes(b"2 1\na 1\n\xffb 2\n")
        with pytest.raises(ParseError) as raised:
            load_vec_file(path)
        assert str(raised.value) == f"{path}:3: word b'\\xffb' is not valid UTF-8"

    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "default"])
    def test_lone_cr_is_whitespace(self, tmp_path, monkeypatch, block):
        # np.loadtxt rejects a line with an embedded \r; bytes.split() does not.
        # A line checked alone must not hand loadtxt its raw rest either.
        if block is not None:
            monkeypatch.setattr(embeddings, "_PARSE_BLOCK_BYTES", block * 8 * 2)
        path = tmp_path / "v.vec"
        path.write_bytes(b"4 2\na 1\r2\nb\r3 4\nc 5 6\nd 7\r8\n")
        passes = serial_passes(monkeypatch)
        for workers in (1, 2, 3, 8):
            parse_in_ranges(monkeypatch, workers)
            emb = load_vec_file(path)
            assert emb.words == ("a", "b", "c", "d")
            assert emb.vectors.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
            # At one range the serial pass is the only pass; in ranges the valid file takes none.
            assert len(passes) == (workers == 1)
            passes.clear()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("3 2\na 1 2\n\nb 3\r4\nc 5 6\n", None),
            ("3 2\na 1 2\nb 3 x\nc 5 6\n", ":3: unparseable number in row for 'b'"),
            ("3 2\na 1 2\nb 3 4\na 5 6\n", ":4: duplicate word 'a' (first seen on line 2)"),
            ("3 2\na 1 2\nb 3 4\n", ": header declares 3 rows, found 2"),
        ],
        ids=["valid-lone-cr", "unparseable", "duplicate", "short"],
    )
    def test_a_vec_read_from_a_pipe(self, tmp_path, monkeypatch, text, error):
        # A pipe cannot seek: its body is read once, in one range, and an error is named in that pass.
        path, file = tmp_path / "v.vec", write(tmp_path / "file.vec", text)
        parse_in_ranges(monkeypatch, 2)
        with fed_fifo(path, text.encode("utf-8")):
            if error is None:
                emb, expected = load_vec_file(path), load_vec_file(file)
                assert emb.words == expected.words
                assert emb.vectors.tobytes() == expected.vectors.tobytes()
            else:
                with pytest.raises(ParseError) as raised:
                    load_vec_file(path)
                assert str(raised.value) == f"{path}{error}"

    def test_crlf_loads_the_bits_of_lf(self, tmp_path, rng):
        rows = rng.standard_normal((5, 3)) * 10.0 ** rng.uniform(-300, 300, size=(5, 1))
        text = "5 3\n" + "".join(f"w{i}\u00df {' '.join(map(repr, row.tolist()))}\n" for i, row in enumerate(rows))
        lf = load_vec_file(write(tmp_path / "lf.vec", text))
        crlf_path = tmp_path / "crlf.vec"
        crlf_path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        crlf = load_vec_file(crlf_path)
        assert crlf.words == lf.words == tuple(f"w{i}\u00df" for i in range(5))
        assert crlf.vectors.tobytes() == lf.vectors.tobytes() == rows.tobytes()

    # 10^11 x 300 float64 is 218 TiB, past the 128 TiB x86-64 user address
    # space, so the allocation fails without touching memory; 10^18 x 300
    # overflows numpy's size.
    @pytest.mark.parametrize("declared", [10**11, 10**18])
    def test_header_too_large_to_allocate(self, tmp_path, declared):
        path = write(tmp_path / "v.vec", f"{declared} 300\n")
        size = f"{declared * 300 * 8:,}"
        with pytest.raises(ParseError) as raised:
            load_vec_file(path)
        assert str(raised.value) == (
            f"{path}:1: header N={declared} d=300 needs {size} bytes of float64, "
            "more than can be allocated"
        )

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

    def test_duplicate_names_the_first_line_across_blank_lines(self, tmp_path, monkeypatch):
        # Blocks of three lines: the first holds a blank line before b's first row.
        monkeypatch.setattr(embeddings, "_PARSE_BLOCK_BYTES", 3 * 8 * 1)
        path = write(tmp_path / "v.vec", "5 1\na 1\n\nb 2\nc 3\nd 4\nb 5\n")
        with pytest.raises(ParseError, match=r":7: duplicate word 'b' \(first seen on line 4\)$"):
            load_vec_file(path)

    # Header fields follow the row grammar's ASCII digits: int() alone would
    # take "_", a sign and spaces, and refuses over 4,300 digits.
    @pytest.mark.parametrize(
        "header",
        ["1_0 1", "+10 1", "10 +1", "1" * 5000 + " 1"],
        ids=["grouped", "signed-N", "signed-d", "5000-digits"],
    )
    def test_header_fields_are_ascii_digits(self, tmp_path, header):
        path = write(tmp_path / "v.vec", f"{header}\n" + "".join(f"w{i} 1\n" for i in range(10)))
        with pytest.raises(ParseError) as raised:
            load_vec_file(path)
        assert str(raised.value) == f"{path}:1: header fields must be integers, got {header!r}"

    def test_header_needs_a_positive_dimension(self, tmp_path):
        path = write(tmp_path / "v.vec", "0 0\n")
        with pytest.raises(ParseError) as raised:
            load_vec_file(path)
        assert str(raised.value) == f"{path}:1: header needs N >= 0 and d >= 1, got N=0 d=0"

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
        # The row count is checked before the surplus line's numbers.
        for surplus in ("b 2", "b apple"):
            path = write(tmp_path / "v.vec", f"1 1\na 1\n{surplus}\n")
            with pytest.raises(ParseError, match=r":3: more rows than the declared 1"):
                load_vec_file(path)


def reference_load_vec(path):
    """float() per ASCII token, without "_"; arity, duplicate and row-count checks before the numbers."""
    with open(path, encoding="utf-8") as handle:
        declared, dim = (int(part) for part in handle.readline().split())
        words, seen, rows = [], {}, []
        for lineno, line in enumerate(handle, start=2):
            # ASCII whitespace, as the README states; str.split() would also split on \x1c-\x1f.
            fields = [field.decode("utf-8") for field in line.encode("utf-8").split()]
            if not fields:
                continue
            word, values = fields[0], fields[1:]
            if len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} components for {word!r}, got {len(values)}"
                )
            if word in seen:
                raise ParseError(
                    f"{path}:{lineno}: duplicate word {word!r} (first seen on line {seen[word]})"
                )
            if len(rows) >= declared:
                raise ParseError(f"{path}:{lineno}: more rows than the declared {declared}")
            try:
                if not all(value.isascii() and "_" not in value for value in values):
                    raise ValueError("numbers are ASCII, without digit grouping")
                vector = [float(value) for value in values]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: unparseable number in row for {word!r}") from None
            if not all(math.isfinite(value) for value in vector):
                raise ParseError(f"{path}:{lineno}: non-finite component in row for {word!r}")
            seen[word] = lineno
            words.append(word)
            rows.append(vector)
        if len(rows) != declared:
            raise ParseError(f"{path}: header declares {declared} rows, found {len(rows)}")
    return tuple(words), np.array(rows, dtype=np.float64).reshape(declared, dim)


# Digits, signs, exponents, underscores, non-ASCII digits (Arabic-Indic,
# fullwidth) and characters float() rejects (superscript, vulgar fraction, x).
NUMBER_JUNK = st.text(alphabet="0123456789+-.eE_\u0661\u0663\uff10\u00b2\u00bdx", min_size=1, max_size=6)
NUMBER_WORDS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "Infinity", "1e308", "1e309", "-0", "1_000", "\u0663.\u0665", "0x1"]
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
TOKENS = st.one_of(NUMBERS, NUMBERS, NUMBERS, NUMBER_JUNK, NUMBER_WORDS)
# Mostly ASCII spaces; np.loadtxt also splits on \x1c-\x1f, bytes.split() and float() do not.
GAPS = st.sampled_from([" ", " ", " ", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", " \x1f"])


@st.composite
def vec_texts(draw):
    """A '.vec' text with a well-formed header and rows that may break every rule."""
    dim = draw(st.integers(1, 3))
    word = st.sampled_from(["a", "b", "c", "d", "\u00df"])
    row = st.tuples(
        word,
        st.one_of(
            st.lists(TOKENS, min_size=dim, max_size=dim),
            st.lists(TOKENS, max_size=dim + 1),
            st.lists(NUMBERS, min_size=dim + 1, max_size=dim + 1),
        ),
        st.lists(GAPS, min_size=dim + 1, max_size=dim + 1),
        st.sampled_from(["", " ", " \t "]),
    ).map(lambda parts: parts[0] + "".join(g + t for g, t in zip(parts[2], parts[1])) + parts[3])
    word_only = st.tuples(word, st.sampled_from(["", " "])).map("".join)
    lines = draw(st.lists(st.one_of(row, row, row, word_only, st.sampled_from(["", "  "])), max_size=6))
    # A row of dim + 1 numbers first sets the column count of the first block.
    if draw(st.booleans()):
        wide = " ".join(draw(st.lists(NUMBERS, min_size=dim + 1, max_size=dim + 1)))
        lines.insert(0, f"{draw(word)} {wide}")
    declared = draw(st.one_of(st.just(sum(1 for line in lines if line.strip())), st.integers(0, 5)))
    return f"{declared} {dim}\n" + "".join(line + "\n" for line in lines)


def assert_loads_as_the_reference(path):
    try:
        words, rows = reference_load_vec(path)
    except ParseError as expected:
        with pytest.raises(ParseError) as raised:
            load_vec_file(path)
        assert str(raised.value) == str(expected)
        return
    emb = load_vec_file(path)
    assert emb.words == words
    assert emb.vectors.tobytes() == rows.tobytes()


@given(vec_texts())
def test_load_vec_file_matches_plain_python_reference(tmp_path_factory, text):
    assert_loads_as_the_reference(write(tmp_path_factory.mktemp("vec") / "v.vec", text))


@pytest.mark.parametrize("block", [1, 3])
@given(text=vec_texts())
def test_load_vec_file_matches_the_reference_for_every_block_size(tmp_path_factory, block, text):
    # At the default size every example is one block of np.loadtxt rows.
    dim = int(text.split()[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_PARSE_BLOCK_BYTES", block * 8 * dim)
        assert_loads_as_the_reference(write(tmp_path_factory.mktemp("vec") / "v.vec", text))


@pytest.mark.parametrize("workers", [2, 8])
@given(text=vec_texts())
def test_load_vec_file_matches_the_reference_in_byte_ranges(tmp_path_factory, workers, text):
    # At 8 workers most ranges hold one line.
    with pytest.MonkeyPatch.context() as patch:
        parse_in_ranges(patch, workers)
        assert_loads_as_the_reference(write(tmp_path_factory.mktemp("vec") / "v.vec", text))


# Rows of one length: at 2 workers the body splits after its second row, at 3
# after its second and fourth.
@pytest.mark.parametrize(
    "workers, text, error",
    [
        (2, "4 1\na 1\nb 1\na 1\nc 1\n", ":4: duplicate word 'a' (first seen on line 2)"),
        (3, "6 1\na 1\nb 1\nc 1\nd 1\nc 1\ne 1\n", ":6: duplicate word 'c' (first seen on line 4)"),
        # A repeat in the middle range: the last range then starts a row past the index.
        (3, "6 1\na 1\nb 1\na 1\nd 1\ne 1\nf 1\n", ":4: duplicate word 'a' (first seen on line 2)"),
        (2, "3 1\na 1\nb 1\nc 1\nd 1\n", ":5: more rows than the declared 3"),
        (3, "3 1\na 1\nb 1\nc 1\nd 1\ne 1\nf 1\n", ":5: more rows than the declared 3"),
        (2, "4 1\na 1\nb 1\na 1\nc x\n", ":4: duplicate word 'a' (first seen on line 2)"),
        (3, "6 1\na 1\nb 1\nc x\nd 1\ne 1\nf x\n", ":4: unparseable number in row for 'c'"),
        (2, "4 1\na 1\nb 1\na x\nc 1\n", ":4: duplicate word 'a' (first seen on line 2)"),
        (2, "4 1\na 1\nb 1\na inf\nc 1\n", ":4: duplicate word 'a' (first seen on line 2)"),
        (2, "2 1\na 1\nb 1\nc x\nd 1\n", ":4: more rows than the declared 2"),
        (2, "4 1\na 1\nb 1\na 1 2\nc 1\n", ":4: expected 1 components for 'a', got 2"),
        (2, "100000 1\na 1\nb 1\nc 1\nd 1\n", ": header declares 100000 rows, found 4"),
        (2, "4 1\na 1\nb 1\nc 1\nd 1\n", None),
    ],
)
def test_first_error_in_file_order_across_ranges(tmp_path, monkeypatch, workers, text, error):
    path = write(tmp_path / "v.vec", text)
    fork, forks = embeddings._fork, []
    monkeypatch.setattr(embeddings, "_fork", lambda *args: forks.append(args) or fork(*args))
    passes = serial_passes(monkeypatch)
    parse_in_ranges(monkeypatch, workers)
    if error is None:
        assert load_vec_file(path).words == ("a", "b", "c", "d")
    else:
        with pytest.raises(ParseError) as raised:
            load_vec_file(path)
        assert str(raised.value) == f"{path}{error}"
    assert len(forks) == workers - 1
    # A valid file is parsed once, in ranges; only an error takes one serial pass.
    assert len(passes) == (error is not None)


# A worker's rows start at the count of newlines before its range, so a
# blank line before a range sends the body to the serial pass; blank lines
# within and after ranges, and errors anywhere, load as the reference does.
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "text",
    [
        "4 1\na 1\n\nb 2\nc 3\nd 4\n",
        "4 1\na 1\nb 2\nc 3\n\n  \nd 4\n\n",
        "6 1\n\n\na 1\nb 2\n \nc 3\nd 4\n\ne 5\nf 6\n",
        "4 2\r\na 1 2\r\nb 3 4\r\n\r\nc 5 6\r\nd 7 8\r\n",
        "4 1\na 1\nb 2\nc 3\nd 4",
        "4 1\na 1\n\nb 2\nc 3\nd 4",
        "4 2\n10\u00a0000 0 1\n\u3000x 1 0\nx 1 1\nx\u3000 2 1\n",
        "3 1\na 1\nb 2\nc 3\nd 4\n",
        "2 1\na 1\n\nb 2\n\nc 3\n",
        "5 1\na 1\nb 2\nc 3\nd 4\n",
        "5 1\na 1\n\nb 2\nc 3\n\nd 4\n\n",
        "4 1\na 1\n\nb 2\na 3\nc 4\n",
        "4 1\na 1\n\nb 2\nc x\nd 4\n",
        "4 1\na 1\nb 2\n\nc 3\nb 4\n",
    ],
    ids=[
        "blank-before-a-range",
        "blanks-in-the-last-range",
        "blanks-throughout",
        "crlf",
        "no-final-newline",
        "blank-and-no-final-newline",
        "non-ascii-space-words",
        "surplus-row",
        "surplus-row-after-blanks",
        "missing-row",
        "missing-row-after-blanks",
        "duplicate-after-a-blank",
        "unparseable-after-a-blank",
        "duplicate-across-a-blank",
    ],
)
def test_ranges_load_as_the_reference(tmp_path, monkeypatch, workers, text):
    path = tmp_path / "v.vec"
    path.write_bytes(text.encode("utf-8"))
    parse_in_ranges(monkeypatch, workers)
    assert_loads_as_the_reference(path)


@pytest.mark.parametrize("blanks", [(), (0,), (0, 2, 2, 5)], ids=["none", "after-the-header", "throughout"])
def test_rows_do_not_cross_a_workers_pipe(tmp_path, monkeypatch, blanks):
    # Lines of one length: the body splits after about its fourth row.
    rows = np.arange(8 * 50, dtype=np.float64).reshape(8, 50) % 7 + 1.25
    path = tmp_path / "v.vec"
    save_vec_file(EmbeddingSet(words=tuple(f"w{i}" for i in range(8)), vectors=rows), path)
    header, *lines = path.read_bytes().splitlines(keepends=True)
    for at in reversed(blanks):
        lines.insert(at, b" \r\n")
    path.write_bytes(header + b"".join(lines))
    fork, sent = embeddings._fork, []

    def draining(*args):
        pid, reader = fork(*args)
        with reader:
            data = reader.read()
        sent.append(len(data))
        return pid, io.BytesIO(data)

    blocks, parent, parsed = embeddings._line_blocks, os.getpid(), []

    def recording(handle, size, step):
        if os.getpid() == parent:
            parsed.append(size)
        return blocks(handle, size, step)

    monkeypatch.setattr(embeddings, "_fork", draining)
    monkeypatch.setattr(embeddings, "_line_blocks", recording)
    passes = serial_passes(monkeypatch)
    parse_in_ranges(monkeypatch, 2)
    emb = load_vec_file(path)
    assert emb.vectors.tobytes() == rows.tobytes()
    # A blank line before the worker's range puts its rows' start past this process's rows.
    assert len(passes) == bool(blanks)
    if not blanks:
        # This process parsed its own range only: it took the worker's rows.
        assert len(parsed) == 1 and parsed[0] is not None
    # The worker sends only its words and the row they start at, fewer bytes than one row.
    assert len(sent) == 1 and 0 < sent[0] < rows[0].nbytes


@pytest.mark.parametrize("block", [1, 7])
def test_rows_before_a_range_are_its_newlines(monkeypatch, block):
    # Reads of 1 and 7 bytes split lines, and the CRLF pairs of some.
    text = b"a 1\n\nb 2\r\n \t \nc\r3\n\r\n\r\nd 4\n   \ne\x0b5\n\n"
    handle = io.BytesIO(text)
    monkeypatch.setattr(embeddings, "_PARSE_BLOCK_BYTES", block)
    starts = [0] + [at + 1 for at, byte in enumerate(text) if byte == ord("\n")]
    for start in starts:
        for stop in starts[starts.index(start) :]:
            assert embeddings._rows_before(handle, start, stop) == text[start:stop].count(b"\n")
            assert handle.tell() == stop


@pytest.mark.parametrize("end", ["exit", "raise", "kill"])
def test_worker_that_dies_names_the_file(tmp_path, monkeypatch, end):
    path = write(tmp_path / "v.vec", "4 1\na 1\nb 1\nc 1\nd 1\n")
    parse, parent = embeddings._parse_numbers, os.getpid()

    def dying(lines, dim):
        if os.getpid() != parent:
            if end == "exit":
                os._exit(3)
            if end == "raise":
                raise MemoryError
            os.kill(os.getpid(), signal.SIGKILL)
        return parse(lines, dim)

    monkeypatch.setattr(embeddings, "_parse_numbers", dying)
    parse_in_ranges(monkeypatch, 2)
    status = {"exit": 3, "raise": 1, "kill": -9}[end]
    with pytest.raises(ChildProcessError, match=f"^{path}: parse worker exited with status {status} "):
        load_vec_file(path)


def test_an_error_in_a_workers_range_is_named_by_the_calling_process(tmp_path, monkeypatch):
    # At 2 workers the body splits after its second row, so line 4 is the worker's.
    path = write(tmp_path / "v.vec", "4 1\na 1\nb 1\nc x\nd 1\n")
    parse, parent, log = embeddings._parse_numbers, os.getpid(), tmp_path / "calls.txt"

    def recording(lines, dim):
        # Forked workers log too; each short append is one write.
        with open(log, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {len(lines)} {b''.join(lines)!r}\n")
        return parse(lines, dim)

    monkeypatch.setattr(embeddings, "_parse_numbers", recording)
    parse_in_ranges(monkeypatch, 2)
    with pytest.raises(ParseError) as raised:
        load_vec_file(path)
    assert str(raised.value) == f"{path}:4: unparseable number in row for 'c'"
    calls = [call.split(" ", 2) for call in log.read_text().splitlines()]
    # The worker parses its range, lines 4 and 5, as one block, and checks no line alone.
    assert [int(count) for pid, count, _ in calls if int(pid) != parent] == [2]
    # The error comes from this process checking line 4 alone.
    assert [int(pid) for pid, _, lines in calls if lines == "b'x\\n'"] == [parent]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize(
    "text",
    ["6 1\na 1\nb 2\nc 3\nd 4\ne 5\nf 6\n", "5 1\na 1\nb 2\nc 3\na 4\nd 5\ne 6\n"],
    ids=["valid", "repeat-past-the-first-range"],
)
def test_rows_that_do_not_follow_on_take_one_serial_pass(tmp_path, monkeypatch, workers, shift, text):
    # As when the file changes while it is read: each worker's rows start one
    # row off.  At 2 ranges a row too late overflows N and one too early
    # overwrites a row of this process; at 3 the middle range does not follow
    # on.  A row early at 2 ranges, the repeated a leaves as many words as N:
    # only the check of the worker's first row sends that file to the serial pass.
    path = write(tmp_path / "v.vec", text)
    count = embeddings._rows_before
    monkeypatch.setattr(embeddings, "_rows_before", lambda *args: count(*args) + shift)
    passes = serial_passes(monkeypatch)
    parse_in_ranges(monkeypatch, workers)
    assert_loads_as_the_reference(path)
    assert len(passes) == 1


@pytest.mark.parametrize("shape", [(20_000, 100), (3, 20_000)], ids=["20000x100", "3x20000"])
def test_each_parse_result_stays_under_the_mmap_threshold(tmp_path, monkeypatch, shape):
    # glibc maps allocations of 128 KiB and more, and freeing one raises its
    # mmap threshold for the rest of the process; tracemalloc cannot see that.
    rng = np.random.default_rng(7)
    values = rng.integers(-999, 1000, size=shape)
    path = tmp_path / "v.vec"
    lines = [f"{shape[0]} {shape[1]}"] + [f"w{i} " + " ".join(map(str, row)) for i, row in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    loadtxt, log = np.loadtxt, tmp_path / "results.txt"

    def recording(*args, **kwargs):
        result = loadtxt(*args, **kwargs)
        # Forked workers log too; each short append is one write.
        with open(log, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {len(result)} {result.nbytes}\n")
        return result

    monkeypatch.setattr(np, "loadtxt", recording)
    for workers in (1, 2):
        log.write_text("")
        with pytest.MonkeyPatch.context() as patch:
            parse_in_ranges(patch, workers)
            emb = load_vec_file(path)
        assert emb.vectors.tobytes() == values.astype(np.float64).tobytes()
        results = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert len({pid for pid, _, _ in results}) == workers
        assert sum(rows for _, rows, _ in results) == shape[0]
        assert all(nbytes <= 128 * 1024 or rows == 1 for _, rows, nbytes in results)


def test_load_unit_vectors_normalizes_the_parsed_buffer(tmp_path, monkeypatch):
    original, parsed = embeddings.load_vec_file, []

    def capture(path):
        parsed.append(original(path))
        return parsed[-1]

    monkeypatch.setattr(embeddings, "load_vec_file", capture)
    emb, dropped = load_unit_vectors(write(tmp_path / "v.vec", "2 2\na 3 4\nb 0 2\n"))
    assert dropped == []
    assert np.shares_memory(emb.vectors, parsed[0].vectors)
    assert not emb.vectors.flags.writeable


def test_load_unit_vectors_keeps_the_parsed_set_without_zero_rows(tmp_path, monkeypatch):
    original, parsed = embeddings.load_vec_file, []

    def capture(path):
        parsed.append(original(path))
        return parsed[-1]

    monkeypatch.setattr(embeddings, "load_vec_file", capture)
    emb, dropped = load_unit_vectors(write(tmp_path / "v.vec", "2 2\na 3 4\nb 0 2\n"))
    # No second set: its words, index and finiteness check would repeat the parse's.
    assert emb is parsed[0]
    assert emb.normalized
    assert emb.row("b") == 1
    assert emb.vectors.tolist() == [[0.6, 0.8], [0.0, 1.0]]


@pytest.mark.parametrize("block", [1, 2])
def test_load_unit_vectors_drops_zero_rows_in_the_parsed_buffer(tmp_path, monkeypatch, block):
    original, parsed = embeddings.load_vec_file, []

    def capture(path):
        parsed.append(original(path))
        return parsed[-1]

    monkeypatch.setattr(embeddings, "load_vec_file", capture)
    monkeypatch.setattr(embeddings, "_PARSE_BLOCK_BYTES", block * 8 * 2)
    text = "6 2\na 3 4\nz 0 0\nb 0 2\nc 1 0\ny 0 0\nd 0 5\n"
    emb, dropped = load_unit_vectors(write(tmp_path / "v.vec", text))
    assert dropped == ["z", "y"]
    assert emb.words == ("a", "b", "c", "d")
    assert emb.vectors.tolist() == [[0.6, 0.8], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    assert np.shares_memory(emb.vectors, parsed[0].vectors)


@pytest.mark.parametrize("block", [1, 3, 23])
def test_load_unit_vectors_is_bit_identical_for_every_chunk_size(tmp_path, monkeypatch, block):
    rng = np.random.default_rng(block)
    rows = rng.standard_normal((21, 4)) * 10.0 ** rng.uniform(-3, 3, size=(21, 1))
    rows = np.vstack([rows, [[0.0, 0.0, 1.5e-161, 0.0], [3e200, -4e200, 0.0, 1.0]]])
    path = tmp_path / "v.vec"
    save_vec_file(EmbeddingSet(words=tuple(f"w{i}" for i in range(23)), vectors=rows), path)
    # At the default budget the whole file is one chunk.
    expected = l2_normalize_all(load_vec_file(path))
    monkeypatch.setattr(embeddings, "_PARSE_BLOCK_BYTES", block * 8 * 4)
    emb, dropped = load_unit_vectors(path)
    assert dropped == []
    assert emb.words == expected.words
    assert emb.vectors.tobytes() == expected.vectors.tobytes()


@pytest.mark.parametrize("load", ["load_vec_file", "load_unit_vectors"])
def test_a_load_checks_each_value_for_finiteness_once(tmp_path, monkeypatch, load):
    # Blocks of two rows; the zero row makes load_unit_vectors build a second set.
    monkeypatch.setattr(embeddings, "_PARSE_BLOCK_BYTES", 2 * 8 * 3)
    path = write(tmp_path / "v.vec", "5 3\na 1 2 3\nb 0 0 0\nc 4 5 6\nd 7 8 9\ne 1 0 1\n")
    isfinite, checked = np.isfinite, []

    def counting(values, *args, **kwargs):
        checked.append(np.size(values))
        return isfinite(values, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    getattr(embeddings, load)(path)
    assert checked == [6, 6, 3]


class TestEmbeddingSet:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSet(words=("a", "a"), vectors=np.eye(2))
        # The earliest second occurrence is named.
        with pytest.raises(ValueError, match=r"^duplicate word 'b'$"):
            EmbeddingSet(words=("a", "b", "b", "a"), vectors=np.eye(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet(words=("a",), vectors=np.array([[np.inf]]))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingSet(words=("a",), vectors=np.eye(2))

    def test_vectors_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=r"vectors must be a 2-d matrix, got shape \(2,\)"):
            EmbeddingSet(words=("a", "b"), vectors=np.ones(2))

    def test_vectors_read_only(self):
        emb = EmbeddingSet(words=("a",), vectors=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 9.0

    def test_normalized_is_not_a_constructor_argument(self):
        # Trusting the claim, a search would rank [3, 3] first by its dot product,
        # where cosine similarity ranks [.99, .14] first.
        rows = np.array([[1.0, 0.0], [0.99, 0.14], [3.0, 3.0], [0.8, 0.6]])
        with pytest.raises(TypeError, match="normalized"):
            EmbeddingSet(words=("w", "near", "long", "far"), vectors=rows, normalized=True)
        unit = l2_normalize_all(EmbeddingSet(words=("w", "near", "long", "far"), vectors=rows))
        assert unit.normalized
        assert punctured_neighborhood(unit, "w", 1).words == ("near",)

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


def reference_tokenize(text):
    """tokenize as per-character loops that strip each whitespace-split token."""
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if end > start:
            yield raw[start:end]


# Underscore, non-ASCII spaces, a dotted capital I and a capital sharp s that
# lowercase to other lengths, a combining mark, and digits and numerals that
# are alphanumeric without being ASCII.
TOKEN_EDGES = "_\u00a0\u0085\u3000\u0130\u1e9e\u0345\u0661\u00b2\u00bd\u2160"


@given(st.one_of(st.text(), st.text(alphabet=TOKEN_EDGES + " aZ9.-'")))
def test_tokenize_matches_the_character_loops(text):
    assert tokenize(text) == list(reference_tokenize(text))


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
        assert count_corpus(path) == {"the": 2, "cat": 1, "dog": 1}

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"The cat.\r\nthe \xe9\xff DOG!\n")
        with pytest.raises(ParseError) as raised:
            count_corpus(path)
        assert str(raised.value) == f"{path}:2: b'\\xe9\\xff' is not valid UTF-8"


class TestCountTable:
    def test_load(self, tmp_path):
        path = write(tmp_path / "c.tsv", "house\t14\ncat\t3\n")
        table = load_count_table(path)
        assert table["house"] == 14 and table.get("dog") is None

    def test_empty_file(self, tmp_path):
        assert len(load_count_table(write(tmp_path / "c.tsv", ""))) == 0

    def test_empty_lines_skipped(self, tmp_path):
        assert load_count_table(write(tmp_path / "c.tsv", "x\t1\n\n\r\ny\t2\n")) == {"x": 1, "y": 2}

    def test_negative_count(self, tmp_path):
        with pytest.raises(ParseError, match="nonnegative"):
            load_count_table(write(tmp_path / "c.tsv", "x\t-1\n"))

    def test_non_integer_count(self, tmp_path):
        with pytest.raises(ParseError, match="nonnegative"):
            load_count_table(write(tmp_path / "c.tsv", "x\t1.5\n"))

    # int() reads them as 12 and 3.
    @pytest.mark.parametrize(
        "word, count", [("bank", "\u0661\u0662"), ("river", "\uff13")], ids=["arabic-indic", "fullwidth"]
    )
    def test_count_is_ascii_digits(self, tmp_path, word, count):
        path = write(tmp_path / "c.tsv", f"house\t14\n{word}\t{count}\n")
        with pytest.raises(ParseError) as raised:
            load_count_table(path)
        assert str(raised.value) == f"{path}:2: count for {word!r} must be a nonnegative integer, got {count!r}"

    def test_counts_up_to_2_to_the_53(self, tmp_path):
        # float64 holds every integer up to 2**53 and not 2**53 + 1.
        table = load_count_table(write(tmp_path / "c.tsv", f"x\t{2**53}\ny\t{'0' * 5000}7\n"))
        assert table == {"x": 2**53, "y": 7}
        assert float(table["x"]) == table["x"]
        path = write(tmp_path / "d.tsv", f"x\t1\nbig\t{2**53 + 1}\n")
        with pytest.raises(ParseError) as raised:
            load_count_table(path)
        assert str(raised.value) == f"{path}:2: count for 'big' exceeds 2**53, the exact float64 limit"

    def test_duplicate_word(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            load_count_table(write(tmp_path / "c.tsv", "x\t1\nx\t2\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError, match="word<TAB>count"):
            load_count_table(write(tmp_path / "c.tsv", "just-one-field\n"))

    def test_round_trip(self, tmp_path):
        table = {"b": 2, "a": 1}
        path = tmp_path / "c.tsv"
        save_count_table(table, path)
        assert path.read_text() == "a\t1\nb\t2\n"
        assert load_count_table(path) == table
