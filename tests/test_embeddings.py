import io
import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import embeddings
from lexiforge import (
    EmbeddingStore,
    ParseError,
    embed_matrix,
    embed_term,
    load_embedding_store,
    parse_embedding_store,
)
from helpers import serialize_embedding_store


def make_store(vocab: dict[str, list[float]]) -> EmbeddingStore:
    words = list(vocab)
    return EmbeddingStore(words, np.array([vocab[w] for w in words], dtype=float))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_file():
    store = parse_embedding_store(io.StringIO("2 3\na 1 0 0\nb 0 1 0\n"))
    assert store.dimension == 3
    assert len(store) == 2
    assert store.vector("a").tolist() == [1.0, 0.0, 0.0]
    assert store.words == ("a", "b")


def test_parse_max_vocab_truncates_in_file_order():
    store = parse_embedding_store(io.StringIO("2 3\na 1 0 0\nb 0 1 0\n"), max_vocab=1)
    assert len(store) == 1
    assert "a" in store and "b" not in store


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_embedding_store(io.StringIO(""))
    with pytest.raises(ParseError):
        parse_embedding_store(io.StringIO("x y\n"))
    with pytest.raises(ParseError) as err:
        parse_embedding_store(io.StringIO("1 3\na 1 0\n"))
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_embedding_store(io.StringIO("1 2\na 1 inf\n"))
    with pytest.raises(ParseError):
        parse_embedding_store(io.StringIO("1 2\na 1 x\n"))
    with pytest.raises(ParseError):
        parse_embedding_store(io.StringIO("3 2\na 1 2\nb 3 4\n"))


def test_parse_duplicate_words_first_wins():
    store = parse_embedding_store(io.StringIO("3 2\na 1 2\na 9 9\nb 3 4\n"))
    assert len(store) == 2
    assert store.vector("a").tolist() == [1.0, 2.0]
    assert store.n_duplicates == 1


def test_round_trip_numeric_equality():
    rng = np.random.default_rng(11)
    n, d = 1000, 8
    words = [f"w{i}" for i in range(n)]
    vectors = np.round(rng.standard_normal((n, d)), 4)
    original = EmbeddingStore(words, vectors)
    buf = io.StringIO()
    serialize_embedding_store(original, buf)
    buf.seek(0)
    reloaded = parse_embedding_store(buf)
    assert reloaded.words == original.words
    assert np.array_equal(reloaded.vectors, original.vectors)


@pytest.mark.parametrize("row", [0, 511, 512, 1300])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_store_rejects_a_non_finite_component_in_any_block(row, bad):
    vectors = np.ones((1301, 3))
    vectors[row, 2] = bad
    with pytest.raises(ValueError, match="vectors must be finite"):
        EmbeddingStore([f"w{i}" for i in range(1301)], vectors)


def test_load_from_path(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("1 2\nhello 0.5 -0.25\n", encoding="utf-8")
    store = load_embedding_store(path)
    assert store.vector("hello").tolist() == [0.5, -0.25]


def test_parse_rejects_max_vocab_below_one():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_vocab"):
            parse_embedding_store(io.StringIO("1 2\na 1 2\n"), max_vocab=bad)


def test_parse_merges_nfc_and_nfd_twins():
    nfc = unicodedata.normalize("NFC", "schön")
    nfd = unicodedata.normalize("NFD", "schön")
    assert nfc != nfd
    store = parse_embedding_store(io.StringIO(f"3 2\n{nfd} 1 2\n{nfc} 3 4\nb 5 6\n"))
    assert store.words == (nfc, "b")
    assert store.vector(nfc).tolist() == [1.0, 2.0]
    assert store.n_duplicates == 1


def test_load_reports_undecodable_byte_line(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"2 2\na 1 2\nb\xff 3 4\n")
    with pytest.raises(ParseError) as err:
        load_embedding_store(path)
    assert err.value.line_no == 3
    assert str(path) in str(err.value) and "UTF-8" in str(err.value)

    path.write_bytes(b"3 2\na 1 2\nb 3 4\xe2\n")  # in the numbers
    with pytest.raises(ParseError) as err:
        load_embedding_store(path)
    assert err.value.line_no == 3
    path.write_bytes(b"3 2\na 1 x\nb\xff 3 4\n")  # an earlier defect comes first
    with pytest.raises(ParseError, match="non-numeric") as err:
        load_embedding_store(path)
    assert err.value.line_no == 2
    path.write_bytes(b"3 2\na 1 2\na\xff 3 4\n")  # on a duplicate line
    with pytest.raises(ParseError) as err:
        load_embedding_store(path)
    assert err.value.line_no == 3
    path.write_bytes(b"\xff2 2\na 1 2\n")  # in the header
    with pytest.raises(ParseError) as err:
        load_embedding_store(path)
    assert err.value.line_no == 1
    path.write_bytes(b"2 2\na 1 2\nb\xff 3 4\n")  # after the max_vocab cut
    assert load_embedding_store(path, max_vocab=1).words == ("a",)


# ---------------------------------------------------------------------------
# block parser against the per-line reference
# ---------------------------------------------------------------------------


def reference_parse(stream, max_vocab=None):
    """The per-line parser that block parsing replaced, plus NFC words."""
    header = stream.readline()
    if not header:
        raise ParseError("empty input, missing '<count> <dim>' header", line_no=1)
    parts = header.split()
    try:
        count, dim = int(parts[0]), int(parts[1])
        if len(parts) != 2 or count < 0 or dim < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise ParseError(
            f"malformed header {header.strip()!r}, expected '<count> <dim>'", line_no=1
        ) from None
    n_keep = count if max_vocab is None else min(count, max_vocab)
    vectors = np.empty((n_keep, dim), dtype=np.float64)
    words, index, duplicates, lines_read = [], {}, 0, 0
    for line_no, raw in enumerate(stream, start=2):
        if lines_read >= count or len(words) >= n_keep:
            break
        lines_read += 1
        parts = raw.rstrip("\n").split(" ")
        if len(parts) != dim + 1:
            raise ParseError(
                f"expected word plus {dim} values, found {len(parts) - 1}", line_no=line_no
            )
        word = unicodedata.normalize("NFC", parts[0])
        if not word:
            raise ParseError("empty word", line_no=line_no)
        if word in index:
            duplicates += 1
            continue
        try:
            row = [float(tok) for tok in parts[1:]]
        except ValueError:
            raise ParseError("non-numeric vector component", line_no=line_no) from None
        if not all(np.isfinite(row)):
            raise ParseError("non-finite vector component", line_no=line_no)
        index[word] = len(words)
        vectors[len(words)] = row
        words.append(word)
    if lines_read < count and len(words) < n_keep:
        raise ParseError(
            f"header promised {count} vectors, file ends after {lines_read}",
            line_no=lines_read + 1,
        )
    return EmbeddingStore(words, vectors[: len(words)], n_duplicates=duplicates)


def _outcome(parse, text, max_vocab):
    try:
        store = parse(io.StringIO(text), max_vocab)
    except ParseError as err:
        return ("error", str(err), err.line_no)
    return ("store", store.words, store.vectors.tobytes(), store.n_duplicates)


def assert_matches_reference(text, max_vocab=None, block_rows=2):
    with mock.patch.object(embeddings, "_BLOCK_ROWS", block_rows):
        got = _outcome(parse_embedding_store, text, max_vocab)
    assert got == _outcome(reference_parse, text, max_vocab)
    return got


@pytest.mark.parametrize("text, max_vocab, expected", [
    # duplicates straddling block boundaries
    ("5 2\na 1 2\nb 3 4\na 5 6\nc 7 8\nb 9 0\n", None, "store"),
    # a max_vocab cut inside a block; the malformed line after it is never read
    ("4 2\na 1 2\nb 3 4\nc 5 6\nd x\n", 3, "store"),
    # header counts shorter and longer than the file
    ("2 2\na 1 2\nb 3 4\nc 5 6\n", None, "store"),
    ("4 2\na 1 2\nb 3 4\nc 5 6\n", None, "error"),
    # two defects in different blocks: the first in file order is reported
    ("5 2\na 1 2\nb 3 nan\nc 5 6\nd 7 8\ne 1\n", None, "error"),
    ("5 2\na 1 2\nb 3 4\n 5 6\nd 7 8\ne x 1\n", None, "error"),
    # a defect in a kept line before a malformed duplicate in the same block
    ("3 2\na 1 2\nb # 4\na 5\n", None, "error"),
    # tokens float() accepts and numpy does not, or the other way round
    ("3 2\na 1_0 2\nb \u0661 4\nc +1 1e5\n", None, "store"),
    ("2 2\na 1 2\nb 3\x1c 4\n", None, "error"),
    ("2 2\na inf 2\nb 3 4\n", None, "error"),
    # CRLF endings, double and trailing spaces, a missing last newline
    ("2 2\r\na 1 2\r\nb 3 4", None, "store"),
    ("2 2\na 1  2\nb 3 4\n", None, "error"),
    ("2 2\na 1 2 \nb 3 4\n", None, "error"),
    ("2 1\na \nb 3\n", None, "error"),
])
def test_block_parser_matches_reference_examples(text, max_vocab, expected):
    assert assert_matches_reference(text, max_vocab)[0] == expected


_WORDS = ["a", "b", "c", "d", "e", unicodedata.normalize("NFD", "schön"), "schön"]
# all accepted by float(); "1_0", "\u0661" and a mid-line "\r" are not by numpy
_TOKENS = ["0", "1.5", "-2", "0.25", "+1", "1e5", "-0", "3.", "1_0", "\u0661", "2\r"]
_BAD_TOKENS = ["nan", "inf", "#", "x", "", "1\x1c"]


@st.composite
def vector_files(draw):
    """A header and lines of which about one in five has a defect."""
    dim = draw(st.integers(1, 3))
    n_lines = draw(st.integers(0, 12))
    lines = []
    for _ in range(n_lines):
        word = draw(st.sampled_from(_WORDS))
        tokens = [draw(st.sampled_from(_TOKENS)) for _ in range(dim)]
        end = draw(st.sampled_from(["\n", "\r\n"]))
        defect = draw(st.sampled_from(
            [None] * 25 + ["word", "short", "long", "token", "token", "token", "space"]
        ))
        if defect == "word":
            word = ""
        elif defect == "short":
            tokens.pop()
        elif defect == "long":
            tokens.append("1")
        elif defect == "token":
            tokens[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        elif defect == "space":
            end = " " + end
        lines.append(" ".join([word, *tokens]) + end)
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    count = max(n_lines + draw(st.sampled_from([0] * 5 + [-2, -1, 1, 2])), 0)
    max_vocab = draw(st.none() | st.integers(1, 10))
    return f"{count} {dim}\n" + "".join(lines), max_vocab


@settings(max_examples=400, deadline=None)
@given(case=vector_files(), block_rows=st.integers(2, 3))
def test_block_parser_matches_reference(case, block_rows):
    text, max_vocab = case
    assert_matches_reference(text, max_vocab, block_rows)


# ---------------------------------------------------------------------------
# term resolution
# ---------------------------------------------------------------------------

VOCAB = {
    "x": [1.0, 0.0, 2.0],
    "y": [0.0, 2.0, 4.0],
    "z": [3.0, 3.0, 3.0],
    "x-y": [9.0, 9.0, 9.0],
}


def test_direct_lookup_beats_splitting():
    store = make_store(VOCAB)
    vec, tag = embed_term(store, "x-y")
    assert tag == "direct"
    assert vec.tolist() == [9.0, 9.0, 9.0]


def test_averaged_lookup():
    store = make_store(VOCAB)
    vec, tag = embed_term(store, "x y")
    assert tag == "averaged"
    assert vec.tolist() == [0.5, 1.0, 3.0]


@pytest.mark.parametrize("separator", [" ", "'", "-", "’"])
def test_all_separators_recognized(separator):
    store = make_store({"u": [2.0, 0.0], "v": [0.0, 4.0]})
    vec, tag = embed_term(store, f"u{separator}v")
    assert tag == "averaged"
    assert vec.tolist() == [1.0, 2.0]


def test_unknown_term_yields_zero_vector():
    store = make_store(VOCAB)
    vec, tag = embed_term(store, "qqq")
    assert tag == "zero"
    assert np.linalg.norm(vec) == 0.0
    assert vec.shape == (3,)


def test_consecutive_separators_skip_empty_parts():
    store = make_store(VOCAB)
    vec, tag = embed_term(store, "x--''y")
    assert tag == "averaged"
    assert vec.tolist() == [0.5, 1.0, 3.0]


def test_partial_hits_average_found_parts_only():
    store = make_store(VOCAB)
    vec, tag = embed_term(store, "x-unknown-z")
    assert tag == "averaged"
    assert vec.tolist() == [2.0, 1.5, 2.5]


def test_sole_part_found_matches_direct_vector():
    store = make_store(VOCAB)
    vec, tag = embed_term(store, "x-")
    assert tag == "averaged"
    assert vec.tolist() == store.vector("x").tolist()


def test_empty_term_rejected():
    store = make_store(VOCAB)
    with pytest.raises(ValueError):
        embed_term(store, "")


@settings(max_examples=100, deadline=None)
@given(term=st.text(alphabet="xyzq -'’", min_size=1, max_size=12))
def test_embed_term_always_returns_dimension_vector(term):
    store = make_store(VOCAB)
    vec, tag = embed_term(store, term)
    assert vec.shape == (3,)
    assert tag in ("direct", "averaged", "zero")
    assert np.all(np.isfinite(vec))


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------


def test_embed_matrix_empty():
    store = make_store(VOCAB)
    matrix, tags = embed_matrix(store, [])
    assert matrix.shape == (0, 3)
    assert tags == []


def test_embed_matrix_in_vocab_rows():
    store = make_store(VOCAB)
    matrix, tags = embed_matrix(store, ["x", "y"])
    assert np.array_equal(matrix, np.array([VOCAB["x"], VOCAB["y"]]))
    assert tags == ["direct", "direct"]


def test_embed_matrix_matches_per_term_oracle():
    store = make_store(VOCAB)
    rng = np.random.default_rng(5)
    parts = ["x", "y", "z", "nope", "x-y", "x z", "q'q", "x--y", "zz"]
    words = [str(rng.choice(parts)) for _ in range(50)]
    matrix, tags = embed_matrix(store, words)
    for i, word in enumerate(words):
        vec, tag = embed_term(store, word)
        assert np.array_equal(matrix[i], vec)
        assert tags[i] == tag
