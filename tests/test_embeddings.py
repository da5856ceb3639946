import errno
import os
import signal
import subprocess
import sys
import threading
import time
import unicodedata
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path
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
)
from helpers import save_embedding_store


def make_store(vocab: dict[str, list[float]]) -> EmbeddingStore:
    words = list(vocab)
    return EmbeddingStore(words, np.array([vocab[w] for w in words], dtype=float))


def write_text(path, text):
    """Write ``text`` as it is: no newline translation, surrogates as bytes."""
    path.unlink(missing_ok=True)  # truncating a file in place can wait for a disk flush
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write(text)
    return path


@pytest.fixture
def load_text(tmp_path):
    """Load a store from a file holding the given text."""

    def load(text, max_vocab=None):
        return load_embedding_store(write_text(tmp_path / "vecs.txt", text), max_vocab)

    return load


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_file(load_text):
    store = load_text("2 3\na 1 0 0\nb 0 1 0\n")
    assert store.dimension == 3
    assert len(store) == 2
    assert store.vector("a").tolist() == [1.0, 0.0, 0.0]
    assert store.words == ("a", "b")


def test_parse_max_vocab_truncates_in_file_order(load_text):
    store = load_text("2 3\na 1 0 0\nb 0 1 0\n", max_vocab=1)
    assert len(store) == 1
    assert "a" in store and "b" not in store


def test_parse_errors(load_text):
    with pytest.raises(ParseError):
        load_text("")
    with pytest.raises(ParseError):
        load_text("x y\n")
    with pytest.raises(ParseError) as err:
        load_text("1 3\na 1 0\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        load_text("1 2\na 1 inf\n")
    with pytest.raises(ParseError):
        load_text("1 2\na 1 x\n")
    with pytest.raises(ParseError):
        load_text("3 2\na 1 2\nb 3 4\n")


def test_parse_duplicate_words_first_wins(load_text):
    store = load_text("3 2\na 1 2\na 9 9\nb 3 4\n")
    assert len(store) == 2
    assert store.vector("a").tolist() == [1.0, 2.0]
    assert store.n_duplicates == 1


def test_round_trip_numeric_equality(tmp_path):
    rng = np.random.default_rng(11)
    n, d = 1000, 8
    words = [f"w{i}" for i in range(n)]
    vectors = np.round(rng.standard_normal((n, d)), 4)
    original = EmbeddingStore(words, vectors)
    save_embedding_store(original, tmp_path / "vecs.txt")
    reloaded = load_embedding_store(tmp_path / "vecs.txt")
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


def test_parse_rejects_max_vocab_below_one(load_text):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_vocab"):
            load_text("1 2\na 1 2\n", max_vocab=bad)


def test_parse_merges_nfc_and_nfd_twins(load_text):
    nfc = unicodedata.normalize("NFC", "schön")
    nfd = unicodedata.normalize("NFD", "schön")
    assert nfc != nfd
    store = load_text(f"3 2\n{nfd} 1 2\n{nfc} 3 4\nb 5 6\n")
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


def reference_parse(stream, max_vocab=None, path=None):
    """The per-line parser that block parsing replaced, plus the word rule:
    NFC with surrounding whitespace stripped, never empty, no tab; and the
    float32 rule: each component rounded to nearest from its float64
    value, which must stay finite."""
    header = stream.readline()
    if not header:
        raise ParseError("empty input, missing '<count> <dim>' header", line_no=1, path=path)
    parts = header.split()
    try:
        count, dim = int(parts[0]), int(parts[1])
        if len(parts) != 2 or count < 0 or dim < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise ParseError(
            f"malformed header {header.strip()!r}, expected '<count> <dim>'",
            line_no=1, path=path,
        ) from None
    n_keep = count if max_vocab is None else min(count, max_vocab)
    vectors = np.empty((n_keep, dim), dtype=np.float32)
    words, index, duplicates, lines_read = [], {}, 0, 0
    for line_no, raw in enumerate(stream, start=2):
        if lines_read >= count or len(words) >= n_keep:
            break
        lines_read += 1
        parts = raw.rstrip("\n").split(" ")
        if len(parts) != dim + 1:
            raise ParseError(
                f"expected word plus {dim} values, found {len(parts) - 1}",
                line_no=line_no, path=path,
            )
        word = unicodedata.normalize("NFC", parts[0]).strip()
        if not word:
            raise ParseError("empty word", line_no=line_no, path=path)
        if "\t" in word:
            raise ParseError("word holds a tab", line_no=line_no, path=path)
        if word in index:
            duplicates += 1
            continue
        try:
            row = [float(tok) for tok in parts[1:]]
        except ValueError:
            raise ParseError("non-numeric vector component", line_no=line_no, path=path) from None
        if not all(np.isfinite(row)):
            raise ParseError("non-finite vector component", line_no=line_no, path=path)
        with np.errstate(over="ignore"):
            if not all(np.isfinite(np.float32(v)) for v in row):
                raise ParseError("vector component outside the float32 range",
                                 line_no=line_no, path=path)
        index[word] = len(words)
        vectors[len(words)] = row
        words.append(word)
    if lines_read < count and len(words) < n_keep:
        raise ParseError(
            f"header promised {count} vectors, file ends after {lines_read}",
            line_no=lines_read + 1, path=path,
        )
    return EmbeddingStore(words, vectors[: len(words)], n_duplicates=duplicates)


def _outcome(parse):
    try:
        store = parse()
    except ParseError as err:
        return ("error", str(err), err.line_no)
    return ("store", store.words, store.vectors.tobytes(), store.n_duplicates)


def assert_matches_reference(path, text, max_vocab=None, block_rows=2):
    """Write ``text`` to ``path``; its parse in one part must equal the reference's."""
    write_text(path, text)
    with mock.patch.object(embeddings, "_BLOCK_ROWS", block_rows):
        got = load_outcome(path, 1, max_vocab)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        assert got == _outcome(lambda: reference_parse(fh, max_vocab, path))
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
def test_block_parser_matches_reference_examples(tmp_path, text, max_vocab, expected):
    assert assert_matches_reference(tmp_path / "vecs.txt", text, max_vocab)[0] == expected


# "a\xa0" and "\x1fe" are stored as "a" and "e"; "\u3000" is empty and
# "c\td" holds a tab under the word rule
_WORDS = ["a", "b", "c", "d", "e", unicodedata.normalize("NFD", "schön"), "schön",
          "a\xa0", "\x1fe", "\u3000", "c\td"]
# all accepted by float(); "1_0" and "\u0661" are not by numpy, a
# mid-line "\r" ends its line, "0.1" is rounded in float32 and "3.4e38"
# is near the top of its range
_TOKENS = ["0", "1.5", "-2", "0.25", "+1", "1e5", "-0", "3.", "1_0", "\u0661", "2\r",
           "0.1", "3.4e38"]
# "-1e39" is finite in float64, not in float32
_BAD_TOKENS = ["nan", "inf", "#", "x", "", "1\x1c", "-1e39"]


@st.composite
def vector_files(draw, words=_WORDS, ends=("\n", "\r\n")):
    """A header and lines of which about one in five has a defect."""
    dim = draw(st.integers(1, 3))
    n_lines = draw(st.integers(0, 12))
    lines = []
    for _ in range(n_lines):
        word = draw(st.sampled_from(words))
        tokens = [draw(st.sampled_from(_TOKENS)) for _ in range(dim)]
        end = draw(st.sampled_from(ends))
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
def test_block_parser_matches_reference(tmp_path_factory, case, block_rows):
    text, max_vocab = case
    path = tmp_path_factory.getbasetemp() / "reference.vec"
    assert_matches_reference(path, text, max_vocab, block_rows)


# ---------------------------------------------------------------------------
# parsing in several processes against the parse in one
# ---------------------------------------------------------------------------


@contextmanager
def recorded_forks():
    """The pids of the workers forked inside the block, each checked to be reaped."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", recording_fork):
        try:
            yield pids
        finally:
            for pid in pids:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)


def load_outcome(path, parts, max_vocab=None):
    with mock.patch.object(embeddings, "_n_parts", lambda store_bytes: parts):
        return _outcome(lambda: load_embedding_store(path, max_vocab))


def assert_split_matches_one_part(path, parts, max_vocab=None, block_rows=1):
    """The outcome of a parse in ``parts`` parts, which must equal one part's,
    and the number of workers it forked. The blocks are ``block_rows`` rows,
    so that the workers' blocks hold rows of even a short file."""
    with mock.patch.object(embeddings, "_BLOCK_ROWS", block_rows):
        with recorded_forks() as pids:
            got = load_outcome(path, parts, max_vocab)
        assert got == load_outcome(path, 1, max_vocab)
    return got, len(pids)


NFC, NFD = unicodedata.normalize("NFC", "schön"), unicodedata.normalize("NFD", "schön")


@pytest.mark.parametrize("data, parts, max_vocab, expected", [
    # duplicates whose first line is in another part's block
    (b"6 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\na 9 9\nb 0 0\n", 2, None, ("a", "b", "c", "d")),
    (b"6 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\na 9 9\nb 0 0\n", 3, None, ("a", "b", "c", "d")),
    (f"4 2\n{NFD} 1 2\nb 3 4\nc 5 6\n{NFC} 7 8\n".encode(), 2, None, (NFC, "b", "c")),
    # a duplicate whose numbers do not parse: skipped, as in one part
    (b"4 2\na 1 2\nb 3 4\nc 5 6\na x y\n", 2, None, ("a", "b", "c")),
    # line ends the text parse splits at
    (b"4 2\r\na 1 2\r\nb 3 4\r\nc 5 6\r\nd 7 8\r\n", 2, None, ("a", "b", "c", "d")),
    (b"4 2\ra 1 2\rb 3 4\nc 5 6\rd 7 8\r", 2, None, ("a", "b", "c", "d")),
    (b"5 2\na 1 2\r\nb 3 4\rc 5 6\nd 7 8\r\ne 9 0", 3, None, ("a", "b", "c", "d", "e")),
    # header counts below and above the number of lines
    (b"3 2\na 1.000000 2.000000\nb 3 4\nc 5 6\nd x\ne 1\n", 2, None, ("a", "b", "c")),
    (b"6 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\n", 2, None, "header promised 6 vectors"),
    # a count beyond what the file can hold: rows are made only for lines that fit, here
    # exactly these three with "5 4"
    (b"5 4\na 1 2 3 4\nb 5 6 7 8\nc 9 0 1 2", 2, None,
     "header promised 5 vectors, file ends after 3"),
    (b"1000000000000000 4\na 1 2 3 4\nb 5 6 7 8\nc 9 0 1 2", 2, None,
     "header promised 1000000000000000 vectors, file ends after 3"),
    (b"1000000000000000 4\na 1 2 3 4\nb 5 6 7 8\nc 9 0 1 2", 2, 2, ("a", "b")),
    # a max_vocab cut parses in parts too; no process reads the lines after it
    (b"4 2\na 1 2\nb 3 4\nc 5 6\nd x\n", 2, 2, ("a", "b")),
    # a word that holds a tab, or is empty under the word rule, in either part's block
    (b"6 2\na 1 2\nc\td 3 4\nb 5 6\nd 7 8\ne 9 0\nf 1 1\n", 2, None, "line 3: word holds a tab"),
    (b"6 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 0\nc\td 1 1\n", 2, None, "line 7: word holds a tab"),
    ("6 2\na 1 2\n\u3000 3 4\nb 5 6\nd 7 8\ne 9 0\nf 1 1\n".encode(), 2, None, "line 3: empty word"),
    ("6 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 0\n\u3000 1 1\n".encode(), 2, None, "line 7: empty word"),
])
def test_split_parse_matches_one_part_examples(tmp_path, data, parts, max_vocab, expected):
    path = tmp_path / "vecs.txt"
    path.write_bytes(data)
    got, n_workers = assert_split_matches_one_part(path, parts, max_vocab)
    assert n_workers == parts - 1
    if isinstance(expected, tuple):
        assert got[:2] == ("store", expected)
    else:
        assert got[0] == "error" and expected in got[1]


def test_short_lines_in_a_workers_blocks_let_no_rows_past_the_array(tmp_path):
    # the file's size leaves room for 9 rows; this process's blocks hold 6 good lines
    lines = ["a 1 2 3 4\n", "b 1 2 3 4\n", "c x\n", "d x\n", "e 1 2 3 4\n", "f 1 2 3 4\n",
             "g x\n", "h x\n", "i 1 2 3 4\n", "j 1 2 3 4\n"]
    path = write_text(tmp_path / "vecs.txt", "10 4\n" + "".join(lines))
    got, n_workers = assert_split_matches_one_part(path, 2, block_rows=2)
    assert (n_workers, got) == (1, ("error", f"{path}:line 4: expected word plus 4 values, "
                                              "found 1", 4))


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("defect", range(6))
def test_split_parse_reports_a_defect_in_any_range(tmp_path, parts, defect):
    lines = [f"w{i} {'x' if i == defect else i} 2\n" for i in range(6)]
    path = tmp_path / "vecs.txt"
    path.write_text("6 2\n" + "".join(lines), encoding="utf-8")
    got, n_workers = assert_split_matches_one_part(path, parts)
    assert n_workers == parts - 1
    assert got == ("error", f"{path}:line {defect + 2}: non-numeric vector component", defect + 2)


@settings(max_examples=300, deadline=None)
@given(
    case=vector_files(words=[*_WORDS, "b\udcff"], ends=("\n", "\r\n", "\r")),
    parts=st.integers(2, 3),
    block_rows=st.integers(1, 4),
)
def test_split_parse_matches_one_part(tmp_path_factory, case, parts, block_rows):
    text, max_vocab = case
    path = write_text(tmp_path_factory.getbasetemp() / "split.vec", text)
    assert_split_matches_one_part(path, parts, max_vocab, block_rows)


def _vector_file(tmp_path, n=30):
    path = tmp_path / "vecs.txt"
    path.write_text(f"{n} 2\n" + "".join(f"w{i} {i} -{i}.5\n" for i in range(n)), encoding="utf-8")
    return path


def test_a_killed_worker_leaves_the_exact_store(tmp_path):
    path = _vector_file(tmp_path)
    parent, parse_lines = os.getpid(), embeddings._parse_lines

    def dying_in_workers(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse_lines(*args)

    with mock.patch.object(embeddings, "_parse_lines", dying_in_workers):
        got, n_workers = assert_split_matches_one_part(path, 3)
    assert n_workers == 2
    assert got[:2] == ("store", tuple(f"w{i}" for i in range(30)))


def test_an_interrupt_in_the_parents_part_ends_every_worker(tmp_path):
    path = _vector_file(tmp_path)
    parent, parse_lines = os.getpid(), embeddings._parse_lines

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # a worker still running when the interrupt comes
        return parse_lines(*args)

    started = time.monotonic()
    with recorded_forks() as pids, mock.patch.object(embeddings, "_parse_lines", interrupted):
        with pytest.raises(KeyboardInterrupt):
            load_outcome(path, 3)
    assert len(pids) == 2
    assert time.monotonic() - started < 10


def _ended(pid: int) -> bool:
    """Whether ``pid`` has exited; a zombie counts, as its reaping may lag."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_a_worker_ends_when_its_parent_is_killed(tmp_path):
    path = _vector_file(tmp_path)
    # the parent prints its worker's pid; both sleep in their part
    script = (
        "import os, time\n"
        "from unittest import mock\n"
        "from lexiforge import embeddings\n"
        "fork = os.fork\n"
        "def fork_and_tell():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        print(pid, flush=True)\n"
        "    return pid\n"
        "with mock.patch.object(os, 'fork', fork_and_tell), \\\n"
        "        mock.patch.object(embeddings, '_n_parts', lambda store_bytes: 2), \\\n"
        "        mock.patch.object(embeddings, '_parse_lines', lambda *a: time.sleep(60)):\n"
        f"    embeddings.load_embedding_store({str(path)!r})\n"
    )
    package_root = str(Path(embeddings.__file__).resolve().parents[1])
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": package_root}, text=True)
    worker = None
    try:
        worker = int(parent.stdout.readline())
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 2
        while not _ended(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _ended(worker)
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        if worker is not None:
            with suppress(ProcessLookupError):
                os.kill(worker, signal.SIGKILL)


def test_a_fork_that_fails_leaves_the_exact_store(tmp_path):
    path = _vector_file(tmp_path)
    fork, calls = os.fork, []

    def failing_second_fork():
        calls.append(len(calls))
        if len(calls) == 2:  # as under a process limit
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    with mock.patch.object(os, "fork", failing_second_fork):
        got, n_workers = assert_split_matches_one_part(path, 3)
    assert (n_workers, len(calls)) == (1, 2)
    assert got[:2] == ("store", tuple(f"w{i}" for i in range(30)))


def test_without_fork_the_parse_uses_one_part(tmp_path, monkeypatch):
    path = _vector_file(tmp_path)
    expected = load_outcome(path, 1)
    monkeypatch.delattr(os, "fork")
    with mock.patch.object(embeddings, "_fork_part") as fork_part:
        assert load_outcome(path, 3) == expected
    fork_part.assert_not_called()


def test_with_another_thread_the_parse_uses_one_part(tmp_path):
    path = _vector_file(tmp_path)
    expected = load_outcome(path, 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with mock.patch.object(embeddings, "_fork_part") as fork_part:
            assert load_outcome(path, 3) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    fork_part.assert_not_called()


@pytest.mark.parametrize("store_mib, resident_mib, cores, parts", [
    (114, 45, 2, 2),  # a 100k x 300 float32 store, as the run stage meets it
    (23, 45, 2, 1),  # 20k x 300
    (229, 45, 2, 2),
    (46, 45, 2, 1),
    (4578, 45, 8, 8),
    (229, 45, 1, 1),
])
def test_parts_follow_the_store_size_and_the_usable_cores(store_mib, resident_mib, cores, parts):
    with mock.patch.object(embeddings, "_resident_bytes", return_value=resident_mib << 20), \
            mock.patch.object(embeddings, "usable_cores", return_value=cores):
        assert embeddings._n_parts(store_mib << 20) == parts


# ---------------------------------------------------------------------------
# the float32 store
# ---------------------------------------------------------------------------


def test_store_holds_float32_rounded_to_nearest():
    vectors = np.array([[0.1, -2.5e-8], [1 / 3, 3.4e38]])
    store = EmbeddingStore(["a", "b"], vectors)
    assert store.vectors.dtype == np.float32 and store.vectors.flags.c_contiguous
    assert store.vectors.tobytes() == vectors.astype(np.float32).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast's overflow warning does not leak
        with pytest.raises(ValueError, match="vectors must be finite"):
            EmbeddingStore(["a"], np.array([[1.0, 1e39]]))


_OUTSIDE = "vector component outside the float32 range"


@pytest.mark.parametrize("data, max_vocab, expected", [
    # in a kept line of the first or a later block
    (b"4 2\na 1 2\nb 1e39 4\nc 5 6\nd 7 8\n", None, f"line 3: {_OUTSIDE}"),
    (b"4 2\na 1 2\nb 3 4\nc 5 6\nd 7 -4e38\n", None, f"line 5: {_OUTSIDE}"),
    # in a block that numpy rejects for another token
    (b"4 2\na 1_0 2\nb 3 4\nc 5 1e39\nd 7 8\n", None, f"line 4: {_OUTSIDE}"),
    # the first defect in file order, in a line or across lines
    (b"4 2\na 1 2\nb 3 1e39\nc x 6\nd 7 8\n", None, f"line 3: {_OUTSIDE}"),
    (b"4 2\na 1 2\nb x 4\nc 1e39 6\nd 7 8\n", None, "line 3: non-numeric"),
    (b"4 2\na 1 2\nb 1e39 inf\nc 5 6\nd 7 8\n", None, "line 3: non-finite"),
    # a duplicate line's numbers are not read, nor the lines after a max_vocab cut
    (b"4 2\na 1 2\nb 3 4\nc 5 6\na 1e39 8\n", None, ("a", "b", "c")),
    (b"4 2\na 1 2\nb 3 4\nc 5 6\nd 1e39 8\n", 3, ("a", "b", "c")),
    # the ends of the range, and a component that rounds to zero
    (b"3 2\na 3.4028234e38 -3.4028234e38\nb 0.1 1e-50\nc 5 6\n", None, ("a", "b", "c")),
])
def test_a_component_beyond_float32_fails_alike_in_every_parse(tmp_path, data, max_vocab,
                                                                  expected):
    path = tmp_path / "vecs.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast's overflow warning does not leak
        got = assert_matches_reference(path, data.decode(), max_vocab)
        assert assert_split_matches_one_part(path, 2, max_vocab)[0] == got
    if isinstance(expected, tuple):
        assert got[:2] == ("store", expected)
    else:
        assert got[0] == "error" and expected in got[1]


# ---------------------------------------------------------------------------
# store cache
# ---------------------------------------------------------------------------


# words that str.splitlines would split, but a text line does not; NFC/NFD
# twins; a word whose edge is stripped
_CACHE_WORDS = ["a", "b", "a\x85b", "a\u2028b", "a\x0bb", "a\x1cb", "a\x1fb", NFC, NFD, "\x85c"]
# tokens that parse in any position, float32 rounding and range included
_CACHE_TOKENS = ["0", "1.5", "-2", "+1", "1e5", "-0", "3.", "1_0", "\u0661", "0.1", "3.4e38"]


@st.composite
def parsable_vector_files(draw):
    """A vector file without a defect: duplicates and zero lines included."""
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(st.sampled_from(_CACHE_WORDS), max_size=10))
    lines = [" ".join([word, *draw(st.lists(st.sampled_from(_CACHE_TOKENS),
                                              min_size=dim, max_size=dim))]) + "\n"
             for word in words]
    return f"{len(lines)} {dim}\n" + "".join(lines), draw(st.none() | st.integers(1, 10))


def cache_round_trip(cache_dir, path, max_vocab=None):
    """The store of ``path`` written to a cache entry and read back, and the
    entry's name."""
    key = embeddings.store_cache_key("0" * 64, max_vocab)
    embeddings.write_cached_store(cache_dir, key, load_embedding_store(path, max_vocab), path,
                                  os.stat(path))
    return embeddings.read_cached_store(cache_dir, key), key


@settings(max_examples=200, deadline=None)
@given(case=parsable_vector_files())
def test_a_cached_store_equals_the_reference_parse(tmp_path_factory, case):
    text, max_vocab = case
    root = tmp_path_factory.mktemp("cached")
    path = write_text(root / "vecs.txt", text)
    cached, _ = cache_round_trip(root / "stores", path, max_vocab)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        assert _outcome(lambda: cached) == _outcome(lambda: reference_parse(fh, max_vocab, path))
    assert isinstance(cached.vectors.base, np.memmap) or not len(cached)  # mapped, not read


def test_a_zero_count_file_and_lines_split_only_at_newline_survive_the_cache(tmp_path):
    path = write_text(tmp_path / "empty.txt", "0 3\n")
    cached, _ = cache_round_trip(tmp_path / "stores", path)
    assert (cached.words, cached.vectors.shape) == ((), (0, 3))
    path = write_text(tmp_path / "vecs.txt", f"4 1\na\x85b 1\n{NFD} 2\n{NFC} 3\na\u2028b 4\n")
    cached, _ = cache_round_trip(tmp_path / "stores", path)
    assert (cached.words, cached.n_duplicates) == (("a\x85b", NFC, "a\u2028b"), 1)


def test_an_entry_is_read_only_where_its_key_and_hashes_hold(tmp_path, caplog):
    path = write_text(tmp_path / "vecs.txt", "3 2\na 1 2\nb 3 4\na 5 6\n")
    cached, key = cache_round_trip(tmp_path / "stores", path)
    caplog.clear()
    assert embeddings.read_cached_store(tmp_path / "stores", key).n_duplicates == 1
    assert "ignored 1 duplicate words" in caplog.text  # logged as the parse logs it
    assert cached.words == ("a", "b")
    assert not cached.vectors.flags.writeable
    keys = {embeddings.store_cache_key(sha, max_vocab)
            for sha in ("0" * 64, "1" * 64) for max_vocab in (None, 1, 2)}
    assert len(keys) == 6 and key in keys
    assert embeddings.read_cached_store(tmp_path / "stores", embeddings.store_cache_key(
        "0" * 64, 2)) is None
    assert embeddings.read_cached_store(tmp_path / "absent", key) is None
    entry = tmp_path / "stores" / f"{key}.store"
    rows = np.load(entry, mmap_mode="r")
    data = bytearray(entry.read_bytes())
    data[rows.offset + rows.nbytes - 1] ^= 1  # the last row's last byte
    del rows
    entry.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="rows do not match"):
        embeddings.read_cached_store(tmp_path / "stores", key)


def test_a_file_changed_after_its_hash_was_taken_gets_no_entry(tmp_path):
    path = write_text(tmp_path / "vecs.txt", "1 1\na 1\n")
    hashed = os.stat(path)
    store = load_embedding_store(write_text(path, "1 1\nbc 1\n"))
    with pytest.raises(ValueError, match="changed after its SHA-256 was taken"):
        embeddings.write_cached_store(tmp_path / "stores", "k", store, path, hashed)
    assert not (tmp_path / "stores").exists()


def test_the_cache_directory_follows_xdg_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert embeddings.store_cache_dir() == tmp_path / "lexiforge" / "stores"
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for relative_or_unset in ("cache", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", relative_or_unset)
        assert embeddings.store_cache_dir() == tmp_path / "home/.cache/lexiforge/stores"


def test_the_parse_writes_no_cache_entry(store_cache_home, tmp_path):
    load_embedding_store(write_text(tmp_path / "vecs.txt", "1 1\na 1\n"))
    assert not any(store_cache_home.iterdir())


def _entry_files(*keys):
    return {f"{key}.store" for key in keys}


def test_a_miss_removes_every_other_entry_and_the_temporaries_of_ended_writers(tmp_path):
    cache = tmp_path / "stores"
    files = {name: write_text(tmp_path / f"{name}.txt", f"1 1\n{name} 1\n")
             for name in ("kept", "deleted", "other")}
    keys = {}
    for i, (name, path) in enumerate(files.items()):
        keys[name] = embeddings.store_cache_key(f"{i:064d}", None)
        embeddings.write_cached_store(cache, keys[name], load_embedding_store(path), path,
                                      os.stat(path))
        assert {p.name for p in cache.iterdir()} == _entry_files(keys[name])
    files["deleted"].unlink()
    dead = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True).stdout.strip()
    # an entry of format 1, whole or not, and one of its writer's temporary files
    format_1 = [cache / f"{'e' * 64}{suffix}" for suffix in (".json", ".npy", ".words")]
    format_1.append(cache / f"{keys['kept']}.npy.{dead}.x1_y.tmp")
    # pid 0 is no process's: os.kill(0, 0) would signal this process group
    temporaries = [cache / f"{keys['kept']}.store.{pid}.tmp" for pid in (dead, 0, os.getppid())]
    unrelated = cache / "notes.txt"
    for path in (*format_1, *temporaries, unrelated):
        path.write_bytes(b"part of a file")
    embeddings.write_cached_store(cache, keys["kept"], load_embedding_store(files["kept"]),
                                  files["kept"], os.stat(files["kept"]))
    left = {p.name for p in cache.iterdir()}
    assert left == _entry_files(keys["kept"]) | {temporaries[2].name, unrelated.name}
    assert embeddings.read_cached_store(cache, keys["kept"]).words == ("kept",)


_KILLED_WRITER = """
import os
import sys
from pathlib import Path

import numpy as np

from lexiforge import embeddings

save = np.save


def save_then_die(fh, *args, **kwargs):
    save(fh, *args, **kwargs)
    fh.flush()
    os._exit(9)


np.save = save_then_die
path = Path(sys.argv[2])
embeddings.write_cached_store(Path(sys.argv[1]), sys.argv[3],
                              embeddings.load_embedding_store(path), path, os.stat(path))
"""


def test_a_writer_stopped_after_the_rows_leaves_no_entry_behind(tmp_path):
    cache = tmp_path / "stores"
    path = write_text(tmp_path / "vecs.txt", "2 1\na 1\nb 2\n")
    key = embeddings.store_cache_key("0" * 64, None)
    package_root = str(Path(embeddings.__file__).resolve().parents[1])
    # killed: its temporary file stays, until the next miss
    killed = subprocess.Popen([sys.executable, "-c", _KILLED_WRITER, str(cache), str(path), key],
                              env={**os.environ, "PYTHONPATH": package_root},
                              stderr=subprocess.PIPE)
    _, err = killed.communicate(timeout=60)
    assert killed.returncode == 9, err
    temporary = cache / f"{key}.store.{killed.pid}.tmp"
    assert [p.name for p in cache.iterdir()] == [temporary.name]
    assert temporary.stat().st_size > 0
    assert embeddings.read_cached_store(cache, key) is None
    other = embeddings.store_cache_key("1" * 64, None)
    embeddings.write_cached_store(cache, other, load_embedding_store(path), path, os.stat(path))
    assert {p.name for p in cache.iterdir()} == _entry_files(other)


def test_an_entry_is_written_only_where_its_size_stays_free_beside_it(tmp_path, monkeypatch):
    path = write_text(tmp_path / "vecs.txt", "2 2\nab 1 2\ncd 3 4\n")
    store = load_embedding_store(path)
    size = store.vectors.nbytes + len("ab\ncd")

    def disk_with(free):
        return lambda _: os.statvfs_result((4096, 1, 10**9, free, free, 0, 0, 0, 0, 255))

    monkeypatch.setattr(os, "statvfs", disk_with(2 * size - 1))
    with pytest.raises(OSError, match=f"{2 * size - 1} bytes free on its disk, less than "
                                      f"twice the {size}-byte entry"):
        embeddings.write_cached_store(tmp_path / "stores", "k", store, path, os.stat(path))
    assert not any((tmp_path / "stores").iterdir())
    monkeypatch.setattr(os, "statvfs", disk_with(2 * size))
    embeddings.write_cached_store(tmp_path / "stores", "k", store, path, os.stat(path))
    assert embeddings.read_cached_store(tmp_path / "stores", "k").words == ("ab", "cd")


def test_embed_term_widens_the_float32_rows_before_averaging():
    u32, v32 = np.float32([0.1, 1 / 3]), np.float32([0.7, 2 / 3])
    store = make_store({"u": u32.tolist(), "v": [0.7, 2 / 3]})
    vec, tag = embed_term(store, "u")
    assert vec.dtype == np.float64 and vec.tobytes() == u32.astype(np.float64).tobytes()
    vec, tag = embed_term(store, "u-v")
    expected = (u32.astype(np.float64) + v32.astype(np.float64)) / 2
    assert tag == "averaged" and vec.tobytes() == expected.tobytes()


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
    rows, tags = embed_matrix(store, words)
    matrix = np.asarray(rows)
    for i, word in enumerate(words):
        vec, tag = embed_term(store, word)
        assert np.array_equal(matrix[i], vec)
        assert tags[i] == tag


def test_word_rows_take_equals_indexing_their_matrix():
    rng = np.random.default_rng(6)
    parts = ["x", "y", "z", "nope", "x-y", "x z", "q'q"]
    words = [str(rng.choice(parts)) for _ in range(40)]
    vocab = {**VOCAB, "z": [0.1, 1 / 3, -2.7]}  # rounded in float32
    for store in (make_store(vocab), EmbeddingStore([], np.empty((0, 3)))):
        rows, tags = embed_matrix(store, words)
        # each row of embed_term rounded once, an average from its float64 mean
        rounded = np.array([embed_term(store, word)[0] for word in words], dtype=np.float32)
        matrix = np.asarray(rows)
        assert matrix.dtype == np.float32 and matrix.tobytes() == rounded.tobytes()
        assert rows.shape == matrix.shape == (40, 3) and len(rows) == 40
        order = rng.permutation(40)[:25]
        got = rows.take(order, np.empty((25, 3), dtype=np.float32))
        assert got.tobytes() == rounded[order].tobytes()
        got = rows.take(slice(5, 9), np.empty((4, 3), dtype=np.float32))
        assert got.tobytes() == rounded[5:9].tobytes()
    assert set(tags) == {"zero"}  # nothing is found in the empty store
    assert not matrix.any()
