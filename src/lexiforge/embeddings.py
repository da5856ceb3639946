"""Word vector store with multi-token and out-of-vocabulary fallback.

Vector files use the common text format: a ``<count> <dim>`` header
followed by one ``word v1 ... v_dim`` line per word, single-space
separated; words are stored by ``lexicon.normalize_word``. A large file
is parsed on several cores, with the same result as in one process.
Lookup never fails: terms missing from the vocabulary are split on
spaces, apostrophes, and hyphens, the found parts averaged, and the
zero vector used when nothing is recognized.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import logging
import mmap
import os
import pickle
import re
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ParseError
from .lexicon import normalize_word

log = logging.getLogger(__name__)

# space, ASCII apostrophe, typographic apostrophe, hyphen-minus
_SEPARATOR_RE = re.compile("[ '’-]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# Kept lines whose numbers are parsed in one call, and rows checked for
# finiteness at once. It bounds the text held at once, and the check's
# mask; larger blocks parsed no faster and left the process with more
# resident memory after the parse.
_BLOCK_ROWS = 512

# Bytes read at once while counting the lines before a range's start.
_COUNT_BYTES = 1 << 20

# prctl option: the signal the kernel sends this process when its parent dies
_PR_SET_PDEATHSIG = 1


class EmbeddingStore:
    """Immutable vocabulary-to-vector mapping of fixed dimension.

    ``index``, if given, is the ``word -> row`` dict of ``words``; the
    store adopts it instead of building a second one.
    """

    def __init__(
        self,
        words: Sequence[str],
        vectors: np.ndarray,
        n_duplicates: int = 0,
        *,
        index: dict[str, int] | None = None,
    ):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise ValueError(f"vectors shape {vectors.shape} does not match {len(words)} words")
        if not all_finite(vectors):
            raise ValueError("vectors must be finite")
        if vectors.shape[1] < 1:
            raise ValueError("dimension must be positive")
        vectors.setflags(write=False)
        self.words: tuple[str, ...] = tuple(words)
        self.vectors = vectors
        self.n_duplicates = n_duplicates
        if index is None:
            index = {w: i for i, w in enumerate(self.words)}
        self._index: dict[str, int] = index
        if len(self._index) != len(self.words):
            raise ValueError("vocabulary words must be unique")

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self._index[word]]


def all_finite(rows: np.ndarray) -> bool:
    """Whether every entry of ``rows`` is finite, checked ``_BLOCK_ROWS`` rows at a time."""
    return all(np.isfinite(rows[lo:lo + _BLOCK_ROWS]).all()
               for lo in range(0, len(rows), _BLOCK_ROWS))


def load_embedding_store(path, max_vocab: int | None = None) -> EmbeddingStore:
    """Parse a text vector file, keeping at most ``max_vocab`` entries.

    Entries are read in file order; with ``max_vocab`` set, reading
    stops once that many entries are stored, so the tail of a large file
    is never touched. Words are stored by ``normalize_word``; one empty
    under that rule, or holding a tab, is an error. A duplicate word keeps
    its first vector (the number of ignored lines is logged and recorded
    on the store). The error raised is the first defect in file order.

    The numbers of each block of kept lines go through numpy's C text
    parser; a block it rejects, or cannot vouch for, is parsed again
    line by line, which yields the same rows or the exact error.

    Unless ``max_vocab`` stops the parse early or this process runs other
    threads, the lines after the header are split into ``_n_parts``
    contiguous byte ranges: this process parses the first and a forked
    worker each other one, every range into one shared array. If a worker
    fails, or the ranges do not hold the header's count of lines, the file
    is parsed again in one process, so the store and any ParseError are
    exactly those of one process. No worker outlives the call, nor this
    process.
    """
    with _open_text(path) as stream:
        count, dim, n_keep = _read_header(stream, max_vocab, path)
        size = os.fstat(stream.fileno()).st_size
        cuts = []
        # A fork copies only this thread, so a lock another thread holds
        # would stay held in the worker. Every line holds at least a word,
        # dim spaces and an end, so a file too short for its count fails,
        # in one process.
        if (
            hasattr(os, "fork") and threading.active_count() == 1
            and n_keep == count and count * (dim + 2) <= size
        ):
            cuts = _cut_points(path, size, _n_parts(count * dim * 8), count)
        store = _parse_parts(stream, path, count, dim, n_keep, cuts)
        if store is None:
            stream.seek(0)
            stream.readline()
            store = _parse_parts(stream, path, count, dim, n_keep, [])
    return store


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resident_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _n_parts(store_bytes: int) -> int:
    """How many processes parse a file whose store takes ``store_bytes``.

    A forked worker counts this process's resident memory as its own, so
    the workers may add at most a quarter of the store to what the
    process tree holds; each takes one usable core.
    """
    try:
        resident = _resident_bytes()
    except OSError:
        return 1
    return min(usable_cores(), 1 + store_bytes // (4 * resident))


def _open_text(path, offset: int = 0) -> io.TextIOWrapper:
    """The file as text from byte ``offset``, which starts a line."""
    raw = open(path, "rb")
    if offset:
        raw.seek(offset)
    # undecodable bytes become surrogates, so the parser can name their line
    return io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")


def _read_header(stream: IO[str], max_vocab: int | None, path) -> tuple[int, int, int]:
    """The header's count and dimension, and how many entries to keep."""
    if max_vocab is not None and max_vocab < 1:
        raise ValueError(f"max_vocab must be at least 1, got {max_vocab}")
    header = stream.readline()
    if not header:
        raise ParseError("empty input, missing '<count> <dim>' header", line_no=1, path=path)
    _check_decoded(header, 1, path)
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
    return count, dim, count if max_vocab is None else min(count, max_vocab)


def _cut_points(path, size: int, n_parts: int, count: int) -> list[tuple[int, int]]:
    """Where ranges 2..``n_parts`` start: (byte offset, vector lines before it).

    Each range starts just after the first ``\\n`` at or past an equal
    share of the bytes, so it holds whole lines. A range that would
    start after the header's ``count`` lines is left out.
    """
    cuts: list[tuple[int, int]] = []
    lines, start = -1, 0  # the header is not a vector line
    with open(path, "rb") as fh:
        for k in range(1, n_parts):
            target = size * k // n_parts
            fh.seek(target)
            offset = target + len(fh.readline())
            if offset >= size:
                break
            if offset <= start:
                continue
            lines += _count_lines(fh, start, offset)
            if lines >= count:
                break
            cuts.append((offset, lines))
            start = offset
    return cuts


def _count_lines(fh: IO[bytes], start: int, stop: int) -> int:
    """Lines in bytes ``start:stop``, split as the text parse splits them.

    That is at ``\\n``, ``\\r\\n`` and a lone ``\\r``; byte ``stop - 1`` is
    a ``\\n``.
    """
    fh.seek(start)
    lines, last = 0, b""
    while start < stop:
        chunk = fh.read(min(_COUNT_BYTES, stop - start))
        if not chunk:
            break
        start += len(chunk)
        lines += chunk.count(b"\n")
        if b"\r" in chunk:
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        if last == b"\r" and chunk.startswith(b"\n"):
            lines -= 1  # one "\r\n" across two chunks
        last = chunk[-1:]
    return lines


def _parse_parts(
    stream: IO[str], path, count: int, dim: int, n_keep: int, cuts: list[tuple[int, int]]
) -> EmbeddingStore | None:
    """The store from the lines after the header, in ``len(cuts) + 1`` ranges.

    ``stream`` is read for the first range, and a forked worker parses
    each other one. Once every worker has ended, the ranges are merged in
    file order: a word keeps the vector of its first line, and the rows
    after a dropped one move up. None means a worker failed or a range
    did not hold its count of lines; the caller then parses in one range.
    """
    bounds = [0, *(lines for _, lines in cuts), count]  # vector lines before each range
    if cuts:
        shared = mmap.mmap(-1, n_keep * dim * 8)
        vectors = np.frombuffer(shared, dtype=np.float64).reshape(n_keep, dim)
    else:
        vectors = np.empty((n_keep, dim), dtype=np.float64)
    index: dict[str, int] = {}
    workers: dict[int, IO[bytes]] = {}  # pid -> read end of its pipe
    try:
        for (offset, lo), hi in zip(cuts, bounds[2:]):
            pid, pipe = _fork_part(path, offset, vectors[lo:hi], lo + 2, dim)
            workers[pid] = pipe
        parts = [_parse_lines(stream, vectors[: bounds[1]], index, bounds[1], 2, dim, path)]
        for pid, pipe in list(workers.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            parts.append(pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None)
    finally:
        for pid, pipe in workers.items():  # after an exception: end the workers left
            pipe.close()
            with contextlib.suppress(ChildProcessError):  # reaped already
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    if cuts and any(
        part is None or part[2] != hi - lo for part, lo, hi in zip(parts, bounds, bounds[1:])
    ):
        return None

    words, duplicates, lines_read = parts[0]
    rows: list[int] = []  # where the later ranges' kept words have their vectors
    for (part_words, part_duplicates, part_lines), lo in zip(parts[1:], bounds[1:]):
        duplicates += part_duplicates
        lines_read += part_lines
        for row, word in enumerate(part_words, start=lo):
            if word in index:
                duplicates += 1  # its first line is in an earlier range
            else:
                index[word] = len(words)
                words.append(word)
                rows.append(row)
    _move_rows_up(vectors, len(words) - len(rows), rows)
    if lines_read < count and len(words) < n_keep:
        raise ParseError(
            f"header promised {count} vectors, file ends after {lines_read}",
            line_no=lines_read + 1, path=path,
        )
    if duplicates:
        log.warning("embedding file: ignored %d duplicate words", duplicates)
    return EmbeddingStore(words, vectors[: len(words)], n_duplicates=duplicates, index=index)


def _fork_part(
    path, offset: int, vectors: np.ndarray, first_line_no: int, dim: int
) -> tuple[int, IO[bytes]]:
    """Fork a worker that parses ``len(vectors)`` lines from byte ``offset``.

    The worker writes its rows into ``vectors`` and sends its words,
    duplicate count and line count through a pipe; the pid and the
    pipe's read end are returned. It leaves by ``os._exit``, so it runs
    none of the caller's cleanup, with status 1 if it failed. Where libc
    has ``prctl``, the kernel kills it when the caller dies.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with contextlib.suppress(AttributeError, OSError):  # no prctl here
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:  # the caller died before the call
                os._exit(1)
            with _open_text(path, offset) as stream:
                part = _parse_lines(stream, vectors, {}, len(vectors), first_line_no, dim, path)
            with open(write_fd, "wb") as pipe:
                pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _move_rows_up(vectors: np.ndarray, start: int, rows: list[int]) -> None:
    """Copy rows ``rows``, increasing and none below its target, to ``start`` on."""
    rows = np.asarray(rows, dtype=np.intp)
    moved = np.flatnonzero(rows != np.arange(start, start + len(rows)))
    if moved.size:
        for lo in range(moved[0], len(rows), _BLOCK_ROWS):
            targets = slice(start + lo, start + min(lo + _BLOCK_ROWS, len(rows)))
            vectors[targets] = vectors[rows[lo : lo + _BLOCK_ROWS]]


def _parse_lines(
    stream: Iterable[str],
    vectors: np.ndarray,
    index: dict[str, int],
    max_lines: int,
    first_line_no: int,
    dim: int,
    path,
) -> tuple[list[str], int, int]:
    """Parse at most ``max_lines`` lines into ``vectors``, one row per new word.

    Stops early once ``vectors`` is full. ``index`` receives the row of
    each new word. Returns the new words, the number of duplicate lines
    and the number of lines read.
    """
    words: list[str] = []
    duplicates = 0
    lines_read = 0
    # the kept lines not yet stored in ``vectors``: line numbers and the
    # text after the word
    line_nos: list[int] = []
    rests: list[str] = []

    def store_block() -> None:
        if not rests:
            return
        start = len(words) - len(rests)
        rows = _parse_numbers(rests, dim)
        if rows is None:
            # a kept line's word passed its checks, so the stored form of
            # it gives the same results as the original
            rows = [
                _row_checked(_split_checked(f"{word} {rest}", line_no, dim, path), line_no, path)
                for word, line_no, rest in zip(words[start:], line_nos, rests)
            ]
        vectors[start:len(words)] = rows
        line_nos.clear()
        rests.clear()

    for line_no, raw in enumerate(stream, start=first_line_no):
        if lines_read >= max_lines or len(words) >= len(vectors):
            break
        lines_read += 1
        word, sep, rest = raw.partition(" ")
        word = normalize_word(word)
        if not sep or not word or "\t" in word or word in index or not _decodable(word):
            # a duplicate, or a line whose word alone shows a defect: only a
            # duplicate passes the exact checks
            try:
                _split_checked(raw, line_no, dim, path)
            except ParseError:
                store_block()  # a defect in an earlier line comes first
                raise
            duplicates += 1
            continue
        index[word] = len(words)
        words.append(word)
        line_nos.append(line_no)
        rests.append(rest)
        if len(rests) == _BLOCK_ROWS:
            store_block()
    store_block()
    return words, duplicates, lines_read


def _parse_numbers(rests: list[str], dim: int) -> np.ndarray | None:
    """The ``(len(rests), dim)`` finite rows of a block, or None to recheck.

    None means numpy rejected the block or accepted a token that
    ``float()`` rejects; the caller then finds the defect line by line.
    """
    if any(
        "\x1c" in rest or "\x1d" in rest or "\x1e" in rest or "\x1f" in rest
        for rest in rests
    ):
        return None  # numpy strips these as whitespace, float() does not
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a block of blank rests "contains no data"
            rows = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (len(rests), dim) or not np.isfinite(rows).all():
        return None
    return rows


def _split_checked(raw: str, line_no: int, dim: int, path) -> list[str]:
    """A line's word and components, after the checks that need no numbers."""
    _check_decoded(raw, line_no, path)
    parts = raw.rstrip("\n").split(" ")
    if len(parts) != dim + 1:
        raise ParseError(
            f"expected word plus {dim} values, found {len(parts) - 1}",
            line_no=line_no, path=path,
        )
    word = normalize_word(parts[0])
    if not word:
        raise ParseError("empty word", line_no=line_no, path=path)
    if "\t" in word:
        raise ParseError("word holds a tab", line_no=line_no, path=path)
    return parts


def _row_checked(parts: list[str], line_no: int, path) -> list[float]:
    try:
        row = [float(tok) for tok in parts[1:]]
    except ValueError:
        raise ParseError("non-numeric vector component", line_no=line_no, path=path) from None
    if not all(np.isfinite(row)):
        raise ParseError("non-finite vector component", line_no=line_no, path=path)
    return row


def _decodable(text: str) -> bool:
    """False if ``text`` holds a surrogate, which is how an undecodable byte reads."""
    return text.isascii() or _SURROGATE_RE.search(text) is None


def _check_decoded(text: str, line_no: int, path) -> None:
    if not _decodable(text):
        raise ParseError("invalid UTF-8 byte sequence", line_no=line_no, path=path)


def embed_term(store: EmbeddingStore, term: str) -> tuple[np.ndarray, str]:
    """Resolve a term to a vector; never fails.

    In-vocabulary terms return their stored vector (tag ``direct``).
    Otherwise the term is split on spaces, apostrophes, and hyphens,
    empty parts are dropped, and the found parts' vectors are averaged
    (tag ``averaged``). When no part is recognized the zero vector is
    returned (tag ``zero``).
    """
    if not term:
        raise ValueError("term must be non-empty")
    idx = store._index.get(term)
    if idx is not None:
        return store.vectors[idx].copy(), "direct"
    hits = [
        store._index[part]
        for part in _SEPARATOR_RE.split(term)
        if part and part in store._index
    ]
    if not hits:
        return np.zeros(store.dimension), "zero"
    return store.vectors[hits].mean(axis=0), "averaged"


@dataclass(frozen=True, eq=False)
class WordRows:
    """The vectors of an ordered word list, gathered from the store on demand.

    Row i is ``embed_term(store, words[i])``: ``rows[i]`` is its row in
    the store's vectors, or ``len(store) + j`` for row j of ``extra``,
    which holds the averaged and zero vectors. Copying rows out writes
    only to the caller's buffer, so threads may share one instance.
    """

    store: EmbeddingStore
    rows: np.ndarray
    extra: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.store.dimension

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, indices, out: np.ndarray) -> np.ndarray:
        """Copy the rows at ``indices`` (an index array or a slice) into ``out``."""
        rows = self.rows[indices]
        n_store = len(self.store)
        if n_store:
            # a row of ``extra`` reads the last store row and is overwritten
            # below; "clip" writes straight into ``out``, where "raise"
            # would buffer a copy
            np.take(self.store.vectors, rows, axis=0, out=out, mode="clip")
        if len(self.extra):
            outside = np.flatnonzero(rows >= n_store)
            out[outside] = self.extra[rows[outside] - n_store]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A new matrix of all rows; numpy casts it to ``dtype``."""
        return self.take(slice(None), np.empty(self.shape))


def embed_matrix(store: EmbeddingStore, words: Sequence[str]) -> tuple[WordRows, list[str]]:
    """Resolve an ordered word list by embed_term, without copying store rows.

    Row i of the returned rows is exactly ``embed_term(store, words[i])``;
    the second return value carries the per-row resolution tags.
    """
    rows = [store._index.get(word, -1) for word in words]
    tags = ["direct"] * len(words)
    extra = []
    for i, row in enumerate(rows):
        if row < 0:
            vector, tags[i] = embed_term(store, words[i])
            rows[i] = len(store) + len(extra)
            extra.append(vector)
    extra = np.array(extra, dtype=np.float64).reshape(len(extra), store.dimension)
    return WordRows(store, np.array(rows, dtype=np.intp), extra), tags
