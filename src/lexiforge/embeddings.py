"""Word vector store with multi-token and out-of-vocabulary fallback.

Vector files use the common text format: a ``<count> <dim>`` header
followed by one ``word v1 ... v_dim`` line per word, single-space
separated; words are stored by ``lexicon.normalize_word``. A large file
is parsed on several cores, each process reading every line and parsing
the numbers of its share of the row blocks, with the same result as in
one process; a store cache entry keeps the parse's result, so that
later runs of the same file map its rows instead of parsing it again.
Vectors are stored as float32, each component rounded to nearest from
its float64 value; the network computes in that type, and ridge
regression widens them to float64.
Lookup never fails: terms missing from the vocabulary are split on
spaces, apostrophes, and hyphens, the found parts averaged, and the
zero vector used when nothing is recognized.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import hashlib
import io
import json
import logging
import mmap
import os
import re
import signal
import tempfile
import threading
import unicodedata
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError
from .lexicon import normalize_word

log = logging.getLogger(__name__)

# space, ASCII apostrophe, typographic apostrophe, hyphen-minus
_SEPARATOR_RE = re.compile("[ '’-]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# Kept lines whose numbers are parsed in one call, which is the unit that
# the parse's processes share out, and rows checked for finiteness at
# once. It bounds the text held at once, and the check's mask; larger
# blocks parsed no faster and left the process with more resident memory
# after the parse.
_BLOCK_ROWS = 512

# prctl option: the signal the kernel sends this process when its parent dies
_PR_SET_PDEATHSIG = 1

# The store's component type: that of fastText's vectors. A component
# printed with four decimals round-trips through it, and it takes half
# the memory of float64.
STORE_DTYPE = np.dtype(np.float32)

# A float64 value of smaller magnitude rounds to a finite STORE_DTYPE
# value: half-way between the largest finite one and the next power of 2.
_STORE_LIMIT = (float(np.finfo(STORE_DTYPE).max) + 2.0 ** np.finfo(STORE_DTYPE).maxexp) / 2


class EmbeddingStore:
    """Immutable vocabulary-to-vector mapping of fixed dimension.

    ``vectors`` is held as C-contiguous ``STORE_DTYPE``, rounded to
    nearest; a component beyond its range becomes infinite and is
    rejected.
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
        with np.errstate(over="ignore"):  # the finiteness check below reports it
            vectors = np.ascontiguousarray(vectors, dtype=STORE_DTYPE)
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

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self._index[word]]


def all_finite(rows: np.ndarray) -> bool:
    """Whether every entry of ``rows`` is finite in ``STORE_DTYPE``, checked
    ``_BLOCK_ROWS`` rows at a time.

    Rows of another type are compared with ``_STORE_LIMIT``, not cast: a
    cast block would take more memory than the comparison's mask.
    """
    blocks = (rows[lo:lo + _BLOCK_ROWS] for lo in range(0, len(rows), _BLOCK_ROWS))
    if rows.dtype == STORE_DTYPE:
        return all(np.isfinite(block).all() for block in blocks)
    return all(np.less(block, _STORE_LIMIT).all() and np.greater(block, -_STORE_LIMIT).all()
               for block in blocks)


def load_embedding_store(path, max_vocab: int | None = None) -> EmbeddingStore:
    """Parse a text vector file, keeping at most ``max_vocab`` entries.

    Entries are read in file order; with ``max_vocab`` set, reading
    stops once that many entries are stored, so the tail of a large file
    is never touched. Words are stored by ``normalize_word``; one empty
    under that rule, or holding a tab, is an error. A duplicate word keeps
    its first vector (the number of ignored lines is logged and recorded
    on the store). The error raised is the first defect in file order.

    The numbers of each block of ``_BLOCK_ROWS`` kept lines go through
    numpy's C text parser; a block it rejects, or cannot vouch for, is
    parsed again line by line, which yields the same rows or the exact
    error.

    Unless this process runs other threads, the file is parsed in
    ``_n_parts`` processes: this one and a forked worker for each other
    part. Each reads every line and decides alike which lines are kept
    and at which row, but parses the numbers of every ``_n_parts``-th
    block only, into one shared array. If any of them fails, a fork
    included, the file is parsed again in one process, so the store and
    any ParseError are exactly those of one process. No worker outlives
    the call, nor this process.
    """
    with _open_text(path) as stream:
        count, dim, n_keep = _read_header(stream, max_vocab, path)
        # A fork copies only this thread, so a lock another thread holds
        # would stay held in the worker; an empty map cannot be made.
        n_parts = 1
        if hasattr(os, "fork") and threading.active_count() == 1 and n_keep:
            n_parts = _n_parts(n_keep * dim * STORE_DTYPE.itemsize)
        parsed = None
        if n_parts > 1:
            shared = mmap.mmap(-1, n_keep * dim * STORE_DTYPE.itemsize)
            vectors = np.frombuffer(shared, dtype=STORE_DTYPE).reshape(n_keep, dim)
            workers: list[int] = []
            try:
                for part in range(1, n_parts):
                    workers.append(_fork_part(path, vectors, count, part, n_parts))
                parsed = _parse_lines(stream, vectors, count, path, 0, n_parts)
                while workers:
                    if os.waitpid(workers[-1], 0)[1]:
                        parsed = None
                    workers.pop()
            except (OSError, ParseError):
                # a fork or read that failed, or a defect that one in a
                # worker's block may precede
                parsed = None
            finally:
                for pid in workers:  # after an exception: end the workers left
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            if parsed is None:
                del shared, vectors  # before the parse in one process fills its own
                stream.seek(0)
                stream.readline()
        if parsed is None:
            vectors = np.empty((n_keep, dim), dtype=STORE_DTYPE)
            parsed = _parse_lines(stream, vectors, count, path)
    words, index, duplicates = parsed
    if duplicates:
        log.warning("embedding file: ignored %d duplicate words", duplicates)
    return EmbeddingStore(words, vectors[: len(words)], n_duplicates=duplicates, index=index)


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
    the workers may add at most half the store to what the process tree
    holds; each takes one usable core.
    """
    try:
        resident = _resident_bytes()
    except OSError:
        return 1
    return min(usable_cores(), 1 + store_bytes // (2 * resident))


def _open_text(path) -> io.TextIOWrapper:
    # undecodable bytes become surrogates, so the parser can name their line
    return open(path, encoding="utf-8", errors="surrogateescape")


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


def _fork_part(path, vectors: np.ndarray, count: int, part: int, n_parts: int) -> int:
    """Fork a worker that parses part ``part`` of ``n_parts`` into ``vectors``.

    The worker reads the file from its start on its own descriptor, and
    leaves by ``os._exit``, so it runs none of the caller's cleanup, with
    status 1 if it failed; its pid is returned. Where libc has
    ``prctl``, the kernel kills it when the caller dies.
    """
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with contextlib.suppress(AttributeError, OSError):  # no prctl here
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:  # the caller died before the call
                os._exit(1)
            with _open_text(path) as stream:
                stream.readline()
                _parse_lines(stream, vectors, count, path, part, n_parts)
            status = 0
        finally:
            os._exit(status)
    return pid


def _parse_lines(
    stream: Iterable[str], vectors: np.ndarray, count: int, path, part: int = 0, n_parts: int = 1
) -> tuple[list[str], dict[str, int], int]:
    """Parse the at most ``count`` lines after the header into ``vectors``,
    one row per new word, until ``vectors`` is full.

    Of block b, rows ``b * _BLOCK_ROWS`` on, the numbers are parsed only
    where b % ``n_parts`` is ``part``. Returns the words, their index and
    the number of duplicate lines.
    """
    dim = vectors.shape[1]
    words: list[str] = []
    index: dict[str, int] = {}
    duplicates = 0
    lines_read = 0
    # the kept lines of this part's block not yet stored in ``vectors``:
    # line numbers and the text after the word
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

    for line_no, raw in enumerate(stream, start=2):
        if lines_read >= count or len(words) >= len(vectors):
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
        if len(words) // _BLOCK_ROWS % n_parts == part:
            line_nos.append(line_no)
            rests.append(rest)
        index[word] = len(words)
        words.append(word)
        if len(words) % _BLOCK_ROWS == 0:
            store_block()
    store_block()
    if lines_read < count and len(words) < len(vectors):
        raise ParseError(
            f"header promised {count} vectors, file ends after {lines_read}",
            line_no=lines_read + 1, path=path,
        )
    return words, index, duplicates


def _parse_numbers(rests: list[str], dim: int) -> np.ndarray | None:
    """The ``(len(rests), dim)`` rows of a block as finite ``STORE_DTYPE``, or None.

    None means numpy rejected the block, accepted a token that
    ``float()`` rejects, or a component is not finite in the store's
    type; the caller then finds the defect line by line.
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
    if rows.shape != (len(rests), dim):
        return None
    with np.errstate(over="ignore"):  # beyond the store's range is inf, rejected below
        rows = rows.astype(STORE_DTYPE)
    return rows if np.isfinite(rows).all() else None


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
    with np.errstate(over="ignore"):
        if not np.isfinite(np.array(row, dtype=STORE_DTYPE)).all():
            raise ParseError(
                f"vector component outside the {STORE_DTYPE} range", line_no=line_no, path=path
            )
    return row


def _decodable(text: str) -> bool:
    """False if ``text`` holds a surrogate, which is how an undecodable byte reads."""
    return text.isascii() or _SURROGATE_RE.search(text) is None


def _check_decoded(text: str, line_no: int, path) -> None:
    if not _decodable(text):
        raise ParseError("invalid UTF-8 byte sequence", line_no=line_no, path=path)


# Part of every store cache key: bump it whenever the parse's result for
# the same bytes changes, so that no entry of an older parse is read.
STORE_CACHE_FORMAT = 1

# The files of one entry: the record of the other two's SHA-256, the rows
# and the words. A write replaces the record last.
_ENTRY_SUFFIXES = (".json", ".npy", ".words")


def store_cache_dir() -> Path:
    """Where store cache entries live: ``$XDG_CACHE_HOME/lexiforge/stores``,
    under ``~/.cache`` if that variable is unset or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "lexiforge", "stores")


def store_cache_key(file_sha256: str, max_vocab: int | None) -> str:
    """The entry name of the store parsed from a vector file with this
    SHA-256 and ``max_vocab``; it also covers the cache format and the
    Unicode version that NFC follows."""
    fields = [STORE_CACHE_FORMAT, unicodedata.unidata_version, file_sha256, max_vocab]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def read_cached_store(cache_dir: Path, key: str) -> EmbeddingStore | None:
    """The store of entry ``key``, its rows mapped read-only; None if there is none.

    The rows and the words must have the SHA-256 that the entry records,
    and the store is built through ``EmbeddingStore``'s checks; an entry
    that cannot be read or fails a check raises OSError or ValueError.
    The duplicate count is logged as the parse logs it.
    """
    try:
        record = json.loads((cache_dir / f"{key}.json").read_bytes())
    except (FileNotFoundError, NotADirectoryError):
        return None
    try:
        rows = np.load(cache_dir / f"{key}.npy", mmap_mode="r", allow_pickle=False)
        text = (cache_dir / f"{key}.words").read_bytes()
        if rows.dtype != STORE_DTYPE or not rows.flags.c_contiguous:
            raise ValueError(f"rows are not C-ordered {STORE_DTYPE}")
        if hashlib.sha256(rows).hexdigest() != record["rows_sha256"]:
            raise ValueError("rows do not match their recorded SHA-256")
        if hashlib.sha256(text).hexdigest() != record["words_sha256"]:
            raise ValueError("words do not match their recorded SHA-256")
        duplicates = record["n_duplicates"]
        if type(duplicates) is not int or duplicates < 0:
            raise ValueError(f"duplicate count {duplicates!r}")
    except (EOFError, KeyError, TypeError) as exc:  # a short .npy header, a malformed record
        raise ValueError(f"malformed entry: {exc!r}") from None
    # joined on "\n" alone: a word may hold other characters that end a line
    store = EmbeddingStore(text.decode("utf-8").split("\n") if text else [], rows,
                           n_duplicates=duplicates)
    if duplicates:
        log.warning("embedding file: ignored %d duplicate words", duplicates)
    return store


def write_cached_store(
    cache_dir: Path, key: str, store: EmbeddingStore, source, keyed: os.stat_result
) -> None:
    """Write ``store``, parsed from the vector file ``source``, as entry
    ``key``, the only entry that the cache then holds.

    ``keyed`` is the file's ``os.stat`` from before the SHA-256 in the key
    was taken; a file whose size or mtime has changed since raises
    ValueError, as its store may not be that of the key. Every other
    entry's files, whole or not, and the temporary files of writers that
    have ended are removed first. An entry that would leave less free
    space on its disk than its own size is not written. Each file is
    written under a unique temporary name, which then replaces it, so
    concurrent writers of one entry do not clash; a write that fails
    removes the entry's files already in place. Raises OSError.
    """
    now = os.stat(source)
    if (now.st_size, now.st_mtime_ns) != (keyed.st_size, keyed.st_mtime_ns):
        raise ValueError(f"{source} changed after its SHA-256 was taken")
    cache_dir.mkdir(parents=True, exist_ok=True)
    _remove_other_entries(cache_dir, key)
    text = "\n".join(store.words).encode("utf-8")
    size = store.vectors.nbytes + len(text)
    disk = os.statvfs(cache_dir)
    free = disk.f_bavail * disk.f_frsize
    if free - size < size:
        raise OSError(errno.ENOSPC, f"{free} bytes free on its disk, less than twice "
                                    f"the {size}-byte entry")
    record = {
        "n_duplicates": store.n_duplicates,
        "rows_sha256": hashlib.sha256(store.vectors).hexdigest(),
        "words_sha256": hashlib.sha256(text).hexdigest(),
    }
    try:
        _replace(cache_dir / f"{key}.npy",
                 lambda fh: np.save(fh, store.vectors, allow_pickle=False))
        _replace(cache_dir / f"{key}.words", lambda fh: fh.write(text))
        _replace(cache_dir / f"{key}.json", lambda fh: fh.write(json.dumps(record).encode()))
    except BaseException:
        for suffix in _ENTRY_SUFFIXES:
            with contextlib.suppress(OSError):
                os.unlink(cache_dir / f"{key}{suffix}")
        raise


def _replace(path: Path, write) -> None:
    """Let ``write`` fill a new binary file that then replaces ``path``.

    The file is named ``<path>.<pid>.<unique>.tmp`` until then, and is
    removed if ``write`` or the replacement fails.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.{os.getpid()}.",
                               suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _remove_other_entries(cache_dir: Path, keep: str) -> None:
    """Remove the files of every entry but ``keep``, also those of an entry
    whose writer stopped before its record, and the temporary files of
    writers that have ended."""
    for path in cache_dir.iterdir():
        key, *parts = path.name.split(".")
        if (len(parts) == 1 and f".{parts[0]}" in _ENTRY_SUFFIXES and key != keep) or (
            len(parts) == 4 and parts[3] == "tmp" and parts[1].isdigit() and _ended(parts[1])
        ):
            with contextlib.suppress(OSError):
                os.unlink(path)


def _ended(pid: str) -> bool:
    """Whether no process has this id."""
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except OSError:  # another user's process
        pass
    return False


def embed_term(store: EmbeddingStore, term: str) -> tuple[np.ndarray, str]:
    """Resolve a term to a vector; never fails.

    The vector is float64. In-vocabulary terms return their stored
    vector, widened (tag ``direct``). Otherwise the term is split on
    spaces, apostrophes, and hyphens, empty parts are dropped, and the
    found parts' widened vectors are averaged (tag ``averaged``). When
    no part is recognized the zero vector is returned (tag ``zero``).
    """
    if not term:
        raise ValueError("term must be non-empty")
    idx = store._index.get(term)
    if idx is not None:
        return store.vectors[idx].astype(np.float64), "direct"
    hits = [
        store._index[part]
        for part in _SEPARATOR_RE.split(term)
        if part and part in store._index
    ]
    if not hits:
        return np.zeros(store.dimension), "zero"
    return store.vectors[hits].astype(np.float64).mean(axis=0), "averaged"


@dataclass(frozen=True, eq=False)
class WordRows:
    """The vectors of an ordered word list, gathered from the store on demand.

    Row i is ``embed_term(store, words[i])`` rounded to ``STORE_DTYPE``:
    ``rows[i]`` is its row in the store's vectors, or ``len(store) + j``
    for row j of ``extra``, which holds the averaged and zero vectors.
    Copying rows out writes only to the caller's buffers, so threads may
    share one instance.
    """

    store: EmbeddingStore
    rows: np.ndarray
    extra: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray) -> WordRows:
        """A 2-d matrix's rows, held in ``extra`` in their own type, over an empty store."""
        matrix = np.ascontiguousarray(matrix)
        store = EmbeddingStore((), np.empty((0, matrix.shape[1]), STORE_DTYPE))
        return cls(store, np.arange(len(matrix)), matrix)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.store.dimension

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, indices, out: np.ndarray) -> np.ndarray:
        """Copy the rows at ``indices`` (an index array or a slice) into
        ``out``: a ``STORE_DTYPE`` array, of any float type for an empty store."""
        rows = self.rows[indices]
        n_store = len(self.store)
        if n_store:
            # a row of ``extra`` reads the last store row and is overwritten
            # below; "clip" writes straight into ``out``, where "raise"
            # would buffer a copy
            np.take(self.store.vectors, rows, axis=0, out=out, mode="clip")
        if len(self.extra):
            # row by row: assigning them all at once would copy them first
            for i in np.flatnonzero(rows >= n_store).tolist():
                out[i] = self.extra[rows[i] - n_store]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A new matrix of all rows, in ``dtype`` or else their own type.

        Into another type the rows are converted ``_BLOCK_ROWS`` at a time,
        so no second matrix of them is built.
        """
        own = np.result_type(self.store.vectors, self.extra)
        matrix = np.empty(self.shape, own if dtype is None else dtype)
        if matrix.dtype == own:
            return self.take(slice(None), matrix)
        block = np.empty((min(len(self), _BLOCK_ROWS), self.shape[1]), own)
        for lo in range(0, len(self), _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, len(self))
            matrix[lo:hi] = self.take(slice(lo, hi), block[: hi - lo])
        return matrix


def embed_matrix(store: EmbeddingStore, words: Sequence[str]) -> tuple[WordRows, list[str]]:
    """Resolve an ordered word list by embed_term, without copying store rows.

    Row i of the returned rows is ``embed_term(store, words[i])``, rounded
    once to ``STORE_DTYPE``: exact for a stored vector, to nearest for
    the float64 mean of an averaged one. The second return value carries
    the per-row resolution tags.
    """
    rows = [store._index.get(word, -1) for word in words]
    tags = ["direct"] * len(words)
    extra = []
    for i, row in enumerate(rows):
        if row < 0:
            vector, tags[i] = embed_term(store, words[i])
            rows[i] = len(store) + len(extra)
            extra.append(vector)
    extra = np.array(extra, dtype=STORE_DTYPE).reshape(len(extra), store.dimension)
    return WordRows(store, np.array(rows, dtype=np.intp), extra), tags
