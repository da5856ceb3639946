"""Word vector store with multi-token and out-of-vocabulary fallback.

Vector files use the common text format: a ``<count> <dim>`` header
followed by one ``word v1 ... v_dim`` line per word, single-space
separated; words are NFC-normalised on parse. Lookup never fails:
terms missing from the vocabulary are split on spaces, apostrophes, and
hyphens, the found parts averaged, and the zero vector used when
nothing is recognized.
"""

from __future__ import annotations

import logging
import re
import unicodedata
import warnings
from typing import IO, Sequence

import numpy as np

from .errors import ParseError

log = logging.getLogger(__name__)

# space, ASCII apostrophe, typographic apostrophe, hyphen-minus
_SEPARATOR_RE = re.compile("[ '’-]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# Kept lines whose numbers are parsed in one call, and rows checked for
# finiteness at once. It bounds the text held at once, and the check's
# mask; larger blocks parsed no faster and left the process with more
# resident memory after the parse.
_BLOCK_ROWS = 512

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
        if not all(
            np.isfinite(vectors[lo:lo + _BLOCK_ROWS]).all()
            for lo in range(0, len(vectors), _BLOCK_ROWS)
        ):
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


def parse_embedding_store(
    stream: IO[str], max_vocab: int | None = None, *, path=None
) -> EmbeddingStore:
    """Parse a text vector file, keeping at most ``max_vocab`` entries.

    Entries are read in file order; with ``max_vocab`` set, reading
    stops once that many entries are stored, so the tail of a large file
    is never touched. Words are NFC-normalised. A duplicate word keeps
    its first vector (the number of ignored lines is logged and recorded
    on the store). The error raised is the first defect in file order.

    The numbers of each block of kept lines go through numpy's C text
    parser; a block it rejects, or cannot vouch for, is parsed again
    line by line, which yields the same rows or the exact error.
    """
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

    n_keep = count if max_vocab is None else min(count, max_vocab)
    vectors = np.empty((n_keep, dim), dtype=np.float64)
    words: list[str] = []
    index: dict[str, int] = {}
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

    for line_no, raw in enumerate(stream, start=2):
        if lines_read >= count or len(words) >= n_keep:
            break
        lines_read += 1
        word, sep, rest = raw.partition(" ")
        if not word.isascii() and not unicodedata.is_normalized("NFC", word):
            word = unicodedata.normalize("NFC", word)
        if not sep or not word or word in index or not _decodable(word):
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
    if lines_read < count and len(words) < n_keep:
        raise ParseError(
            f"header promised {count} vectors, file ends after {lines_read}",
            line_no=lines_read + 1, path=path,
        )
    if duplicates:
        log.warning("embedding file: ignored %d duplicate words", duplicates)
    return EmbeddingStore(words, vectors[: len(words)], n_duplicates=duplicates, index=index)


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
    if not parts[0]:
        raise ParseError("empty word", line_no=line_no, path=path)
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


def load_embedding_store(path, max_vocab: int | None = None) -> EmbeddingStore:
    # undecodable bytes become surrogates, so the parser can name their line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_embedding_store(fh, max_vocab, path=path)


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


def embed_matrix(
    store: EmbeddingStore, words: Sequence[str]
) -> tuple[np.ndarray, list[str]]:
    """Stack embed_term results for an ordered word list.

    Row i is exactly ``embed_term(store, words[i])``; the second return
    value carries the per-row resolution tags.
    """
    out = np.empty((len(words), store.dimension), dtype=np.float64)
    tags: list[str] = []
    for i, word in enumerate(words):
        vec, tag = embed_term(store, word)
        out[i] = vec
        tags.append(tag)
    return out, tags
