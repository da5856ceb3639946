"""Emotion lexicon data model, split construction, and duplicate handling.

A lexicon maps word types to numeric emotion ratings under a declared
variable set. Entries optionally carry a train/dev/test split tag and a
provenance (human annotated, translated, or model predicted). All types
are immutable after construction; every operation returns a new object.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import unicodedata
from collections.abc import Collection, Container, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import IntegrityError, ParseError

SPLIT_TAGS = ("train", "dev", "test", "none")
PROVENANCES = ("human", "translated", "predicted")

VAD_NAMES = ("Val", "Aro", "Dom")
BE5_NAMES = ("Joy", "Ang", "Sad", "Fea", "Dis")
CANONICAL_VARIABLES = VAD_NAMES + BE5_NAMES

# Rows whose values serialize_lexicon converts to Python floats at once.
_SERIALIZE_ROWS = 1024

# Largest value spread between duplicate entries that collapse_duplicates
# merges: float round-off, never a real difference.
_DUPLICATE_TOL = 1e-6


#: (min, max) of the rating scale of each variable family that has one:
#: 1 to 9 for the dimensional variables, 1 to 5 for the basic emotions.
_SCALES = {"dimensional": (1.0, 9.0), "discrete": (1.0, 5.0)}


@dataclass(frozen=True)
class VariableSet:
    """Ordered set of emotion variable names.

    Column order in files and matrices always follows ``names``.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("variable set must not be empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        if any(not n for n in self.names):
            raise ValueError("variable names must be non-empty")

    @property
    def family(self) -> str:
        return infer_family(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        return self.names.index(name)


def normalize_word(text: str) -> str:
    """The stored form of a word read from any input: NFC, with
    surrounding whitespace stripped. An ASCII word needs no NFC."""
    text = text.strip()
    return text if text.isascii() else unicodedata.normalize("NFC", text)


def infer_family(names: Iterable[str]) -> str:
    """The family of the names: dimensional (VAD only), discrete (BE5 only) or other."""
    names = tuple(names)
    if names and all(n in VAD_NAMES for n in names):
        return "dimensional"
    if names and all(n in BE5_NAMES for n in names):
        return "discrete"
    return "other"


def canonical_variable_order(names: Iterable[str]) -> tuple[str, ...]:
    """Order variables as in the standard eight-column layout, extras last."""
    names = list(dict.fromkeys(names))
    known = [n for n in CANONICAL_VARIABLES if n in names]
    extra = sorted(n for n in names if n not in CANONICAL_VARIABLES)
    return tuple(known + extra)


@dataclass(frozen=True, eq=False)
class Lexicon:
    """Immutable word-to-ratings table.

    ``values`` has one row per word in ``words`` and one column per
    variable. Word types need not be unique: a translated lexicon may
    contain partial duplicates (same word, different values);
    :func:`collapse_duplicates` merges them.
    """

    variables: VariableSet
    words: tuple[str, ...]
    values: np.ndarray
    splits: tuple[str, ...]
    provenance: str
    language: str = "und"

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "splits", tuple(self.splits))
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape != (len(self.words), len(self.variables)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{len(self.words)} words x {len(self.variables)} variables"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("lexicon values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(self.splits) != len(self.words):
            raise ValueError("one split tag per word required")
        bad = {s for s in self.splits if s not in SPLIT_TAGS}
        if bad:
            raise ValueError(f"invalid split tags: {sorted(bad)}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"invalid provenance {self.provenance!r}")
        if any(not w for w in self.words):
            raise ValueError("words must be non-empty")

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def row_index(self) -> dict[str, int]:
        """Word -> row of its first occurrence, in row order; every word-type
        test and lookup on a lexicon reads it."""
        index: dict[str, int] = {}
        for i, w in enumerate(self.words):
            index.setdefault(w, i)
        return index

    def split_words(self, tag: str) -> set[str]:
        """Word types carrying the given split tag."""
        if tag not in SPLIT_TAGS:
            raise ValueError(f"invalid split tag {tag!r}")
        return {w for w, s in zip(self.words, self.splits) if s == tag}

    def split_sizes(self) -> dict[str, int]:
        sizes = {tag: 0 for tag in SPLIT_TAGS}
        for s in self.splits:
            sizes[s] += 1
        return sizes

    def require_unique(self, context: str) -> None:
        n_dup = len(self.words) - len(self.row_index)
        if n_dup:
            raise IntegrityError(
                f"{context} requires unique word types; found {n_dup} duplicate entries"
            )


@dataclass(frozen=True)
class SplitSets:
    """Word-type sets of the translated (MT) splits and the embedding
    vocabulary, and the prediction splits derived from them.

    The prediction splits are defined so that no word available at
    training time can reappear in the dev or test split:

    - pred_train = mt_train
    - pred_dev   = mt_dev minus mt_train
    - pred_test  = (mt_test union embedding_vocab) minus (mt_dev union mt_train)

    ``embedding_vocab`` is held as given, never copied: any collection
    of words with a fast ``in``, such as a set or the vector store;
    ``tag`` gives a word's prediction split without building any.
    """

    mt_train: frozenset[str]
    mt_dev: frozenset[str]
    mt_test: frozenset[str]
    embedding_vocab: Collection[str]

    def __post_init__(self):
        for name in ("mt_train", "mt_dev", "mt_test"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))

    def tag(self, word: str) -> str:
        """The prediction split of a word, or "none" outside all three."""
        if word in self.mt_train:
            return "train"
        if word in self.mt_dev:
            return "dev"
        if word in self.mt_test or word in self.embedding_vocab:
            return "test"
        return "none"


def derive_prediction_splits(mt: Lexicon, embedding_vocab: Collection[str]) -> SplitSets:
    """Derive the prediction splits from a split-tagged MT lexicon.

    ``embedding_vocab`` is the vocabulary of the embedding model used
    for expansion, such as its store, which the splits hold without
    copying; its words land in pred_test unless already seen in the MT
    train or dev split.
    """
    return SplitSets(*(mt.split_words(tag) for tag in ("train", "dev", "test")), embedding_vocab)


# ---------------------------------------------------------------------------
# TSV ingestion and serialization
#
# Format: UTF-8, tab separated, '\n' line ends, header row
# ``word<TAB>var1...<TAB>[split]``, decimal point '.', no quoting.
# ---------------------------------------------------------------------------


def _lexicon_rows(stream: IO[str], path) -> tuple[VariableSet, Iterator[tuple]]:
    """The variables of a lexicon TSV's header, and an iterator of its
    rows as ``(line_no, word, fields, tag)``, each checked for its field
    count, a non-empty word (stored by :func:`normalize_word`) and a
    valid tag, "none" without a split column; the values stay unread.
    """
    header_line = stream.readline()
    if not header_line:
        raise ParseError("empty input, missing header row", line_no=1, path=path)
    header = header_line.rstrip("\r\n").split("\t")
    if header[0] != "word" or len(header) < 2:
        raise ParseError(
            "header must be 'word<TAB>var1...<TAB>[split]'", line_no=1, path=path
        )
    has_split = len(header) > 2 and header[-1] == "split"
    try:
        variables = VariableSet(header[1:-1] if has_split else header[1:])
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", line_no=1, path=path) from exc

    def rows():
        for line_no, raw in enumerate(stream, start=2):
            fields = raw.rstrip("\r\n").split("\t")
            if len(fields) != len(header):
                raise ParseError(f"expected {len(header)} fields, found {len(fields)}",
                                 line_no=line_no, path=path)
            word = normalize_word(fields[0])
            if not word:
                raise ParseError("empty word", line_no=line_no, path=path)
            tag = fields[-1] if has_split else "none"
            if tag not in SPLIT_TAGS:
                raise ParseError(f"invalid split tag {tag!r}", line_no=line_no, path=path)
            yield line_no, word, fields, tag

    return variables, rows()


def _row_values(fields: list[str], names: tuple[str, ...], line_no: int, path,
                scale: tuple[float, float] | None = None) -> list[float]:
    """The values of a row's fields: finite numbers, within ``scale`` if given."""
    row = []
    for name, tok in zip(names, fields[1:]):
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(
                f"non-numeric value {tok!r} for variable {name}", line_no=line_no, path=path,
            ) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value for variable {name}", line_no=line_no, path=path)
        if scale and not scale[0] <= v <= scale[1]:
            raise ParseError(
                f"value {v} for {name} outside scale [{scale[0]}, {scale[1]}]",
                line_no=line_no, path=path,
            )
        row.append(v)
    return row


def _lexicon(variables: VariableSet, rows: list[tuple], provenance: str, language: str
             ) -> Lexicon:
    """The lexicon of ``(word, values, tag)`` rows."""
    words, values, splits = zip(*rows) if rows else ((), (), ())
    values = np.asarray(values, dtype=np.float64).reshape(len(words), len(variables))
    return Lexicon(variables, words, values, splits, provenance, language)


def parse_lexicon(
    stream: IO[str], *, provenance: str = "human", language: str = "und", path=None
) -> Lexicon:
    """Parse a lexicon TSV.

    Words are stored by :func:`normalize_word`; no case folding is applied.
    Human-provenance values must lie within the variable family's scale
    when one is known (predicted lexicons are allowed to exceed it).
    Raises ParseError with a line number on malformed input.
    """
    variables, rows = _lexicon_rows(stream, path)
    scale = _SCALES.get(variables.family) if provenance == "human" else None
    return _lexicon(variables, [
        (word, _row_values(fields, variables.names, line_no, path, scale), tag)
        for line_no, word, fields, tag in rows
    ], provenance, language)


# The IntegrityError message of a tag that breaks the rule deriving each
# prediction split from the MT splits, in the order the rules are checked.
_SPLIT_RULES = {
    "train": "pred_train must equal mt_train",
    "dev": "pred_dev must equal mt_dev minus mt_train",
    "test": "pred_test must equal (mt_test | embedding_vocab) - (mt_dev | mt_train)",
}


def read_predictions(path, mt: Lexicon, keep: Container[str], *, language: str = "und"
                     ) -> Lexicon:
    """The rows of a predicted lexicon TSV that the evaluation scores,
    those of MT words and of words in ``keep``, read as a stream.

    Every row is checked as :func:`parse_lexicon` checks it, and its tag
    against the rule of :class:`SplitSets`: train iff its word is in
    mt_train, dev iff in mt_dev minus mt_train, test only outside both;
    every MT word must have a row. Only the kept rows' values are read.
    A malformed row raises ParseError, and a broken rule IntegrityError,
    naming the file (and line).
    """
    # each MT word's prediction split: a later tag overrides an earlier one
    derived = {w: tag for tag in ("test", "dev", "train") for w in mt.split_words(tag)}
    kept = []
    with open(path, encoding="utf-8") as fh:
        variables, rows = _lexicon_rows(fh, path)
        for line_no, word, fields, tag in rows:
            want = derived.get(word)
            if tag != want and (want is not None or tag in ("train", "dev")):
                rule = next(t for t in _SPLIT_RULES if t in (tag, want))
                raise IntegrityError(f"{path}:line {line_no}: {_SPLIT_RULES[rule]}")
            if want is not None or word in keep:
                kept.append((word, _row_values(fields, variables.names, line_no, path), tag))
    unseen = {derived[w] for w in derived.keys() - {row[0] for row in kept}}
    if unseen:
        rule = next(t for t in _SPLIT_RULES if t in unseen)
        raise IntegrityError(f"{path}: {_SPLIT_RULES[rule]}")
    return _lexicon(variables, kept, "predicted", language)


def write_lexicon_header(stream: IO[str], variables: VariableSet, has_split: bool) -> None:
    """Write the header of a lexicon TSV, with a split column if ``has_split``."""
    stream.write("\t".join(["word", *variables.names] + (["split"] if has_split else [])) + "\n")


def write_lexicon_rows(stream: IO[str], lex: Lexicon, has_split: bool) -> None:
    """Write the rows of a lexicon TSV, with their tags if ``has_split``."""
    # a block of rows at a time: every value of a large lexicon as a Python
    # float at once would raise the process's peak memory
    for lo in range(0, len(lex.words), _SERIALIZE_ROWS):
        hi = lo + _SERIALIZE_ROWS
        rows = lex.values[lo:hi].tolist()
        for word, row, split in zip(lex.words[lo:hi], rows, lex.splits[lo:hi]):
            fields = [word, *map(repr, row)]
            if has_split:
                fields.append(split)
            stream.write("\t".join(fields) + "\n")


def serialize_lexicon(lex: Lexicon, stream: IO[str]) -> None:
    """Write a lexicon TSV; inverse of :func:`parse_lexicon`.

    Floats are written in shortest round-trip form, so
    parse(serialize(lex)) reproduces the values bit for bit. The split
    column is emitted only when at least one entry carries a tag.
    """
    has_split = any(s != "none" for s in lex.splits)
    write_lexicon_header(stream, lex.variables, has_split)
    write_lexicon_rows(stream, lex, has_split)


@contextlib.contextmanager
def write_whole(path, binary: bool = False):
    """A UTF-8 text (or binary) stream whose file replaces ``path`` only when whole.

    The stream writes ``<path>.<pid>.tmp``, which replaces ``path`` when
    the block ends and is removed when it raises. So ``path`` holds its
    old bytes or all the new ones, never a part, also with several
    writers at once; a killed process may leave its temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        text = {} if binary else {"encoding": "utf-8", "newline": ""}
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def process_ended(pid: int) -> bool:
    """Whether no process has id ``pid``; none has an id below 1."""
    try:
        if pid > 0:  # os.kill would signal a process group
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # another user's process
        pass
    return pid < 1


def load_lexicon(path, *, provenance="human", language="und") -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return parse_lexicon(fh, provenance=provenance, language=language, path=path)


def save_lexicon(lex: Lexicon, path) -> None:
    with write_whole(path) as fh:
        serialize_lexicon(lex, fh)


def load_word_list(path) -> set[str]:
    """Read a reference word list: one word per line, blank lines skipped."""
    with open(path, encoding="utf-8") as fh:
        return {w for w in map(normalize_word, fh) if w}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _take(lex: Lexicon, indices: Sequence[int]) -> Lexicon:
    return replace(
        lex,
        words=tuple(lex.words[i] for i in indices),
        values=lex.values[indices] if indices else np.empty((0, len(lex.variables))),
        splits=tuple(lex.splits[i] for i in indices),
    )


def _keep_for_source(word: str) -> bool:
    return not any(ch.isspace() for ch in word) and not any(ch.isupper() for ch in word)


def filter_source_entries(lex: Lexicon) -> Lexicon:
    """Drop multi-token entries and entries with uppercase characters.

    Restricts a source lexicon to single-token, non-proper-noun entries,
    the material an embedding-based model can use. Idempotent.
    """
    keep = [i for i, w in enumerate(lex.words) if _keep_for_source(w)]
    return _take(lex, keep)


def split_by_reference(lex: Lexicon, test_ref: set[str], dev_ref: set[str]) -> Lexicon:
    """Tag each entry test/dev/train by intersection with reference lists.

    A word goes to test when present in ``test_ref``, otherwise to dev
    when present in ``dev_ref``, otherwise to train; ratings are always
    kept from ``lex``. Empty reference sets are allowed (all-train).
    """
    lex.require_unique("split_by_reference")
    tags = tuple(
        "test" if w in test_ref else "dev" if w in dev_ref else "train" for w in lex.words
    )
    return replace(lex, splits=tags)


def collapse_duplicates(lex: Lexicon) -> Lexicon:
    """Merge partial duplicates into one entry per word type.

    Keeps the first occurrence of each word. Any duplicate whose values
    differ from the first occurrence by more than ``_DUPLICATE_TOL``
    raises IntegrityError: predictions for identical word types come
    from identical vectors and must agree to float round-off.
    """
    first = lex.row_index
    if len(first) == len(lex.words):
        return lex
    for i, w in enumerate(lex.words):
        j = first[w]
        if j != i:
            spread = float(np.max(np.abs(lex.values[i] - lex.values[j])))
            if spread > _DUPLICATE_TOL:
                raise IntegrityError(f"duplicate entries for {w!r} differ by {spread:.3g} "
                                     f"(tol {_DUPLICATE_TOL:g})")
    return _take(lex, list(first.values()))


def concat_lexicons(parts: Sequence[Lexicon]) -> Lexicon:
    """The rows of ``parts`` in order, with the first part's variables,
    provenance and language."""
    return replace(
        parts[0],
        words=tuple(itertools.chain.from_iterable(p.words for p in parts)),
        values=np.concatenate([p.values for p in parts]),
        splits=tuple(itertools.chain.from_iterable(p.splits for p in parts)),
    )


def restrict_to_words(lex: Lexicon, words: Container[str]) -> Lexicon:
    """Keep only entries whose word type is in ``words``."""
    keep = [i for i, w in enumerate(lex.words) if w in words]
    return _take(lex, keep)


def restrict_to_split(lex: Lexicon, tag: str) -> Lexicon:
    """Keep only entries carrying the given split tag."""
    if tag not in SPLIT_TAGS:
        raise ValueError(f"invalid split tag {tag!r}")
    keep = [i for i, s in enumerate(lex.splits) if s == tag]
    return _take(lex, keep)
