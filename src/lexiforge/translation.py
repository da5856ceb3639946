"""Word-to-word translation tables and label-copy projection.

Projection builds the translated target-side lexicon: source words are
replaced by their single translation while the emotion values and split
tags are copied unchanged.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import IO, Iterable, Mapping

from .errors import MissingTranslationError, ParseError
from .lexicon import Lexicon, _take

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TranslationTable:
    """One-to-one mapping from source word to a single target string.

    Target strings may contain spaces, hyphens, or apostrophes (the
    embedding lookup handles multi-token terms); they must be non-empty.
    """

    mapping: Mapping[str, str]
    source_lang: str = "und"
    target_lang: str = "und"

    def __post_init__(self):
        mapping = dict(self.mapping)
        for src, tgt in mapping.items():
            if not src or not tgt:
                raise ValueError(f"empty source or target in pair {src!r} -> {tgt!r}")
        object.__setattr__(self, "mapping", MappingProxyType(mapping))

    def __len__(self) -> int:
        return len(self.mapping)

    def __contains__(self, word: str) -> bool:
        return word in self.mapping

    def get(self, word: str) -> str | None:
        return self.mapping.get(word)

    @classmethod
    def identity(cls, words: Iterable[str], language: str = "und") -> "TranslationTable":
        """Table mapping every word to itself (same-language runs)."""
        return cls({w: w for w in words}, source_lang=language, target_lang=language)


def parse_translation_table(
    stream: IO[str], *, source_lang: str = "und", target_lang: str = "und", path=None
) -> TranslationTable:
    """Parse a two-column headerless TSV into a table.

    Later lines overwrite earlier ones for the same source word. A line
    without exactly one tab, or with an empty column, is an error.
    """
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if line.count("\t") != 1:
            raise ParseError(
                f"expected exactly one tab, found {line.count(chr(9))}",
                line_no=line_no, path=path,
            )
        src, tgt = line.split("\t")
        src = unicodedata.normalize("NFC", src)
        tgt = unicodedata.normalize("NFC", tgt)
        if not src or not tgt:
            raise ParseError("empty source or target word", line_no=line_no, path=path)
        mapping[src] = tgt
    return TranslationTable(mapping, source_lang=source_lang, target_lang=target_lang)


def load_translation_table(path, *, source_lang="und", target_lang="und") -> TranslationTable:
    with open(path, encoding="utf-8") as fh:
        return parse_translation_table(
            fh, source_lang=source_lang, target_lang=target_lang, path=path
        )


def project_lexicon(
    source: Lexicon, table: TranslationTable, *, missing: str = "skip"
) -> Lexicon:
    """Build the translated (MT) lexicon by word projection.

    Each translatable source entry yields one output entry with the
    translated word, the unchanged emotion values, and the source
    entry's split tag. Distinct source words may translate to the same
    target word, so the result can contain partial duplicates.

    ``missing`` controls untranslatable words: ``skip`` drops them (the
    count is logged), ``strict`` raises MissingTranslationError.
    """
    if missing not in ("skip", "strict"):
        raise ValueError(f"unknown missing-translation policy {missing!r}")
    keep: list[int] = []
    words: list[str] = []
    for i, w in enumerate(source.words):
        tgt = table.get(w)
        if tgt is None:
            if missing == "strict":
                raise MissingTranslationError(f"no translation for {w!r}")
            continue
        keep.append(i)
        words.append(tgt)
    skipped = len(source.words) - len(keep)
    if skipped:
        log.warning("projection skipped %d source entries without translation", skipped)
    projected = _take(source, keep)
    return replace(
        projected,
        words=tuple(words),
        provenance="translated",
        language=table.target_lang,
    )
