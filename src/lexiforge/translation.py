"""Word-to-word translation tables and label-copy projection.

Projection builds the translated target-side lexicon: source words are
replaced by their single translation while the emotion values and split
tags are copied unchanged.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Mapping

from .errors import MissingTranslationError, ParseError
from .lexicon import Lexicon, _take, normalize_word

log = logging.getLogger(__name__)


def load_translation_table(path) -> dict[str, str]:
    """Read a two-column headerless TSV as a source word -> target dict.

    Target strings may contain spaces, hyphens, or apostrophes (the
    embedding lookup handles multi-token terms). Both columns are stored
    by :func:`normalize_word`. Later lines overwrite earlier ones for the
    same source word. A line without exactly one tab, or with a column
    empty under that rule, is an error.
    """
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if line.count("\t") != 1:
                raise ParseError(
                    f"expected exactly one tab, found {line.count(chr(9))}",
                    line_no=line_no, path=path,
                )
            src, tgt = map(normalize_word, line.split("\t"))
            if not src or not tgt:
                raise ParseError("empty source or target word", line_no=line_no, path=path)
            mapping[src] = tgt
    return mapping


def project_lexicon(
    source: Lexicon, table: Mapping[str, str], *, language: str = "und", missing: str = "skip"
) -> Lexicon:
    """Build the translated (MT) lexicon by word projection.

    Each translatable source entry yields one output entry with the
    translated word, the unchanged emotion values, and the source
    entry's split tag, in the target ``language``. Distinct source words
    may translate to the same target word, so the result can contain
    partial duplicates.

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
        language=language,
    )
