import io
from collections import Counter

import numpy as np
import pytest

from lexiforge import (
    MissingTranslationError,
    ParseError,
    TranslationTable,
    load_translation_table,
    parse_translation_table,
    project_lexicon,
)
from helpers import build_lexicon, save_translation_table


# ---------------------------------------------------------------------------
# table parsing
# ---------------------------------------------------------------------------


def test_parse_single_pair():
    table = parse_translation_table(io.StringIO("sunshine\tSonnenschein\n"))
    assert table.get("sunshine") == "Sonnenschein"
    assert len(table) == 1


def test_parse_empty_file():
    assert len(parse_translation_table(io.StringIO(""))) == 0


def test_parse_duplicate_sources_last_wins():
    lines = [
        ("a", "x"), ("b", "y"), ("a", "z"), ("c", "w"), ("b", "y2"), ("a", "final"),
    ]
    text = "".join(f"{s}\t{t}\n" for s, t in lines)
    table = parse_translation_table(io.StringIO(text))
    # sequential-replay oracle: naive line-by-line map build
    expected = {}
    for s, t in lines:
        expected[s] = t
    assert dict(table.mapping) == expected


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError) as err:
        parse_translation_table(io.StringIO("a\tx\nnotab\n"))
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_translation_table(io.StringIO("a\tb\tc\n"))
    with pytest.raises(ParseError):
        parse_translation_table(io.StringIO("a\t\n"))
    with pytest.raises(ParseError):
        parse_translation_table(io.StringIO("\tb\n"))


def test_table_round_trip(tmp_path):
    table = TranslationTable({"a": "x y", "b": "l'eau"}, "en", "fr")
    path = tmp_path / "table.tsv"
    save_translation_table(table, path)
    back = load_translation_table(path, source_lang="en", target_lang="fr")
    assert dict(back.mapping) == dict(table.mapping)


def test_identity_table():
    table = TranslationTable.identity(["a", "b"], "en")
    assert table.get("a") == "a"
    assert table.source_lang == table.target_lang == "en"


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_copies_labels_and_splits():
    source = build_lexicon(
        [("sunshine", (8.1, 5.3), "train"), ("terrorism", (1.6, 7.4), "test")],
        variables=("Val", "Aro"),
        language="en",
    )
    table = TranslationTable(
        {"sunshine": "Sonnenschein", "terrorism": "Terrorismus"}, "en", "de"
    )
    mt = project_lexicon(source, table)
    assert mt.words == ("Sonnenschein", "Terrorismus")
    assert np.array_equal(mt.values, source.values)
    assert mt.splits == ("train", "test")
    assert mt.provenance == "translated"
    assert mt.language == "de"


def test_project_identity_table_keeps_content():
    source = build_lexicon(
        [("a", (1.0, 2.0), "train"), ("b", (3.0, 4.0), "dev")],
        variables=("Val", "Aro"),
        language="en",
    )
    mt = project_lexicon(source, TranslationTable.identity(source.words, "en"))
    assert mt.words == source.words
    assert np.array_equal(mt.values, source.values)
    assert mt.splits == source.splits
    assert mt.provenance == "translated"


def test_project_many_to_one_creates_partial_duplicates():
    source = build_lexicon(
        [("bank1", (1.0, 1.0), "train"), ("bank2", (2.0, 2.0), "test"),
         ("tree", (3.0, 3.0), "train")],
        variables=("y1", "y2"),
    )
    table = TranslationTable({"bank1": "Bank", "bank2": "Bank", "tree": "Baum"})
    mt = project_lexicon(source, table)
    # group-by oracle over word types
    counts = Counter(mt.words)
    assert counts == {"Bank": 2, "Baum": 1}
    assert not mt.unique_words
    bank_rows = [i for i, w in enumerate(mt.words) if w == "Bank"]
    assert sorted(mt.values[i][0] for i in bank_rows) == [1.0, 2.0]


def test_project_missing_policies(caplog):
    source = build_lexicon([("a", (1.0, 2.0)), ("b", (3.0, 4.0))], variables=("y1", "y2"))
    table = TranslationTable({"a": "x"})
    with caplog.at_level("WARNING"):
        mt = project_lexicon(source, table)
    assert mt.words == ("x",)
    assert any("skipped 1" in rec.message for rec in caplog.records)
    with pytest.raises(MissingTranslationError):
        project_lexicon(source, table, missing="strict")
    with pytest.raises(ValueError):
        project_lexicon(source, table, missing="ignore")


def test_project_preserves_value_multiset():
    source = build_lexicon(
        [(f"w{i}", (float(i), float(-i)), "train") for i in range(30)],
        variables=("y1", "y2"),
    )
    table = TranslationTable({f"w{i}": f"t{i % 7}" for i in range(30)})
    mt = project_lexicon(source, table)
    assert sorted(map(tuple, mt.values)) == sorted(map(tuple, source.values))
    assert mt.splits == source.splits
