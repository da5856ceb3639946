from collections import Counter

import numpy as np
import pytest

from lexiforge import (
    MissingTranslationError,
    ParseError,
    load_translation_table,
    project_lexicon,
)
from helpers import build_lexicon, save_translation_table


@pytest.fixture
def load_text(tmp_path):
    """Load a table from a file holding the given text."""

    def load(text):
        path = tmp_path / "table.tsv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return load_translation_table(path)

    return load


# ---------------------------------------------------------------------------
# table parsing
# ---------------------------------------------------------------------------


def test_parse_single_pair(load_text):
    assert load_text("sunshine\tSonnenschein\n") == {"sunshine": "Sonnenschein"}


def test_parse_empty_file(load_text):
    assert load_text("") == {}


def test_parse_duplicate_sources_last_wins(load_text):
    lines = [
        ("a", "x"), ("b", "y"), ("a", "z"), ("c", "w"), ("b", "y2"), ("a", "final"),
    ]
    text = "".join(f"{s}\t{t}\n" for s, t in lines)
    table = load_text(text)
    # sequential-replay oracle: naive line-by-line map build
    expected = {}
    for s, t in lines:
        expected[s] = t
    assert table == expected


def test_parse_rejects_malformed_lines(load_text):
    with pytest.raises(ParseError) as err:
        load_text("a\tx\nnotab\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        load_text("a\tb\tc\n")
    with pytest.raises(ParseError):
        load_text("a\t\n")
    with pytest.raises(ParseError):
        load_text("\tb\n")


def test_table_round_trip(tmp_path):
    table = {"a": "x y", "b": "l'eau"}
    path = tmp_path / "table.tsv"
    save_translation_table(table, path)
    assert load_translation_table(path) == table


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_copies_labels_and_splits():
    source = build_lexicon(
        [("sunshine", (8.1, 5.3), "train"), ("terrorism", (1.6, 7.4), "test")],
        variables=("Val", "Aro"),
        language="en",
    )
    table = {"sunshine": "Sonnenschein", "terrorism": "Terrorismus"}
    mt = project_lexicon(source, table, language="de")
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
    mt = project_lexicon(source, {w: w for w in source.words}, language="en")
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
    table = {"bank1": "Bank", "bank2": "Bank", "tree": "Baum"}
    mt = project_lexicon(source, table)
    # group-by oracle over word types
    counts = Counter(mt.words)
    assert counts == {"Bank": 2, "Baum": 1}
    assert len(set(mt.words)) < len(mt.words)
    bank_rows = [i for i, w in enumerate(mt.words) if w == "Bank"]
    assert sorted(mt.values[i][0] for i in bank_rows) == [1.0, 2.0]


def test_project_missing_policies(caplog):
    source = build_lexicon([("a", (1.0, 2.0)), ("b", (3.0, 4.0))], variables=("y1", "y2"))
    table = {"a": "x"}
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
    table = {f"w{i}": f"t{i % 7}" for i in range(30)}
    mt = project_lexicon(source, table)
    assert sorted(map(tuple, mt.values)) == sorted(map(tuple, source.values))
    assert mt.splits == source.splits
