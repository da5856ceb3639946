import io
import os
import random
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import (
    EmbeddingStore,
    IntegrityError,
    Lexicon,
    ParseError,
    SplitSets,
    VariableSet,
    collapse_duplicates,
    derive_prediction_splits,
    filter_source_entries,
    load_embedding_store,
    load_lexicon,
    load_translation_table,
    parse_lexicon,
    restrict_to_split,
    restrict_to_words,
    serialize_lexicon,
    split_by_reference,
)
from lexiforge.lexicon import (
    concat_lexicons,
    load_word_list,
    write_lexicon_header,
    write_lexicon_rows,
    write_whole,
)
from helpers import build_lexicon

EIGHT_VARS = ("Val", "Aro", "Dom", "Joy", "Ang", "Sad", "Fea", "Dis")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_variable_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        VariableSet(("Val", "Val"))
    with pytest.raises(ValueError):
        VariableSet(())


def test_family_inference():
    assert VariableSet(("Val", "Aro", "Dom")).family == "dimensional"
    assert VariableSet(("Val", "Aro")).family == "dimensional"
    assert VariableSet(("Joy", "Ang", "Sad", "Fea", "Dis")).family == "discrete"
    assert VariableSet(EIGHT_VARS).family == "other"
    assert VariableSet(("y1", "y2")).family == "other"


def test_lexicon_rejects_bad_shapes_and_tags():
    with pytest.raises(ValueError):
        build_lexicon([("a", (1.0,))], variables=("Val", "Aro"))
    with pytest.raises(ValueError):
        Lexicon(
            variables=VariableSet(("Val",)),
            words=("a",),
            values=np.array([[np.nan]]),
            splits=("none",),
            provenance="human",
        )
    with pytest.raises(ValueError):
        build_lexicon([("a", (1.0, 2.0), "validation")])


def test_lexicon_values_are_read_only():
    lex = build_lexicon([("a", (1.0, 2.0))])
    with pytest.raises(ValueError):
        lex.values[0, 0] = 3.0


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------

SOURCE_SAMPLE = (
    "word\tVal\tAro\tDom\tJoy\tAng\tSad\tFea\tDis\n"
    "sunshine\t8.1\t5.3\t5.4\t4.2\t1.2\t1.3\t1.3\t1.2\n"
    "terrorism\t1.6\t7.4\t2.7\t1.2\t2.9\t3.3\t3.9\t2.5\n"
)


def test_parse_eight_variable_sample():
    lex = parse_lexicon(io.StringIO(SOURCE_SAMPLE))
    assert lex.variables.names == EIGHT_VARS
    assert lex.words == ("sunshine", "terrorism")
    sunshine, terrorism = lex.values[[lex.row_index["sunshine"], lex.row_index["terrorism"]]]
    assert sunshine.tolist() == [8.1, 5.3, 5.4, 4.2, 1.2, 1.3, 1.3, 1.2]
    assert terrorism[0] == 1.6
    assert terrorism[6] == 3.9
    assert lex.provenance == "human"


def test_parse_empty_body():
    lex = parse_lexicon(io.StringIO("word\tVal\tAro\n"))
    assert len(lex) == 0
    assert lex.variables.names == ("Val", "Aro")


def test_parse_split_column():
    text = "word\tVal\tsplit\na\t1.0\ttrain\nb\t2.0\ttest\n"
    lex = parse_lexicon(io.StringIO(text))
    assert lex.splits == ("train", "test")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_lexicon(io.StringIO("word\tVal\na\tx\n"))
    assert err.value.line_no == 2

    with pytest.raises(ParseError) as err:
        parse_lexicon(io.StringIO("word\tVal\na\t1.0\tzzz\n"))
    assert err.value.line_no == 2

    with pytest.raises(ParseError) as err:
        parse_lexicon(io.StringIO("term\tVal\na\t1.0\n"))
    assert err.value.line_no == 1

    with pytest.raises(ParseError):
        parse_lexicon(io.StringIO("word\tVal\na\tnan\n"))

    with pytest.raises(ParseError):
        parse_lexicon(io.StringIO(""))


def test_parse_rejects_human_values_outside_scale():
    with pytest.raises(ParseError) as err:
        parse_lexicon(io.StringIO("word\tVal\tAro\na\t12.0\t5.0\n"))
    assert str(err.value) == "line 2: value 12.0 for Val outside scale [1.0, 9.0]"
    with pytest.raises(ParseError) as err:
        parse_lexicon(io.StringIO("word\tJoy\na\t5.0\nb\t0.5\n"))
    assert str(err.value) == "line 3: value 0.5 for Joy outside scale [1.0, 5.0]"
    # no scale for a mixed variable set
    mixed = parse_lexicon(io.StringIO("word\tVal\tJoy\na\t12.0\t0.5\n"))
    assert mixed.values[mixed.row_index["a"]][0] == 12.0
    # predicted lexicons may exceed the scale range
    lex = parse_lexicon(
        io.StringIO("word\tVal\tAro\na\t12.0\t5.0\n"), provenance="predicted"
    )
    assert lex.values[lex.row_index["a"]][0] == 12.0


def test_parse_normalizes_nfc():
    # e + combining acute (NFD) normalizes to the precomposed character
    text = "word\tVal\ncafé\t1.0\n"
    lex = parse_lexicon(io.StringIO(text))
    assert lex.words == ("café",)


def _stored_words(tmp_path, raw: str) -> dict[str, object]:
    """The words each of the four readers stores for a line holding ``raw``."""
    files = {"lexicon": f"word\tVal\n{raw}\t5\n", "table": f"{raw}\t{raw}\n",
             "vectors": f"1 2\n{raw} 1 2\n", "word list": f"{raw}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    table = load_translation_table(tmp_path / "table")
    return {
        "lexicon": load_lexicon(tmp_path / "lexicon").words,
        "table source": tuple(table),
        "table target": tuple(table.values()),
        "vectors": load_embedding_store(tmp_path / "vectors").words,
        "word list": tuple(load_word_list(tmp_path / "word list")),
    }


@pytest.mark.parametrize("raw, stored", [
    ("plain", "plain"),
    ("cafe\u0301", "café"),  # NFD
    ("foo\xa0", "foo"),
    ("\u3000bar", "bar"),
    ("\x1fbaz\u2029", "baz"),
    ("\u2003e\u0301\x85", "é"),
    ("in\xa0side\u0301", "in\xa0sidé"),
])
def test_every_reader_stores_the_same_word(tmp_path, raw, stored):
    assert _stored_words(tmp_path, raw) == dict.fromkeys(
        ["lexicon", "table source", "table target", "vectors", "word list"], (stored,)
    )


words_strategy = st.lists(
    st.text(
        alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=12,
    ).map(lambda w: w.strip()).filter(lambda w: w),
    min_size=0,
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(words=words_strategy, data=st.data())
def test_round_trip_identity(words, data):
    values = [
        [data.draw(st.floats(-100, 100, allow_nan=False)) for _ in range(2)]
        for _ in words
    ]
    splits = [data.draw(st.sampled_from(["train", "dev", "test", "none"])) for _ in words]
    lex = build_lexicon(
        [(w, v, s) for w, v, s in zip(words, values, splits)],
        variables=("y1", "y2"),
    )
    buf = io.StringIO()
    serialize_lexicon(lex, buf)
    buf.seek(0)
    back = parse_lexicon(buf)
    # parse normalizes words to NFC, so compare against a normalized original
    import unicodedata

    assert back.words == tuple(unicodedata.normalize("NFC", w) for w in lex.words)
    assert np.array_equal(back.values, lex.values)
    if any(s != "none" for s in lex.splits):
        assert back.splits == lex.splits
    assert back.variables.names == lex.variables.names


def test_serialize_writes_each_value_as_its_float_repr_across_row_blocks():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2500, 2)) * 10.0 ** rng.integers(-8, 8, (2500, 2))
    tags = ["train", "dev", "test", "none"]
    lex = build_lexicon(
        [(f"w{i}", values[i], tags[i % 4]) for i in range(2500)], variables=("y1", "y2")
    )
    buf = io.StringIO()
    serialize_lexicon(lex, buf)
    expected = "word\ty1\ty2\tsplit\n" + "".join(
        f"w{i}\t{float(a)!r}\t{float(b)!r}\t{tags[i % 4]}\n" for i, (a, b) in enumerate(values)
    )
    assert buf.getvalue() == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lexicon_rows_written_part_by_part_serialize_their_concatenation(data):
    n = data.draw(st.integers(0, 12))
    tags = data.draw(st.lists(st.sampled_from(["train", "test", "none"]), min_size=n,
                              max_size=n))
    lex = build_lexicon([(f"w{i}", (i + 0.5, -i / 3), tag) for i, tag in enumerate(tags)],
                        variables=("y1", "y2"))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    parts = [restrict_to_words(lex, set(lex.words[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    has_split = any(tag != "none" for tag in tags)
    buf = io.StringIO()
    write_lexicon_header(buf, lex.variables, has_split)
    for part in parts:
        write_lexicon_rows(buf, part, has_split)
    expected = io.StringIO()
    serialize_lexicon(concat_lexicons(parts), expected)
    assert buf.getvalue() == expected.getvalue()
    assert concat_lexicons(parts).words == lex.words


def test_write_whole_replaces_the_file_only_when_the_block_ends(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("old\n", encoding="utf-8")
    with write_whole(path) as fh:
        fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert Path(fh.name).name == f"lex.tsv.{os.getpid()}.tmp"  # one writer's own name
    assert path.read_text(encoding="utf-8") == "new\n"
    with pytest.raises(KeyError):
        with write_whole(path) as fh:
            fh.write("partial")
            raise KeyError("failed mid-write")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lex.tsv"]
    with pytest.raises(KeyError):
        with write_whole(tmp_path / "never.tsv"):
            raise KeyError("before any write")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lex.tsv"]


# ---------------------------------------------------------------------------
# filter_source_entries
# ---------------------------------------------------------------------------


def test_filter_drops_multi_token_and_uppercase():
    lex = build_lexicon(
        [("boa constrictor", (1, 2)), ("Budweiser", (1, 2)), ("sunshine", (1, 2))],
        variables=("y1", "y2"),
    )
    filtered = filter_source_entries(lex)
    assert filtered.words == ("sunshine",)


def test_filter_identity_on_clean_lexicon():
    lex = build_lexicon([("a", (1, 2)), ("b", (3, 4))], variables=("y1", "y2"))
    assert filter_source_entries(lex).words == lex.words


def test_filter_unicode_uppercase_and_whitespace():
    lex = build_lexicon(
        [("École", (1, 2)), ("école", (1, 2)), ("a b", (1, 2))],
        variables=("y1", "y2"),
    )
    assert filter_source_entries(lex).words == ("école",)


@settings(max_examples=30, deadline=None)
@given(words=words_strategy)
def test_filter_is_idempotent(words):
    lex = build_lexicon([(w, (1.0, 2.0)) for w in words], variables=("y1", "y2"))
    once = filter_source_entries(lex)
    twice = filter_source_entries(once)
    assert once.words == twice.words


# ---------------------------------------------------------------------------
# split_by_reference
# ---------------------------------------------------------------------------


def test_split_by_reference_basic():
    master = build_lexicon(
        [(w, (1.0, 2.0)) for w in "abcd"], variables=("y1", "y2")
    )
    tagged = split_by_reference(master, test_ref={"a"}, dev_ref={"a", "b"})
    assert tagged.split_words("test") == {"a"}
    assert tagged.split_words("dev") == {"b"}
    assert tagged.split_words("train") == {"c", "d"}


def test_split_by_reference_empty_refs_all_train():
    master = build_lexicon([(w, (1.0, 2.0)) for w in "abc"], variables=("y1", "y2"))
    tagged = split_by_reference(master, set(), set())
    assert set(tagged.splits) == {"train"}


def test_split_by_reference_requires_unique_words():
    master = build_lexicon([("a", (1, 2)), ("a", (3, 4))], variables=("y1", "y2"))
    with pytest.raises(IntegrityError):
        split_by_reference(master, set(), set())


def test_split_by_reference_is_a_partition_against_set_oracle():
    rng = random.Random(7)
    words = [f"w{i}" for i in range(1000)]
    master = build_lexicon([(w, (1.0, 2.0)) for w in words], variables=("y1", "y2"))
    test_ref = set(rng.sample(words, 150)) | {"ghost1"}
    dev_ref = test_ref | set(rng.sample(words, 300)) | {"ghost2"}

    tagged = split_by_reference(master, test_ref, dev_ref)

    master_set = set(words)
    assert tagged.split_words("test") == master_set & test_ref
    assert tagged.split_words("dev") == (master_set & dev_ref) - test_ref
    assert tagged.split_words("train") == master_set - test_ref - dev_ref
    # dev_ref is a superset of test_ref: dev excludes every test word
    assert not tagged.split_words("dev") & tagged.split_words("test")
    # partition: every entry got exactly one tag
    sizes = tagged.split_sizes()
    assert sizes["train"] + sizes["dev"] + sizes["test"] == len(words)
    assert sizes["none"] == 0


# ---------------------------------------------------------------------------
# derive_prediction_splits
# ---------------------------------------------------------------------------


def _mt_from_sets(mt_train, mt_dev, mt_test):
    rows = []
    for tag, words in (("train", mt_train), ("dev", mt_dev), ("test", mt_test)):
        rows.extend((w, (1.0, 2.0), tag) for w in sorted(words))
    return build_lexicon(rows, variables=("y1", "y2"))


def test_derive_prediction_splits_example():
    mt = _mt_from_sets({"x"}, {"x", "y"}, {"x", "z"})
    splits = derive_prediction_splits(mt, {"w"})
    assert splits.pred_train == {"x"}
    assert splits.pred_dev == {"y"}
    assert splits.pred_test == {"z", "w"}


def test_derive_prediction_splits_empty_vocab_identity():
    mt = _mt_from_sets({"a"}, {"b"}, {"c"})
    splits = derive_prediction_splits(mt, set())
    assert splits.pred_train == {"a"}
    assert splits.pred_dev == {"b"}
    assert splits.pred_test == {"c"}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derive_prediction_splits_matches_brute_force(data):
    universe = [f"w{i}" for i in range(100)]
    pick = lambda: set(data.draw(st.lists(st.sampled_from(universe), max_size=30)))
    mt_train, mt_dev, mt_test, vocab = pick(), pick(), pick(), pick()
    mt = _mt_from_sets(mt_train, mt_dev, mt_test)
    splits = derive_prediction_splits(mt, vocab)

    # brute force: evaluate the three definitions by per-word membership
    expected_test = {
        w for w in set(universe)
        if (w in mt_test or w in vocab) and not (w in mt_dev or w in mt_train)
    }
    expected_dev = {w for w in set(universe) if w in mt_dev and w not in mt_train}
    assert splits.pred_train == mt_train
    assert splits.pred_dev == expected_dev
    assert splits.pred_test == expected_test
    assert not splits.pred_train & splits.pred_dev
    assert not splits.pred_train & splits.pred_test
    assert not splits.pred_dev & splits.pred_test
    assert not splits.pred_dev & splits.mt_train
    assert not splits.pred_test & (splits.mt_train | splits.mt_dev)


def test_split_sets_from_lexicons_round_trip():
    mt = _mt_from_sets({"a", "b"}, {"c"}, {"d"})
    splits = derive_prediction_splits(mt, {"e", "f", "a"})
    pred_rows = [
        (w, (0.0, 0.0), tag)
        for tag, ws in (
            ("train", splits.pred_train),
            ("dev", splits.pred_dev),
            ("test", splits.pred_test),
        )
        for w in sorted(ws)
    ]
    pred = build_lexicon(pred_rows, variables=("y1", "y2"), provenance="predicted")
    rebuilt = SplitSets.from_lexicons(mt, pred)
    assert rebuilt.pred_train == splits.pred_train
    assert rebuilt.pred_dev == splits.pred_dev
    assert rebuilt.pred_test == splits.pred_test
    assert rebuilt.mt_test == splits.mt_test


@pytest.mark.parametrize("word, tag, message", [
    ("a", "test", "pred_train must equal mt_train"),  # an MT train word leaks into test
    ("c", "test", "pred_dev must equal mt_dev minus mt_train"),
    ("d", "none", "pred_test must equal (mt_test | embedding_vocab) - (mt_dev | mt_train)"),
], ids=["train", "dev", "test"])
def test_split_sets_from_lexicons_rejects_tags_not_derived_from_mt(word, tag, message):
    mt = _mt_from_sets({"a", "b"}, {"c"}, {"d"})
    splits = derive_prediction_splits(mt, {"e"})
    pred_rows = [
        (w, (0.0, 0.0), tag if w == word else splits.tag(w)) for w in ("a", "b", "c", "d", "e")
    ]
    pred = build_lexicon(pred_rows, variables=("y1", "y2"), provenance="predicted")
    with pytest.raises(IntegrityError) as raised:
        SplitSets.from_lexicons(mt, pred)
    assert str(raised.value) == message


def test_split_sets_store_only_their_inputs():
    assert [f.name for f in fields(SplitSets)] == [
        "mt_train", "mt_dev", "mt_test", "embedding_vocab"
    ]
    splits = derive_prediction_splits(_mt_from_sets({"a"}, {"a", "b"}, {"c"}), {"b", "e"})
    assert [splits.tag(w) for w in ("a", "b", "c", "e", "f")] == [
        "train", "dev", "test", "test", "none"
    ]


def test_split_sets_test_words_through_the_store_without_copying_it():
    store = EmbeddingStore(["a", "b", "e", "f"], np.ones((4, 2)))
    mt = _mt_from_sets({"a"}, {"a", "b"}, {"c"})
    splits = derive_prediction_splits(mt, store)
    assert splits.embedding_vocab is store
    assert [splits.tag(w) for w in ("a", "b", "c", "e", "f", "g")] == [
        "train", "dev", "test", "test", "test", "none"
    ]
    assert [splits.in_test(w) for w in ("a", "b", "c", "e", "g")] == [
        False, False, True, True, False
    ]
    assert "pred_test" not in vars(splits)  # tag and in_test never build it
    assert splits.pred_test == {"c", "e", "f"}


# ---------------------------------------------------------------------------
# collapse_duplicates
# ---------------------------------------------------------------------------


def test_collapse_exact_duplicates():
    lex = build_lexicon(
        [("bank", (5.0, 1.0)), ("bank", (5.0, 1.0)), ("tree", (2.0, 2.0))],
        variables=("y1", "y2"),
        provenance="predicted",
    )
    merged = collapse_duplicates(lex)
    assert merged.words == ("bank", "tree")
    assert len(set(merged.words)) == len(merged.words)


def test_collapse_identity_on_unique():
    lex = build_lexicon([("a", (1, 2)), ("b", (3, 4))], variables=("y1", "y2"))
    assert collapse_duplicates(lex) is lex


def test_collapse_within_tolerance_keeps_first():
    lex = build_lexicon(
        [("bank", (5.0, 1.0)), ("bank", (5.0 + 1e-9, 1.0))],
        variables=("y1", "y2"),
        provenance="predicted",
    )
    merged = collapse_duplicates(lex)
    assert merged.words == ("bank",)
    assert merged.values[0, 0] == 5.0

    # brute-force group-by oracle on a larger instance
    rng = random.Random(3)
    rows = []
    base = {f"w{i}": (float(i), float(-i)) for i in range(50)}
    for _ in range(200):
        w = rng.choice(list(base))
        v = base[w]
        rows.append((w, (v[0] + rng.uniform(-1e-9, 1e-9), v[1])))
    lex = build_lexicon(rows, variables=("y1", "y2"), provenance="predicted")
    merged = collapse_duplicates(lex)
    assert list(merged.words) == list(dict.fromkeys(w for w, _ in rows))
    assert len(merged) == len({w for w, _ in rows})


def test_collapse_raises_beyond_tolerance():
    lex = build_lexicon(
        [("bank", (5.0, 1.0)), ("bank", (5.1, 1.0))],
        variables=("y1", "y2"),
        provenance="predicted",
    )
    with pytest.raises(IntegrityError):
        collapse_duplicates(lex)


# ---------------------------------------------------------------------------
# restriction helpers
# ---------------------------------------------------------------------------


def test_restrict_helpers():
    lex = build_lexicon(
        [("a", (1, 2), "train"), ("b", (3, 4), "test"), ("c", (5, 6), "test")],
        variables=("y1", "y2"),
    )
    assert restrict_to_words(lex, {"a", "c"}).words == ("a", "c")
    assert restrict_to_split(lex, "test").words == ("b", "c")
    with pytest.raises(ValueError):
        restrict_to_split(lex, "validation")
