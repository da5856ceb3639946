import io
import json
import math
from fractions import Fraction
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import (
    DegenerateVarianceError,
    EvalReport,
    InsufficientOverlapError,
    IntegrityError,
    IsrResult,
    LexiforgeError,
    MtVsPredResult,
    SchemaError,
    SplitSets,
    derive_prediction_splits,
    gold_eval,
    isr_compare,
    load_reports,
    meta_agreement,
    mt_vs_pred,
    pearson,
    restrict_to_test_predictions,
    restrict_to_words,
    save_reports,
    silver_eval,
)
from lexiforge.reporting import (
    format_r,
    render_meta_table,
    render_pair_table,
    write_reports_tsv,
)
from helpers import build_lexicon


def pearson_oracle(x, y):
    """Exact Pearson r: rational means and sums, then one square root of
    the correctly rounded r squared."""
    x = [Fraction(float(v)) for v in x]
    y = [Fraction(float(v)) for v in y]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    r = math.sqrt(num * num / (sxx * syy))
    return r if num >= 0 else -r


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------


def test_pearson_identity_and_sign():
    assert pearson([1, 2, 3], [1, 2, 3]) == 1.0
    assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0


def test_pearson_known_value():
    # hand-checkable: centered sums give 3 / sqrt(5 * 5) = 0.6 exactly
    assert abs(pearson([1, 2, 3, 4], [2, 1, 4, 3]) - 0.6) < 1e-12


def test_pearson_errors():
    with pytest.raises(DegenerateVarianceError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateVarianceError):
        pearson([1.0, 2.0], [5.0, 5.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])


series = st.integers(2, 120).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    )
)


@settings(max_examples=150, deadline=None)
@given(pair=series)
def test_pearson_matches_direct_formula(pair):
    x, y = pair
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert abs(pearson(x, y) - pearson_oracle(x, y)) < 1e-12


@pytest.mark.parametrize("x, y", [
    ([0.0, 1e-96], [0.0, 1e-96]),  # sxx * syy underflows to zero
    ([0.0, 1e-160, 3e-160], [1.0, 2.0, 5.0]),  # subnormal sums of squares
    ([0.0, 1e160, 3e160], [1.0, 2.0, 5.0]),  # sxx overflows
    ([0.0, 1e200], [0.0, 1e200]),  # every sum overflows
])
def test_pearson_outside_the_normal_float_range(x, y):
    assert abs(pearson(x, y) - pearson_oracle(x, y)) < 1e-15
    assert abs(pearson(y, x) - pearson_oracle(x, y)) < 1e-15


@settings(max_examples=100, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(2, 50))
def test_pearson_constant_series_is_degenerate(value, n):
    # the float mean of a constant series need not equal its value
    with pytest.raises(DegenerateVarianceError, match="first"):
        pearson([value] * n, list(range(n)))
    with pytest.raises(DegenerateVarianceError, match="second"):
        pearson(list(range(n)), [value] * n)


def _affine_rounding_bound(t):
    """Bound on how far rounding in computing ``t = scale * v + shift``
    can move r: each t_i is off the exact value by two roundings, at most
    d, and moving the centred series by a vector of norm delta moves r by
    at most 2 * delta / |centred t|; doubled as a margin."""
    d = 2 * (2.0**-52 * max(abs(v) for v in t) + 2.0**-1074)
    exact = [Fraction(v) for v in t]
    mean = sum(exact) / len(t)
    spread = math.sqrt(sum((v - mean) ** 2 for v in exact) / Fraction(d) ** 2)
    return 4 * math.sqrt(len(t)) / spread


affine = st.tuples(st.floats(0.01, 100), st.floats(-100, 100))


@settings(max_examples=100, deadline=None)
@given(pair=series, x_map=affine, y_map=affine)
def test_pearson_affine_invariance_and_sign_flip(pair, x_map, y_map):
    x, y = pair
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    r = pearson(x, y)
    assert abs(pearson([-v for v in x], y) + r) < 1e-12  # negation is exact
    tx = [x_map[0] * v + x_map[1] for v in x]
    ty = [y_map[0] * v + y_map[1] for v in y]
    if len(set(tx)) < 2 or len(set(ty)) < 2:  # rounding took the spread away
        with pytest.raises(DegenerateVarianceError):
            pearson(tx, ty)
        return
    bound = _affine_rounding_bound(tx) + _affine_rounding_bound(ty)
    assert abs(pearson(tx, ty) - r) < 1e-12 + bound


# ---------------------------------------------------------------------------
# silver evaluation
# ---------------------------------------------------------------------------


def _silver_fixture(transform=None, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(40):
        tag = "train" if i < 20 else "dev" if i < 25 else "test"
        rows.append((f"w{i}", rng.standard_normal(2).tolist(), tag))
    mt = build_lexicon(rows, variables=("y1", "y2"), provenance="translated")
    vocab = [f"w{i}" for i in range(40)] + [f"x{i}" for i in range(10)]
    splits = derive_prediction_splits(mt, vocab)
    pred_rows = []
    for w in vocab:
        if w in mt.row_index:
            vals = mt.values[mt.row_index[w]]
        else:
            vals = rng.standard_normal(2)
        if transform is not None:
            vals = transform(np.asarray(vals))
        pred_rows.append((w, np.asarray(vals).tolist(), splits.tag(w)))
    pred = build_lexicon(pred_rows, variables=("y1", "y2"), provenance="predicted")
    return mt, pred, splits


def test_silver_copy_case_r_is_one():
    mt, pred, _ = _silver_fixture()
    report = silver_eval(mt, pred)
    assert report.r == {"y1": 1.0, "y2": 1.0}
    assert report.n_shared == 15
    assert report.protocol == "silver"


def test_silver_affine_invariance():
    mt, pred, _ = _silver_fixture(transform=lambda v: 2.0 * v + 3.0)
    report = silver_eval(mt, pred)
    assert abs(report.r["y1"] - 1.0) < 1e-12
    assert abs(report.r["y2"] - 1.0) < 1e-12


def test_silver_pairs_every_duplicate_against_single_prediction():
    mt = build_lexicon(
        [("a", (1.0,), "test"), ("a", (2.0,), "test"), ("b", (3.0,), "test"),
         ("c", (0.5,), "train")],
        variables=("y1",),
        provenance="translated",
    )
    pred = build_lexicon(
        [("a", (1.4,), "test"), ("b", (3.1,), "test"), ("c", (0.5,), "train")],
        variables=("y1",),
        provenance="predicted",
    )
    report = silver_eval(mt, pred)
    # manual pair-expansion oracle: (1,1.4),(2,1.4),(3,3.1)
    expected = pearson_oracle([1.0, 2.0, 3.0], [1.4, 1.4, 3.1])
    assert abs(report.r["y1"] - expected) < 1e-12
    assert report.n_shared == 2  # word types, not pairs
    dup_pred = build_lexicon(
        [("a", (1.4,), "test"), ("a", (1.5,), "test"), ("b", (3.1,), "test")],
        variables=("y1",), provenance="predicted",
    )
    with pytest.raises(IntegrityError, match="silver_eval requires unique word types"):
        silver_eval(mt, dup_pred)


def test_silver_never_reads_outside_test_split():
    mt, pred, splits = _silver_fixture()
    # poison predictions outside the prediction test split; the report must not change
    poisoned_vals = pred.values.copy()
    for i, w in enumerate(pred.words):
        if splits.tag(w) != "test":
            poisoned_vals[i] = 1e6 + i
    poisoned = build_lexicon(
        list(zip(pred.words, poisoned_vals.tolist(), pred.splits)),
        variables=("y1", "y2"),
        provenance="predicted",
    )
    assert silver_eval(mt, poisoned).r == silver_eval(mt, pred).r


def test_silver_insufficient_overlap():
    mt = build_lexicon(
        [("a", (1.0,), "train"), ("b", (2.0,), "train")],
        variables=("y1",), provenance="translated",
    )
    pred = build_lexicon(
        [("a", (1.0,), "train"), ("b", (2.0,), "train")],
        variables=("y1",), provenance="predicted",
    )
    with pytest.raises(InsufficientOverlapError):
        silver_eval(mt, pred)


# ---------------------------------------------------------------------------
# gold evaluation
# ---------------------------------------------------------------------------


def test_gold_copy_case_full_coverage():
    mt, pred, splits = _silver_fixture()
    gold_words = [w for w in pred.words if splits.tag(w) == "test"][:10]
    gold = restrict_to_words(pred, set(gold_words))
    gold = build_lexicon(
        list(zip(gold.words, gold.values.tolist())), variables=("y1", "y2")
    )
    report = gold_eval(gold, pred, gold_id="toy1")
    assert report.r == {"y1": 1.0, "y2": 1.0}
    assert report.coverage == 1.0
    assert report.n_shared == len(gold)
    assert report.lexicons[0] == "toy1"


def test_gold_inside_train_split_is_leakage_guarded():
    mt, pred, splits = _silver_fixture()
    train_words = sorted(splits.mt_train)[:10]
    gold = build_lexicon(
        [(w, pred.values[pred.row_index[w]].tolist()) for w in train_words],
        variables=("y1", "y2"),
    )
    with pytest.raises(InsufficientOverlapError):
        gold_eval(gold, pred)


def test_gold_half_overlap_counts_and_oracle():
    rng = np.random.default_rng(4)
    mt = build_lexicon(
        [(f"t{i}", rng.standard_normal(1).tolist(), "train") for i in range(5)],
        variables=("y1",),
        provenance="translated",
    )
    vocab = [f"t{i}" for i in range(5)] + [f"p{i}" for i in range(500)]
    pred_rows = [
        (w, rng.standard_normal(1).tolist(), "train" if w.startswith("t") else "test")
        for w in vocab
    ]
    pred = build_lexicon(pred_rows, variables=("y1",), provenance="predicted")
    # gold: 250 words inside the prediction test split, 250 unknown words
    pred_p = [pred.values[pred.row_index[f"p{i}"]][0] for i in range(250)]
    gold_rows = [(f"p{i}", (float(pred_p[i] + rng.standard_normal() * 0.5),))
                 for i in range(250)]
    gold_rows += [(f"g{i}", (float(rng.standard_normal()),)) for i in range(250)]
    gold = build_lexicon(gold_rows, variables=("y1",))
    report = gold_eval(gold, pred)
    assert report.n_shared == 250
    assert report.coverage == 0.5
    aligned_gold = [gold.values[gold.row_index[f"p{i}"]][0] for i in range(250)]
    assert abs(report.r["y1"] - pearson_oracle(aligned_gold, pred_p)) < 1e-12


def test_gold_skips_variables_missing_from_gold():
    mt, pred, splits = _silver_fixture()
    gold_words = [w for w in pred.words if splits.tag(w) == "test"][:10]
    gold = build_lexicon(
        [(w, (pred.values[pred.row_index[w]][0],)) for w in gold_words], variables=("y1",)
    )
    report = gold_eval(gold, pred)
    assert set(report.r) == {"y1"}
    no_shared = build_lexicon([(w, (1.0,)) for w in gold_words], variables=("zzz",))
    with pytest.raises(SchemaError):
        gold_eval(no_shared, pred)


# ---------------------------------------------------------------------------
# inter-study reliability
# ---------------------------------------------------------------------------


def _all_test(words):
    """Splits that put every one of ``words`` in the prediction test split."""
    return SplitSets((), (), (), words)


def test_isr_identical_lexicons_all_one():
    words = [f"w{i}" for i in range(20)]
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((20, 2))
    make = lambda tag="none": build_lexicon([(w, v, tag) for w, v in zip(words, vals.tolist())],
                                            variables=("Val", "Aro"))
    result = isr_compare(make(), make(), make("test"), ids=("g1", "g2", "pred"))
    for report in result:
        assert report.r == {"Val": 1.0, "Aro": 1.0}
        assert report.n_shared == 20


def test_isr_matches_triple_intersection_oracle():
    rng = np.random.default_rng(6)
    words = [f"w{i}" for i in range(200)]
    base = rng.standard_normal(200)
    g1_vals = base + 0.3 * rng.standard_normal(200)
    g2_vals = base + 0.3 * rng.standard_normal(200)
    p_vals = base + 0.5 * rng.standard_normal(200)
    g1 = build_lexicon([(w, (v,)) for w, v in zip(words[:150], g1_vals[:150])], variables=("Val",))
    g2 = build_lexicon([(w, (v,)) for w, v in zip(words[50:], g2_vals[50:])], variables=("Val",))
    pred = build_lexicon(
        [(w, (v,), "test") for w, v in zip(words, p_vals)], variables=("Val",),
        provenance="predicted",
    )
    result = isr_compare(g1, g2, pred)
    common = words[50:150]
    assert result.gold1_vs_gold2.n_shared == 100
    idx = {w: i for i, w in enumerate(words)}
    align = lambda vals: [vals[idx[w]] for w in common]
    assert abs(result.gold1_vs_gold2.r["Val"] - pearson_oracle(align(g1_vals), align(g2_vals))) < 1e-12
    assert abs(result.gold1_vs_pred.r["Val"] - pearson_oracle(align(g1_vals), align(p_vals))) < 1e-12
    assert abs(result.gold2_vs_pred.r["Val"] - pearson_oracle(align(g2_vals), align(p_vals))) < 1e-12


# ---------------------------------------------------------------------------
# translation vs prediction
# ---------------------------------------------------------------------------


def _mt_vs_pred_fixture(pred_equals_mt: bool):
    rng = np.random.default_rng(7)
    n = 60
    words = [f"w{i}" for i in range(n)]
    truth = rng.standard_normal(n)
    mt_vals = truth + 0.8 * rng.standard_normal(n)  # noisy label copies
    pred_vals = mt_vals if pred_equals_mt else truth + 0.1 * rng.standard_normal(n)
    mt = build_lexicon(
        [(w, (v,), "train") for w, v in zip(words, mt_vals)],
        variables=("y1",), provenance="translated",
    )
    pred = build_lexicon(
        [(w, (v,), "train") for w, v in zip(words, pred_vals)],
        variables=("y1",), provenance="predicted",
    )
    gold = build_lexicon([(w, (v,)) for w, v in zip(words, truth)], variables=("y1",))
    return gold, mt, pred


def test_mt_vs_pred_equal_inputs_zero_diff():
    gold, mt, pred = _mt_vs_pred_fixture(pred_equals_mt=True)
    result = mt_vs_pred(gold, mt, pred, gold_id="toy")
    assert result.diff == {"y1": 0.0}


def test_mt_vs_pred_denoising_gives_positive_diff():
    gold, mt, pred = _mt_vs_pred_fixture(pred_equals_mt=False)
    result = mt_vs_pred(gold, mt, pred)
    assert result.diff["y1"] > 0
    assert result.pred_report.r["y1"] > result.mt_report.r["y1"]
    assert result.pred_report.n_shared == 60


def test_mt_vs_pred_restricted_to_train_words():
    gold, mt, pred = _mt_vs_pred_fixture(pred_equals_mt=False)
    # add a test-tagged MT entry with a poison value; must not affect r
    poisoned_mt = build_lexicon(
        [(w, (v,), s) for w, v, s in zip(mt.words, mt.values[:, 0], mt.splits)]
        + [("extra", (1e9,), "test")],
        variables=("y1",), provenance="translated",
    )
    gold_plus = build_lexicon(
        [(w, (v,)) for w, v in zip(gold.words, gold.values[:, 0])] + [("extra", (0.0,))],
        variables=("y1",),
    )
    pred_plus = build_lexicon(
        [(w, (v,), s) for w, v, s in zip(pred.words, pred.values[:, 0], pred.splits)]
        + [("extra", (-1e9,), "test")],
        variables=("y1",), provenance="predicted",
    )
    base = mt_vs_pred(gold, mt, pred)
    poisoned = mt_vs_pred(gold_plus, poisoned_mt, pred_plus)
    assert abs(base.pred_report.r["y1"] - poisoned.pred_report.r["y1"]) < 1e-12
    assert abs(base.mt_report.r["y1"] - poisoned.mt_report.r["y1"]) < 1e-12


def test_mt_vs_pred_duplicates_pair_against_gold():
    gold = build_lexicon([("a", (1.0,)), ("b", (2.0,)), ("c", (3.0,))], variables=("y1",))
    mt = build_lexicon(
        [("a", (1.1,), "train"), ("a", (0.9,), "train"), ("b", (2.2,), "train"),
         ("c", (2.9,), "train")],
        variables=("y1",), provenance="translated",
    )
    pred = build_lexicon(
        [("a", (1.0,), "train"), ("b", (2.1,), "train"), ("c", (3.0,), "train")],
        variables=("y1",), provenance="predicted",
    )
    result = mt_vs_pred(gold, mt, pred)
    expected_mt = pearson_oracle([1.0, 1.0, 2.0, 3.0], [1.1, 0.9, 2.2, 2.9])
    assert abs(result.mt_report.r["y1"] - expected_mt) < 1e-12


# ---------------------------------------------------------------------------
# reference implementations: each protocol with its own index-pair loop
# ---------------------------------------------------------------------------


def _ref_correlate_columns(a_values, b_values, variables, a_index, b_index):
    r, notes = {}, {}
    for name in variables:
        try:
            r[name] = pearson(a_values[:, a_index[name]], b_values[:, b_index[name]])
        except DegenerateVarianceError as exc:
            notes[name] = f"undefined: {exc}"
    return r, notes


def _ref_column_index(lex):
    return {name: i for i, name in enumerate(lex.variables.names)}


def _ref_lexicon_id(lex):
    return f"{lex.language}-{lex.provenance}"


def reference_silver_eval(mt, pred, splits, *, ids=None):
    pred.require_unique("silver_eval")
    common = {w for w in splits.mt_test if splits.tag(w) == "test"}
    pred_rows = pred.row_index
    mt_idx, pred_idx = [], []
    for i, w in enumerate(mt.words):
        if w in common and w in pred_rows:
            mt_idx.append(i)
            pred_idx.append(pred_rows[w])
    n = len({mt.words[i] for i in mt_idx})
    if n < 2:
        raise InsufficientOverlapError(f"only {n} shared test word(s); need at least 2")
    names = [v for v in mt.variables.names if v in pred.variables]
    if not names:
        raise SchemaError("the lexicons share no variables")
    r, notes = _ref_correlate_columns(
        mt.values[mt_idx], pred.values[pred_idx], names,
        _ref_column_index(mt), _ref_column_index(pred),
    )
    return EvalReport(
        protocol="silver",
        lexicons=ids if ids is not None else (_ref_lexicon_id(mt), _ref_lexicon_id(pred)),
        language=pred.language, n_shared=n, r=r, notes=notes,
    )


def reference_gold_eval(gold, pred, splits, *, gold_id=None):
    gold.require_unique("gold_eval")
    pred.require_unique("gold_eval")
    names = [v for v in gold.variables.names if v in pred.variables]
    if not names:
        raise SchemaError("gold lexicon shares no variables with the predictions")
    pred_rows = pred.row_index
    gold_idx, pred_idx = [], []
    for i, w in enumerate(gold.words):
        if splits.tag(w) == "test" and w in pred_rows:
            gold_idx.append(i)
            pred_idx.append(pred_rows[w])
    n = len(gold_idx)
    if n < 2:
        raise InsufficientOverlapError(
            f"only {n} gold word(s) inside the prediction test split; need at least 2"
        )
    r, notes = _ref_correlate_columns(
        gold.values[gold_idx], pred.values[pred_idx], names,
        _ref_column_index(gold), _ref_column_index(pred),
    )
    return EvalReport(
        protocol="gold",
        lexicons=(gold_id if gold_id is not None else _ref_lexicon_id(gold),
                  _ref_lexicon_id(pred)),
        language=gold.language, n_shared=n, r=r, coverage=n / len(gold), notes=notes,
    )


def reference_isr_compare(gold1, gold2, pred, splits, *, ids=None):
    for lex in (gold1, gold2, pred):
        lex.require_unique("isr_compare")
    id1, id2, idp = ids if ids is not None else (
        _ref_lexicon_id(gold1), _ref_lexicon_id(gold2), _ref_lexicon_id(pred)
    )
    rows2, rowsp = gold2.row_index, pred.row_index
    triples = [
        (gold1.row_index[w], rows2[w], rowsp[w])
        for w in gold1.words
        if w in rows2 and w in rowsp and splits.tag(w) == "test"
    ]
    if len(triples) < 2:
        raise InsufficientOverlapError(
            f"only {len(triples)} words shared by all three lexicons; need at least 2"
        )
    names = [
        v for v in gold1.variables.names if v in gold2.variables and v in pred.variables
    ]
    if not names:
        raise SchemaError("no variable is shared by all three lexicons")
    i1 = [t[0] for t in triples]
    i2 = [t[1] for t in triples]
    ip = [t[2] for t in triples]

    def pair(av, ai, bv, bi, pair_ids):
        r, notes = _ref_correlate_columns(av, bv, names, ai, bi)
        return EvalReport(protocol="isr", lexicons=pair_ids, language=pred.language,
                          n_shared=len(triples), r=r, notes=notes)

    c1, c2, cp = _ref_column_index(gold1), _ref_column_index(gold2), _ref_column_index(pred)
    return IsrResult(
        gold1_vs_gold2=pair(gold1.values[i1], c1, gold2.values[i2], c2, (id1, id2)),
        gold1_vs_pred=pair(gold1.values[i1], c1, pred.values[ip], cp, (id1, idp)),
        gold2_vs_pred=pair(gold2.values[i2], c2, pred.values[ip], cp, (id2, idp)),
    )


def reference_mt_vs_pred(gold, mt, pred, splits, *, gold_id=None):
    gold.require_unique("mt_vs_pred")
    pred.require_unique("mt_vs_pred")
    names = [v for v in gold.variables.names if v in mt.variables and v in pred.variables]
    if not names:
        raise SchemaError("no variable is shared by gold, MT, and predictions")
    gold_rows, pred_rows = gold.row_index, pred.row_index
    common = {
        w for w in gold.words
        if splits.tag(w) == "train" and w in pred_rows and w in mt.row_index
    }
    if len(common) < 2:
        raise InsufficientOverlapError(
            f"only {len(common)} gold words inside the train split; need at least 2"
        )
    gid = gold_id if gold_id is not None else _ref_lexicon_id(gold)
    g_idx = [gold_rows[w] for w in gold.words if w in common]
    p_idx = [pred_rows[w] for w in gold.words if w in common]
    r_pred, notes_pred = _ref_correlate_columns(
        gold.values[g_idx], pred.values[p_idx], names,
        _ref_column_index(gold), _ref_column_index(pred),
    )
    pred_report = EvalReport(
        protocol="mt_vs_pred", lexicons=(gid, "pred-train"), language=pred.language,
        n_shared=len(common), r=r_pred, notes=notes_pred,
    )
    mt_idx = [
        i for i, (w, s) in enumerate(zip(mt.words, mt.splits))
        if s == "train" and w in common
    ]
    g_for_mt = [gold_rows[mt.words[i]] for i in mt_idx]
    r_mt, notes_mt = _ref_correlate_columns(
        gold.values[g_for_mt], mt.values[mt_idx], names,
        _ref_column_index(gold), _ref_column_index(mt),
    )
    mt_report = EvalReport(
        protocol="mt_vs_pred", lexicons=(gid, "mt-train"), language=mt.language,
        n_shared=len(common), r=r_mt, notes=notes_mt,
    )
    diff = {v: r_pred[v] - r_mt[v] for v in names if v in r_pred and v in r_mt}
    return SimpleNamespace(pred_report=pred_report, mt_report=mt_report, diff=diff)


_POOL = tuple(f"w{i}" for i in range(10))
_VARIABLES = ("Val", "Aro", "Dom", "Joy")
# few distinct values, so constant (zero-variance) columns come up often
_VALUE = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-5, 5, width=32)


@st.composite
def _lexicon(draw, words, provenance="human", tags=None):
    names = draw(st.permutations(_VARIABLES))[:draw(st.sampled_from((1, 2, 3, 4, 4)))]
    rows = draw(st.lists(st.lists(_VALUE, min_size=len(names), max_size=len(names)),
                         min_size=len(words), max_size=len(words)))
    return build_lexicon(
        [(w, vals, tags[i] if tags else "none") for i, (w, vals) in enumerate(zip(words, rows))],
        variables=names, provenance=provenance, language="de",
    )


@st.composite
def _protocol_inputs(draw):
    """An MT lexicon with partial duplicates and mixed split tags, its
    prediction splits, predictions over MT plus vocabulary words, and two
    golds that miss some predicted words and hold some unknown ones."""
    mt_words = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=20))
    tags = draw(st.lists(st.sampled_from(("train", "train", "dev", "test", "test")),
                         min_size=len(mt_words), max_size=len(mt_words)))
    mt = draw(_lexicon(mt_words, "translated", tags))
    vocab = draw(st.sets(st.sampled_from(_POOL + ("v0", "v1", "v2"))))
    splits = derive_prediction_splits(mt, vocab)
    pred_words = draw(st.permutations(sorted(set(mt_words) | vocab)))
    pred = draw(_lexicon(pred_words, "predicted", [splits.tag(w) for w in pred_words]))
    golds = [
        draw(_lexicon(draw(st.lists(st.sampled_from(_POOL + ("g0", "g1")), min_size=2,
                                    unique=True))))
        for _ in range(2)
    ]
    return mt, pred, splits, golds


def _same(result, expected):
    """Equal reports: same JSON text, so r is bit-equal and in key order."""
    as_json = lambda reports: json.dumps([r.to_dict() for r in reports])
    if isinstance(result, MtVsPredResult):
        assert as_json([result.pred_report, result.mt_report]) == \
            as_json([expected.pred_report, expected.mt_report])
        assert json.dumps(result.diff) == json.dumps(expected.diff)
    elif isinstance(result, IsrResult):
        assert as_json(result) == as_json(expected)
    else:
        assert as_json([result]) == as_json([expected])


def _check_against_reference(protocol, reference, *args, **kwargs):
    """The protocol on ``args`` against the reference on ``args`` and the
    splits that the predictions' tags were derived from."""
    *args, splits = args
    try:
        expected = reference(*args, splits, **kwargs)
    except LexiforgeError as exc:
        with pytest.raises(type(exc)) as raised:
            protocol(*args, **kwargs)
        assert str(raised.value) == str(exc)
        return
    _same(protocol(*args, **kwargs), expected)


@settings(max_examples=400, deadline=None)
@given(inputs=_protocol_inputs())
def test_protocols_match_reference_implementations(inputs):
    mt, pred, splits, (gold1, gold2) = inputs
    _check_against_reference(silver_eval, reference_silver_eval, mt, pred, splits)
    _check_against_reference(silver_eval, reference_silver_eval, mt, pred, splits,
                             ids=("de-mt", "de-pred"))
    for gold in (gold1, gold2):
        _check_against_reference(gold_eval, reference_gold_eval, gold, pred, splits,
                                 gold_id="g")
        _check_against_reference(mt_vs_pred, reference_mt_vs_pred, gold, mt, pred, splits)
    _check_against_reference(isr_compare, reference_isr_compare, gold1, gold2, pred, splits)
    # the split filter gives the intersection with the test predictions, copied or not
    _check_against_reference(
        lambda g1, g2, p: isr_compare(g1, g2, restrict_to_test_predictions(p, p)),
        reference_isr_compare, gold1, gold2, pred, splits,
    )
    all_test = replace(pred, splits=("test",) * len(pred))
    _check_against_reference(isr_compare, reference_isr_compare, gold1, gold2, all_test,
                             _all_test(pred.words), ids=("a", "b", "de-pred"))


# ---------------------------------------------------------------------------
# meta agreement
# ---------------------------------------------------------------------------


def test_meta_identity_is_one():
    gold = {f"l{i}": [{"Val": 0.1 * i + 0.2}] for i in range(5)}
    silver = {f"l{i}": {"Val": 0.1 * i + 0.2} for i in range(5)}
    report = meta_agreement(gold, silver)
    assert abs(report.r["Val"] - 1.0) < 1e-12
    assert report.per_variable_n["Val"] == 5


def test_meta_averages_multiple_gold_results_per_language():
    gold = {
        "a": [{"Val": 0.2}, {"Val": 0.4}],  # mean 0.3
        "b": [{"Val": 0.5}],
        "c": [{"Val": 0.9}, {"Val": 0.7}],  # mean 0.8
    }
    silver = {"a": {"Val": 0.3}, "b": {"Val": 0.5}, "c": {"Val": 0.8}}
    report = meta_agreement(gold, silver)
    assert abs(report.r["Val"] - 1.0) < 1e-12


def test_meta_language_counts_follow_inventory():
    # 12 languages carry a dimensional gold dataset, 5 carry a discrete one
    vad_langs = ["en", "es", "de", "pl", "zh", "it", "pt", "nl", "id", "el", "tr", "hr"]
    be5_langs = ["en", "es", "de", "pl", "tr"]
    rng = np.random.default_rng(8)
    gold = {}
    silver = {}
    for lang in vad_langs:
        gold.setdefault(lang, []).append({"Val": float(rng.uniform(0.5, 0.9))})
        silver.setdefault(lang, {})["Val"] = float(rng.uniform(0.5, 0.9))
    for lang in be5_langs:
        gold.setdefault(lang, []).append({"Joy": float(rng.uniform(0.5, 0.9))})
        silver.setdefault(lang, {})["Joy"] = float(rng.uniform(0.5, 0.9))
    report = meta_agreement(gold, silver)
    assert report.per_variable_n == {"Val": 12, "Joy": 5}


def test_meta_planted_correlation_recovered():
    rng = np.random.default_rng(9)
    n_langs = 40
    base = rng.uniform(0.3, 0.9, size=n_langs)
    noise = 0.05 * rng.standard_normal(n_langs)
    gold = {f"l{i}": [{"Val": float(base[i])}] for i in range(n_langs)}
    silver = {f"l{i}": {"Val": float(base[i] + noise[i])} for i in range(n_langs)}
    report = meta_agreement(gold, silver)
    expected = pearson_oracle(base.tolist(), (base + noise).tolist())
    assert abs(report.r["Val"] - expected) < 1e-12


def test_meta_single_language_variable_is_skipped():
    gold = {"a": [{"Val": 0.5, "Aro": 0.4}], "b": [{"Val": 0.6}]}
    silver = {"a": {"Val": 0.5, "Aro": 0.3}, "b": {"Val": 0.7}}
    report = meta_agreement(gold, silver)
    assert "Val" in report.r
    assert "Aro" not in report.r
    assert report.per_variable_n["Aro"] == 1
    assert "Aro" in report.notes


def test_meta_no_applicable_variable_raises():
    with pytest.raises(InsufficientOverlapError):
        meta_agreement({"a": [{"Val": 0.5}]}, {"a": {"Val": 0.5}})


# ---------------------------------------------------------------------------
# reports and rendering
# ---------------------------------------------------------------------------


def test_report_json_round_trip_lossless(tmp_path):
    report = EvalReport(
        protocol="gold",
        lexicons=("de1", "de-pred"),
        language="de",
        n_shared=677,
        r={"Val": 0.8932519413, "Aro": 0.7771234567891234},
        coverage=0.6751,
        notes={"Dom": "undefined: zero variance in first series"},
    )
    path = tmp_path / "report.json"
    save_reports([report], path)
    (loaded,) = load_reports(path)
    assert loaded == report
    assert loaded.r["Aro"] == report.r["Aro"]  # bit-exact through JSON


def test_report_validation():
    with pytest.raises(ValueError):
        EvalReport("bogus", ("a", "b"), "de", 5, {})
    with pytest.raises(ValueError):
        EvalReport("gold", ("a", "b"), "de", 5, {"Val": 1.5})
    with pytest.raises(ValueError):
        EvalReport("gold", ("a", "b"), "de", 1, {"Val": 0.5})


def test_format_r_compact_style():
    assert format_r(0.94) == ".94"
    assert format_r(-0.12) == "-.12"
    assert format_r(1.0) == "1.00"
    assert format_r(0.955) == ".95" or format_r(0.955) == ".96"  # banker's rounding


def test_render_pair_table_layout():
    report = EvalReport("gold", ("de1", "pred"), "de", 677, {"Val": 0.89, "Aro": 0.78},
                        coverage=0.67)
    text = render_pair_table([report])
    lines = text.splitlines()
    assert lines[0].split() == ["ID", "Shared", "(%)", "Val", "Aro"]
    assert lines[1].split() == ["de1", "677", "67", ".89", ".78"]


def test_render_meta_table_layout():
    report = EvalReport(
        "meta", ("gold-results", "silver-results"), "multi", 12,
        {"Val": 0.54, "Joy": 0.91}, per_variable_n={"Val": 12, "Joy": 5},
    )
    text = render_meta_table(report)
    lines = text.splitlines()
    assert lines[1].split() == ["#Lg", "12", "5"]
    assert lines[2].split() == ["r", ".54", ".91"]


def test_write_reports_tsv_text():
    reports = [
        EvalReport("silver", ("de-mt", "de-pred"), "de", 980, {"Val": 0.89, "Aro": 0.66}),
        EvalReport("gold", ("de1", "de-pred"), "de", 677, {"Val": 0.887}, coverage=0.67,
                   notes={"Dom": "undefined: zero variance in first series"}),
    ]
    buf = io.StringIO()
    write_reports_tsv(reports, buf)
    assert buf.getvalue() == (
        "protocol\tlexicons\tlanguage\tshared\tcoverage\tvariable\tr\n"
        "silver\tde-mt|de-pred\tde\t980\t\tVal\t.89\n"
        "silver\tde-mt|de-pred\tde\t980\t\tAro\t.66\n"
        "gold\tde1|de-pred\tde\t677\t0.6700\tVal\t.89\n"
        "gold\tde1|de-pred\tde\t677\t0.6700\tDom\tn/a\n"
    )
