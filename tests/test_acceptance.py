"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute. The last criterion exercises real published data and is skipped
with a notice unless LEXIFORGE_REFERENCE_DATA points at a directory holding it.
"""

import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lexiforge import (
    EmbeddingStore,
    IsrResult,
    RunSettings,
    TrainConfig,
    collapse_duplicates,
    derive_prediction_splits,
    embed_term,
    fit_mtlffn,
    fit_ridge,
    load_lexicon,
    pearson,
    project_lexicon,
    run_pipeline,
)
from lexiforge.pipeline import prepare_source
from helpers import build_lexicon, expanded, predicted, write_pipeline_bundle
from test_models import grad_check, ridge_oracle_exact


def check(cid: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {cid} {name}: {status}{suffix}")
    assert ok, f"{cid} {name} failed {suffix}"


# ---------------------------------------------------------------------------
# C1: split algebra vs brute-force oracle
# ---------------------------------------------------------------------------


def test_c1_split_algebra_property_suite():
    rng = random.Random(42)
    started = time.perf_counter()
    violations = 0
    for _ in range(1000):
        n_words = rng.randint(1, 200)
        universe = [f"w{i}" for i in range(n_words)]
        sample = lambda: set(rng.sample(universe, rng.randint(0, n_words)))
        mt_train, mt_dev, mt_test, vocab = sample(), sample(), sample(), sample()
        rows = []
        for tag, words in (("train", mt_train), ("dev", mt_dev), ("test", mt_test)):
            rows.extend((w, (0.0,), tag) for w in sorted(words))
        if not rows:
            rows = [("placeholder", (0.0,), "train")]
            mt_train = {"placeholder"}
        mt = build_lexicon(rows, variables=("y1",), provenance="translated")
        splits = derive_prediction_splits(mt, vocab)

        # brute force: per-word membership evaluation of the definitions
        everything = set(universe) | vocab | {"placeholder"}
        oracle_train = {w for w in everything if w in mt_train}
        oracle_dev = {w for w in everything if w in mt_dev and w not in mt_train}
        oracle_test = {
            w for w in everything
            if (w in mt_test or w in vocab) and w not in mt_dev and w not in mt_train
        }
        ok = (
            splits.pred_train == oracle_train
            and splits.pred_dev == oracle_dev
            and splits.pred_test == oracle_test
            and not splits.pred_train & splits.pred_dev
            and not splits.pred_train & splits.pred_test
            and not splits.pred_dev & splits.pred_test
        )
        if not ok:
            violations += 1
    elapsed = time.perf_counter() - started
    check(
        "C1", "split-algebra",
        violations == 0 and elapsed < 5.0,
        f"{violations} violations in 1000 instances, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# C2: gradient check over 20 seeds
# ---------------------------------------------------------------------------


def test_c2_gradient_check_over_seeds():
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(777)
    for seed in range(20):
        d = int(rng.integers(2, 17))
        k = int(rng.integers(1, 6))
        n = int(rng.integers(3, 9))
        cfg = TrainConfig(hidden=(16, 8), input_dropout=0.0, hidden_dropout=0.0, seed=seed)
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, k))
        worst = max(worst, grad_check(cfg, X, Y))
    elapsed = time.perf_counter() - started
    check(
        "C2", "gradient-check",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative error {worst:.3e} over 20 seeds, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# C3: ridge vs exact normal-equations oracle
# ---------------------------------------------------------------------------


def test_c3_ridge_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 31))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        X = rng.integers(-40, 40, size=(n, d)) / 16.0
        Y = rng.integers(-40, 40, size=(n, k)) / 16.0
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        model = fit_ridge(X, Y, alpha)
        coef, intercept = ridge_oracle_exact(X, Y, alpha)
        worst = max(
            worst,
            float(np.abs(model.coef - coef).max()),
            float(np.abs(model.intercept - intercept).max()),
        )
    # alpha = 0 interpolates exactly linear data
    X = rng.standard_normal((40, 6))
    W = rng.standard_normal((6, 2))
    Y = X @ W + np.array([0.5, -1.5])
    model = fit_ridge(X, Y, alpha=0.0)
    interp_err = float(np.abs(model.coef - W).max())
    check(
        "C3", "ridge-oracle",
        worst < 1e-10 and interp_err < 1e-8,
        f"worst oracle distance {worst:.2e}, interpolation error {interp_err:.2e}",
    )


# ---------------------------------------------------------------------------
# C4: pearson vs direct formula, affine invariance, sign flip
# ---------------------------------------------------------------------------


def _pearson_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.fsum((a - mx) ** 2 for a in x)
    sy = math.fsum((b - my) ** 2 for b in y)
    return num / math.sqrt(sx * sy)


def test_c4_pearson_oracle_equivalence():
    rng = np.random.default_rng(4242)
    worst_direct = worst_affine = worst_flip = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        x = rng.uniform(-100.0, 100.0, size=n)
        y = rng.uniform(-100.0, 100.0, size=n)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        r = pearson(x, y)
        worst_direct = max(worst_direct, abs(r - _pearson_oracle(x.tolist(), y.tolist())))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-50.0, 50.0))
        worst_affine = max(worst_affine, abs(pearson(a * x + b, y) - r))
        worst_flip = max(worst_flip, abs(pearson(-x, y) + r))
    ok = worst_direct < 1e-12 and worst_affine < 1e-12 and worst_flip < 1e-12
    check(
        "C4", "pearson-oracle",
        ok,
        f"direct {worst_direct:.2e}, affine {worst_affine:.2e}, flip {worst_flip:.2e}",
    )


# ---------------------------------------------------------------------------
# C5: iteration-count arithmetic
# ---------------------------------------------------------------------------


def test_c5_iteration_count_arithmetic():
    n = 11463
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 1))
    cfg = TrainConfig(hidden=(4, 3), batch_size=128, epochs=168, seed=0)
    model = fit_mtlffn(X, Y, cfg)
    expected = math.ceil(n / 128) * 168
    check(
        "C5", "iteration-count",
        model.steps_trained == 15120 and expected == 15120,
        f"executed {model.steps_trained} steps, expected 15120",
    )


# ---------------------------------------------------------------------------
# C6 / C7: synthetic end-to-end runs and determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    bundle = write_pipeline_bundle(root / "linear", seed=1234)

    def run(model, out_name, data=bundle, gold=True):
        settings = RunSettings(
            source=data["source"],
            embeddings=data["embeddings"],
            out=root / out_name,
            table=data["table"],
            gold={"gen": data["gold"]} if gold else {},
            model=model,
            train=TrainConfig(seed=5),
        )
        started = time.perf_counter()
        result = run_pipeline(settings)
        return result, time.perf_counter() - started

    mtlffn_result, mtlffn_seconds = run("mtlffn", "mtlffn_run")
    ridge_result, _ = run("ridge", "ridge_run")
    run("mtlffn", "mtlffn_repeat")

    quad = write_pipeline_bundle(root / "quad", seed=1234, quadratic=0.5)
    quad_mtlffn, _ = run("mtlffn", "quad_mtlffn", data=quad, gold=False)
    quad_ridge, _ = run("ridge", "quad_ridge", data=quad, gold=False)

    return {
        "root": root,
        "mtlffn": mtlffn_result,
        "mtlffn_seconds": mtlffn_seconds,
        "ridge": ridge_result,
        "quad_mtlffn": quad_mtlffn,
        "quad_ridge": quad_ridge,
    }


def test_c6_synthetic_end_to_end(end_to_end):
    mtlffn = end_to_end["mtlffn"]
    ridge = end_to_end["ridge"]
    seconds = end_to_end["mtlffn_seconds"]

    mtlffn_min = min(mtlffn["silver"][0].r.values())
    ridge_min = min(ridge["silver"][0].r.values())
    gold_min = min(mtlffn["gold_gen"][0].r.values())
    quad_mean_mtlffn = float(np.mean(list(end_to_end["quad_mtlffn"]["silver"][0].r.values())))
    quad_mean_ridge = float(np.mean(list(end_to_end["quad_ridge"]["silver"][0].r.values())))

    ok = (
        seconds < 60.0
        and mtlffn_min >= 0.90
        and ridge_min >= 0.95
        and gold_min >= 0.90
        and quad_mean_mtlffn >= quad_mean_ridge
    )
    check(
        "C6", "synthetic-end-to-end",
        ok,
        f"run {seconds:.1f}s; silver mtlffn>={mtlffn_min:.3f}, ridge>={ridge_min:.3f}, "
        f"gold>={gold_min:.3f}; nonlinear mtlffn {quad_mean_mtlffn:.3f} vs "
        f"ridge {quad_mean_ridge:.3f}",
    )


def test_c7_determinism_bitwise(end_to_end):
    first = end_to_end["root"] / "mtlffn_run"
    second = end_to_end["root"] / "mtlffn_repeat"

    def same(name):
        return (first / name).read_bytes() == (second / name).read_bytes()

    pred_equal = same("target_pred.tsv")
    silver_equal = same("reports/silver.json")
    mt_equal = same("target_mt.tsv")
    check(
        "C7", "determinism",
        pred_equal and silver_equal and mt_equal,
        f"pred bytes equal: {pred_equal}, silver report equal: {silver_equal}",
    )


# ---------------------------------------------------------------------------
# C8: embedding fallback behavior table
# ---------------------------------------------------------------------------


def test_c8_embedding_fallback_suite():
    rng = np.random.default_rng(2024)
    vocab = {name: rng.standard_normal(5) for name in
             ["sun", "shine", "rain", "bow", "l", "eau", "self-made", "o'clock"]}
    store = EmbeddingStore(list(vocab), np.vstack(list(vocab.values())))

    def mean_of(*names):
        return np.mean([vocab[n] for n in names], axis=0)

    cases = []
    # direct hits, including separator-carrying vocabulary entries
    for name in vocab:
        cases.append((name, "direct", vocab[name]))
    # averaged: every separator, multi-separator, partial hits
    separators = [" ", "-", "'", "’"]
    for sep in separators:
        cases.append((f"sun{sep}rain", "averaged", mean_of("sun", "rain")))
        cases.append((f"sun{sep}qqq", "averaged", vocab["sun"]))
        cases.append((f"qqq{sep}rain", "averaged", vocab["rain"]))
        cases.append((f"sun{sep}{sep}rain", "averaged", mean_of("sun", "rain")))
    cases.append(("sun rain-bow", "averaged", mean_of("sun", "rain", "bow")))
    cases.append(("l'eau", "averaged", mean_of("l", "eau")))
    cases.append(("l’eau", "averaged", mean_of("l", "eau")))
    cases.append(("sun-rain'bow shine", "averaged", mean_of("sun", "rain", "bow", "shine")))
    cases.append(("self-made-rain", "averaged", mean_of("self", "made", "rain"))
                 if "self" in vocab else ("self-made-rain", "averaged", vocab["rain"]))
    # zero: nothing recognizable, including separator-only terms
    zero = np.zeros(5)
    for term in ["qqq", "zzz-yyy", "a'b'c", "-", "--", "' '", "’", "unknown word"]:
        cases.append((term, "zero", zero))
    # pad with generated two-part combinations to exceed 100 cases;
    # separator-free parts keep the independent expectation trivial
    simple_names = [n for n in vocab if not any(s in n for s in separators)]
    while len(cases) < 100:
        a, b = rng.choice(simple_names), rng.choice(simple_names)
        sep = separators[len(cases) % 4]
        term = f"{a}{sep}{b}"
        if term in vocab:
            cases.append((term, "direct", vocab[term]))
        else:
            cases.append((term, "averaged", mean_of(a, b)))

    failures = []
    for term, expected_tag, expected_vec in cases:
        vec, tag = embed_term(store, term)
        if tag != expected_tag or not np.allclose(vec, expected_vec, atol=1e-15):
            failures.append((term, tag, expected_tag))
    check(
        "C8", "embedding-fallback",
        len(failures) == 0 and len(cases) >= 100,
        f"{len(cases)} cases, {len(failures)} failures",
    )


# ---------------------------------------------------------------------------
# C9: duplicate-merge soundness under many-to-one translation
# ---------------------------------------------------------------------------


def test_c9_duplicate_merge_soundness(tmp_path):
    rng = np.random.default_rng(31)
    n_vocab, dim = 300, 8
    words = [f"w{i:03d}" for i in range(n_vocab)]
    store = EmbeddingStore(words, rng.standard_normal((n_vocab, dim)))

    # 200 source words; every pair of consecutive source words collapses
    # onto one target word
    source_rows = []
    mapping = {}
    for i in range(200):
        tag = "train" if i < 140 else "dev" if i < 170 else "test"
        source_rows.append((f"s{i:03d}", rng.standard_normal(2).tolist(), tag))
        mapping[f"s{i:03d}"] = words[i // 2]
    source = build_lexicon(source_rows, variables=("y1", "y2"))
    mt = project_lexicon(source, mapping)
    assert len(set(mt.words)) < len(mt.words)  # the injection worked

    splits = derive_prediction_splits(mt, store)
    train_rows = [i for i, s in enumerate(mt.splits) if s == "train"]
    from lexiforge import embed_matrix

    X, _ = embed_matrix(store, [mt.words[i] for i in train_rows])
    model = fit_mtlffn(
        X, mt.values[train_rows],
        TrainConfig(hidden=(16, 8), epochs=20, batch_size=32, seed=2),
        variables=mt.variables,
    )

    pre = predicted([model], store, mt, splits)
    spreads = {}
    first_row = {}
    for i, w in enumerate(pre.words):
        if w in first_row:
            spread = float(np.abs(pre.values[i] - pre.values[first_row[w]]).max())
            spreads[w] = max(spreads.get(w, 0.0), spread)
        else:
            first_row[w] = i
    worst_spread = max(spreads.values()) if spreads else 0.0

    merged = collapse_duplicates(pre)
    result = expanded([model], store, mt, splits)
    ok = (
        len(spreads) > 0
        and worst_spread <= 1e-6
        and len(set(merged.words)) == len(merged.words)
        and len(set(result.words)) == len(result.words)
        and len(result) == len(set(mt.words) | set(store.words))
    )
    check(
        "C9", "duplicate-merge",
        ok,
        f"{len(spreads)} duplicate groups, max spread {worst_spread:.2e}",
    )


# ---------------------------------------------------------------------------
# C10: published reference results (gated on real data availability)
# ---------------------------------------------------------------------------

REFERENCE_DATA_ENV = "LEXIFORGE_REFERENCE_DATA"
_REFERENCE_FILES = {
    "source": "source.tsv",
    "test_ref": "test_ref.txt",
    "dev_ref": "dev_ref.txt",
    "embeddings": "embeddings.vec",
    "gold_en1": "gold_en1.tsv",
}


def test_c10_reference_fixtures(tmp_path):
    data_dir = os.environ.get(REFERENCE_DATA_ENV)
    if not data_dir:
        print(
            f"[acceptance] C10 reference-fixtures: SKIPPED - set {REFERENCE_DATA_ENV} to "
            f"a directory containing {sorted(_REFERENCE_FILES.values())} to enable"
        )
        pytest.skip(f"{REFERENCE_DATA_ENV} not set; real source lexicon and vectors required")
    data = {key: Path(data_dir) / name for key, name in _REFERENCE_FILES.items()}
    missing = [str(p) for p in data.values() if not p.exists()]
    if missing:
        print(f"[acceptance] C10 reference-fixtures: SKIPPED - missing files: {missing}")
        pytest.skip(f"missing reference data files: {missing}")

    prepared = tmp_path / "source_prepared.tsv"
    tagged = prepare_source(
        data["source"], data["test_ref"], data["dev_ref"], prepared, language="en"
    )
    sizes = tagged.split_sizes()
    print(
        f"[acceptance] C10 prepared source: {len(tagged)} entries "
        f"(train {sizes['train']}, dev {sizes['dev']}, test {sizes['test']})"
    )
    settings = RunSettings(
        source=prepared,
        embeddings=data["embeddings"],
        out=tmp_path / "en_run",
        skip_translation=True,
        gold={"en1": data["gold_en1"]},
        source_lang="en",
        target_lang="en",
        train=TrainConfig(seed=0),
    )
    gold_args = {"en1": data["gold_en1"]}
    gold_en2 = Path(data_dir) / "gold_en2.tsv"
    if gold_en2.exists():
        gold_args["en2"] = gold_en2
    settings = RunSettings(
        source=prepared,
        embeddings=data["embeddings"],
        out=tmp_path / "en_run",
        skip_translation=True,
        gold=gold_args,
        source_lang="en",
        target_lang="en",
        train=TrainConfig(seed=0),
    )
    reports = run_pipeline(settings)
    silver = reports["silver"][0].r
    gold = reports["gold_en1"][0].r
    expected_silver = {"Val": 0.94, "Aro": 0.76}
    expected_gold = {"Val": 0.94, "Aro": 0.76, "Dom": 0.88}
    silver_ok = all(abs(silver[k] - v) <= 0.03 for k, v in expected_silver.items())
    gold_ok = all(abs(gold[k] - v) <= 0.03 for k, v in expected_gold.items())
    isr_ok = True
    isr_detail = ""
    if "isr_en1_en2" in reports:
        # inter-study reliability fixture: both English studies vs predictions
        isr = IsrResult(*reports["isr_en1_en2"])
        isr_ok = (
            isr.gold1_vs_gold2.n_shared == 1032
            and abs(isr.gold1_vs_gold2.r["Val"] - 0.953) <= 0.03
            and abs(isr.gold1_vs_pred.r["Val"] - 0.941) <= 0.03
        )
        isr_detail = (
            f"; isr n={isr.gold1_vs_gold2.n_shared} "
            f"G1vsG2 Val {isr.gold1_vs_gold2.r['Val']:.3f} "
            f"G1vsPr Val {isr.gold1_vs_pred.r['Val']:.3f}"
        )
    check(
        "C10", "reference-fixtures",
        silver_ok and gold_ok and isr_ok,
        f"silver {silver}, gold {gold}{isr_detail}",
    )
