"""Shared builders for test lexicons and synthetic data."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from lexiforge import (
    BE5_NAMES,
    VAD_NAMES,
    EmbeddingStore,
    Lexicon,
    TrainConfig,
    VariableSet,
    collapse_duplicates,
    derive_prediction_splits,
    embed_matrix,
    fit_mtlffn,
    parse_lexicon,
    predict,
    predict_lexicon,
    save_lexicon,
    serialize_lexicon,
    variable_groups,
    write_expansion,
)
from lexiforge.lexicon import concat_lexicons


def serialize_embedding_store(store: EmbeddingStore, stream) -> None:
    """Write a store in the text vector format that ``load_embedding_store`` reads."""
    stream.write(f"{len(store)} {store.dimension}\n")
    for i, word in enumerate(store.words):
        stream.write(" ".join([word, *(repr(float(v)) for v in store.vectors[i])]) + "\n")


def save_embedding_store(store: EmbeddingStore, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        serialize_embedding_store(store, fh)


def save_translation_table(table: dict[str, str], path) -> None:
    """Write a table as the two-column TSV that ``load_translation_table`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for src, tgt in table.items():
            fh.write(f"{src}\t{tgt}\n")


def build_lexicon(
    rows,
    variables=("Val", "Aro"),
    provenance="human",
    language="und",
):
    """Build a lexicon from (word, values) or (word, values, split) rows."""
    words = []
    values = []
    splits = []
    for row in rows:
        if len(row) == 3:
            word, vals, split = row
        else:
            word, vals = row
            split = "none"
        words.append(word)
        values.append(list(np.atleast_1d(vals)))
        splits.append(split)
    k = len(tuple(variables))
    return Lexicon(
        variables=VariableSet(tuple(variables)),
        words=tuple(words),
        values=np.asarray(values, dtype=np.float64).reshape(len(words), k),
        splits=tuple(splits),
        provenance=provenance,
        language=language,
    )


def lexicon_tsv(rows, variables=("Val", "Aro"), with_split=False) -> str:
    """Render rows as the TSV text format."""
    header = ["word", *variables] + (["split"] if with_split else [])
    lines = ["\t".join(header)]
    for row in rows:
        word, vals = row[0], row[1]
        fields = [word] + [str(v) for v in np.atleast_1d(vals)]
        if with_split:
            fields.append(row[2])
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def write_pipeline_bundle(
    root: Path,
    *,
    n_source: int = 600,
    n_vocab: int = 2000,
    dim: int = 16,
    k: int = 3,
    noise_scale: float = 0.05,
    quadratic: float = 0.0,
    seed: int = 1234,
    split_sizes: tuple[int, int, int] = (500, 50, 50),
    variables: tuple[str, ...] | None = None,
) -> dict:
    """Synthetic pipeline inputs: linear (plus optional quadratic) targets.

    Writes an embedding file of ``n_vocab`` words, a split-tagged source
    lexicon over the first ``n_source`` of them whose ratings are the
    true targets plus Gaussian noise (sigma = ``noise_scale`` times each
    column's sd), an identity translation table, and a gold lexicon
    holding the noiseless targets for every vocabulary word. The ``k``
    variables are ``y1``, ``y2``, ... unless ``variables`` names them.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    variables = variables or tuple(f"y{i + 1}" for i in range(k))
    k = len(variables)

    words = [f"w{i:05d}" for i in range(n_vocab)]
    vectors = rng.standard_normal((n_vocab, dim))
    store = EmbeddingStore(words, vectors)
    embeddings_path = root / "embeddings.vec"
    save_embedding_store(store, embeddings_path)

    linear_map = rng.standard_normal((dim, k))
    clean = vectors @ linear_map
    if quadratic:
        quad_map = rng.standard_normal((dim, k))
        clean = clean + quadratic * (vectors @ quad_map) ** 2
    noisy = clean + noise_scale * clean.std(axis=0) * rng.standard_normal((n_vocab, k))

    n_train, n_dev, n_test = split_sizes
    assert n_train + n_dev + n_test == n_source
    tags = ["train"] * n_train + ["dev"] * n_dev + ["test"] * n_test
    source = build_lexicon(
        [(words[i], noisy[i].tolist(), tags[i]) for i in range(n_source)],
        variables=variables,
    )
    source_path = root / "source.tsv"
    save_lexicon(source, source_path)

    table_path = root / "table.tsv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        for w in words[:n_source]:
            fh.write(f"{w}\t{w}\n")

    gold = build_lexicon(
        [(words[i], clean[i].tolist()) for i in range(n_vocab)], variables=variables
    )
    gold_path = root / "gold.tsv"
    save_lexicon(gold, gold_path)

    return {
        "embeddings": embeddings_path,
        "source": source_path,
        "table": table_path,
        "gold": gold_path,
        "variables": variables,
        "clean": clean,
        "noisy": noisy,
        "words": words,
    }


def expansion_fixture(n_rows: int, *, dim: int = 300, seed: int = 5):
    """Models, store, MT lexicon and splits whose prediction has ``n_rows`` rows.

    The MT lexicon has 7,000 word types over the VAD and BE5 variables
    (every 97th a two-token phrase, every 101st missing from the store)
    followed by 40 partial duplicates of its first words, so with more
    than 7,040 rows each duplicate pair straddles a prediction chunk
    boundary. The store holds the MT words plus embedding-only words
    up to ``n_rows``. One MTLFFN per variable group, with the default
    hidden layers, is trained for one epoch on the first 256 entries.
    """
    rng = np.random.default_rng(seed)
    types = [f"m{i} m{i + 1}" if i % 97 == 1 else f"m{i}" for i in range(7000)]
    mt_words = types + types[:40]
    tags = ["train"] * 256 + ["dev"] * 500 + ["test"] * (len(mt_words) - 756)
    variables = VAD_NAMES + BE5_NAMES
    values = rng.uniform(1.0, 9.0, (len(mt_words), len(variables)))
    mt = build_lexicon(
        [(w, v, t) for w, v, t in zip(mt_words, values, tags)],
        variables=variables, provenance="translated",
    )
    vocab = [w for i, w in enumerate(types) if " " not in w and i % 101 != 3]
    vocab += [f"e{i}" for i in range(n_rows - len(mt_words))]
    store = EmbeddingStore(vocab, rng.standard_normal((len(vocab), dim)))
    X, _ = embed_matrix(store, mt_words[:256])
    models = [
        fit_mtlffn(X, values[:256, [variables.index(n) for n in group.names]],
                   TrainConfig(epochs=1, seed=seed), group)
        for group in variable_groups(mt.variables)
    ]
    return models, store, mt, derive_prediction_splits(mt, store)


def predicted(models, store, mt, splits) -> Lexicon:
    """Every row that ``predict_lexicon`` writes, as one lexicon."""
    chunks = []
    predict_lexicon(models, store, mt, splits, chunks.append)
    return concat_lexicons(chunks)


def expanded(models, store, mt, splits) -> Lexicon:
    """The lexicon that ``write_expansion`` writes, read back."""
    stream = io.StringIO()
    write_expansion(models, store, mt, splits, stream)
    stream.seek(0)
    return parse_lexicon(stream, provenance="predicted", language=mt.language)


def one_call_expansion(models, store, mt, splits) -> Lexicon:
    """The expansion as one ``predict`` call per model over all its rows
    computes it, its MT duplicates collapsed."""
    words = list(mt.words) + [w for w in store.words if w not in mt.row_index]
    matrix, _ = embed_matrix(store, words)
    return collapse_duplicates(Lexicon(
        variables=VariableSet([n for model in models for n in model.variables.names]),
        words=words, values=np.hstack([predict(model, matrix) for model in models]),
        splits=[splits.tag(w) for w in words], provenance="predicted", language=mt.language,
    ))


def tsv_text(lex: Lexicon) -> str:
    """The lexicon as ``serialize_lexicon`` writes it."""
    stream = io.StringIO()
    serialize_lexicon(lex, stream)
    return stream.getvalue()
