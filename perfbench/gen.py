"""Seeded synthetic inputs for the lexiforge benchmark.

One call of :func:`generate` writes, from a seed alone:

- ``embeddings.vec``: a fastText-style text vector file (``<count> <dim>``
  header, 4-decimal floats) over pseudo-words, some with non-ASCII
  letters, all in NFC form;
- ``source.tsv``: a split-tagged 8-variable source lexicon (Val/Aro/Dom
  on 1-9, Joy/Ang/Sad/Fea/Dis on 1-5);
- ``table.tsv``: a source-to-target translation table;
- ``gold_<id>.tsv``: target-language gold lexicons.

Labels follow a known linear structure: the clean rating of a target
word is an integer linear map of its (exactly representable) quantised
vector, so the model can learn it and the quality floors mean
something. The map is the same for every seed (drawn from
``LABEL_MAP_SEED``), so the seed moves the words, vectors, noise,
table and splits but not how hard the regression is. Source ratings
add noise of ``SOURCE_NOISE`` clean standard deviations, gold ratings
``GOLD_NOISE``. The translation table
exercises every lookup path of the program: direct targets, many-to-one
targets (partial duplicates in the translated lexicon), multi-token,
hyphen and apostrophe targets (averaged vectors), targets absent from
the vocabulary (zero vectors), and untranslated source words.

Every value is computed with integer or elementwise arithmetic, so the
bytes depend on the seed only, never on BLAS or its thread count.

The generator emits no NFC/NFD twins (the same word in two Unicode
normal forms): lexiforge parses vector files without normalising, so a
twin pair makes ``lexiforge evaluate`` reject its own run's files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

VAD = ("Val", "Aro", "Dom")
BE5 = ("Joy", "Ang", "Sad", "Fea", "Dis")
VARIABLES = VAD + BE5
# (centre, spread, low, high) of each family's rating scale
SCALES = {"vad": (5.0, 1.3, 1.0, 9.0), "be5": (2.2, 0.6, 1.0, 5.0)}

SOURCE_NOISE = 0.3
GOLD_NOISE = 0.2
LABEL_MAP_SEED = 0
QUANT = 10_000  # vector components are multiples of 1/QUANT
VECTOR_SD = 0.1  # component sd, about that of fastText vectors

# Pseudo-words are one-consonant-one-vowel syllables, so a word parses
# back into its syllables in one way only and words of distinct codes
# never collide. A share of the target words then gets one letter
# replaced by a precomposed (NFC) non-ASCII letter. Zero-path targets
# start with "x", which no vocabulary word contains.
_SYLLABLES = [c + v for c in "bcdfghklmnprstvwz" for v in "aeiou"]
_ACCENTED = {"a": "ä", "o": "ö", "u": "ü", "e": "é", "n": "ñ", "c": "ç", "s": "ß"}
NON_ASCII_SHARE = 0.15
_JOINERS = (" ", "-", "'", "’")
# share of the source words per translation kind; the rest are direct
UNTRANSLATED, ZERO, AVERAGED, MANY_TO_ONE = 0.02, 0.01, 0.04, 0.10


@dataclass(frozen=True)
class Shape:
    """Sizes of one generated input set."""

    n_vocab: int
    n_gold: int = 2  # 1 or 2 gold lexicons, sized by gold_words
    dim: int = 300
    n_source: int = 14_000
    n_train: int = 11_463
    gold_words: tuple[int, ...] = (3_000, 2_000)

    @property
    def n_dev(self) -> int:
        return (self.n_source - self.n_train) // 2


@dataclass
class Inputs:
    """Paths of the generated files plus what the generator knows."""

    root: Path
    embeddings: Path
    source: Path
    table: Path
    gold: dict[str, Path]
    counts: dict[str, int]


def _pseudo_words(codes: np.ndarray, lengths: np.ndarray, syllables: list[str]) -> list[str]:
    base = len(syllables)
    words = []
    for code, length in zip(codes.tolist(), lengths.tolist()):
        parts = []
        for _ in range(length):
            code, digit = divmod(code, base)
            parts.append(syllables[digit])
        words.append("".join(parts))
    return words


def _unique_words(rng: np.random.Generator, n: int, syllables: list[str]) -> list[str]:
    """``n`` distinct words of 3 or 4 syllables in seeded random order."""
    base = len(syllables)
    n3 = min(n // 3, base**3)
    codes3 = rng.choice(base**3, size=n3, replace=False)
    codes4 = rng.choice(base**4, size=n - n3, replace=False)
    codes = np.concatenate([codes3, codes4])
    lengths = np.concatenate([np.full(n3, 3), np.full(n - n3, 4)])
    order = rng.permutation(n)
    return _pseudo_words(codes[order], lengths[order], syllables)


def _accent(rng: np.random.Generator, words: list[str], share: float) -> list[str]:
    """Give about ``share`` of the words one non-ASCII letter, keeping them unique."""
    taken = set(words)
    out = list(words)
    for i in np.flatnonzero(rng.random(len(words)) < share).tolist():
        word = out[i]
        pos = next((p for p, ch in enumerate(word) if ch in _ACCENTED), None)
        if pos is None:
            continue
        candidate = word[:pos] + _ACCENTED[word[pos]] + word[pos + 1 :]
        if candidate not in taken:
            taken.add(candidate)
            out[i] = candidate
    return out


def _format_table() -> np.ndarray:
    """' <value>' for every quantised component, NUL-padded to 8 bytes."""
    ks = range(-(QUANT - 1), QUANT)
    return np.array(
        [f" {'-' if k < 0 else ''}0.{abs(k):04d}".encode() for k in ks], dtype="S8"
    )


def _write_vectors(rng, path: Path, words: list[str], shape: Shape, coef: np.ndarray,
                   chunk: int = 5_000) -> np.ndarray:
    """Write the vector file; return each word's clean integer label row."""
    table = _format_table()
    n, dim = len(words), shape.dim
    clean = np.empty((n, coef.shape[1]), dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(f"{n} {dim}\n".encode())
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            q = np.rint(rng.standard_normal((stop - start, dim)) * VECTOR_SD * QUANT)
            q = np.clip(q, -(QUANT - 1), QUANT - 1).astype(np.int64)
            clean[start:stop] = q @ coef
            cells = table[q + (QUANT - 1)]
            widths = np.char.str_len(cells).sum(axis=1)
            body = cells.tobytes().replace(b"\0", b"")
            ends = np.cumsum(widths).tolist()
            begin = 0
            lines = []
            for word, end in zip(words[start:stop], ends):
                lines.append(word.encode())
                lines.append(body[begin:end])
                lines.append(b"\n")
                begin = end
            fh.write(b"".join(lines))
    return clean


def _to_scale(z: np.ndarray) -> np.ndarray:
    """Map standard scores to the VAD and BE5 rating scales, clipped."""
    out = np.empty_like(z)
    for j, name in enumerate(VARIABLES):
        centre, spread, low, high = SCALES["vad" if name in VAD else "be5"]
        out[:, j] = np.clip(centre + spread * z[:, j], low, high)
    return out


def _write_lexicon(path: Path, names, words, values, splits=None) -> None:
    header = ["word", *names] + (["split"] if splits is not None else [])
    lines = ["\t".join(header)]
    for i, word in enumerate(words):
        fields = [word, *(f"{v:.2f}" for v in values[i])]
        if splits is not None:
            fields.append(splits[i])
        lines.append("\t".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(root, seed: int, shape: Shape) -> Inputs:
    """Write one seeded input set under ``root`` and describe it."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, shape.n_vocab, shape.dim])
    k = len(VARIABLES)

    vocab = _accent(rng, _unique_words(rng, shape.n_vocab, _SYLLABLES), NON_ASCII_SHARE)
    coef = np.random.default_rng(LABEL_MAP_SEED).integers(-1_000, 1_001, size=(shape.dim, k))
    embeddings = root / "embeddings.vec"
    clean_int = _write_vectors(rng, embeddings, vocab, shape, coef)
    # standardise with the known population sd of q @ coef
    sd = VECTOR_SD * QUANT * np.sqrt((coef.astype(np.float64) ** 2).sum(axis=0))
    clean = clean_int / sd

    # translation table: each source word gets one kind of target
    n_src = shape.n_source
    sources = _unique_words(rng, n_src, _SYLLABLES)
    n_untr = round(n_src * UNTRANSLATED)
    n_zero = round(n_src * ZERO)
    n_avg = round(n_src * AVERAGED)
    n_m21 = round(n_src * MANY_TO_ONE)
    n_direct = n_src - n_untr - n_zero - n_avg - n_m21
    kinds = np.array(["untranslated"] * n_untr + ["zero"] * n_zero + ["averaged"] * n_avg
                     + ["many_to_one"] * n_m21 + ["direct"] * n_direct)
    kinds = kinds[rng.permutation(n_src)]

    target_rows = rng.choice(shape.n_vocab, size=n_direct, replace=False)
    direct_iter = iter(target_rows.tolist())
    targets: list[str | None] = []
    src_clean = np.zeros((n_src, k))
    zero_words = iter(_unique_words(rng, n_zero, _SYLLABLES))
    for i, kind in enumerate(kinds.tolist()):
        if kind == "untranslated":
            targets.append(None)
            src_clean[i] = rng.standard_normal(k)
        elif kind == "zero":
            targets.append("x" + next(zero_words))
            src_clean[i] = rng.standard_normal(k)
        elif kind == "averaged":
            a, b = rng.choice(shape.n_vocab, size=2, replace=False).tolist()
            joiner = _JOINERS[int(rng.integers(len(_JOINERS)))]
            targets.append(vocab[a] + joiner + vocab[b])
            src_clean[i] = (clean[a] + clean[b]) / 2.0
        elif kind == "direct":
            row = next(direct_iter)
            targets.append(vocab[row])
            src_clean[i] = clean[row]
        else:
            targets.append(None)  # filled once every direct target is known
    for i in np.flatnonzero(kinds == "many_to_one").tolist():
        row = int(target_rows[rng.integers(n_direct)])
        targets[i] = vocab[row]
        src_clean[i] = clean[row]

    source_values = _to_scale(src_clean + SOURCE_NOISE * rng.standard_normal((n_src, k)))
    split_order = rng.permutation(n_src)
    splits = np.empty(n_src, dtype=object)
    splits[split_order[: shape.n_train]] = "train"
    splits[split_order[shape.n_train : shape.n_train + shape.n_dev]] = "dev"
    splits[split_order[shape.n_train + shape.n_dev :]] = "test"
    source = root / "source.tsv"
    _write_lexicon(source, VARIABLES, sources, source_values, splits.tolist())
    table = root / "table.tsv"
    table.write_text(
        "".join(f"{s}\t{t}\n" for s, t in zip(sources, targets) if t is not None),
        encoding="utf-8",
    )

    # gold lexicons: 30% translation targets (so mt_vs_pred has train words),
    # 70% embedding-only words (so gold_eval has test words); the first is
    # the full 8-variable set, the others VAD only and overlap the first
    is_target = np.zeros(shape.n_vocab, dtype=bool)
    is_target[target_rows] = True
    target_pool = np.flatnonzero(is_target)
    other_pool = np.flatnonzero(~is_target)
    gold: dict[str, Path] = {}
    previous = np.empty(0, dtype=np.int64)
    for g, gid in enumerate("ab"[: shape.n_gold]):
        size = shape.gold_words[g]
        n_t = size * 3 // 10
        fresh = np.concatenate([
            rng.choice(target_pool, size=n_t, replace=False),
            rng.choice(other_pool, size=size - n_t, replace=False),
        ])
        if previous.size:
            keep = rng.choice(previous, size=size // 2, replace=False)
            fresh = np.unique(np.concatenate([keep, fresh]))[:size]
        rows = fresh[rng.permutation(len(fresh))]
        previous = rows
        values = _to_scale(clean[rows] + GOLD_NOISE * rng.standard_normal((len(rows), k)))
        names = VARIABLES if g == 0 else VAD
        path = root / f"gold_{gid}.tsv"
        _write_lexicon(path, names, [vocab[r] for r in rows.tolist()],
                       values[:, : len(names)])
        gold[gid] = path

    counts = {kind: int((kinds == kind).sum()) for kind in
              ("direct", "many_to_one", "averaged", "zero", "untranslated")}
    counts["non_ascii_vocab_words"] = sum(not w.isascii() for w in vocab)
    return Inputs(root, embeddings, source, table, gold, counts)


def expected_r(noise_a: float, noise_b: float) -> float:
    """Pearson r between two noisy copies of a unit-variance clean score."""
    return 1.0 / float(np.sqrt((1.0 + noise_a**2) * (1.0 + noise_b**2)))
