"""Correlation engine and the lexicon evaluation protocols.

All protocols reduce to per-variable Pearson correlation over aligned
word intersections. Silver evaluation compares the translated and
predicted lexicons on their test splits (no human data needed); gold
evaluation compares predictions against a human-annotated lexicon;
inter-study reliability pits two human lexicons against each other and
the predictions; translation-vs-prediction quantifies what the model
adds over label copying; meta agreement correlates gold and silver
results across languages.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateVarianceError,
    InsufficientOverlapError,
    SchemaError,
)
from .lexicon import (
    Lexicon,
    SplitSets,
    _take,
    canonical_variable_order,
    restrict_to_split,
    restrict_to_words,
    write_whole,
)

PROTOCOLS = ("silver", "gold", "isr", "mt_vs_pred", "meta")


def restrict_to_test_predictions(lex: Lexicon, splits: SplitSets) -> Lexicon:
    """Entries whose word is in the prediction test split, the slice every
    gold-data protocol evaluates on; tested word by word, without
    building the split."""
    return _take(lex, [i for i, w in enumerate(lex.words) if splits.in_test(w)])


@dataclass(frozen=True)
class EvalReport:
    """Per-variable Pearson r for one lexicon comparison.

    ``n_shared`` is the number of shared word types (languages, for the
    meta protocol). Variables whose correlation is undefined are absent
    from ``r`` and explained in ``notes``.
    """

    protocol: str
    lexicons: tuple[str, ...]
    language: str
    n_shared: int
    r: dict[str, float]
    coverage: float | None = None
    per_variable_n: dict[str, int] | None = None
    notes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "lexicons", tuple(self.lexicons))
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name, value in self.r.items():
            if not (-1.0 <= value <= 1.0):
                raise ValueError(f"r for {name} outside [-1, 1]: {value}")
        if self.r and self.n_shared < 2:
            raise ValueError("reported correlations require n_shared >= 2")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        data = dict(data)
        data["lexicons"] = tuple(data["lexicons"])
        return cls(**data)


def save_reports(reports: Sequence[EvalReport], path) -> None:
    with write_whole(path) as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def load_reports(path) -> list[EvalReport]:
    """The reports in a file that :func:`save_reports` wrote.

    Raises SchemaError, naming the file, when it is not JSON or holds
    anything but reports.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = [data]
        return [EvalReport.from_dict(item) for item in data]
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(
            f"{path}: not a file of evaluation reports ({type(exc).__name__}: {exc})"
        ) from None


_MIN_NORMAL = float(np.finfo(np.float64).tiny)


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    xc = x - x.mean()
    return xc, float(xc @ xc)


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest magnitude in [0.5, 1)."""
    return np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient of two equal-length series.

    Raises DegenerateVarianceError when either series is constant (the
    coefficient is undefined there, never silently zero). Sums of squares
    outside the normal float range are computed on rescaled series.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"series must be 1-d and equal length, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("series must be finite")
    x_constant = x.min() == x.max()
    if x_constant or y.min() == y.max():
        raise DegenerateVarianceError(
            "zero variance in " + ("first" if x_constant else "second") + " series"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        xc, sxx = _centred(x)
        yc, syy = _centred(y)
    if not all(_MIN_NORMAL <= s < math.inf for s in (sxx, syy, sxx * syy)):
        # the squares left the normal float range; r is scale-invariant,
        # so scale each series by a power of two (exact) and start again
        xc, sxx = _centred(_unit_scaled(x))
        yc, syy = _centred(_unit_scaled(y))
    r = float(xc @ yc) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _align(a: Lexicon, b: Lexicon, shared: str) -> tuple[Lexicon, Lexicon]:
    """Pair each entry of ``a`` whose word ``b`` holds with ``b``'s entry
    for that word, in ``a``'s order; row i of one result pairs with row i
    of the other.

    ``a`` may repeat a word (partial duplicates each contribute a pair);
    ``b`` gives the first entry of a word. Fewer than two shared word
    types raises InsufficientOverlapError, saying ``only <n> <shared>``.
    """
    b_rows = b.row_index
    keep = [i for i, w in enumerate(a.words) if w in b_rows]
    n = len({a.words[i] for i in keep})
    if n < 2:
        raise InsufficientOverlapError(f"only {n} {shared}; need at least 2")
    return _take(a, keep), _take(b, [b_rows[a.words[i]] for i in keep])


def _correlate(
    protocol: str,
    x: Lexicon,
    y: Lexicon,
    names: Sequence[str],
    ids: tuple[str, str],
    language: str,
    *,
    n_shared: int | None = None,
    coverage: float | None = None,
) -> EvalReport:
    """Report of two aligned lexicons: Pearson r of each variable in
    ``names``, in that order, over the rows of ``x`` paired with those of
    ``y``. Degenerate variance is annotated in the notes. ``n_shared``
    defaults to the number of word types in ``x``.
    """
    r: dict[str, float] = {}
    notes: dict[str, str] = {}
    for name in names:
        try:
            r[name] = pearson(
                x.values[:, x.variables.index(name)], y.values[:, y.variables.index(name)]
            )
        except DegenerateVarianceError as exc:
            notes[name] = f"undefined: {exc}"
    return EvalReport(
        protocol=protocol,
        lexicons=ids,
        language=language,
        n_shared=len(x.row_index) if n_shared is None else n_shared,
        r=r,
        coverage=coverage,
        notes=notes,
    )


def _lexicon_id(lex: Lexicon) -> str:
    return f"{lex.language}-{lex.provenance}"


def silver_eval(
    mt: Lexicon, pred: Lexicon, splits: SplitSets, *, ids: tuple[str, str] | None = None
) -> EvalReport:
    """Correlate the MT and predicted lexicons on their shared test words.

    Restricts MT to its test word types and the predictions to the
    prediction test split, then intersects. MT words with partial
    duplicates contribute one aligned pair per duplicate, all against
    the single predicted value. By construction, no word available at
    training time can enter this comparison.
    """
    pred.require_unique("silver_eval")
    x, y = _align(
        # the MT test words in pred_test
        restrict_to_words(mt, splits.mt_test - splits.mt_dev - splits.mt_train), pred,
        "shared test word(s)",
    )
    names = [v for v in mt.variables.names if v in pred.variables]
    if not names:
        raise SchemaError("the lexicons share no variables")
    return _correlate(
        "silver", x, y, names,
        ids if ids is not None else (_lexicon_id(mt), _lexicon_id(pred)), pred.language,
    )


def gold_eval(
    gold: Lexicon,
    pred: Lexicon,
    splits: SplitSets,
    *,
    gold_id: str | None = None,
) -> EvalReport:
    """Correlate a human-annotated lexicon against the prediction test split.

    Only predicted entries in the prediction test split participate, so
    the model is never evaluated on translational equivalents it saw
    during training. Variables absent from the gold lexicon are
    skipped. ``coverage`` reports shared words relative to gold size.
    """
    gold.require_unique("gold_eval")
    pred.require_unique("gold_eval")
    names = [v for v in gold.variables.names if v in pred.variables]
    if not names:
        raise SchemaError("gold lexicon shares no variables with the predictions")
    x, y = _align(
        restrict_to_test_predictions(gold, splits), pred,
        "gold word(s) inside the prediction test split",
    )
    return _correlate(
        "gold", x, y, names,
        (gold_id if gold_id is not None else _lexicon_id(gold), _lexicon_id(pred)),
        gold.language, coverage=len(x) / len(gold),
    )


class IsrResult(NamedTuple):
    """The three pairwise reports of an inter-study reliability check."""

    gold1_vs_gold2: EvalReport
    gold1_vs_pred: EvalReport
    gold2_vs_pred: EvalReport


def isr_compare(
    gold1: Lexicon,
    gold2: Lexicon,
    pred: Lexicon,
    splits: SplitSets,
    *,
    ids: tuple[str, str, str] | None = None,
) -> IsrResult:
    """Compare two human studies and the predictions on common support.

    All three pairwise correlations are computed on the words of both
    golds that are predicted inside the prediction test split, per
    variable shared by all three lexicons.
    """
    for lex in (gold1, gold2, pred):
        lex.require_unique("isr_compare")
    id1, id2, idp = ids if ids is not None else (
        _lexicon_id(gold1), _lexicon_id(gold2), _lexicon_id(pred)
    )
    shared = "words shared by all three lexicons"
    pred_rows = pred.row_index
    tested = [i for i, w in enumerate(gold1.words) if w in pred_rows and splits.in_test(w)]
    g1, g2 = _align(_take(gold1, tested), gold2, shared)
    _, p = _align(g1, pred, shared)
    names = [
        v for v in gold1.variables.names if v in gold2.variables and v in pred.variables
    ]
    if not names:
        raise SchemaError("no variable is shared by all three lexicons")
    return IsrResult(
        gold1_vs_gold2=_correlate("isr", g1, g2, names, (id1, id2), pred.language),
        gold1_vs_pred=_correlate("isr", g1, p, names, (id1, idp), pred.language),
        gold2_vs_pred=_correlate("isr", g2, p, names, (id2, idp), pred.language),
    )


@dataclass(frozen=True)
class MtVsPredResult:
    """Gold correlation of predictions vs. plain label copying."""

    pred_report: EvalReport
    mt_report: EvalReport

    @property
    def diff(self) -> dict[str, float]:
        """r(pred) - r(mt) for each variable with both correlations defined."""
        pred_r, mt_r = self.pred_report.r, self.mt_report.r
        return {v: pred_r[v] - mt_r[v] for v in pred_r if v in mt_r}


def mt_vs_pred(
    gold: Lexicon,
    mt: Lexicon,
    pred: Lexicon,
    splits: SplitSets,
    *,
    gold_id: str | None = None,
) -> MtVsPredResult:
    """Correlate both MT and predicted values with gold on the train words.

    Using MT values instead of predictions is only an option for words
    known at training time, so the comparison is restricted to the
    train split. MT partial duplicates each contribute one pair against
    the gold value. ``diff`` is r(pred) - r(mt) per variable.
    """
    gold.require_unique("mt_vs_pred")
    pred.require_unique("mt_vs_pred")
    names = [
        v for v in gold.variables.names if v in mt.variables and v in pred.variables
    ]
    if not names:
        raise SchemaError("no variable is shared by gold, MT, and predictions")
    common = {w for w in splits.pred_train if w in pred.row_index and w in mt.row_index}
    shared = "gold words inside the train split"
    g, p = _align(restrict_to_words(gold, common), pred, shared)
    gid = gold_id if gold_id is not None else _lexicon_id(gold)
    pred_report = _correlate("mt_vs_pred", g, p, names, (gid, "pred-train"), pred.language)
    # MT: one pair per train-tagged entry of a shared word
    m, g_for_mt = _align(restrict_to_words(restrict_to_split(mt, "train"), common), gold, shared)
    mt_report = _correlate(
        "mt_vs_pred", g_for_mt, m, names, (gid, "mt-train"), mt.language, n_shared=len(g)
    )
    return MtVsPredResult(pred_report=pred_report, mt_report=mt_report)


def meta_agreement(
    gold_results: Mapping[str, Sequence[Mapping[str, float]]],
    silver_results: Mapping[str, Mapping[str, float]],
) -> EvalReport:
    """Correlate gold and silver evaluation results across languages.

    ``gold_results`` maps language to the per-variable r of each gold
    dataset evaluated for it; multiple datasets are averaged per
    variable before correlating. ``silver_results`` maps language to
    its silver per-variable r. Variables applicable in fewer than two
    languages are annotated and skipped; if no variable is applicable,
    InsufficientOverlapError is raised.
    """
    all_names: set[str] = set()
    for per_lang in gold_results.values():
        for res in per_lang:
            all_names.update(res)
    names = [
        v for v in canonical_variable_order(all_names)
        if any(v in s for s in silver_results.values())
    ]
    r: dict[str, float] = {}
    notes: dict[str, str] = {}
    per_variable_n: dict[str, int] = {}
    contributing: set[str] = set()
    for name in names:
        langs = sorted(
            lang
            for lang, silver in silver_results.items()
            if name in silver
            and any(name in res for res in gold_results.get(lang, ()))
        )
        per_variable_n[name] = len(langs)
        if len(langs) < 2:
            notes[name] = f"only {len(langs)} language(s) with gold and silver results"
            continue
        gold_series = [
            float(np.mean([res[name] for res in gold_results[lang] if name in res]))
            for lang in langs
        ]
        silver_series = [silver_results[lang][name] for lang in langs]
        try:
            r[name] = pearson(gold_series, silver_series)
            contributing.update(langs)
        except DegenerateVarianceError as exc:
            notes[name] = f"undefined: {exc}"
            contributing.update(langs)
    if not r and not contributing:
        raise InsufficientOverlapError(
            "no variable has gold and silver results for at least 2 languages"
        )
    return EvalReport(
        protocol="meta",
        lexicons=("gold-results", "silver-results"),
        language="multi",
        n_shared=len(contributing),
        r=r,
        per_variable_n=per_variable_n,
        notes=notes,
    )
