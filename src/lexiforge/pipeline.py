"""Pipeline orchestration: stage sequencing, run manifest, output locking.

A run executes translate -> derive splits -> train -> expand -> collapse
-> silver evaluation (plus the gold protocols when gold lexicons are
supplied), writing every artifact plus a manifest that records content
hashes of all inputs and outputs. Re-running an unchanged manifest
reproduces all outputs bit for bit. A stage failure aborts the run with
the stage name; artifacts written so far are kept and the manifest is
marked incomplete.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .embeddings import embed_matrix, load_embedding_store
from .errors import LexiforgeError, PipelineError
from .evaluation import (
    EvalReport,
    IsrResult,
    MtVsPredResult,
    gold_eval,
    isr_compare,
    mt_vs_pred,
    restrict_to_test_predictions,
    save_reports,
    silver_eval,
)
from .lexicon import (
    DEFAULT_DUPLICATE_TOL,
    Lexicon,
    derive_prediction_splits,
    filter_source_entries,
    load_lexicon,
    load_word_list,
    save_lexicon,
    split_by_reference,
)
from .models import (
    TrainConfig,
    expand_lexicon,
    fit_mtlffn,
    fit_ridge,
    save_checkpoint,
    variable_groups,
)
from .translation import TranslationTable, load_translation_table, project_lexicon

log = logging.getLogger(__name__)

MODEL_KINDS = ("mtlffn", "ridge")


@dataclass
class RunSettings:
    """Everything a pipeline run needs; mirrored into the manifest."""

    source: Path
    embeddings: Path
    out: Path
    table: Path | None = None
    skip_translation: bool = False
    gold: dict[str, Path] = field(default_factory=dict)
    source_lang: str = "und"
    target_lang: str = "und"
    model: str = "mtlffn"
    alpha: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)
    max_vocab: int | None = None
    joint_mtl: bool = False
    duplicate_tol: float = DEFAULT_DUPLICATE_TOL
    missing_policy: str = "skip"

    def __post_init__(self):
        self.source = Path(self.source)
        self.embeddings = Path(self.embeddings)
        self.out = Path(self.out)
        if self.table is not None:
            self.table = Path(self.table)
        self.gold = {k: Path(v) for k, v in self.gold.items()}
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.max_vocab is not None and self.max_vocab < 1:
            raise ValueError(f"max_vocab must be at least 1, got {self.max_vocab}")
        if not self.skip_translation and self.table is None:
            raise LexiforgeError(
                "a translation table is required unless translation is skipped"
            )


@dataclass
class RunResult:
    """Paths and reports produced by a completed run."""

    out: Path
    manifest_path: Path
    mt_path: Path
    pred_path: Path
    silver: EvalReport
    gold: dict[str, EvalReport] = field(default_factory=dict)
    isr: list[IsrResult] = field(default_factory=list)
    mt_vs_pred: dict[str, MtVsPredResult] = field(default_factory=dict)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Manifest:
    """Incrementally written run manifest."""

    def __init__(self, path: Path, settings: RunSettings):
        self.path = path
        self.data = {
            "tool": "lexiforge",
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "status": "incomplete",
            "language_pair": {
                "source": settings.source_lang,
                "target": settings.target_lang,
            },
            "model": settings.model,
            "train_config": asdict(settings.train),
            "settings": {
                "alpha": settings.alpha,
                "max_vocab": settings.max_vocab,
                "joint_mtl": settings.joint_mtl,
                "duplicate_tol": settings.duplicate_tol,
                "skip_translation": settings.skip_translation,
                "missing_policy": settings.missing_policy,
            },
            "inputs": {},
            "outputs": {},
            "stages": [],
        }

    def add_input(self, name: str, path: Path) -> None:
        self.data["inputs"][name] = {"path": str(path), "sha256": file_sha256(path)}

    def add_output(self, name: str, path: Path) -> None:
        self.data["outputs"][name] = {"path": str(path), "sha256": file_sha256(path)}

    def write(self) -> None:
        with open(self.path, "w", encoding="utf-8", newline="") as fh:
            json.dump(self.data, fh, indent=2, ensure_ascii=False)
            fh.write("\n")


@contextlib.contextmanager
def _output_lock(out_dir: Path):
    """Exclusive ownership of an output directory via a lock file."""
    lock_path = out_dir / ".lexiforge.lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LexiforgeError(
            f"output directory {out_dir} is locked by another run "
            f"(remove {lock_path} if that run is dead)"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock_path)


def prepare_source(
    source_path, test_ref_path, dev_ref_path, out_path, *, language: str = "und"
) -> Lexicon:
    """Filter a raw source lexicon and tag splits from reference lists.

    Drops multi-token and uppercase entries, then tags each remaining
    word test/dev/train by membership in the reference word lists, and
    writes the result. Deterministic: unchanged inputs reproduce the
    output byte for byte.
    """
    lexicon = load_lexicon(source_path, language=language)
    lexicon = filter_source_entries(lexicon)
    test_ref = load_word_list(test_ref_path) if test_ref_path else set()
    dev_ref = load_word_list(dev_ref_path) if dev_ref_path else set()
    tagged = split_by_reference(lexicon, test_ref, dev_ref)
    save_lexicon(tagged, out_path)
    return tagged


def run_pipeline(settings: RunSettings) -> RunResult:
    """Execute the full generation-and-evaluation pipeline."""
    out = settings.out
    out.mkdir(parents=True, exist_ok=True)
    reports_dir = out / "reports"
    checkpoints_dir = out / "checkpoints"

    with _output_lock(out):
        manifest = _Manifest(out / "manifest.json", settings)
        manifest.add_input("source", settings.source)
        if settings.table is not None:
            manifest.add_input("table", settings.table)
        manifest.add_input("embeddings", settings.embeddings)
        for gold_id, path in settings.gold.items():
            manifest.add_input(f"gold:{gold_id}", path)
        manifest.write()

        state: dict = {}

        @contextlib.contextmanager
        def stage(name: str):
            started = time.perf_counter()
            log.info("stage %s ...", name)
            try:
                yield
            except Exception as exc:
                manifest.data["stages"].append({"name": name, "status": "failed",
                                                "error": str(exc)})
                manifest.write()
                raise PipelineError(name, exc) from exc
            manifest.data["stages"].append({
                "name": name, "status": "ok",
                "seconds": round(time.perf_counter() - started, 3),
            })
            manifest.write()

        with stage("load-source"):
            source = load_lexicon(
                settings.source, language=settings.source_lang, provenance="human"
            )
            if not any(s == "train" for s in source.splits):
                raise LexiforgeError(
                    "source lexicon has no train-tagged entries; run prepare-source first"
                )

        with stage("translate"):
            if settings.skip_translation:
                table = TranslationTable.identity(source.words, settings.target_lang)
            else:
                table = load_translation_table(
                    settings.table,
                    source_lang=settings.source_lang,
                    target_lang=settings.target_lang,
                )
            mt = project_lexicon(source, table, missing=settings.missing_policy)
            state["mt"] = mt
            mt_path = out / "target_mt.tsv"
            save_lexicon(mt, mt_path)
            manifest.add_output("target_mt", mt_path)

        with stage("embeddings"):
            store = load_embedding_store(settings.embeddings, settings.max_vocab)
            state["store"] = store

        with stage("splits"):
            splits = derive_prediction_splits(state["mt"], state["store"].words)
            state["splits"] = splits

        with stage("train"):
            mt = state["mt"]
            store = state["store"]
            train_rows = [i for i, s in enumerate(mt.splits) if s == "train"]
            train_words = [mt.words[i] for i in train_rows]
            X, _ = embed_matrix(store, train_words)
            checkpoints_dir.mkdir(exist_ok=True)
            models = []
            for group in variable_groups(mt.variables, joint=settings.joint_mtl):
                cols = [mt.variables.index(n) for n in group.names]
                Y = mt.values[train_rows][:, cols]
                if settings.model == "mtlffn":
                    model = fit_mtlffn(X, Y, settings.train, group)
                else:
                    model = fit_ridge(X, Y, settings.alpha, group)
                models.append(model)
                label = "_".join(n.lower() for n in group.names)
                ckpt = checkpoints_dir / f"{settings.model}_{label}.ckpt"
                save_checkpoint(model, ckpt)
                manifest.add_output(f"checkpoint:{settings.model}_{label}", ckpt)
            state["models"] = models

        with stage("expand"):
            pred = expand_lexicon(
                state["models"], state["store"], state["mt"], state["splits"],
                duplicate_tol=settings.duplicate_tol,
            )
            state["pred"] = pred
            pred_path = out / "target_pred.tsv"
            save_lexicon(pred, pred_path)
            manifest.add_output("target_pred", pred_path)

        reports_dir.mkdir(exist_ok=True)

        with stage("silver-eval"):
            silver = silver_eval(
                state["mt"], state["pred"], state["splits"],
                ids=(f"{settings.target_lang}-mt", f"{settings.target_lang}-pred"),
            )
            silver_path = reports_dir / "silver.json"
            save_reports([silver], silver_path)
            manifest.add_output("report:silver", silver_path)

        gold_reports: dict[str, EvalReport] = {}
        gold_lexicons: dict[str, Lexicon] = {}
        for gold_id, gold_path in settings.gold.items():
            with stage(f"gold-eval-{gold_id}"):
                gold = load_lexicon(gold_path, language=settings.target_lang)
                gold_lexicons[gold_id] = gold
                report = gold_eval(gold, state["pred"], state["splits"], gold_id=gold_id)
                path = reports_dir / f"gold_{gold_id}.json"
                save_reports([report], path)
                manifest.add_output(f"report:gold_{gold_id}", path)
                gold_reports[gold_id] = report

        isr_results: list[IsrResult] = []
        gold_ids = list(gold_lexicons)
        for a_pos in range(len(gold_ids)):
            for b_pos in range(a_pos + 1, len(gold_ids)):
                id_a, id_b = gold_ids[a_pos], gold_ids[b_pos]
                g_a, g_b = gold_lexicons[id_a], gold_lexicons[id_b]
                if not any(n in g_b.variables for n in g_a.variables.names):
                    continue
                with stage(f"isr-{id_a}-{id_b}"):
                    pred_test = restrict_to_test_predictions(state["pred"], state["splits"])
                    result = isr_compare(
                        g_a, g_b, pred_test,
                        ids=(id_a, id_b, f"{settings.target_lang}-pred"),
                    )
                    path = reports_dir / f"isr_{id_a}_{id_b}.json"
                    save_reports(list(result.reports), path)
                    manifest.add_output(f"report:isr_{id_a}_{id_b}", path)
                    isr_results.append(result)

        mt_vs_pred_results: dict[str, MtVsPredResult] = {}
        for gold_id, gold in gold_lexicons.items():
            with stage(f"mt-vs-pred-{gold_id}"):
                result = mt_vs_pred(
                    gold, state["mt"], state["pred"], state["splits"], gold_id=gold_id
                )
                path = reports_dir / f"mt_vs_pred_{gold_id}.json"
                save_reports([result.pred_report, result.mt_report], path)
                manifest.add_output(f"report:mt_vs_pred_{gold_id}", path)
                mt_vs_pred_results[gold_id] = result

        manifest.data["status"] = "complete"
        manifest.write()

    return RunResult(
        out=out,
        manifest_path=manifest.path,
        mt_path=out / "target_mt.tsv",
        pred_path=out / "target_pred.tsv",
        silver=silver,
        gold=gold_reports,
        isr=isr_results,
        mt_vs_pred=mt_vs_pred_results,
    )
