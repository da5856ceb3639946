"""Pipeline orchestration: stage sequencing, run manifest, output locking.

A run's stages: load-source (the source and any gold lexicons) ->
translate -> embeddings -> splits -> train -> expand (predict, collapse
the MT duplicates and write the predicted lexicon chunk by chunk) ->
silver evaluation, plus the gold protocols when gold lexicons are
supplied. It writes every artifact plus a manifest that records content
hashes of all inputs and outputs. Re-running an unchanged manifest
reproduces all outputs bit for bit. A stage failure aborts the run with
the stage name; artifacts written so far are kept and the manifest is
marked incomplete.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import json
import logging
import os
import platform
import threading
import time
from collections import Counter
from collections.abc import Collection
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .embeddings import (
    EmbeddingStore,
    embed_matrix,
    load_embedding_store,
    read_cached_store,
    store_cache_dir,
    store_cache_key,
    usable_cores,
    write_cached_store,
)
from .errors import LexiforgeError, PipelineError
from .evaluation import (
    EvalReport,
    gold_eval,
    isr_compare,
    mt_vs_pred,
    save_reports,
    silver_eval,
)
from .evaluation import restrict_to_test_predictions  # noqa: F401 -- perfbench/tracer.py wraps it
from .lexicon import (
    Lexicon,
    SplitSets,
    derive_prediction_splits,
    filter_source_entries,
    load_lexicon,
    load_word_list,
    process_ended,
    save_lexicon,
    split_by_reference,
    write_whole,
)
from .models import (
    NETWORK_DTYPE,
    TrainConfig,
    WorkerPool,
    fit_mtlffn,
    fit_ridge,
    save_checkpoint,
    variable_groups,
    write_expansion,
)
from .translation import load_translation_table, project_lexicon

log = logging.getLogger(__name__)

MODEL_KINDS = ("mtlffn", "ridge")

# Most bytes file_sha256 reads at once.
_HASH_BYTES = 1 << 20


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
        if not self.alpha >= 0:  # also rejects NaN
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.skip_translation and self.table is None:
            raise LexiforgeError(
                "a translation table is required unless translation is skipped"
            )


def file_sha256(path) -> str:
    """The file's SHA-256, read into one buffer of its size, at most ``_HASH_BYTES``."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        buffer = memoryview(bytearray(min(max(size, 1), _HASH_BYTES)))
        while n := fh.readinto(buffer):
            digest.update(buffer[:n])
    return digest.hexdigest()


class _Manifest:
    """Run manifest, written when the run starts and when it ends or fails.

    Stages are appended in memory; each write replaces ``manifest.json``
    whole, so a killed run leaves the last complete manifest, never a
    truncated one.
    """

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
                "skip_translation": settings.skip_translation,
                "missing_policy": settings.missing_policy,
            },
            "environment": _environment(),
            "inputs": {},
            "outputs": {},
            "stages": [],
        }

    def add_input(self, name: str, path: Path) -> None:
        self.data["inputs"][name] = {"path": str(path), "sha256": file_sha256(path)}

    def add_output(self, name: str, path: Path) -> None:
        self.data["outputs"][name] = {"path": str(path), "sha256": file_sha256(path)}

    def add_stage(self, entry: dict) -> None:
        peak = _peak_rss_mb()
        if peak is not None:
            entry["peak_rss_mb"] = peak
        self.data["stages"].append(entry)

    def write(self) -> None:
        with write_whole(self.path) as fh:
            json.dump(self.data, fh, indent=2, ensure_ascii=False)
            fh.write("\n")


def _peak_rss_mb() -> float | None:
    """This process's resident-memory high-water mark (VmHWM) in MiB.

    None where ``/proc`` is missing. Not ``ru_maxrss``: Linux carries the
    parent's high-water mark into it across fork and exec.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


def _openblas_functions(*names: str) -> list | None:
    """The loaded OpenBLAS's functions ``names``, as ctypes functions, or None.

    The library is found by name in ``/proc/self/maps``; its symbols carry
    the prefix and suffix of the build numpy links (scipy-openblas 64-bit,
    plain 64-bit, or none). None where ``/proc`` is missing, no OpenBLAS
    is loaded or it lacks one of the functions.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({
                fields[5].rstrip("\n") for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                return [getattr(lib, f"{prefix}_{name}{suffix}") for name in names]
            except AttributeError:
                continue
    return None


def _openblas_thread_control():
    """Get and set functions of the loaded OpenBLAS's thread count, or None."""
    functions = _openblas_functions("get_num_threads", "set_num_threads")
    if functions is None:
        return None
    get, set_ = functions
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _environment() -> dict:
    """What the bytes of a run depend on beyond its inputs and settings.

    The OpenBLAS build and the kernel it picked for this CPU (None where
    no OpenBLAS is found), the cores, the BLAS threads that training and
    expansion run on (None: the ambient count) and the network's type.
    """
    config = core = None
    blas = _openblas_functions("get_config", "get_corename")
    if blas is not None:
        for function in blas:
            function.argtypes, function.restype = [], ctypes.c_char_p
        config, core = (function().decode("ascii", "replace") for function in blas)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_config": config,
        "openblas_core": core,
        "usable_cores": usable_cores(),
        "blas_threads": 1 if _openblas_thread_control() is not None else None,
        "network_dtype": NETWORK_DTYPE.name,
    }


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread, and a pool of one thread per other usable core.

    At one BLAS thread, training gives the same bytes at any ambient
    thread count, and no BLAS thread adds its buffers to expansion's
    peak; the pool runs the fits and the hidden-layer blocks beside this
    thread. Yields the pool, or None with one usable core. On exit, also
    by an exception, every thread of the pool has ended and the old
    thread count is restored. Without an OpenBLAS control it yields None
    and leaves the ambient count.
    """
    control = _openblas_thread_control()
    if control is None:
        yield None
        return
    get_threads, set_threads = control
    before = get_threads()
    set_threads(1)
    workers = usable_cores() - 1
    pool = WorkerPool(workers) if workers else None
    try:
        yield pool
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        set_threads(before)


def _fit_concurrently(fits: list, stop: threading.Event, pool: WorkerPool | None) -> list:
    """Results of the ``fits`` callables, in order, run concurrently.

    The first fit runs on this thread and the others on ``pool``'s, or
    all one after another without a pool. The first exception in list
    order is raised, after ``stop`` is set so that fits still running on
    the pool's threads can end early.
    """
    if pool is None:
        return [fit() for fit in fits]
    rest = [pool.submit(fit) for fit in fits[1:]]
    try:
        first = fits[0]()
        return [first, *(future.result() for future in rest)]
    except BaseException:
        stop.set()
        for future in rest:
            future.cancel()
        raise


@contextlib.contextmanager
def _output_lock(out_dir: Path):
    """Exclusive ownership of an output directory via a lock file."""
    lock_path = out_dir / ".lexiforge.lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pid = _dead_owner(lock_path)
        if pid is not None:
            raise LexiforgeError(
                f"output directory {out_dir} is locked by process {pid}, which is no "
                f"longer running (remove {lock_path} to reuse the directory)"
            ) from None
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


def _dead_owner(lock_path: Path) -> int | None:
    """The process id in a lock file if no process has that id, else None.

    The lock file is only read: it is for the user to remove.
    """
    try:
        pid = int(lock_path.read_text(encoding="ascii"))
    except (OSError, ValueError):  # unreadable or not a number
        return None
    return pid if process_ended(pid) else None


@contextlib.contextmanager
def _stage(manifest: _Manifest | None, name: str):
    """Run one named stage; its failure is raised as a PipelineError.

    Yields a dict whose entries the stage may fill. With a manifest, the
    stage's status and seconds (or its error), those entries and the
    process's peak RSS so far are appended to the manifest's stage list;
    the manifest is rewritten only when the stage fails.
    """
    started = time.perf_counter()
    log.info("stage %s ...", name)
    details: dict = {}
    try:
        yield details
    except Exception as exc:
        if manifest is not None:
            manifest.add_stage({"name": name, "status": "failed", "error": str(exc)})
            manifest.write()
        raise PipelineError(name, exc) from exc
    if manifest is not None:
        manifest.add_stage({"name": name, "status": "ok",
                            "seconds": round(time.perf_counter() - started, 3), **details})


def _resolution_counts(tags: Counter) -> dict[str, int]:
    """How many rows got a stored, an averaged and a zero vector."""
    return {tag: tags[tag] for tag in ("direct", "averaged", "zero")}


def _load_store(
    settings: RunSettings, sha256: str, hashed: os.stat_result, details: dict
) -> EmbeddingStore:
    """The store of the embeddings input, whose SHA-256 is ``sha256``.

    It is mapped from its store cache entry if that verifies, else parsed
    and written to the cache, unless the file has changed since
    ``hashed``, its ``os.stat`` from before the SHA-256 was taken, or the
    cache's disk lacks room for the entry.
    ``details`` records which (``store``), what became of the entry
    (``store_entry``: ``written``, ``replaced`` or the error that stopped
    the write) and why an entry was rejected (``store_rejected``). The
    cache never changes the store or fails the run.
    """
    cache, key = store_cache_dir(), store_cache_key(sha256, settings.max_vocab)
    try:
        store = read_cached_store(cache, key)
    except (OSError, ValueError) as exc:
        store, details["store_rejected"] = None, str(exc)
    if store is not None:
        details["store"] = "cached"
        return store
    store = load_embedding_store(settings.embeddings, settings.max_vocab)
    details["store"] = "parsed"
    try:
        write_cached_store(cache, key, store, settings.embeddings, hashed)
    except (OSError, ValueError) as exc:
        details["store_entry"] = str(exc)
    else:
        details["store_entry"] = "replaced" if "store_rejected" in details else "written"
    return store


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


def run_pipeline(settings: RunSettings) -> dict[str, list[EvalReport]]:
    """Execute the full generation-and-evaluation pipeline.

    Writes every output under ``settings.out``; returns the reports as
    :func:`evaluate_protocols` does.
    """
    out = settings.out
    checkpoints_dir = out / "checkpoints"
    isr_report_names(settings.gold)  # bad gold ids fail before the output directory exists
    manifest = _Manifest(out / "manifest.json", settings)
    # hashing the inputs first: a missing one fails before the output directory exists
    manifest.add_input("source", settings.source)
    if settings.table is not None:
        manifest.add_input("table", settings.table)
    embeddings_stat = os.stat(settings.embeddings)  # before its SHA-256: see _load_store
    manifest.add_input("embeddings", settings.embeddings)
    for gold_id, path in settings.gold.items():
        manifest.add_input(f"gold:{gold_id}", path)
    out.mkdir(parents=True, exist_ok=True)

    with _output_lock(out):
        manifest.write()

        with _stage(manifest, "load-source"):
            source = load_lexicon(
                settings.source, language=settings.source_lang, provenance="human"
            )
            if not any(s == "train" for s in source.splits):
                raise LexiforgeError(
                    "source lexicon has no train-tagged entries; run prepare-source first"
                )
            golds = {gold_id: load_lexicon(path, language=settings.target_lang)
                     for gold_id, path in settings.gold.items()}

        with _stage(manifest, "translate") as details:
            if settings.skip_translation:
                table = {w: w for w in source.words}
            else:
                table = load_translation_table(settings.table)
            mt = project_lexicon(
                source, table, language=settings.target_lang, missing=settings.missing_policy
            )
            details["skipped"] = len(source.words) - len(mt.words)  # entries without translation
            del source, table  # later stages, expansion's peak above all, reuse their memory
            mt_path = out / "target_mt.tsv"
            save_lexicon(mt, mt_path)
            manifest.add_output("target_mt", mt_path)

        with _stage(manifest, "embeddings") as details:
            store = _load_store(settings, manifest.data["inputs"]["embeddings"]["sha256"],
                                embeddings_stat, details)
            details["duplicates"] = store.n_duplicates

        with _stage(manifest, "splits"):
            splits = derive_prediction_splits(mt, store)

        # train and expand only: the evaluation runs with the pool's threads ended
        with _one_blas_thread() as pool:
            with _stage(manifest, "train") as details:
                train_rows = [i for i, s in enumerate(mt.splits) if s == "train"]
                train_words = [mt.words[i] for i in train_rows]
                X, tags = embed_matrix(store, train_words)
                details["resolution"] = _resolution_counts(Counter(tags))
                Y = mt.values[train_rows]
                stop = threading.Event()
                if settings.model == "mtlffn":
                    fit, hyper = functools.partial(fit_mtlffn, stop=stop), settings.train
                else:
                    fit, hyper = fit_ridge, settings.alpha
                models = _fit_concurrently([
                    functools.partial(fit, X, Y[:, [mt.variables.index(n) for n in group.names]],
                                      hyper, group)
                    for group in variable_groups(mt.variables, joint=settings.joint_mtl)
                ], stop, pool)
                del X, Y, tags  # expansion peaks at the store plus one chunk, not plus these
                checkpoints_dir.mkdir(exist_ok=True)
                for model in models:
                    label = "_".join(n.lower() for n in model.variables.names)
                    ckpt = checkpoints_dir / f"{settings.model}_{label}.ckpt"
                    save_checkpoint(model, ckpt)
                    manifest.add_output(f"checkpoint:{settings.model}_{label}", ckpt)

            with _stage(manifest, "expand") as details:
                resolution = Counter()
                pred_path = out / "target_pred.tsv"
                with write_whole(pred_path) as stream:
                    # the rows of the gold words are all the evaluation reads
                    pred = write_expansion(
                        models, store, mt, splits, stream, resolution=resolution,
                        keep={w for gold in golds.values() for w in gold.words}, pool=pool,
                    )
                details["resolution"] = _resolution_counts(resolution)
                details["merged"] = len(mt) - len(mt.row_index)  # MT duplicates
                manifest.add_output("target_pred", pred_path)

        reports = evaluate_protocols(
            mt, pred, splits, golds, out / "reports",
            lang=settings.target_lang, manifest=manifest,
        )
        manifest.data["status"] = "complete"
        manifest.write()
    return reports


def isr_report_names(gold_ids: Collection[str]) -> dict[tuple[str, str], str]:
    """The ``isr_<id1>_<id2>`` report name of each pair of gold ids, in order.

    An id names report files, so it holds no '/'. Ids whose pairs would
    share a name, such as (a, b_c) and (a_b, c), raise LexiforgeError.
    """
    for gold_id in gold_ids:
        if "/" in gold_id:
            raise LexiforgeError(f"--gold id {gold_id!r} must not contain '/'")
    pairs: dict[str, tuple[str, str]] = {}
    for ids in itertools.combinations(gold_ids, 2):
        name = "isr_{}_{}".format(*ids)
        if name in pairs:
            raise LexiforgeError(
                f"--gold id pairs {pairs[name]} and {ids} would both write {name}.json"
            )
        pairs[name] = ids
    return {ids: name for name, ids in pairs.items()}


def evaluate_protocols(
    mt: Lexicon,
    pred: Lexicon,
    splits: SplitSets,
    golds: dict[str, Lexicon],
    out_dir: Path | None,
    *,
    lang: str,
    manifest: _Manifest | None = None,
) -> dict[str, list[EvalReport]]:
    """Run every evaluation protocol on an MT and a predicted lexicon.

    In order: silver; gold for each gold lexicon; inter-study
    reliability for each pair of golds sharing a variable; MT vs.
    prediction for each gold. Each comparison is one stage and one
    report file, named ``silver``, ``gold_<id>``, ``isr_<id1>_<id2>``
    and ``mt_vs_pred_<id>``. The protocols read only the predicted rows
    of MT and gold words, so ``pred`` may hold just those. Returns each
    name's reports in run order and, unless ``out_dir`` is None, writes
    them to ``<name>.json`` there. A manifest records the stages and
    files.
    """
    isr_names = isr_report_names(golds)
    reports: dict[str, list[EvalReport]] = {}

    def save(name: str, *file_reports: EvalReport) -> None:
        reports[name] = list(file_reports)
        if out_dir is not None:
            path = out_dir / f"{name}.json"
            save_reports(reports[name], path)
            if manifest is not None:
                manifest.add_output(f"report:{name}", path)

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    with _stage(manifest, "silver-eval"):
        save("silver", silver_eval(mt, pred, splits, ids=(f"{lang}-mt", f"{lang}-pred")))

    for gold_id, gold in golds.items():
        with _stage(manifest, f"gold-eval-{gold_id}"):
            save(f"gold_{gold_id}", gold_eval(gold, pred, splits, gold_id=gold_id))

    for (id_a, id_b), name in isr_names.items():
        if not any(n in golds[id_b].variables for n in golds[id_a].variables.names):
            continue
        with _stage(manifest, f"isr-{id_a}-{id_b}"):
            save(name, *isr_compare(golds[id_a], golds[id_b], pred, splits,
                                    ids=(id_a, id_b, f"{lang}-pred")))

    for gold_id, gold in golds.items():
        with _stage(manifest, f"mt-vs-pred-{gold_id}"):
            comparison = mt_vs_pred(gold, mt, pred, splits, gold_id=gold_id)
            save(f"mt_vs_pred_{gold_id}", comparison.pred_report, comparison.mt_report)
    return reports
