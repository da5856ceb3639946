import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import unicodedata
import weakref
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import lexiforge.cli
import lexiforge.pipeline
from lexiforge import (
    BE5_NAMES,
    VAD_NAMES,
    DivergenceError,
    EvalReport,
    IntegrityError,
    LexiforgeError,
    RunSettings,
    SplitSets,
    TrainConfig,
    collapse_duplicates,
    derive_prediction_splits,
    embed_matrix,
    load_checkpoint,
    load_embedding_store,
    load_lexicon,
    load_reports,
    run_pipeline,
    save_lexicon,
    save_reports,
    variable_groups,
    write_expansion,
)
from lexiforge.cli import main, parse_config_file
from lexiforge.pipeline import evaluate_protocols
from helpers import (
    build_lexicon,
    one_call_expansion,
    predicted,
    save_translation_table,
    tsv_text,
    write_pipeline_bundle,
)


RAW_SOURCE = (
    "word\ty1\ty2\n"
    "sunshine\t0.5\t0.1\n"
    "boa constrictor\t0.2\t0.3\n"
    "Budweiser\t0.1\t0.9\n"
    "anchor\t0.4\t0.2\n"
    "tree\t0.3\t0.7\n"
)


@pytest.fixture()
def small_bundle(tmp_path):
    return write_pipeline_bundle(
        tmp_path / "data", n_source=60, n_vocab=200, dim=8, k=2,
        split_sizes=(40, 10, 10), seed=7,
    )


def _write_fast_config(tmp_path):
    config = tmp_path / "fast.cfg"
    config.write_text(
        "# small network for quick test runs\n"
        "hidden = 16,8\n"
        "epochs = 40\n"
        "batch_size = 16\n",
        encoding="utf-8",
    )
    return config


def _run_args(bundle, out, config, extra=()):
    return [
        "run",
        "--source", str(bundle["source"]),
        "--table", str(bundle["table"]),
        "--embeddings", str(bundle["embeddings"]),
        "--out", str(out),
        "--config", str(config),
        "--seed", "11",
        *extra,
    ]


# ---------------------------------------------------------------------------
# prepare-source
# ---------------------------------------------------------------------------


def test_prepare_source(tmp_path, capsys):
    source = tmp_path / "raw.tsv"
    source.write_text(RAW_SOURCE, encoding="utf-8")
    (tmp_path / "test_ref.txt").write_text("anchor\n", encoding="utf-8")
    (tmp_path / "dev_ref.txt").write_text("anchor\ntree\n", encoding="utf-8")
    out = tmp_path / "prepared.tsv"
    code = main([
        "prepare-source", "--source", str(source),
        "--test-ref", str(tmp_path / "test_ref.txt"),
        "--dev-ref", str(tmp_path / "dev_ref.txt"),
        "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "retained 3 entries" in printed
    assert "train: 1, dev: 1, test: 1" in printed
    text = out.read_text(encoding="utf-8")
    assert "boa constrictor" not in text
    assert "Budweiser" not in text
    assert "anchor\t0.4\t0.2\ttest" in text

    # rerun on unchanged inputs is byte-identical
    first = out.read_bytes()
    main([
        "prepare-source", "--source", str(source),
        "--test-ref", str(tmp_path / "test_ref.txt"),
        "--dev-ref", str(tmp_path / "dev_ref.txt"),
        "--out", str(out),
    ])
    assert out.read_bytes() == first


def test_prepare_source_empty_refs_all_train(tmp_path, capsys):
    source = tmp_path / "raw.tsv"
    source.write_text(RAW_SOURCE, encoding="utf-8")
    out = tmp_path / "prepared.tsv"
    assert main(["prepare-source", "--source", str(source), "--out", str(out)]) == 0
    assert "train: 3, dev: 0, test: 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_produces_artifacts_and_reports(tmp_path, small_bundle, capsys):
    out = tmp_path / "run_out"
    config = _write_fast_config(tmp_path)
    code = main(_run_args(small_bundle, out, config,
                          extra=["--gold", f"g1={small_bundle['gold']}"]))
    assert code == 0
    assert (out / "target_mt.tsv").exists()
    assert (out / "target_pred.tsv").exists()
    assert (out / "reports" / "silver.json").exists()
    assert (out / "reports" / "gold_g1.json").exists()
    assert (out / "reports" / "mt_vs_pred_g1.json").exists()
    assert (out / "checkpoints" / "mtlffn_y1_y2.ckpt").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"
    assert manifest["train_config"]["epochs"] == 40  # from the config file
    assert manifest["train_config"]["seed"] == 11  # from the CLI flag
    assert all(s["status"] == "ok" for s in manifest["stages"])
    assert "silver evaluation" in capsys.readouterr().out
    assert not (out / ".lexiforge.lock").exists()


def _count_manifest_writes(monkeypatch):
    """Record a copy of the manifest data at each _Manifest.write."""
    from lexiforge.pipeline import _Manifest

    written = []
    write = _Manifest.write

    def counting_write(self):
        written.append(json.loads(json.dumps(self.data)))
        write(self)

    monkeypatch.setattr(_Manifest, "write", counting_write)
    return written


RUN_STAGES = ["load-source", "translate", "embeddings", "splits", "train", "expand",
              "silver-eval"]


def test_run_writes_manifest_at_start_and_end(tmp_path, small_bundle, monkeypatch):
    written = _count_manifest_writes(monkeypatch)
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path),
                          extra=["--gold", f"g={small_bundle['gold']}"])) == 0
    assert len(written) == 2
    assert written[0]["status"] == "incomplete" and written[0]["stages"] == []
    assert set(written[0]["inputs"]) == {"source", "table", "embeddings", "gold:g"}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == written[1] and manifest["status"] == "complete"
    stages = manifest["stages"]
    assert [s["name"] for s in stages] == [*RUN_STAGES, "gold-eval-g", "mt-vs-pred-g"]
    assert all(s["status"] == "ok" and s["seconds"] >= 0 for s in stages)
    if Path("/proc/self/status").exists():
        peaks = [s["peak_rss_mb"] for s in stages]
        assert peaks[0] > 0 and peaks == sorted(peaks)  # a high-water mark
    assert not list(out.glob("*.tmp"))


def test_run_failure_manifest_lists_stages_up_to_the_failed_one(
    tmp_path, small_bundle, monkeypatch
):
    import lexiforge.pipeline

    monkeypatch.setattr(lexiforge.pipeline, "_peak_rss_mb", lambda: None)  # no /proc
    written = _count_manifest_writes(monkeypatch)
    out = tmp_path / "out"
    bad_gold = tmp_path / "bad_gold.tsv"
    bad_gold.write_text("word\ty1\ty2\nonlyone\t0.0\t0.0\n", encoding="utf-8")
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path),
                          extra=["--gold", f"bad={bad_gold}"])) == 1
    assert len(written) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == written[1] and manifest["status"] == "incomplete"
    *ok, failed = manifest["stages"]
    assert [s["name"] for s in ok] == RUN_STAGES

    def keys(stage):  # train and expand also record how their rows got vectors,
        # translate the entries it dropped, embeddings and expand the duplicates,
        # embeddings where its store came from and what became of its cache entry
        extra = {"translate": {"skipped"}, "embeddings": {"duplicates", "store", "store_entry"},
                 "train": {"resolution"}, "expand": {"resolution", "merged"}}
        return {"name", "status", "seconds"} | extra.get(stage["name"], set())

    assert all(s.keys() == keys(s) and s["status"] == "ok" for s in ok)
    assert failed.keys() == {"name", "status", "error"}
    assert failed["name"] == "gold-eval-bad" and failed["status"] == "failed"
    assert "need at least 2" in failed["error"]
    assert not list(out.glob("*.tmp"))


def test_manifest_attributes_outputs_by_hash(tmp_path, small_bundle):
    from lexiforge.pipeline import file_sha256

    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for name, entry in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert file_sha256(entry["path"]) == entry["sha256"], name


@pytest.mark.parametrize("size", [0, 1, 2048, (1 << 20) + 3])
def test_file_sha256_reads_through_one_buffer(tmp_path, size):
    import hashlib

    from lexiforge.pipeline import file_sha256

    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    file_sha256(path)  # the warm-up: first calls may set up caches
    tracemalloc.start()
    try:
        assert file_sha256(path) == hashlib.sha256(data).hexdigest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a buffer of the file's size, up to 1 MiB: never a new bytes object per read
    assert peak < min(size, 1 << 20) + 8 * 1024


def test_run_manifest_counts_the_entries_left_untranslated(tmp_path, small_bundle):
    words = small_bundle["words"]
    table = {w: w for i, w in enumerate(words[:60]) if i not in (3, 41, 55)}
    save_translation_table(table, tmp_path / "table.tsv")
    bundle = {**small_bundle, "table": tmp_path / "table.tsv"}
    out = tmp_path / "out"
    assert main(_run_args(bundle, out, _write_fast_config(tmp_path))) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stages = {stage["name"]: stage for stage in manifest["stages"]}
    assert stages["translate"]["skipped"] == 3
    assert len(load_lexicon(out / "target_mt.tsv").words) == 60 - 3


def test_run_manifest_records_its_environment(tmp_path, small_bundle, monkeypatch):
    import platform

    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path))) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    environment = manifest["environment"]
    assert environment.keys() == {"python", "numpy", "openblas_config", "openblas_core",
                                  "usable_cores", "blas_threads", "network_dtype"}
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["usable_cores"] == _usable_cores()
    assert environment["network_dtype"] == "float32"
    if lexiforge.pipeline._openblas_thread_control() is not None:
        assert environment["blas_threads"] == 1
        assert environment["openblas_config"].startswith("OpenBLAS ")
        assert environment["openblas_core"]
    # without OpenBLAS, training and expansion run at the ambient count, which is not known
    monkeypatch.setattr(lexiforge.pipeline, "_openblas_functions", lambda *names: None)
    environment = lexiforge.pipeline._environment()
    assert (environment["openblas_config"], environment["openblas_core"],
            environment["blas_threads"]) == (None, None, None)


def test_run_is_deterministic_across_directories(tmp_path, small_bundle):
    config = _write_fast_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(_run_args(small_bundle, out1, config)) == 0
    assert main(_run_args(small_bundle, out2, config)) == 0
    assert (out1 / "target_pred.tsv").read_bytes() == (out2 / "target_pred.tsv").read_bytes()
    assert (out1 / "reports" / "silver.json").read_bytes() == \
        (out2 / "reports" / "silver.json").read_bytes()
    assert (out1 / "checkpoints" / "mtlffn_y1_y2.ckpt").read_bytes() == \
        (out2 / "checkpoints" / "mtlffn_y1_y2.ckpt").read_bytes()


def _outputs_but_manifest(out: Path) -> dict:
    return {
        path.relative_to(out): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file() and path.name != "manifest.json"
    }


def test_run_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # two variable groups, so both are trained concurrently
    bundle = write_pipeline_bundle(tmp_path / "data", dim=300, seed=3,
                                   variables=VAD_NAMES + BE5_NAMES)
    package_root = Path(lexiforge.pipeline.__file__).resolve().parents[1]
    other_shape = tmp_path / "other_shape.cfg"
    other_shape.write_text("batch_size = 1000\nhidden = 17,9\n", encoding="utf-8")
    # an empty config: the default MTLFFN shape and batch size; then ridge,
    # and a shape whose weights differed at 1 and 2 threads while training
    # ran at the ambient thread count
    for config, extra in ((os.devnull, ()), (os.devnull, ("--model", "ridge")),
                          (other_shape, ())):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{Path(config).stem}{'_'.join(extra)}_threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(package_root)}
            argv = [sys.executable, "-m", "lexiforge", *_run_args(bundle, out, config),
                    "--epochs", "3", "--gold", f"g={bundle['gold']}", *extra]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(_outputs_but_manifest(out))
        assert len(outputs[0]) == 7 and outputs[0] == outputs[1], (config, extra)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_concurrent_training_equals_sequential_training(tmp_path, monkeypatch):
    control = lexiforge.pipeline._openblas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get_threads, set_threads = control
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=300, n_vocab=600, dim=300,
                                   seed=5, split_sizes=(260, 20, 20),
                                   variables=VAD_NAMES + BE5_NAMES)
    fit_mtlffn = lexiforge.pipeline.fit_mtlffn
    expand = lexiforge.pipeline.write_expansion
    fits, at_expansion = [], []

    def recording_fit(X, Y, cfg, group, **kwargs):
        fits.append((group.names, threading.get_ident(), get_threads()))
        return fit_mtlffn(X, Y, cfg, group, **kwargs)

    def recording_expand(*args, **kwargs):
        at_expansion.append((get_threads(), kwargs["pool"] is not None))
        return expand(*args, **kwargs)

    monkeypatch.setattr(lexiforge.pipeline, "fit_mtlffn", recording_fit)
    monkeypatch.setattr(lexiforge.pipeline, "write_expansion", recording_expand)
    before = get_threads()
    set_threads(2)  # an ambient count that training must not use, whatever the host's
    try:
        # the default network shape, whose bits do not depend on the thread count
        assert main(_run_args(bundle, tmp_path / "concurrent", os.devnull,
                              extra=["--epochs", "2"])) == 0
        assert get_threads() == 2
        concurrent_fits = fits[:]
        monkeypatch.setattr(lexiforge.pipeline, "_openblas_thread_control", lambda: None)
        assert main(_run_args(bundle, tmp_path / "sequential", os.devnull,
                              extra=["--epochs", "2"])) == 0
        assert get_threads() == 2
    finally:
        set_threads(before)
    sequential_fits = fits[len(concurrent_fits):]
    main_thread = threading.get_ident()
    # the first group on this thread, the second beside it
    concurrent_fits.sort(key=lambda fit: fit[0] != VAD_NAMES)
    assert [(names, threads) for names, _, threads in concurrent_fits] == [
        (VAD_NAMES, 1), (BE5_NAMES, 1)]
    assert concurrent_fits[0][1] == main_thread
    assert (concurrent_fits[1][1] != main_thread) == (_usable_cores() > 1)
    assert sequential_fits == [(VAD_NAMES, main_thread, 2), (BE5_NAMES, main_thread, 2)]
    # expansion too runs at one thread, on the fits' pool, in the concurrent run
    assert at_expansion == [(1, _usable_cores() > 1), (2, False)]
    concurrent = _outputs_but_manifest(tmp_path / "concurrent")
    assert len([p for p in concurrent if p.parts[0] == "checkpoints"]) == 2
    assert concurrent == _outputs_but_manifest(tmp_path / "sequential")


def test_a_run_ends_its_threads_and_restores_the_blas_count_also_when_it_fails(
    tmp_path, monkeypatch
):
    control = lexiforge.pipeline._openblas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get_threads, set_threads = control
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=300, n_vocab=600, dim=8,
                                   split_sizes=(260, 20, 20), seed=5,
                                   variables=VAD_NAMES + BE5_NAMES)
    # two parse parts even for this small file: each run forks one worker,
    # which the parse does only while it is the process's one thread
    monkeypatch.setattr(lexiforge.embeddings, "_n_parts", lambda store_bytes: 2)
    fork_part, forks = lexiforge.embeddings._fork_part, []

    def counting_fork(*args):
        forks.append(threading.active_count())
        return fork_part(*args)

    monkeypatch.setattr(lexiforge.embeddings, "_fork_part", counting_fork)
    fit_mtlffn, expand = lexiforge.pipeline.fit_mtlffn, lexiforge.pipeline.write_expansion
    hidden_layer, failing = lexiforge.models._hidden_layer, []

    def fit(X, Y, cfg, group, **kwargs):
        if failing == ["train"] and group.names == BE5_NAMES:  # the fit beside this thread's
            raise DivergenceError(7)
        return fit_mtlffn(X, Y, cfg, group, **kwargs)

    def expansion(*args, **kwargs):
        if failing == ["expand"]:
            failing.append("expanding")
        return expand(*args, **kwargs)

    def hidden(*args):
        if failing == ["expand", "expanding"]:  # on every thread that predicts
            raise MemoryError("no block buffer")
        return hidden_layer(*args)

    monkeypatch.setattr(lexiforge.pipeline, "fit_mtlffn", fit)
    monkeypatch.setattr(lexiforge.pipeline, "write_expansion", expansion)
    monkeypatch.setattr(lexiforge.models, "_hidden_layer", hidden)
    threads_before = set(threading.enumerate())
    before = get_threads()
    set_threads(2)  # an ambient count that the run must not use, whatever the host's
    try:
        for stage in (None, "train", "expand", None):
            failing[:] = [stage] if stage else []
            out = tmp_path / f"out_{len(forks)}"
            # an empty store cache: the run parses, and forks, rather than map an entry
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache_{len(forks)}"))
            code = main(_run_args(bundle, out, _write_fast_config(tmp_path)))
            assert code == (1 if stage else 0)
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            last = manifest["stages"][-1]
            assert (manifest["status"], last["name"], last["status"]) == (
                ("incomplete", stage, "failed") if stage else ("complete", "silver-eval", "ok"))
            assert set(threading.enumerate()) == threads_before, stage
            assert get_threads() == 2, stage
    finally:
        set_threads(before)
    assert forks == [1, 1, 1, 1]


def test_run_reports_a_fit_that_fails_in_a_worker_thread(tmp_path, monkeypatch, capsys):
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=60, n_vocab=200, dim=8,
                                   split_sizes=(40, 10, 10), seed=7,
                                   variables=VAD_NAMES + BE5_NAMES)
    fit_mtlffn = lexiforge.pipeline.fit_mtlffn
    failed_in = []

    def failing_fit(X, Y, cfg, group, **kwargs):
        if group.names == BE5_NAMES:  # the second group
            failed_in.append(threading.current_thread())
            raise DivergenceError(7)
        return fit_mtlffn(X, Y, cfg, group, **kwargs)

    monkeypatch.setattr(lexiforge.pipeline, "fit_mtlffn", failing_fit)
    out = tmp_path / "out"
    assert main(_run_args(bundle, out, _write_fast_config(tmp_path))) == 1
    err = capsys.readouterr().err
    assert "error: stage 'train' failed: non-finite training loss at optimizer step 7" in err
    assert failed_in and (failed_in[0] is not threading.main_thread()) == (_usable_cores() > 1)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "incomplete"
    failed = manifest["stages"][-1]
    assert (failed["name"], failed["status"], failed["error"]) == (
        "train", "failed", "non-finite training loss at optimizer step 7")
    assert [s["name"] for s in manifest["stages"]] == RUN_STAGES[:5]
    assert not any(name.startswith("checkpoint:") for name in manifest["outputs"])
    assert not list(out.glob("*.tmp"))


def test_run_reports_the_first_failure_in_group_order(tmp_path, monkeypatch, capsys):
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=60, n_vocab=200, dim=8,
                                   split_sizes=(40, 10, 10), seed=7,
                                   variables=VAD_NAMES + BE5_NAMES)
    second_failed = threading.Event()

    def failing_fit(X, Y, cfg, group, **kwargs):
        if group.names == BE5_NAMES:
            second_failed.set()
            raise DivergenceError(7)
        second_failed.wait(timeout=10)  # times out when the fits run one after another
        raise DivergenceError(3)

    monkeypatch.setattr(lexiforge.pipeline, "fit_mtlffn", failing_fit)
    assert main(_run_args(bundle, tmp_path / "out", _write_fast_config(tmp_path))) == 1
    err = capsys.readouterr().err
    assert "error: stage 'train' failed: non-finite training loss at optimizer step 3" in err


def test_an_interrupt_in_the_train_stage_stops_the_fit_beside_it(tmp_path, monkeypatch):
    if lexiforge.pipeline._openblas_thread_control() is None or _usable_cores() < 2:
        pytest.skip("the fits run one after another in this process")
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=60, n_vocab=200, dim=8,
                                   split_sizes=(40, 10, 10), seed=7,
                                   variables=VAD_NAMES + BE5_NAMES)
    fit_mtlffn = lexiforge.pipeline.fit_mtlffn
    second_started = threading.Event()
    interrupted_at = []

    def interrupted_fit(X, Y, cfg, group, **kwargs):
        if group.names == BE5_NAMES:  # a real fit of several seconds on a worker thread
            second_started.set()
            return fit_mtlffn(X, Y, cfg, group, **kwargs)
        second_started.wait(timeout=10)
        time.sleep(0.2)  # let the worker's fit get into its steps
        interrupted_at.append(time.monotonic())
        raise KeyboardInterrupt

    monkeypatch.setattr(lexiforge.pipeline, "fit_mtlffn", interrupted_fit)
    threads_before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        main(_run_args(bundle, tmp_path / "out", _write_fast_config(tmp_path),
                       extra=["--epochs", "30000"]))
    assert time.monotonic() - interrupted_at[0] < 1.0
    assert set(threading.enumerate()) == threads_before


def test_run_with_a_missing_input_creates_no_output_directory(tmp_path, small_bundle, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing.tsv"
    args = _run_args(small_bundle, out, _write_fast_config(tmp_path))
    args[args.index("--source") + 1] = str(missing)
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(missing) in err[0]
    assert not out.exists()


def test_run_frees_the_training_matrix_before_expansion(tmp_path, monkeypatch):
    # 2,800 train rows of 300 dimensions: far more than a small network's workspace
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=3000, n_vocab=3100, dim=300,
                                   k=2, split_sizes=(2800, 100, 100), seed=8)
    train_matrices = []
    training_peaks = []
    alive_at_expansion = []
    save_checkpoint = lexiforge.pipeline.save_checkpoint

    def recording_embed_matrix(store, words):
        matrix, tags = embed_matrix(store, words)
        train_matrices.append((weakref.ref(matrix), len(words) * store.dimension))
        tracemalloc.start()  # what training allocates from here on
        return matrix, tags

    def checking_save_checkpoint(*args, **kwargs):
        if tracemalloc.is_tracing():  # the fits have returned
            training_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return save_checkpoint(*args, **kwargs)

    def checking_write_expansion(*args, **kwargs):
        alive_at_expansion.append(train_matrices[0][0]() is not None)
        return write_expansion(*args, **kwargs)

    monkeypatch.setattr(lexiforge.pipeline, "embed_matrix", recording_embed_matrix)
    monkeypatch.setattr(lexiforge.pipeline, "save_checkpoint", checking_save_checkpoint)
    monkeypatch.setattr(lexiforge.pipeline, "write_expansion", checking_write_expansion)
    config = tmp_path / "small.cfg"
    config.write_text("hidden = 8,4\nepochs = 1\nbatch_size = 16\n", encoding="utf-8")
    try:
        assert main(_run_args(bundle, tmp_path / "out", config)) == 0
    finally:
        tracemalloc.stop()
    [(_, train_entries)] = train_matrices
    assert alive_at_expansion == [False]
    # no array of the train rows' entries, not even a bool mask of them
    [peak] = training_peaks
    assert peak < train_entries


def test_run_manifest_counts_how_rows_got_their_vectors(tmp_path, small_bundle):
    words = small_bundle["words"]
    table = {w: w for w in words[:60]}
    for i in (1, 2, 3, 45):  # three train words and a test word get averaged vectors
        table[words[i]] = f"{words[i]}x {words[100 + i]}"
    for i in (4, 5):  # and two train words the zero vector
        table[words[i]] = f"unknown{i}"
    save_translation_table(table, tmp_path / "table.tsv")
    bundle = {**small_bundle, "table": tmp_path / "table.tsv"}
    out = tmp_path / "out"
    assert main(_run_args(bundle, out, _write_fast_config(tmp_path))) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stages = {stage["name"]: stage for stage in manifest["stages"]}
    assert stages["train"]["resolution"] == {"direct": 35, "averaged": 3, "zero": 2}
    assert stages["expand"]["resolution"] == {"direct": 200, "averaged": 4, "zero": 2}

    store = load_embedding_store(bundle["embeddings"])
    mt = load_lexicon(out / "target_mt.tsv")
    train_words = [w for w, split in zip(mt.words, mt.splits) if split == "train"]
    pred_words = list(mt.words) + [w for w in store.words if w not in mt.row_index]
    for name, stage_words in (("train", train_words), ("expand", pred_words)):
        tags = embed_matrix(store, stage_words)[1]
        counts = {tag: tags.count(tag) for tag in ("direct", "averaged", "zero")}
        assert stages[name]["resolution"] == counts, name


def _bundle_with_duplicates(tmp_path, **kwargs) -> dict:
    """Inputs whose vector file repeats two words and whose MT lexicon
    repeats 10 words: its last 5 dev rows repeat its first 5 (train)
    words, its last 5 test rows the 5 test words before them."""
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=60, n_vocab=200, dim=8,
                                   split_sizes=(40, 10, 10), seed=7, **kwargs)
    words = bundle["words"]
    table = {w: w for w in words[:60]}
    for i in (*range(45, 50), *range(55, 60)):
        table[words[i]] = words[i - 45 if i < 50 else i - 5]
    save_translation_table(table, tmp_path / "table.tsv")
    vectors = bundle["embeddings"]
    header, *lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    count, dim = header.split()
    lines += [f"{w} {' '.join(['0.5'] * int(dim))}\n" for w in (words[3], words[150])]
    vectors.write_text(f"{int(count) + 2} {dim}\n" + "".join(lines), encoding="utf-8")
    return {**bundle, "table": tmp_path / "table.tsv"}


def _gold_args(tmp_path, bundle, n_golds: int) -> list[str]:
    """``--gold`` arguments for the bundle's gold and up to two noisy subsets of it."""
    rng = np.random.default_rng(3)
    paths = [bundle["gold"]]
    for i, subset in enumerate((slice(None, None, 2), slice(1, None, 3))[: n_golds - 1]):
        paths.append(tmp_path / f"gold{i + 2}.tsv")
        save_lexicon(build_lexicon(
            [(w, (v + rng.standard_normal(len(v))).tolist())
             for w, v in zip(bundle["words"][subset], bundle["clean"][subset])],
            variables=bundle["variables"],
        ), paths[-1])
    return [a for i, path in enumerate(paths) for a in ("--gold", f"g{i + 1}={path}")]


def _run_models(out: Path, mt, kind: str, joint: bool) -> list:
    """A run's models, loaded from its checkpoints, in variable-group order."""
    return [
        load_checkpoint(out / "checkpoints" /
                        f"{kind}_{'_'.join(n.lower() for n in group.names)}.ckpt")
        for group in variable_groups(mt.variables, joint=joint)
    ]


@pytest.mark.parametrize("extra, n_golds", [
    ((), 1), (("--joint-mtl",), 2), (("--max-vocab", "150"), 3), (("--model", "ridge"), 2),
], ids=["mtlffn", "joint-mtl", "max-vocab", "ridge"])
def test_run_streams_the_expansion_of_one_predict_call(tmp_path, monkeypatch, extra, n_golds):
    # two variable groups; chunks of 52 or 53 rows, so the MT duplicates
    # at rows 55 and 56 follow their first entries' chunk
    bundle = _bundle_with_duplicates(tmp_path, variables=VAD_NAMES + BE5_NAMES)
    monkeypatch.setattr(lexiforge.models, "_PREDICT_CHUNK_ROWS", 64)
    out = tmp_path / "out"
    golds = _gold_args(tmp_path, bundle, n_golds)
    assert main(_run_args(bundle, out, _write_fast_config(tmp_path), [*extra, *golds])) == 0

    mt = load_lexicon(out / "target_mt.tsv", provenance="translated")
    max_vocab = int(extra[1]) if extra[:1] == ("--max-vocab",) else None
    store = load_embedding_store(bundle["embeddings"], max_vocab)
    models = _run_models(out, mt, "ridge" if "ridge" in extra else "mtlffn",
                         "--joint-mtl" in extra)
    expected = one_call_expansion(models, store, mt, derive_prediction_splits(mt, store))
    assert len(expected) == len(mt) - 10 + len(store) - 50
    assert (out / "target_pred.tsv").read_text(encoding="utf-8") == tsv_text(expected)

    # the reports of the rows the run kept are those of the whole file
    eval_out = tmp_path / "eval_reports"
    assert main(["evaluate", "--mt", str(out / "target_mt.tsv"),
                 "--pred", str(out / "target_pred.tsv"), *golds, "--out", str(eval_out)]) == 0
    run_files = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
    assert len(run_files) == 1 + 2 * n_golds + n_golds * (n_golds - 1) // 2
    assert {p.name: p.read_bytes() for p in eval_out.iterdir()} == run_files


@pytest.mark.parametrize("failing", ["duplicate", "vocabulary-chunk"])
def test_a_failed_expansion_leaves_no_predicted_lexicon(tmp_path, monkeypatch, capsys, failing):
    bundle = _bundle_with_duplicates(tmp_path)
    monkeypatch.setattr(lexiforge.models, "_PREDICT_CHUNK_ROWS", 64)
    predict, calls = lexiforge.models.predict, []

    def failing_predict(model, X, **kwargs):
        calls.append(len(X))
        if failing == "vocabulary-chunk" and len(calls) == 4:  # the last chunk
            raise ValueError("no memory left for this chunk")
        values = predict(model, X, **kwargs)
        # the second chunk holds MT duplicates of rows of the first: their values drift
        return values + 1.0 if failing == "duplicate" and len(calls) == 2 else values

    monkeypatch.setattr(lexiforge.models, "predict", failing_predict)
    out = tmp_path / "out"
    assert main(_run_args(bundle, out, _write_fast_config(tmp_path))) == 1
    if failing == "duplicate":  # the message of merging all rows in memory
        mt = load_lexicon(out / "target_mt.tsv", provenance="translated")
        store = load_embedding_store(bundle["embeddings"])
        calls.clear()
        with pytest.raises(IntegrityError) as raised:
            collapse_duplicates(predicted(_run_models(out, mt, "mtlffn", False), store, mt,
                                          derive_prediction_splits(mt, store)))
        error = str(raised.value)
        assert error.startswith("duplicate entries for 'w00050' differ by ")
    else:
        error = "no memory left for this chunk"
    assert capsys.readouterr().err == f"error: stage 'expand' failed: {error}\n"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"][-1] == {"name": "expand", "status": "failed", "error": error,
                                      **{k: v for k, v in manifest["stages"][-1].items()
                                         if k == "peak_rss_mb"}}
    assert not (out / "target_pred.tsv").exists()
    assert not list(out.glob("*.tmp"))
    assert "target_pred" not in manifest["outputs"]


def test_run_manifest_counts_the_duplicates_it_merges(tmp_path):
    bundle = _bundle_with_duplicates(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(bundle, out, _write_fast_config(tmp_path))) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stages = {stage["name"]: stage for stage in manifest["stages"]}
    assert stages["embeddings"]["duplicates"] == 2  # vector-file lines of a word seen before
    assert stages["expand"]["merged"] == 10  # MT rows of a word seen before
    pred = load_lexicon(out / "target_pred.tsv", provenance="predicted")
    assert len(pred) == len(set(pred.words)) == 200


def test_run_reads_the_gold_lexicons_before_training(tmp_path, small_bundle, capsys):
    bad_gold = tmp_path / "bad_gold.tsv"
    bad_gold.write_text("word\ty1\ty2\nfine\t0.5\t0.5\nbroken\t0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    args = _run_args(small_bundle, out, _write_fast_config(tmp_path),
                     ["--gold", f"g={small_bundle['gold']}", "--gold", f"bad={bad_gold}"])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'load-source' failed: ") and "line 3" in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("load-source", "failed")]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_run_splits_hold_the_store_and_never_build_the_test_split(tmp_path, small_bundle,
                                                                monkeypatch):
    derive = lexiforge.pipeline.derive_prediction_splits
    derived = []

    def recording_derive(mt, vocab):
        derived.append((derive(mt, vocab), vocab))
        return derived[-1][0]

    monkeypatch.setattr(lexiforge.pipeline, "derive_prediction_splits", recording_derive)
    args = _run_args(small_bundle, tmp_path / "out", _write_fast_config(tmp_path),
                     ["--gold", f"g={small_bundle['gold']}"])
    assert main(args) == 0
    [(splits, store)] = derived
    assert splits.embedding_vocab is store and type(store).__name__ == "EmbeddingStore"
    assert "pred_test" not in vars(splits)  # the cached set was never built


def test_run_skip_translation_copies_source(tmp_path, small_bundle):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    args = [
        "run", "--source", str(small_bundle["source"]),
        "--skip-translation",
        "--embeddings", str(small_bundle["embeddings"]),
        "--out", str(out), "--config", str(config),
    ]
    assert main(args) == 0
    source_bytes = small_bundle["source"].read_bytes()
    assert (out / "target_mt.tsv").read_bytes() == source_bytes


def test_run_ridge_model(tmp_path, small_bundle):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config, extra=["--model", "ridge"])) == 0
    assert (out / "checkpoints" / "ridge_y1_y2.ckpt").exists()


def test_run_requires_table_or_skip(tmp_path, small_bundle, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--source", str(small_bundle["source"]),
        "--embeddings", str(small_bundle["embeddings"]), "--out", str(out),
    ])
    assert code == 1
    assert "translation table" in capsys.readouterr().err


def test_run_respects_output_lock(tmp_path, small_bundle, capsys):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lexiforge.lock").write_text("12345\n", encoding="utf-8")
    code = main(_run_args(small_bundle, out, config))
    assert code == 1
    assert "locked" in capsys.readouterr().err


def test_a_lock_left_by_a_dead_run_names_its_process(tmp_path, small_bundle, capsys):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0  # reaped: no process has this id now
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".lexiforge.lock"
    lock.write_text(f"{child.pid}\n", encoding="utf-8")
    args = _run_args(small_bundle, out, _write_fast_config(tmp_path))
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"locked by process {child.pid}, which is no longer running" in err[0]
    assert lock.read_text(encoding="utf-8") == f"{child.pid}\n"  # never removed for the user
    assert [p.name for p in out.iterdir()] == [".lexiforge.lock"]

    lock.write_text(f"{os.getpid()}\n", encoding="utf-8")  # a live process
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "locked by another run" in err and "no longer running" not in err


def test_run_stage_failure_marks_manifest(tmp_path, small_bundle, capsys):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    bad_gold = tmp_path / "bad_gold.tsv"
    bad_gold.write_text("word\ty1\ty2\nonlyone\t0.0\t0.0\n", encoding="utf-8")
    code = main(_run_args(small_bundle, out, config,
                          extra=["--gold", f"bad={bad_gold}"]))
    assert code == 1
    assert "gold-eval-bad" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "incomplete"
    assert manifest["stages"][-1]["status"] == "failed"
    # artifacts from completed stages are retained
    assert (out / "target_pred.tsv").exists()


# Runs `lexiforge run` with the arguments after the first and kills itself
# with SIGKILL where the first says: at the start of the stage it names, or
# ("mid-write") once the first rows of target_pred.tsv are on disk.
_KILLED_RUN = """
import os, signal, sys
import lexiforge.models, lexiforge.pipeline
from lexiforge.cli import main

where = sys.argv[1]
stage, write_rows = lexiforge.pipeline._stage, lexiforge.models.write_lexicon_rows

def stage_killed_at_its_start(manifest, name):
    if name == where:
        os.kill(os.getpid(), signal.SIGKILL)
    return stage(manifest, name)

def rows_killed_once_written(stream, *args):
    write_rows(stream, *args)
    stream.flush()
    os.kill(os.getpid(), signal.SIGKILL)

lexiforge.pipeline._stage = stage_killed_at_its_start
if where == "mid-write":
    lexiforge.models.write_lexicon_rows = rows_killed_once_written
sys.exit(main(sys.argv[2:]))
"""


def test_a_killed_run_leaves_only_whole_files(tmp_path, small_bundle):
    from lexiforge.pipeline import file_sha256

    config = _write_fast_config(tmp_path)
    golds = ["--gold", f"g1={small_bundle['gold']}", "--gold", f"g2={small_bundle['gold']}"]
    whole = tmp_path / "whole"
    assert main(_run_args(small_bundle, whole, config, golds)) == 0
    manifest = json.loads((whole / "manifest.json").read_text(encoding="utf-8"))
    stages = [stage["name"] for stage in manifest["stages"]]
    assert len(stages) == 12  # six, then silver, two gold, one ISR and two MT-vs-pred
    script = tmp_path / "killed_run.py"
    script.write_text(_KILLED_RUN, encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": str(Path(lexiforge.pipeline.__file__).resolve().parents[1])}
    for where in [*stages, "mid-write"]:
        out = tmp_path / f"killed-{where}"
        child = subprocess.Popen(
            [sys.executable, str(script), where, *_run_args(small_bundle, out, config, golds)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        _, err = child.communicate(timeout=120)
        assert child.returncode == -signal.SIGKILL, (where, err)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status"] == "incomplete", where
        for entry in manifest["outputs"].values():
            assert file_sha256(entry["path"]) == entry["sha256"], where
        assert int((out / ".lexiforge.lock").read_text(encoding="ascii")) == child.pid
        for path in out.rglob("*"):
            if path.is_dir() or path.suffix == ".tmp" or path.name in (
                    "manifest.json", ".lexiforge.lock"):
                continue
            load = {".tsv": load_lexicon, ".json": load_reports, ".ckpt": load_checkpoint}
            load[path.suffix](path)  # loads whole, and holds the bytes of the whole run
            assert path.read_bytes() == (whole / path.relative_to(out)).read_bytes(), path
        if where == "mid-write":
            assert (out / f"target_pred.tsv.{child.pid}.tmp").stat().st_size > 0
            assert not (out / "target_pred.tsv").exists()


# ---------------------------------------------------------------------------
# store cache
# ---------------------------------------------------------------------------


def _embeddings_stage(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return next(stage for stage in manifest["stages"] if stage["name"] == "embeddings")


def _cache_files(cache_home: Path) -> list[str]:
    return sorted(p.name for p in (cache_home / "lexiforge" / "stores").iterdir())


def _entry(cache_home: Path) -> Path:
    """The one entry in a store cache."""
    [entry] = (cache_home / "lexiforge" / "stores").iterdir()
    return entry


def _entry_parts(entry: Path) -> tuple[bytes, bytes, dict]:
    """An entry's ``.npy`` bytes, its words and its record."""
    data = entry.read_bytes()
    rows = np.load(entry, mmap_mode="r")
    end = rows.offset + rows.nbytes
    words, _, record = data[end:].rpartition(b"\n")
    return data[:end], words, json.loads(record)


def _rewrite(entry: Path, npy: bytes, words: bytes, record: dict, **changes) -> None:
    entry.write_bytes(npy + words + b"\n" + json.dumps({**record, **changes}).encode())


def _truncate_the_header(entry):
    entry.write_bytes(entry.read_bytes()[:20])


def _truncate_rows(entry):
    entry.write_bytes(_entry_parts(entry)[0][:-9])


def _flip_a_row_byte(entry):
    npy, words, record = _entry_parts(entry)
    npy = bytearray(npy)
    npy[len(npy) // 2] ^= 0x10
    _rewrite(entry, bytes(npy), words, record)


def _drop_the_last_word(entry):  # its SHA-256 recorded anew, so the store's check finds it
    npy, words, record = _entry_parts(entry)
    words = b"\n".join(words.split(b"\n")[:-1])
    _rewrite(entry, npy, words, record, words_sha256=hashlib.sha256(words).hexdigest())


def _widen_the_rows(entry):  # also recorded anew
    npy, words, record = _entry_parts(entry)
    rows, wide = np.load(io.BytesIO(npy)).astype(np.float64), io.BytesIO()
    np.save(wide, rows)
    _rewrite(entry, wide.getvalue(), words, record,
             rows_sha256=hashlib.sha256(rows).hexdigest())


def _count_duplicates_in_a_string(entry):
    _rewrite(entry, *_entry_parts(entry), n_duplicates="0")


def _drop_the_record(entry):
    npy, words, _ = _entry_parts(entry)
    entry.write_bytes(npy + words)


def _spoil_the_record(entry):
    npy, words, _ = _entry_parts(entry)
    entry.write_bytes(npy + words + b"\n{not json")


@pytest.mark.parametrize("spoil, rejected", [
    (_truncate_the_header, "EOF: reading array header"),
    (_truncate_rows, "mmap length is greater than file size"),
    (_flip_a_row_byte, "rows do not match their recorded SHA-256"),
    (_drop_the_last_word, "vectors shape (200, 8) does not match 199 words"),
    (_widen_the_rows, "rows are not C-ordered float32"),
    (_count_duplicates_in_a_string, "duplicate count '0'"),
    (_drop_the_record, "Expecting value: line 1 column 1"),
    (_spoil_the_record, "Expecting property name enclosed in double quotes"),
])
def test_a_spoiled_store_cache_entry_is_replaced_and_changes_no_output(
    tmp_path, small_bundle, store_cache_home, spoil, rejected
):
    config = _write_fast_config(tmp_path)
    assert main(_run_args(small_bundle, tmp_path / "cold", config)) == 0
    assert _embeddings_stage(tmp_path / "cold") | {"seconds": 0, "peak_rss_mb": 0} == {
        "name": "embeddings", "status": "ok", "seconds": 0, "store": "parsed",
        "store_entry": "written", "duplicates": 0, "peak_rss_mb": 0}
    cold = _outputs_but_manifest(tmp_path / "cold")
    assert main(_run_args(small_bundle, tmp_path / "warm", config)) == 0
    warm = _embeddings_stage(tmp_path / "warm")
    assert warm["store"] == "cached" and "store_entry" not in warm
    spoil(_entry(store_cache_home))
    assert main(_run_args(small_bundle, tmp_path / "spoiled", config)) == 0
    stage = _embeddings_stage(tmp_path / "spoiled")
    assert (stage["store"], stage["store_entry"]) == ("parsed", "replaced")
    assert rejected in stage["store_rejected"]
    assert main(_run_args(small_bundle, tmp_path / "again", config)) == 0
    assert _embeddings_stage(tmp_path / "again")["store"] == "cached"
    for name in ("warm", "spoiled", "again"):
        assert _outputs_but_manifest(tmp_path / name) == cold, name
    assert len(_cache_files(store_cache_home)) == 1


@pytest.mark.parametrize("blocked", ["stores is a file", "entry is a directory"])
def test_a_store_cache_that_cannot_be_written_changes_no_output(
    tmp_path, small_bundle, store_cache_home, monkeypatch, blocked
):
    from lexiforge.pipeline import file_sha256

    config = _write_fast_config(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold-cache"))
    assert main(_run_args(small_bundle, tmp_path / "cold", config)) == 0
    monkeypatch.setenv("XDG_CACHE_HOME", str(store_cache_home))
    stores = store_cache_home / "lexiforge" / "stores"
    if blocked == "stores is a file":
        stores.parent.mkdir()
        stores.write_text("not a directory\n", encoding="utf-8")
    else:
        key = lexiforge.embeddings.store_cache_key(file_sha256(small_bundle["embeddings"]), None)
        (stores / f"{key}.store").mkdir(parents=True)
    for name in ("first", "second"):
        assert main(_run_args(small_bundle, tmp_path / name, config)) == 0
        assert _outputs_but_manifest(tmp_path / name) == _outputs_but_manifest(tmp_path / "cold")
        stage = _embeddings_stage(tmp_path / name)
        assert stage["store"] == "parsed"
        if blocked == "stores is a file":
            assert stage["store_entry"] == f"[Errno 17] File exists: '{stores}'"
            assert "store_rejected" not in stage
        else:
            assert stage["store_entry"].startswith("[Errno 21] Is a directory")
            assert stage["store_rejected"].startswith("[Errno 21] Is a directory")
            assert not list(stores.glob("*.tmp"))


def test_a_disk_without_room_for_an_entry_gets_none_and_changes_no_output(
    tmp_path, small_bundle, store_cache_home, monkeypatch
):
    config = _write_fast_config(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold-cache"))
    assert main(_run_args(small_bundle, tmp_path / "cold", config)) == 0
    monkeypatch.setenv("XDG_CACHE_HOME", str(store_cache_home))
    store = lexiforge.load_embedding_store(small_bundle["embeddings"])
    size = store.vectors.nbytes + len("\n".join(store.words).encode())
    free = 2 * size - 1  # room for the entry, but not for as much again after it
    monkeypatch.setattr(os, "statvfs", lambda _: os.statvfs_result(
        (4096, 1, 10**9, free, free, 0, 0, 0, 0, 255)))
    assert main(_run_args(small_bundle, tmp_path / "full", config)) == 0
    stage = _embeddings_stage(tmp_path / "full")
    assert (stage["store"], stage["store_entry"]) == ("parsed", (
        f"[Errno 28] {free} bytes free on its disk, less than twice the {size}-byte entry"))
    assert not _cache_files(store_cache_home)
    assert _outputs_but_manifest(tmp_path / "full") == _outputs_but_manifest(tmp_path / "cold")


_CONCURRENT_RUN = """
import contextlib
import sys
import time
from pathlib import Path

import lexiforge.embeddings
from lexiforge.cli import main

barrier, me = Path(sys.argv[1]), sys.argv[2]
write_whole = lexiforge.embeddings.write_whole


@contextlib.contextmanager
def write_whole_when_both_wrote(path, binary):
    with write_whole(path, binary) as fh:
        yield fh
        (barrier / me).touch()
        deadline = time.monotonic() + 60
        while len(list(barrier.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)


lexiforge.embeddings.write_whole = write_whole_when_both_wrote
sys.exit(main(sys.argv[3:]))
"""


def test_two_concurrent_runs_fill_one_store_cache_entry(tmp_path, small_bundle, store_cache_home):
    config = _write_fast_config(tmp_path)
    script = tmp_path / "concurrent_run.py"
    script.write_text(_CONCURRENT_RUN, encoding="utf-8")
    barrier = tmp_path / "barrier"
    barrier.mkdir()
    env = {**os.environ,
           "PYTHONPATH": str(Path(lexiforge.pipeline.__file__).resolve().parents[1])}
    # each run writes the entry under its own temporary name before either
    # moves it into place, so neither finds an entry
    children = [subprocess.Popen(
        [sys.executable, str(script), str(barrier), name,
         *_run_args(small_bundle, tmp_path / name, config)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for name in ("one", "two")]
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    assert len(list(barrier.iterdir())) == 2
    assert main(_run_args(small_bundle, tmp_path / "after", config)) == 0
    assert _embeddings_stage(tmp_path / "after")["store"] == "cached"
    for name in ("one", "two"):
        stage = _embeddings_stage(tmp_path / name)
        assert (stage["store"], stage["store_entry"]) == ("parsed", "written")
        assert _outputs_but_manifest(tmp_path / name) == _outputs_but_manifest(tmp_path / "after")
    assert len(_cache_files(store_cache_home)) == 1


def test_a_parse_error_is_the_same_beside_an_entry_and_writes_none(
    tmp_path, small_bundle, store_cache_home, capsys
):
    lines = small_bundle["embeddings"].read_text(encoding="utf-8").splitlines(keepends=True)
    word, _, rest = lines[-1].partition(" ")
    vectors = tmp_path / "defect.vec"
    vectors.write_text("".join(lines[:-1]) + f"{word} x {rest.partition(' ')[2]}",
                       encoding="utf-8")
    bundle = {**small_bundle, "embeddings": vectors}
    config = _write_fast_config(tmp_path)

    def failed_run(name):
        assert main(_run_args(bundle, tmp_path / name, config)) == 1
        stage = _embeddings_stage(tmp_path / name)
        return capsys.readouterr().err, stage["status"], stage["error"]

    empty = failed_run("empty")
    assert f"defect.vec:line {len(lines)}: non-numeric vector component" in empty[0]
    assert not (store_cache_home / "lexiforge").exists()  # a failed parse writes no entry
    # the lines before the defect parse, and their store is cached
    cut = ["--max-vocab", str(len(lines) - 2)]
    assert main(_run_args(bundle, tmp_path / "cut", config, extra=cut)) == 0
    assert _embeddings_stage(tmp_path / "cut")["store_entry"] == "written"
    assert failed_run("beside") == empty
    assert main(_run_args(bundle, tmp_path / "cut-again", config, extra=cut)) == 0
    assert _embeddings_stage(tmp_path / "cut-again")["store"] == "cached"
    assert len(_cache_files(store_cache_home)) == 1


# ---------------------------------------------------------------------------
# evaluate / report
# ---------------------------------------------------------------------------


def test_evaluate_recomputes_from_files(tmp_path, small_bundle, capsys):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config)) == 0
    run_silver = json.loads((out / "reports" / "silver.json").read_text(encoding="utf-8"))

    eval_out = tmp_path / "eval_reports"
    code = main([
        "evaluate", "--mt", str(out / "target_mt.tsv"),
        "--pred", str(out / "target_pred.tsv"),
        "--gold", f"g1={small_bundle['gold']}",
        "--out", str(eval_out),
    ])
    assert code == 0
    redone = json.loads((eval_out / "silver.json").read_text(encoding="utf-8"))
    assert redone[0]["r"] == run_silver[0]["r"]
    assert (eval_out / "gold_g1.json").exists()
    assert (eval_out / "mt_vs_pred_g1.json").exists()
    printed = capsys.readouterr().out
    assert "silver evaluation" in printed and "gold evaluation" in printed


def test_evaluate_reproduces_run_with_nfc_nfd_twin_words(tmp_path, small_bundle):
    """Twins are words the word rule makes one: NFC and NFD forms, a word
    with and without a no-break space, a table target with whitespace
    around it and the vocabulary word it names."""
    vectors = small_bundle["embeddings"]
    header, *lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    count, dim = header.split()
    extra = [unicodedata.normalize("NFC", "schön"), unicodedata.normalize("NFD", "schön"),
             "foo", "foo\xa0"]
    lines += [f"{w} {' '.join([str(i + 0.5)] * int(dim))}\n" for i, w in enumerate(extra)]
    vectors.write_text(f"{int(count) + len(extra)} {dim}\n" + "".join(lines), encoding="utf-8")
    table = small_bundle["table"]
    table.write_text(
        table.read_text(encoding="utf-8")
        .replace("w00001\tw00001\n", "w00001\tw00001 \n")  # a train word
        .replace("w00055\tw00055\n", "w00055\t\u3000w00055\n"),  # a test word
        encoding="utf-8",
    )
    golds = ["--gold", f"g1={small_bundle['gold']}"]
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path), golds)) == 0
    pred_words = [line.split("\t")[0] for line in
                  (out / "target_pred.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    assert len(pred_words) == len(set(pred_words)) == 202  # 200 + schön + foo

    eval_out = tmp_path / "eval_reports"
    assert main([
        "evaluate", "--mt", str(out / "target_mt.tsv"),
        "--pred", str(out / "target_pred.tsv"), *golds, "--out", str(eval_out),
    ]) == 0
    run_files = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
    assert sorted(run_files) == ["gold_g1.json", "mt_vs_pred_g1.json", "silver.json"]
    assert {p.name: p.read_bytes() for p in eval_out.iterdir()} == run_files


def test_evaluate_rewrites_the_run_report_files(tmp_path, small_bundle):
    rng = np.random.default_rng(0)
    gold2 = tmp_path / "gold2.tsv"
    save_lexicon(build_lexicon(
        [(w, (v + rng.standard_normal(2)).tolist())
         for w, v in zip(small_bundle["words"][::2], small_bundle["clean"][::2])],
        variables=small_bundle["variables"],
    ), gold2)
    golds = ["--gold", f"g1={small_bundle['gold']}", "--gold", f"g2={gold2}"]
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path), golds)) == 0

    eval_out = tmp_path / "eval_reports"
    assert main([
        "evaluate", "--mt", str(out / "target_mt.tsv"),
        "--pred", str(out / "target_pred.tsv"), *golds, "--out", str(eval_out),
    ]) == 0
    run_files = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
    assert sorted(run_files) == [
        "gold_g1.json", "gold_g2.json", "isr_g1_g2.json",
        "mt_vs_pred_g1.json", "mt_vs_pred_g2.json", "silver.json",
    ]
    assert {p.name: p.read_bytes() for p in eval_out.iterdir()} == run_files
    assert json.loads(run_files["silver.json"])[0]["lexicons"] == ["und-mt", "und-pred"]


def test_run_evaluate_and_report_print_the_same_tables(tmp_path, small_bundle, capsys):
    gold2 = tmp_path / "gold2.tsv"
    save_lexicon(load_lexicon(small_bundle["gold"]), gold2)
    golds = ["--gold", f"g1={small_bundle['gold']}", "--gold", f"g2={gold2}"]
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path), golds)) == 0
    run_printed = capsys.readouterr().out
    assert main(["evaluate", "--mt", str(out / "target_mt.tsv"),
                 "--pred", str(out / "target_pred.tsv"), *golds]) == 0
    evaluate_printed = capsys.readouterr().out
    assert main(["report", str(out / "reports")]) == 0
    report_printed = capsys.readouterr().out
    assert "Gold1" in report_printed and "Series" in report_printed
    assert run_printed == f"run complete: {out}\n" + report_printed
    assert evaluate_printed == report_printed


@pytest.mark.parametrize("flag, problem", [
    ("--mt", "No such file or directory"), ("--pred", "Is a directory"),
])
def test_evaluate_reports_an_unreadable_input_in_one_line(
    tmp_path, small_bundle, capsys, flag, problem
):
    bad = tmp_path / "missing.tsv" if problem.startswith("No") else tmp_path
    inputs = {"--mt": str(small_bundle["source"]), "--pred": str(small_bundle["source"])}
    inputs[flag] = str(bad)
    assert main(["evaluate", *(a for pair in inputs.items() for a in pair)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err and f"'{bad}'" in err
    assert err.count("\n") == 1


def test_evaluate_refuses_split_tags_not_derived_from_mt(tmp_path, small_bundle, capsys):
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, _write_fast_config(tmp_path))) == 0
    pred_path = out / "target_pred.tsv"
    lines = pred_path.read_text(encoding="utf-8").splitlines(keepends=True)
    leaked = next(i for i, line in enumerate(lines) if line.endswith("\ttrain\n"))
    lines[leaked] = lines[leaked][: -len("train\n")] + "test\n"
    pred_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    eval_out = tmp_path / "eval_reports"
    assert main([
        "evaluate", "--mt", str(out / "target_mt.tsv"), "--pred", str(pred_path),
        "--gold", f"g1={small_bundle['gold']}", "--out", str(eval_out),
    ]) == 1
    assert capsys.readouterr().err == "error: pred_train must equal mt_train\n"
    assert not list(eval_out.glob("*"))


def test_run_rejects_max_vocab_below_one(tmp_path, small_bundle, capsys):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config, ["--max-vocab", "-1"])) == 1
    assert capsys.readouterr().err == (
        "error: bad run settings: max_vocab must be at least 1, got -1\n"
    )
    assert not out.exists()


def test_run_rejects_a_negative_seed_from_the_config_file(tmp_path, small_bundle, capsys):
    config = _write_fast_config(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + "seed = -1\n", encoding="utf-8")
    out = tmp_path / "out"
    args = _run_args(small_bundle, out, config)
    assert args[-2:] == ["--seed", "11"]
    assert main(args[:-2]) == 1
    assert capsys.readouterr().err == (
        "error: bad run settings: seed must be a non-negative integer, got -1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flags, config_line, message", [
    (["--epochs", "0"], "", "batch_size and epochs must be >= 1"),
    ([], "hidden_dropout = 1\n", "hidden_dropout must be in [0, 1)"),
    (["--model", "ridge", "--alpha", "-1"], "", "alpha must be >= 0, got -1.0"),
    ([], "model = ridge\nalpha = nan\n", "alpha must be >= 0, got nan"),
    ([], "leaky_slope = nan\n", "leaky_slope must be finite, got nan"),
    ([], "leaky_slope = -inf\n", "leaky_slope must be finite, got -inf"),
    ([], "learning_rate = nan\n", "learning_rate must be positive and finite, got nan"),
    (["--seed", "-1"], "", "seed must be a non-negative integer, got -1"),
])
def test_run_reports_bad_settings_in_one_line(
    tmp_path, small_bundle, capsys, flags, config_line, message
):
    config = _write_fast_config(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + config_line, encoding="utf-8")
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config, flags)) == 1
    assert capsys.readouterr().err == f"error: bad run settings: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("gold_ids, message", [
    (["a/b"], "--gold id 'a/b' must not contain '/'"),
    (["a", "a"], "--gold id 'a' is given twice"),
    (["a", "b_c", "a_b", "c"],
     "--gold id pairs ('a', 'b_c') and ('a_b', 'c') would both write isr_a_b_c.json"),
], ids=["slash", "twice", "isr-name-collision"])
def test_bad_gold_ids_fail_before_the_output_directory_exists(
    tmp_path, small_bundle, capsys, command, gold_ids, message
):
    out = tmp_path / "out"
    gold_args = [a for gold_id in gold_ids for a in ("--gold", f"{gold_id}={small_bundle['gold']}")]
    if command == "run":
        args = _run_args(small_bundle, out, _write_fast_config(tmp_path), gold_args)
    else:  # the source lexicon's tags pass as an MT and a predicted lexicon's
        args = ["evaluate", "--mt", str(small_bundle["source"]),
                "--pred", str(small_bundle["source"]), *gold_args, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("caller", ["evaluate_protocols", "run_pipeline"])
@pytest.mark.parametrize("gold_ids, message", [
    (["a/b"], "--gold id 'a/b' must not contain '/'"),
    (["a", "b_c", "a_b", "c"],
     "--gold id pairs ('a', 'b_c') and ('a_b', 'c') would both write isr_a_b_c.json"),
], ids=["slash", "isr-name-collision"])
def test_library_calls_reject_bad_gold_ids_before_any_output(
    tmp_path, small_bundle, caller, gold_ids, message
):
    gold = {gold_id: small_bundle["gold"] for gold_id in gold_ids}
    out = tmp_path / "out"
    with pytest.raises(LexiforgeError) as raised:
        if caller == "run_pipeline":
            run_pipeline(RunSettings(source=small_bundle["source"], out=out, gold=gold,
                                     embeddings=small_bundle["embeddings"],
                                     table=small_bundle["table"]))
        else:  # the source lexicon's tags pass as an MT and a predicted lexicon's
            source = load_lexicon(small_bundle["source"])
            evaluate_protocols(source, source, SplitSets.from_lexicons(source, source),
                               {gold_id: load_lexicon(path) for gold_id, path in gold.items()},
                               out, lang="und")
    assert str(raised.value) == message
    assert not out.exists()


def test_run_pipeline_returns_the_reports_it_writes(tmp_path, small_bundle):
    gold2 = tmp_path / "gold2.tsv"
    save_lexicon(load_lexicon(small_bundle["gold"]), gold2)
    out = tmp_path / "out"
    reports = run_pipeline(RunSettings(
        source=small_bundle["source"], embeddings=small_bundle["embeddings"], out=out,
        table=small_bundle["table"], gold={"g2": gold2, "g1": small_bundle["gold"]},
        train=TrainConfig(hidden=(16, 8), epochs=4, batch_size=16),
    ))
    assert list(reports) == [
        "silver", "gold_g2", "gold_g1", "isr_g2_g1", "mt_vs_pred_g2", "mt_vs_pred_g1",
    ]
    assert reports == {p.stem: load_reports(p) for p in (out / "reports").iterdir()}


def test_run_has_no_duplicate_tolerance_flag(tmp_path, small_bundle):
    args = _run_args(small_bundle, tmp_path / "out", _write_fast_config(tmp_path),
                     ["--duplicate-tol", "1e-6"])
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, problem", [
    (None, "ValueError: dictionary update sequence"),  # a run directory: its manifest.json
    ('[{"protocol": "silver", "lexicons": ["a", "b"],', "JSONDecodeError: Expecting"),
    ("[1, 2]", "TypeError"),
    # one report not in a list, which save_reports never writes
    (json.dumps(EvalReport("silver", ("de-mt", "de-pred"), "de", 10, {"Val": 0.5}).to_dict()),
     "ValueError: dictionary update sequence"),
], ids=["run-dir", "truncated", "not-objects", "bare-report"])
def test_report_names_a_file_that_is_not_a_report(
    tmp_path, small_bundle, capsys, content, problem
):
    if content is None:
        target = tmp_path / "out"
        assert main(_run_args(small_bundle, target, _write_fast_config(tmp_path))) == 0
        bad = target / "manifest.json"
    else:
        target = bad = tmp_path / "report.json"
        bad.write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not a file of evaluation reports ({problem}")
    assert err.count("\n") == 1 and err.endswith(")\n")


def test_report_renders_and_meta(tmp_path, capsys):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    langs = ["de", "pl", "tr", "id"]
    for i, lang in enumerate(langs):
        silver = EvalReport("silver", (f"{lang}-mt", f"{lang}-pred"), lang, 100,
                            {"Val": 0.8 - 0.05 * i, "Aro": 0.6 - 0.05 * i})
        gold = EvalReport("gold", (f"{lang}1", f"{lang}-pred"), lang, 80,
                          {"Val": 0.75 - 0.04 * i, "Aro": 0.55 - 0.06 * i}, coverage=0.5)
        save_reports([silver], reports_dir / f"silver_{lang}.json")
        save_reports([gold], reports_dir / f"gold_{lang}1.json")
    tsv_path = tmp_path / "tables.tsv"
    code = main(["report", str(reports_dir), "--tsv", str(tsv_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "#Lg" in printed  # meta table rendered for >= 2 languages
    assert "4" in printed
    assert tsv_path.exists()
    header = tsv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split("\t") == [
        "protocol", "lexicons", "language", "shared", "coverage", "variable", "r"
    ]


@pytest.mark.parametrize("old", [None, "old table\n"])
def test_a_report_table_that_fails_partway_leaves_the_old_file_or_none(
    tmp_path, monkeypatch, capsys, old
):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    save_reports([EvalReport("silver", ("de-mt", "de-pred"), "de", 10, {"Val": 0.5, "Aro": 0.4})],
                 reports_dir / "silver.json")
    tsv_path = tmp_path / "tables.tsv"
    if old is not None:
        tsv_path.write_text(old, encoding="utf-8")
    write_reports_tsv = lexiforge.cli.write_reports_tsv

    def failing_after_the_first_row(reports, stream):
        lines = io.StringIO()
        write_reports_tsv(reports, lines)
        stream.write("".join(lines.getvalue().splitlines(keepends=True)[:2]))
        raise OSError("no space left on device")

    monkeypatch.setattr(lexiforge.cli, "write_reports_tsv", failing_after_the_first_row)
    assert main(["report", str(reports_dir), "--tsv", str(tsv_path)]) == 1
    assert capsys.readouterr().err == "error: no space left on device\n"
    if old is None:
        assert not tsv_path.exists()
    else:
        assert tsv_path.read_text(encoding="utf-8") == old
    assert [p.name for p in tmp_path.iterdir()] == ["reports"] + (["tables.tsv"] if old else [])


def test_report_conflicting_silver_reports_error(tmp_path, capsys):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    save_reports(
        [EvalReport("silver", ("de-mt", "de-pred"), "de", 10, {"Val": 0.5})],
        reports_dir / "a.json",
    )
    save_reports(
        [EvalReport("silver", ("de-mt", "de-pred"), "de", 10, {"Val": 0.6})],
        reports_dir / "b.json",
    )
    assert main(["report", str(reports_dir)]) == 1
    assert "conflicting" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommands and config parsing
# ---------------------------------------------------------------------------


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = lexiforge.cli._build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": parser, **action.choices}


def test_gradcheck_is_not_a_subcommand(capsys):
    # the gradient check runs in the test suite (test_models.grad_check)
    assert list(_subcommands()) == ["", "prepare-source", "run", "evaluate", "report"]
    with pytest.raises(SystemExit) as exit_:
        main(["gradcheck"])
    assert exit_.value.code == 2
    assert "invalid choice: 'gradcheck'" in capsys.readouterr().err


def test_the_readme_and_the_cli_docstring_match_the_parser():
    parsers = _subcommands()
    commands = [name for name in parsers if name]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # every `lexiforge <command>`, also across a line break, but not `import lexiforge as lf`
    assert set(re.findall(r"(?<!import )\blexiforge\s+([a-z][\w-]*)", readme)) == set(commands)
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme)) - {"--no-build-isolation"}
    accepted = {flag for p in parsers.values() for a in p._actions for flag in a.option_strings}
    assert flags <= accepted, sorted(flags - accepted)
    keys = re.search(r"Recognized keys:(.*?)\.\n", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", keys)) == sorted(lexiforge.cli._CONFIG_KEYS)
    listed = re.findall(r"^([a-z][\w-]*) {2,}\S", lexiforge.cli.__doc__, re.M)
    assert listed == commands


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "seed = 5\nepochs=2  # quick\n\n# comment line\nmodel = ridge\n",
        encoding="utf-8",
    )
    assert parse_config_file(path) == {"seed": 5, "epochs": 2, "model": "ridge"}
    bad = tmp_path / "bad"
    bad.write_text("unknown_key = 3\n", encoding="utf-8")
    from lexiforge import LexiforgeError

    with pytest.raises(LexiforgeError):
        parse_config_file(bad)
    bad2 = tmp_path / "bad2"
    bad2.write_text("seed five\n", encoding="utf-8")
    with pytest.raises(LexiforgeError):
        parse_config_file(bad2)


def test_config_precedence_defaults_file_cli(tmp_path, small_bundle):
    config = tmp_path / "cfg"
    config.write_text("epochs = 2\nhidden = 8,4\nbatch_size = 16\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config, extra=["--epochs", "1"])) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["train_config"]["epochs"] == 1  # CLI beats config file
    assert manifest["train_config"]["hidden"] == [8, 4]  # config beats default
    assert manifest["train_config"]["learning_rate"] == 1e-3  # default


def test_bare_run_records_the_default_train_config(tmp_path, small_bundle):
    out = tmp_path / "out"
    assert main([
        "run", "--source", str(small_bundle["source"]), "--table", str(small_bundle["table"]),
        "--embeddings", str(small_bundle["embeddings"]), "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["train_config"] == json.loads(json.dumps(asdict(TrainConfig())))


def test_every_config_key_reaches_the_manifest(tmp_path, small_bundle):
    config = tmp_path / "cfg"
    config.write_text(
        "seed = 3\nepochs = 2\nbatch_size = 8\nlearning_rate = 0.002\n"
        "input_dropout = 0.1\nhidden_dropout = 0.25\nleaky_slope = 0.05\nhidden = 8,4\n"
        "model = mtlffn\nalpha = 0.5\nmax_vocab = 150\n"
        "source_lang = en\ntarget_lang = de\n",
        encoding="utf-8",
    )
    assert len(parse_config_file(config)) == 13  # every accepted key
    out = tmp_path / "out"
    assert main([
        "run", "--source", str(small_bundle["source"]), "--table", str(small_bundle["table"]),
        "--embeddings", str(small_bundle["embeddings"]), "--out", str(out),
        "--config", str(config),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    expected = TrainConfig(seed=3, epochs=2, batch_size=8, learning_rate=0.002,
                           input_dropout=0.1, hidden_dropout=0.25, leaky_slope=0.05,
                           hidden=(8, 4))
    assert manifest["train_config"] == json.loads(json.dumps(asdict(expected)))
    assert manifest["model"] == "mtlffn"
    assert manifest["language_pair"] == {"source": "en", "target": "de"}
    settings = manifest["settings"]
    assert (settings["alpha"], settings["max_vocab"]) == (0.5, 150)
    for name, line in (("adam", "adam_beta1 = 0.5\n"), ("endpoint", "endpoint = x\n"),
                       ("duplicate_tol", "duplicate_tol = 1e-6\n")):
        path = tmp_path / name
        path.write_text(line, encoding="utf-8")
        with pytest.raises(LexiforgeError, match="unknown config key"):
            parse_config_file(path)


def _perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TRACED and the tracer; runs no command
    return tracer


def test_traced_attributes_exist():
    """perfbench/tracer.py wraps each (module, attribute) it lists; all must exist."""
    for caller, attr, _, _ in _perfbench_tracer().TRACED:
        module = importlib.import_module(f"lexiforge.{caller}")
        assert callable(getattr(module, attr, None)), f"lexiforge.{caller}.{attr}"


def test_a_run_calls_the_model_layer_through_the_traced_attributes(tmp_path, monkeypatch):
    tracer = _perfbench_tracer()
    spans = tracer.Tracer()
    for caller, attr, name, counts in tracer.TRACED:
        module = importlib.import_module(f"lexiforge.{caller}")
        monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
        spans.wrap(module, attr, name, counts)
    bundle = write_pipeline_bundle(tmp_path / "data", n_source=60, n_vocab=200, dim=8,
                                   split_sizes=(40, 10, 10), seed=7,
                                   variables=VAD_NAMES + BE5_NAMES)
    assert main(_run_args(bundle, tmp_path / "out", _write_fast_config(tmp_path))) == 0
    names = Counter(span["name"] for span in spans.spans)
    assert names["models.fit_mtlffn"] == names["models.save_checkpoint"] == 2
    assert names["models.predict_lexicon"] == names["lexicon.collapse_duplicates"] == 1
    # one call for each chunk, with both networks
    mt = load_lexicon(tmp_path / "out" / "target_mt.tsv")
    store = load_embedding_store(bundle["embeddings"])
    rows = [span["counts"]["rows"] for span in spans.spans if span["name"] == "models.predict"]
    assert sum(rows) == len(mt) + sum(w not in mt.row_index for w in store.words) > 0


def test_benchmark_selftest_passes():
    """perfbench/selftest.py checks what the tracer pins and that evaluate reproduces run."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("perfbench self-test passed\n")
