import importlib
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import unicodedata
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import lexiforge.pipeline
from lexiforge import (
    BE5_NAMES,
    VAD_NAMES,
    DivergenceError,
    EvalReport,
    LexiforgeError,
    RunSettings,
    SplitSets,
    TrainConfig,
    embed_matrix,
    expand_lexicon,
    load_embedding_store,
    load_lexicon,
    load_reports,
    run_pipeline,
    save_lexicon,
    save_reports,
)
from lexiforge.cli import main, parse_config_file
from lexiforge.pipeline import evaluate_protocols
from helpers import build_lexicon, save_translation_table, write_pipeline_bundle


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
    assert not (out / "manifest.json.tmp").exists()


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

    def keys(stage):  # train and expand also record how their rows got vectors
        return {"name", "status", "seconds"} | (
            {"resolution"} if stage["name"] in ("train", "expand") else set())

    assert all(s.keys() == keys(s) and s["status"] == "ok" for s in ok)
    assert failed.keys() == {"name", "status", "error"}
    assert failed["name"] == "gold-eval-bad" and failed["status"] == "failed"
    assert "need at least 2" in failed["error"]
    assert not (out / "manifest.json.tmp").exists()


def test_manifest_attributes_outputs_by_hash(tmp_path, small_bundle):
    from lexiforge.pipeline import file_sha256

    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(small_bundle, out, config)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for name, entry in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert file_sha256(entry["path"]) == entry["sha256"], name


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
    expand = lexiforge.pipeline.expand_lexicon
    fits, at_expansion = [], []

    def recording_fit(X, Y, cfg, group, **kwargs):
        fits.append((group.names, threading.get_ident(), get_threads()))
        return fit_mtlffn(X, Y, cfg, group, **kwargs)

    def recording_expand(*args, **kwargs):
        at_expansion.append(get_threads())
        return expand(*args, **kwargs)

    monkeypatch.setattr(lexiforge.pipeline, "fit_mtlffn", recording_fit)
    monkeypatch.setattr(lexiforge.pipeline, "expand_lexicon", recording_expand)
    before = get_threads()
    set_threads(2)  # an ambient count that training must not use, whatever the host's
    try:
        # the default network shape, whose bits do not depend on the thread count
        assert main(_run_args(bundle, tmp_path / "concurrent", os.devnull,
                              extra=["--epochs", "2"])) == 0
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
    assert at_expansion == [2, 2]
    concurrent = _outputs_but_manifest(tmp_path / "concurrent")
    assert len([p for p in concurrent if p.parts[0] == "checkpoints"]) == 2
    assert concurrent == _outputs_but_manifest(tmp_path / "sequential")


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
    assert not (out / "manifest.json.tmp").exists()


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

    def checking_expand_lexicon(*args, **kwargs):
        alive_at_expansion.append(train_matrices[0][0]() is not None)
        return expand_lexicon(*args, **kwargs)

    monkeypatch.setattr(lexiforge.pipeline, "embed_matrix", recording_embed_matrix)
    monkeypatch.setattr(lexiforge.pipeline, "save_checkpoint", checking_save_checkpoint)
    monkeypatch.setattr(lexiforge.pipeline, "expand_lexicon", checking_expand_lexicon)
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


@pytest.mark.parametrize("flags, config_line, message", [
    (["--epochs", "0"], "", "batch_size and epochs must be >= 1"),
    ([], "hidden_dropout = 1\n", "hidden_dropout must be in [0, 1)"),
    (["--model", "ridge", "--alpha", "-1"], "", "alpha must be >= 0, got -1.0"),
    ([], "model = ridge\nalpha = nan\n", "alpha must be >= 0, got nan"),
    ([], "leaky_slope = nan\n", "leaky_slope must be finite, got nan"),
    ([], "leaky_slope = -inf\n", "leaky_slope must be finite, got -inf"),
    ([], "learning_rate = nan\n", "learning_rate must be positive and finite, got nan"),
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
                               gold, out, lang="und")
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
    (None, "KeyError: 'lexicons'"),  # a run directory: its manifest.json
    ('[{"protocol": "silver", "lexicons": ["a", "b"],', "JSONDecodeError: Expecting"),
    ("[1, 2]", "TypeError"),
], ids=["run-dir", "truncated", "not-objects"])
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
# gradcheck and config parsing
# ---------------------------------------------------------------------------


def test_gradcheck_command(capsys):
    code = main(["gradcheck", "--seeds", "3", "--dim", "6", "--outputs", "2",
                 "--samples", "5", "--hidden", "8,4"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "worst over 3 seeds" in printed


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


def test_traced_attributes_exist():
    """perfbench/tracer.py wraps each (module, attribute) it lists; all must exist."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TRACED and the tracer; runs no command
    for caller, attr, _, _ in tracer.TRACED:
        module = importlib.import_module(f"lexiforge.{caller}")
        assert callable(getattr(module, attr, None)), f"lexiforge.{caller}.{attr}"


def test_benchmark_selftest_passes():
    """perfbench/selftest.py checks what the tracer pins and that evaluate reproduces run."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("perfbench self-test passed\n")
