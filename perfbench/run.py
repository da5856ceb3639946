"""lexiforge benchmark: seeded paper-shaped inputs through the real CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload expand-100k --seed 1 --seconds 40 --trace 0

One run generates its inputs from ``--seed`` (the program receives only
the generated files), performs one untimed set-up ``run`` on them and
one untimed ``evaluate`` of the set-up's outputs, then times further
``run`` operations for ``--seconds`` seconds. An operation is one
``lexiforge`` process, started only after the previous one has exited
(a single closed-loop client). Every operation is checked; a failed
check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations (the traced ones run under
``tracer.py``) and reports per-layer metrics: self time and counts for
each wrapped function, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A detailed
record with provenance, every operation and its checks is written to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import gen  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RUN_DEADLINE_S = 165.0  # a run must end within 180 s
RSS_SAMPLE_S = 0.1


@dataclass(frozen=True)
class Workload:
    why: str
    shape: gen.Shape
    epochs: int
    floor: float  # share of the generator's noise ceiling every r must exceed


WORKLOADS = {
    "train-paper": Workload(
        "the only workload where models.fit_mtlffn dominates (20k vocabulary, default MTLFFN, "
        "8 of the paper's 168 epochs); known finding: evaluate's silver.json ids differ from "
        "run's (ROADMAP item 2)",
        gen.Shape(n_vocab=20_000, n_gold=1), epochs=8, floor=0.8),
    "expand-100k": Workload(
        "100k x 300 vocabulary, 1 epoch: parse, embed_matrix, predict, duplicate collapse, "
        "TSV write and hashing dominate; known exclusion: no NFC/NFD twin words until "
        "ROADMAP item 4",
        gen.Shape(n_vocab=100_000, n_gold=2), epochs=1, floor=0.2),
}

#: (name, unit, better) of the metrics reported with --trace 0
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("words_per_s", "words/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("silver_r_mean", "r", "higher"),
    ("gold_r_mean", "r", "higher"),
]

_PROTOCOLS = ("silver_eval", "gold_eval", "isr_compare", "mt_vs_pred")
#: (name, unit, better) of the metrics reported with --trace 1
PER_LAYER = [
    ("cli.startup_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("pipeline.run_pipeline.s", "s", "lower"),
    ("pipeline.file_sha256.s", "s", "lower"),
    ("pipeline.file_sha256.mb", "MiB", "lower"),
    ("translation.load_translation_table.s", "s", "lower"),
    ("translation.project_lexicon.s", "s", "lower"),
    ("translation.project_lexicon.skipped", "count", "lower"),
    ("embeddings.load_embedding_store.s", "s", "lower"),
    ("embeddings.load_embedding_store.mb_per_s", "MiB/s", "higher"),
    ("embeddings.load_embedding_store.words", "count", "higher"),
    ("embeddings.load_embedding_store.rss_rise_mb", "MiB", "lower"),
    ("embeddings.embed_matrix.s", "s", "lower"),
    ("embeddings.embed_matrix.rows", "count", "higher"),
    ("embeddings.embed_matrix.direct", "count", "higher"),
    ("embeddings.embed_matrix.averaged", "count", "lower"),
    ("embeddings.embed_matrix.zero", "count", "lower"),
    ("lexicon.load_lexicon.s", "s", "lower"),
    ("lexicon.load_lexicon.rows_per_s", "rows/s", "higher"),
    ("lexicon.save_lexicon.s", "s", "lower"),
    ("lexicon.save_lexicon.mb", "MiB", "lower"),
    ("lexicon.derive_prediction_splits.s", "s", "lower"),
    ("lexicon.collapse_duplicates.s", "s", "lower"),
    ("lexicon.collapse_duplicates.merged", "count", "higher"),
    ("models.fit_mtlffn.s", "s", "lower"),
    ("models.fit_mtlffn.steps", "count", "higher"),
    ("models.fit_mtlffn.ms_per_step", "ms", "lower"),
    ("models.fit_mtlffn.cpu_s", "s", "lower"),
    ("models.save_checkpoint.s", "s", "lower"),
    ("models.predict_lexicon.s", "s", "lower"),
    ("models.predict_lexicon.rss_rise_mb", "MiB", "lower"),
    ("models.predict.s", "s", "lower"),
    ("models.predict.rows_per_s", "rows/s", "higher"),
    *[(f"evaluation.{fn}.{m}", unit, better) for fn in _PROTOCOLS
      for m, unit, better in (("s", "s", "lower"), ("n_shared", "count", "higher"))],
    ("evaluation.restrict_to_test_predictions.s", "s", "lower"),
    ("evaluation.save_reports.s", "s", "lower"),
    ("reporting.render_pair_table.s", "s", "lower"),
    ("reporting.render_isr_table.s", "s", "lower"),
    ("reporting.render_mt_vs_pred_table.s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]


class NoResult(Exception):
    """No timed operation passed its checks, so there is nothing to report."""


# ---------------------------------------------------------------------------
# One operation: spawn, sample the process tree's RSS, reap, check
# ---------------------------------------------------------------------------


def _tree_memory_kib(root_pid: int) -> tuple[int, int]:
    """(summed RSS of a process and all its descendants, the process's own VmHWM)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat[stat.rindex(b")") + 2 :].split()[1])
    tree = {root_pid}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total = 0
    page_kib = os.sysconf("SC_PAGE_SIZE") // 1024
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * page_kib
        except OSError:
            continue
    return total, _hwm_kib(root_pid)


def _hwm_kib(pid) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Op:
    kind: str
    dir: Path
    wall_s: float = 0.0
    peak_rss_mib: float = 0.0
    returncode: int | None = None
    errors: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    reports: dict[str, list[dict]] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    rows: int = 0  # rows of target_pred.tsv written by a run

    @property
    def out(self) -> Path:
        return self.dir / "out"

    @property
    def ok(self) -> bool:
        return not self.errors

    def record(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s, "peak_rss_mb": self.peak_rss_mib,
                "returncode": self.returncode, "errors": self.errors}


def spawn(argv: list[str], env: dict, log_path: Path, timeout: float) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall s, peak tree RSS MiB).

    RSS is sampled every RSS_SAMPLE_S seconds, so a peak held for less
    time than that by a child other than the root process can be missed.
    """
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
    done = threading.Event()
    peak = [0]

    def sample():
        while not done.wait(RSS_SAMPLE_S):
            peak[0] = max(peak[0], *_tree_memory_kib(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status = os.waitpid(proc.pid, 0)
        wall = time.monotonic() - spawned
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        done.set()
        sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # The ru_maxrss of wait4 is not used: Linux carries the parent's high-water
    # mark across fork and exec into it, so it reads at least this harness's RSS.
    # VmHWM belongs to the child's own address space; the tree sum adds children.
    return proc.returncode, wall, peak[0] / 1024.0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def flush_to_disk(root: Path) -> None:
    """fsync every file under ``root``, so that writing back freshly
    generated inputs does not compete with the timed operations."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every output file; the manifest holds a timestamp, so it is left out."""
    return {p.relative_to(out).as_posix(): _sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def load_reports(report_dir: Path) -> dict[str, list[dict]]:
    return {p.name: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(report_dir.glob("*.json"))}


def check_floors(op: Op, floor: float) -> None:
    """Every silver and gold r must exceed ``floor`` times the generator's ceiling."""
    ceilings = {"silver": gen.expected_r(gen.SOURCE_NOISE, 0.0),
                "gold": gen.expected_r(gen.GOLD_NOISE, 0.0)}
    found = {report["protocol"] for reports in op.reports.values() for report in reports}
    if not set(ceilings) <= found:
        op.errors.append(f"no {sorted(set(ceilings) - found)} report")
    for name, reports in op.reports.items():
        for report in reports:
            ceiling = ceilings.get(report["protocol"])
            if ceiling is None:
                continue
            low = {v: r for v, r in report["r"].items() if not r > floor * ceiling}
            if low or not report["r"]:
                op.errors.append(f"{name}: r below floor {floor * ceiling:.3f}: {low}")


def same_reports(a: list[dict], b: list[dict]) -> bool:
    """Protocol, n_shared and every r equal, bit for bit; lexicon ids are not compared."""
    key = [(r["protocol"], r["n_shared"], r["r"]) for r in a]
    return key == [(r["protocol"], r["n_shared"], r["r"]) for r in b]


# ---------------------------------------------------------------------------
# A benchmark run
# ---------------------------------------------------------------------------


class Bench:
    """One benchmark run of one workload and seed; its files live under ``dir``."""

    def __init__(self, name: str, workload: Workload, seed: int, seconds: int, trace: bool):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.ops: list[Op] = []
        self.reference: dict[str, str] | None = None
        self.setup: Op | None = None
        self.nproc = len(os.sched_getaffinity(0))
        threads = str(self.nproc)
        # bytecode is cached after the first operation, as in an installed package
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = dict(env, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def lexiforge_args(self, command: str, out: Path) -> list[str]:
        gold = [a for gid, path in self.inputs.gold.items() for a in ("--gold", f"{gid}={path}")]
        if command == "evaluate":
            return ["evaluate", "--mt", str(self.setup.out / "target_mt.tsv"),
                    "--pred", str(self.setup.out / "target_pred.tsv"), *gold,
                    "--out", str(out), "--target-lang", "de"]
        return ["run", "--source", str(self.inputs.source), "--table", str(self.inputs.table),
                "--embeddings", str(self.inputs.embeddings), *gold, "--out", str(out),
                "--epochs", str(self.workload.epochs), "--source-lang", "en",
                "--target-lang", "de"]

    def operate(self, kind: str, traced: bool = False, keep: bool = False) -> Op:
        """Run, check and (unless ``keep``) delete one operation."""
        op = Op(kind, self.dir / f"op{len(self.ops):03d}")
        op.dir.mkdir()
        command = "evaluate" if kind == "evaluate" else "run"
        args = self.lexiforge_args(command, op.out)
        spans = op.dir / "spans.json"
        if traced:
            # the spawn time is taken again inside spawn(); this one is for cli.startup_s
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans),
                    repr(time.monotonic()), *args]
        else:
            argv = [sys.executable, "-m", "lexiforge", *args]
        op.returncode, op.wall_s, op.peak_rss_mib = spawn(
            argv, self.env, op.dir / "log.txt", self.remaining())
        self.ops.append(op)
        try:
            self.check(op, command)
            if traced and op.returncode == 0:
                op.layers = layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError) as exc:
            op.errors.append(f"unreadable output: {exc!r}")
        if not keep:
            shutil.rmtree(op.dir, ignore_errors=True)
        return op

    def check(self, op: Op, command: str) -> None:
        if op.returncode != 0:
            tail = (op.dir / "log.txt").read_text(errors="replace")[-400:]
            op.errors.append(f"exit status {op.returncode}: {tail}")
            return
        out = op.out
        op.hashes = output_hashes(out)
        if command == "run":
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            if manifest.get("status") != "complete":
                op.errors.append(f"manifest status {manifest.get('status')!r}")
            for name, entry in manifest["outputs"].items():
                rel = Path(entry["path"]).relative_to(out).as_posix()
                if op.hashes.get(rel) != entry["sha256"]:
                    op.errors.append(f"manifest hash of {name} does not match {rel}")
            op.reports = load_reports(out / "reports")
            with open(out / "target_pred.tsv", "rb") as fh:
                blocks = iter(lambda: fh.read(1 << 20), b"")
                op.rows = sum(block.count(b"\n") for block in blocks) - 1  # minus the header
        else:
            op.reports = load_reports(out)
            expected = self.setup.reports
            if sorted(op.reports) != sorted(expected):
                op.errors.append(f"report files {sorted(op.reports)} != {sorted(expected)}")
            for name in expected:
                if name in op.reports and not same_reports(op.reports[name], expected[name]):
                    op.errors.append(f"{name} differs from the set-up run's report")
        check_floors(op, self.workload.floor)
        if command == "evaluate" or op.errors:
            return
        if self.reference is None:
            self.reference = op.hashes
        elif op.hashes != self.reference:
            changed = sorted(k for k in set(op.hashes) | set(self.reference)
                             if op.hashes.get(k) != self.reference.get(k))
            op.errors.append(f"outputs differ from the first operation of this seed: {changed}")

    def execute(self) -> dict:
        t0 = time.monotonic()
        self.inputs = gen.generate(self.dir / "inputs", self.seed, self.workload.shape)
        flush_to_disk(self.inputs.root)
        self.generate_s = time.monotonic() - t0
        setup = self.setup = self.operate("setup", keep=True)
        # evaluate reads the set-up's TSVs and must reproduce its reports
        self.operate("evaluate")
        shutil.rmtree(setup.dir, ignore_errors=True)
        # Start another round only if it should end within --seconds and well
        # before the run's deadline, judged by the median operation so far.
        # The first round always runs; an operation still running at the
        # deadline is killed and fails.
        measure_start = time.monotonic()
        walls = [setup.wall_s]
        rounds = 0
        while True:
            per_round = statistics.median(walls) * (2 if self.trace else 1)
            elapsed = time.monotonic() - measure_start
            if rounds and (elapsed + per_round > self.seconds
                           or per_round * 1.5 > self.remaining()):
                break
            walls.append(self.operate("untraced" if self.trace else "measured").wall_s)
            if self.trace:
                self.operate("traced", traced=True)
            rounds += 1
        return self.summarise(setup)

    def summarise(self, setup: Op) -> dict:
        measured = [op for op in self.ops if op.kind in ("measured", "untraced") and op.ok]
        traced = [op for op in self.ops if op.kind == "traced" and op.ok]
        if not measured or (self.trace and not traced):
            raise NoResult("no timed operation passed its checks")
        if not self.trace:
            # every passing run wrote the same bytes, so one holds the reports
            reports = measured[0].reports
            silver = [r for rs in reports.values() for rep in rs
                      if rep["protocol"] == "silver" for r in rep["r"].values()]
            gold = [r for rs in reports.values() for rep in rs
                    if rep["protocol"] == "gold" for r in rep["r"].values()]
            metrics = {
                "wall_s": statistics.median(op.wall_s for op in measured),
                "words_per_s": statistics.median(op.rows / op.wall_s for op in measured),
                "peak_rss_mb": statistics.median(op.peak_rss_mib for op in measured),
                "setup_s": setup.wall_s,
                "silver_r_mean": statistics.fmean(silver),
                "gold_r_mean": statistics.fmean(gold),
            }
            units = {name: unit for name, unit, _ in END_TO_END}
        else:
            metrics = {name: statistics.median(op.layers.get(name, 0.0) for op in traced)
                       for name, _, _ in PER_LAYER}
            metrics["tracing.overhead_s"] = (statistics.median(op.wall_s for op in traced)
                                             - statistics.median(op.wall_s for op in measured))
            units = {name: unit for name, unit, _ in PER_LAYER}
        failed = [op for op in self.ops if not op.ok]
        return {
            "correct": not failed,
            "attempted": len(self.ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "detail": {
                "generate_s": self.generate_s,
                "pred_rows": measured[0].rows,
                "samples": len(measured),
                "ops": [op.record() for op in self.ops],
                "output_hashes": self.reference,
                "provenance": self.provenance(),
            },
        }

    def provenance(self) -> dict:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), platform.processor())
        sources = sorted((ROOT / "src" / "lexiforge").glob("*.py"))
        digest = hashlib.sha256()
        for path in sources:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return {
            "workload": self.name,
            "why": self.workload.why,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "nproc": self.nproc,
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(self.env["OPENBLAS_NUM_THREADS"]),
            "git_commit": _git_commit(),
            "source_sha256": digest.hexdigest(),
            "inputs_bytes": {p.name: p.stat().st_size
                             for p in sorted((self.dir / "inputs").iterdir())},
            "generator_counts": self.inputs.counts,
            "client": "one closed-loop client, one operation at a time",
        }


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    spans = doc["spans"]
    own = tracer.self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        a = agg[span["name"]]
        a["s"] += own[span["id"]]
        a["cpu_s"] += span["cpu_s"]
        a["rss_rise_mb"] += span["rss_rise_mb"]
        for key, value in span.get("counts", {}).items():
            a[key] += value
    out = {f"{name}.{key}": value for name, a in agg.items() for key, value in a.items()}
    if spans:
        out["cli.startup_s"] = min(s["start"] for s in spans) - doc["spawned"]

    def rate(numerator: str, seconds: str) -> float:
        return out.get(numerator, 0.0) / out[seconds] if out.get(seconds) else 0.0

    out["embeddings.load_embedding_store.mb_per_s"] = rate(
        "embeddings.load_embedding_store.mb", "embeddings.load_embedding_store.s")
    out["lexicon.load_lexicon.rows_per_s"] = rate("lexicon.load_lexicon.rows",
                                                  "lexicon.load_lexicon.s")
    out["models.predict.rows_per_s"] = rate("models.predict.rows", "models.predict.s")
    steps = out.get("models.fit_mtlffn.steps", 0.0)
    out["models.fit_mtlffn.ms_per_step"] = (
        1000.0 * out["models.fit_mtlffn.s"] / steps if steps else 0.0)
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lexiforge" / "__init__.py").is_file():
        print(f"error: no lexiforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    bench.dir.mkdir(parents=True)
    # a terminating signal still cleans up: raise instead of dying
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = bench.execute()
    except NoResult as exc:
        for op in bench.ops:
            if op.errors:
                print(f"FAILED {op.kind}: {'; '.join(op.errors)}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    detail = result.pop("detail")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, **detail}, indent=2, ensure_ascii=False) + "\n",
                      encoding="utf-8")

    fail_rate = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {detail['samples']} timed operations, "
          f"generator {detail['generate_s']:.2f} s, {detail['pred_rows']} predicted rows")
    for op in bench.ops:
        if op.errors:
            print(f"FAILED {op.kind}: {'; '.join(op.errors)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_rate = {fail_rate:.6g} (failed/attempted = "
          f"{result['failed']}/{result['attempted']})")
    print(f"details: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
