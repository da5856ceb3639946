"""Fast self-test of the benchmark itself (a few seconds).

Usage, from the repository root: ``python3 perfbench/selftest.py``

Checks that the generator writes identical bytes for one seed and
different bytes for another, that a traced operation leaves every
output byte-identical to an untraced one on a tiny workload (the
harness compares their hashes and fails the operation otherwise), that
``evaluate`` reproduces the run's reports there, that a run too slow
for its deadline still attempts a timed operation and reports no
result, and that ``BENCHMARK.json`` names the workloads and metrics the
harness reports.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

import gen  # noqa: E402
import run  # noqa: E402

TINY = gen.Shape(n_vocab=1_500, dim=16, n_source=600, n_train=400, gold_words=(200, 150))


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def check_generator(tmp: Path) -> None:
    a = _files(gen.generate(tmp / "a", 5, TINY).root)
    b = _files(gen.generate(tmp / "b", 5, TINY).root)
    c = _files(gen.generate(tmp / "c", 6, TINY).root)
    assert a == b, "one seed must give identical bytes"
    assert all(a[name] != c[name] for name in a), "another seed must give other bytes"
    vocab = a["embeddings.vec"].decode("utf-8")
    assert not vocab.isascii(), "the vocabulary must hold non-ASCII words"


def check_tracing_neutral() -> None:
    workload = run.Workload("self-test", TINY, epochs=20, floor=0.2)
    bench = run.Bench("selftest", workload, seed=3, seconds=1, trace=True)
    bench.dir.mkdir(parents=True)
    try:
        result = bench.execute()
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    errors = [f"{op.kind}: {op.errors}" for op in bench.ops if op.errors]
    assert result["correct"] and not errors, errors
    assert [op.kind for op in bench.ops][:2] == ["setup", "evaluate"]
    traced = [op for op in bench.ops if op.kind == "traced"]
    assert traced and all(op.hashes == bench.reference for op in traced)
    layers = traced[0].layers
    assert layers["embeddings.embed_matrix.averaged"] > 0
    assert layers["embeddings.embed_matrix.zero"] > 0
    assert layers["lexicon.collapse_duplicates.merged"] > 0
    assert layers["translation.project_lexicon.skipped"] > 0
    assert layers["lexicon.load_lexicon.s"] > 0 and layers["cli.startup_s"] > 0
    names = {name for name, _, _ in run.PER_LAYER}
    assert set(result["metrics"]) == names, set(result["metrics"]) ^ names


class _PastDeadline(run.Bench):
    """Every operation takes longer than the whole run may, and fails."""

    def operate(self, kind, traced=False, keep=False):
        op = run.Op(kind, self.dir, wall_s=2 * run.RUN_DEADLINE_S, errors=["killed"])
        self.ops.append(op)
        return op


def check_slow_run_reports_nothing() -> None:
    workload = run.Workload("self-test", TINY, epochs=1, floor=0.2)
    bench = _PastDeadline("selftest-slow", workload, seed=3, seconds=1, trace=False)
    bench.dir.mkdir(parents=True)
    try:
        bench.execute()
    except run.NoResult:
        pass
    else:
        raise AssertionError("a run with no passing timed operation must report nothing")
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    assert [op.kind for op in bench.ops] == ["setup", "evaluate", "measured"]


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in run.WORKLOADS.items()]
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(metrics), (key, set(declared) ^ set(metrics))


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        check_generator(Path(tmp))
    check_tracing_neutral()
    check_slow_run_reports_nothing()
    check_benchmark_json()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
