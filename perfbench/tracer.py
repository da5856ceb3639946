"""Run one ``lexiforge`` command with a span around each layer's public calls.

Usage: ``python3 tracer.py <spans.json> <spawn-monotonic-s> <lexiforge args...>``

The tracer wraps functions from outside the program, at the module
attribute that the caller looks up (``lexiforge.pipeline.load_embedding_store``,
``lexiforge.models.predict``, ...), then calls ``lexiforge.cli.main``.
Each span records its name, start, end, parent span, CPU time, the rise
of the process's RSS high-water mark, and counts read from the call's
arguments, return value or output file. Spans stay in memory and are
written to ``spans.json`` when the command ends. Span names carry the
module that defines the function, which is the layer.

The spawn time is ``time.monotonic()`` in the parent just before it
started this process; it shares the system-wide monotonic clock with
the spans, so the first span's start minus it is the start-up time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter


def _hwm_mib() -> float:
    """This address space's RSS high-water mark (VmHWM).

    Not ``ru_maxrss``: Linux carries the parent's high-water mark into it
    across fork and exec, so it starts at the benchmark harness's RSS.
    """
    with open("/proc/self/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _file_mib(path) -> float:
    return os.path.getsize(path) / float(1 << 20)


def _n_shared(result) -> dict:
    # EvalReport, IsrResult (shared support) or MtVsPredResult
    if hasattr(result, "n_shared"):
        return {"n_shared": result.n_shared}
    if hasattr(result, "gold1_vs_gold2"):
        return {"n_shared": result.gold1_vs_gold2.n_shared}
    return {"n_shared": result.pred_report.n_shared}


def _embed_counts(args, kwargs, result):
    tags = Counter(result[1])
    return {"rows": len(result[1]), "direct": tags["direct"],
            "averaged": tags["averaged"], "zero": tags["zero"]}


#: (caller module, attribute, layer.function, counts(args, kwargs, result))
TRACED = [
    ("cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("cli", "load_lexicon", "lexicon.load_lexicon", lambda a, k, r: {"rows": len(r)}),
    ("pipeline", "load_lexicon", "lexicon.load_lexicon", lambda a, k, r: {"rows": len(r)}),
    ("pipeline", "save_lexicon", "lexicon.save_lexicon", lambda a, k, r: {"mb": _file_mib(a[1])}),
    ("pipeline", "derive_prediction_splits", "lexicon.derive_prediction_splits", None),
    ("models", "collapse_duplicates", "lexicon.collapse_duplicates",
     lambda a, k, r: {"merged": len(a[0]) - len(r)}),
    ("pipeline", "file_sha256", "pipeline.file_sha256", lambda a, k, r: {"mb": _file_mib(a[0])}),
    ("pipeline", "load_translation_table", "translation.load_translation_table", None),
    ("pipeline", "project_lexicon", "translation.project_lexicon",
     lambda a, k, r: {"skipped": len(a[0]) - len(r)}),
    ("pipeline", "load_embedding_store", "embeddings.load_embedding_store",
     lambda a, k, r: {"words": len(r), "mb": _file_mib(a[0])}),
    ("pipeline", "embed_matrix", "embeddings.embed_matrix", _embed_counts),
    ("models", "embed_matrix", "embeddings.embed_matrix", _embed_counts),
    ("pipeline", "fit_mtlffn", "models.fit_mtlffn",
     lambda a, k, r: {"steps": r.steps_trained}),
    ("pipeline", "save_checkpoint", "models.save_checkpoint", None),
    ("models", "predict_lexicon", "models.predict_lexicon", None),
    ("models", "predict", "models.predict", lambda a, k, r: {"rows": len(r)}),
    *[(caller, fn, f"evaluation.{fn}", lambda a, k, r: _n_shared(r))
      for caller in ("cli", "pipeline")
      for fn in ("silver_eval", "gold_eval", "isr_compare", "mt_vs_pred")],
    *[(caller, fn, f"evaluation.{fn}", None)
      for caller in ("cli", "pipeline")
      for fn in ("restrict_to_test_predictions", "save_reports")],
    *[("cli", fn, f"reporting.{fn}", None)
      for fn in ("render_pair_table", "render_isr_table", "render_mt_vs_pred_table")],
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, counts, args, kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        rss0 = _hwm_mib()
        cpu0 = time.process_time()
        span["start"] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            span["cpu_s"] = time.process_time() - cpu0
            span["rss_rise_mb"] = _hwm_mib() - rss0
            self._stack.pop()
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def wrap(self, module, attr: str, name: str, counts) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, counts, args, kwargs)

        setattr(module, attr, traced)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def main(argv: list[str]) -> int:
    spans_path, spawned, lexiforge_args = argv[0], float(argv[1]), argv[2:]
    import importlib

    import lexiforge.cli

    tracer = Tracer()
    for caller, attr, name, counts in TRACED:
        tracer.wrap(importlib.import_module(f"lexiforge.{caller}"), attr, name, counts)
    try:
        return tracer.call("cli.main", lexiforge.cli.main, None, (lexiforge_args,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spawned": spawned, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
