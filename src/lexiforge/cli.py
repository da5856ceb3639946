"""Command-line interface: one subcommand per pipeline stage.

prepare-source    filter a raw source lexicon and tag its splits
run               full generation-and-evaluation pipeline
evaluate          re-run the evaluation protocols on existing lexicons
report            render stored evaluation reports as tables
gradcheck         verify the network gradients against finite differences

Options may also come from a flat ``key = value`` config file
(``--config``); command-line flags take precedence over the file, the
file over built-in defaults.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .errors import LexiforgeError, SchemaError
from .evaluation import (  # noqa: F401 -- perfbench/tracer.py wraps the protocols here too
    EvalReport,
    IsrResult,
    MtVsPredResult,
    gold_eval,
    isr_compare,
    load_reports,
    meta_agreement,
    mt_vs_pred,
    restrict_to_test_predictions,
    save_reports,
    silver_eval,
)
from .lexicon import SplitSets, load_lexicon
from .models import TrainConfig, grad_check
from .pipeline import (
    MODEL_KINDS,
    RunSettings,
    evaluate_protocols,
    isr_report_names,
    prepare_source,
    run_pipeline,
)
from .reporting import (
    render_isr_table,
    render_meta_table,
    render_mt_vs_pred_table,
    render_pair_table,
    write_reports_tsv,
)

log = logging.getLogger(__name__)

# Config-file keys: the training hyperparameters except Adam's and five
# run settings; a key left unset takes the dataclass default.
_TRAIN_KEYS = {
    f.name: type(f.default) for f in fields(TrainConfig) if not f.name.startswith("adam_")
}
_RUN_KEYS = {
    f.name: type(f.default) for f in fields(RunSettings)
    if f.name in ("model", "alpha", "max_vocab", "source_lang", "target_lang")
}
_CONFIG_KEYS = {
    **_TRAIN_KEYS,
    **_RUN_KEYS,
    "hidden": lambda text: tuple(int(h) for h in text.split(",")),
    "max_vocab": int,
}


def parse_config_file(path) -> dict:
    """Parse the flat ``key = value`` config format ('#' starts a comment)."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise LexiforgeError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise LexiforgeError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise LexiforgeError(
                    f"{path}:{line_no}: bad value {value!r} for {key}"
                ) from None
    return values


def _given(args, config: dict, keys) -> dict:
    """The keys set on the command line or, failing that, in the config file."""
    values = {key: config[key] for key in keys if key in config}
    values.update(
        (key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None
    )
    return values


def _parse_gold_args(pairs: list[str]) -> dict[str, Path]:
    """Gold ids and paths, with ids that name distinct report files."""
    gold: dict[str, Path] = {}
    for pair in pairs or []:
        gold_id, _, path = pair.partition("=")
        if not gold_id or not path:
            raise LexiforgeError(f"--gold expects <id>=<path>, got {pair!r}")
        if gold_id in gold:
            raise LexiforgeError(f"--gold id {gold_id!r} is given twice")
        gold[gold_id] = Path(path)
    isr_report_names(gold)
    return gold


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexiforge",
        description="Generate and evaluate emotion lexicons across languages.",
    )
    parser.add_argument("--version", action="version", version=f"lexiforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-source", help="filter the source lexicon and tag splits")
    p.add_argument("--source", required=True, help="raw source lexicon TSV")
    p.add_argument("--test-ref", help="word list defining the test split")
    p.add_argument("--dev-ref", help="word list defining the dev split")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--source-lang", default="und")

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--source", required=True, help="prepared source lexicon TSV (with splits)")
    p.add_argument("--table", help="translation table TSV")
    p.add_argument("--skip-translation", action="store_true", default=None,
                   help="source and target language coincide; copy words verbatim")
    p.add_argument("--embeddings", required=True, help="target-language word vectors")
    p.add_argument("--gold", action="append", metavar="ID=PATH",
                   help="gold lexicon TSV (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--alpha", type=float, help="ridge regularization strength")
    p.add_argument("--max-vocab", type=int, help="cap on embedding vocabulary size")
    p.add_argument("--joint-mtl", action="store_true", default=None,
                   help="train one model across all variables instead of one per family")
    p.add_argument("--strict-missing", action="store_true", default=None,
                   help="abort on source words without translation instead of skipping")
    p.add_argument("--source-lang")
    p.add_argument("--target-lang")

    p = sub.add_parser("evaluate", help="evaluate existing lexicon files")
    p.add_argument("--mt", required=True, help="translated lexicon TSV (with splits)")
    p.add_argument("--pred", required=True, help="predicted lexicon TSV (with splits)")
    p.add_argument("--gold", action="append", metavar="ID=PATH")
    p.add_argument("--out", help="directory for report JSON files")
    p.add_argument("--target-lang", default="und")

    p = sub.add_parser("report", help="render stored reports as tables")
    p.add_argument("paths", nargs="+", help="report JSON files or directories")
    p.add_argument("--tsv", help="also write a machine-readable TSV table")

    p = sub.add_parser("gradcheck", help="finite-difference check of the network gradients")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--outputs", type=int, default=3)
    p.add_argument("--hidden", default="16,8", help="hidden layer sizes, e.g. 16,8")
    p.add_argument("--threshold", type=float, default=1e-4)
    return parser


def _cmd_prepare_source(args) -> int:
    tagged = prepare_source(
        args.source, args.test_ref, args.dev_ref, args.out, language=args.source_lang
    )
    sizes = tagged.split_sizes()
    print(
        f"retained {len(tagged)} entries "
        f"(train: {sizes['train']}, dev: {sizes['dev']}, test: {sizes['test']})"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    try:
        settings = RunSettings(
            source=args.source,
            embeddings=args.embeddings,
            out=args.out,
            table=args.table or None,
            skip_translation=bool(args.skip_translation),
            gold=_parse_gold_args(args.gold),
            train=TrainConfig(**_given(args, config, _TRAIN_KEYS)),
            joint_mtl=bool(args.joint_mtl),
            missing_policy="strict" if args.strict_missing else "skip",
            **_given(args, config, _RUN_KEYS),
        )
    except ValueError as exc:
        raise LexiforgeError(f"bad run settings: {exc}") from None
    reports = run_pipeline(settings)
    print(f"run complete: {settings.out}")
    _print_reports(reports.values())
    return 0


def _cmd_evaluate(args) -> int:
    gold_paths = _parse_gold_args(args.gold)
    mt = load_lexicon(args.mt, provenance="translated", language=args.target_lang)
    pred = load_lexicon(args.pred, provenance="predicted", language=args.target_lang)
    golds = {gold_id: load_lexicon(path, language=args.target_lang)
             for gold_id, path in gold_paths.items()}
    reports = evaluate_protocols(
        mt, pred, SplitSets.from_lexicons(mt, pred), golds,
        Path(args.out) if args.out else None, lang=args.target_lang,
    )
    _print_reports(reports.values())
    return 0


def _collect_report_paths(paths: list[str]) -> list[Path]:
    collected: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            collected.extend(sorted(path.glob("*.json")))
        else:
            collected.append(path)
    return collected


def _print_reports(files: Iterable[list[EvalReport]]) -> list[EvalReport]:
    """Print the tables of the reports of each file; returns them in TSV order.

    A file's three ``isr`` reports make one ISR row group and its two
    ``mt_vs_pred`` reports one comparison. A meta agreement table follows
    when two or more languages have both silver and gold reports.
    """
    silver_by_lang: dict[str, dict[str, float]] = {}
    gold_by_lang: dict[str, list[dict[str, float]]] = {}
    silver_reports = []
    gold_reports = []
    isr_results = []
    comparisons = []
    other_reports = []
    for file_reports in files:
        isr_group = [r for r in file_reports if r.protocol == "isr"]
        if len(isr_group) == 3:
            isr_results.append(IsrResult(*isr_group))
            file_reports = [r for r in file_reports if r.protocol != "isr"]
        duo = [r for r in file_reports if r.protocol == "mt_vs_pred"]
        if len(duo) == 2:
            comparisons.append(MtVsPredResult(*duo))
            file_reports = [r for r in file_reports if r.protocol != "mt_vs_pred"]
        for report in file_reports:
            if report.protocol == "silver":
                if silver_by_lang.setdefault(report.language, report.r) != report.r:
                    raise SchemaError(
                        f"conflicting silver reports for language {report.language!r}"
                    )
                silver_reports.append(report)
            elif report.protocol == "gold":
                gold_by_lang.setdefault(report.language, []).append(report.r)
                gold_reports.append(report)
            else:
                other_reports.append(report)

    if silver_reports:
        print(render_pair_table(silver_reports, title="silver evaluation"))
    if gold_reports:
        print(render_pair_table(gold_reports, title="gold evaluation"))
    if isr_results:
        print(render_isr_table(isr_results))
    if comparisons:
        print(render_mt_vs_pred_table(comparisons))
    if other_reports:
        print(render_pair_table(other_reports, title="other reports"))

    if len(silver_by_lang.keys() & gold_by_lang.keys()) >= 2:
        print(render_meta_table(meta_agreement(gold_by_lang, silver_by_lang)))
    pairs = [(result.pred_report, result.mt_report) for result in comparisons]
    return [*silver_reports, *gold_reports, *other_reports,
            *(report for group in isr_results + pairs for report in group)]


def _cmd_report(args) -> int:
    everything = _print_reports(load_reports(path) for path in _collect_report_paths(args.paths))
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8", newline="") as fh:
            write_reports_tsv(everything, fh)
        print(f"wrote {args.tsv}")
    return 0


def _cmd_gradcheck(args) -> int:
    hidden = tuple(int(h) for h in args.hidden.split(","))
    worst = 0.0
    rng = np.random.default_rng(12345)
    for seed in range(args.seeds):
        cfg = TrainConfig(
            hidden=hidden, input_dropout=0.0, hidden_dropout=0.0, seed=seed
        )
        X = rng.standard_normal((args.samples, args.dim))
        Y = rng.standard_normal((args.samples, args.outputs))
        err = grad_check(cfg, X, Y)
        worst = max(worst, err)
        print(f"seed {seed}: max relative error {err:.3e}")
    print(f"worst over {args.seeds} seeds: {worst:.3e} (threshold {args.threshold:g})")
    return 0 if worst < args.threshold else 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    handlers = {
        "prepare-source": _cmd_prepare_source,
        "run": _cmd_run,
        "evaluate": _cmd_evaluate,
        "report": _cmd_report,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (LexiforgeError, OSError) as exc:  # OSError: a file named by an argument
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
