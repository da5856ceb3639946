"""Human-readable tables and a machine TSV for evaluation reports.

The text tables follow the usual presentation: one row per dataset with
shared-word counts, optional coverage percent, and per-variable r
rounded to two decimals (full precision lives in the JSON reports).
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

from .evaluation import EvalReport, IsrResult, MtVsPredResult
from .lexicon import canonical_variable_order


def format_r(value: float) -> str:
    """Two-decimal r in the compact table style: .94, -.12, 1.00."""
    text = f"{value:.2f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def _variable_columns(reports: Sequence[EvalReport]) -> list[str]:
    names: list[str] = []
    for report in reports:
        for name in report.r:
            if name not in names:
                names.append(name)
        for name in report.notes:
            if name not in names:
                names.append(name)
    return list(canonical_variable_order(names))


def _format_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def render_pair_table(reports: Sequence[EvalReport], *, title: str | None = None) -> str:
    """Table of ID, Shared, optional (%), and per-variable r."""
    if not reports:
        return ""
    show_coverage = any(r.coverage is not None for r in reports)
    names = _variable_columns(reports)
    header = ["ID", "Shared"] + (["(%)"] if show_coverage else []) + names
    rows = [header]
    for report in reports:
        row = [report.lexicons[0], str(report.n_shared)]
        if show_coverage:
            row.append("" if report.coverage is None else str(round(report.coverage * 100)))
        for name in names:
            if name in report.r:
                row.append(format_r(report.r[name]))
            elif name in report.notes:
                row.append("n/a")
            else:
                row.append("---")
        rows.append(row)
    text = _format_table(rows)
    return (title + "\n" + text) if title else text


def render_isr_table(results: Iterable[IsrResult]) -> str:
    """Inter-study reliability rows: both gold ids, per-variable triple."""
    rows = [["Gold1", "Gold2", "Shared", "Emo", "G1vsG2", "G1vsPr", "G2vsPr"]]
    for result in results:
        g12, g1p, g2p = result.gold1_vs_gold2, result.gold1_vs_pred, result.gold2_vs_pred
        names = _variable_columns([g12, g1p, g2p])
        for name in names:
            rows.append([
                g12.lexicons[0],
                g12.lexicons[1],
                str(g12.n_shared),
                name,
                format_r(g12.r[name]) if name in g12.r else "n/a",
                format_r(g1p.r[name]) if name in g1p.r else "n/a",
                format_r(g2p.r[name]) if name in g2p.r else "n/a",
            ])
    if len(rows) == 1:
        return ""
    return _format_table(rows)


def render_mt_vs_pred_table(results: Iterable[MtVsPredResult]) -> str:
    results = list(results)
    if not results:
        return ""
    names = _variable_columns([r.pred_report for r in results] + [r.mt_report for r in results])
    rows = [["ID", "Series"] + names]
    for result in results:
        gid = result.pred_report.lexicons[0]
        for label, report in (("Pred", result.pred_report), ("MT", result.mt_report)):
            rows.append(
                [gid, label]
                + [format_r(report.r[n]) if n in report.r else "n/a" for n in names]
            )
        rows.append(
            [gid, "Diff"]
            + [format_r(result.diff[n]) if n in result.diff else "n/a" for n in names]
        )
    return _format_table(rows)


def render_meta_table(report: EvalReport) -> str:
    names = _variable_columns([report])
    rows = [[""] + names]
    counts = report.per_variable_n or {}
    rows.append(["#Lg"] + [str(counts.get(n, "")) for n in names])
    rows.append(["r"] + [format_r(report.r[n]) if n in report.r else "n/a" for n in names])
    return _format_table(rows)


# ---------------------------------------------------------------------------
# Machine-readable table TSV (presentation precision: r rounded as in the
# text tables; one row per report and variable)
# ---------------------------------------------------------------------------

_TSV_HEADER = ("protocol", "lexicons", "language", "shared", "coverage", "variable", "r")


def write_reports_tsv(reports: Sequence[EvalReport], stream: IO[str]) -> None:
    stream.write("\t".join(_TSV_HEADER) + "\n")
    for report in reports:
        coverage = "" if report.coverage is None else f"{report.coverage:.4f}"
        for name in _variable_columns([report]):
            value = format_r(report.r[name]) if name in report.r else "n/a"
            stream.write(
                "\t".join([
                    report.protocol,
                    "|".join(report.lexicons),
                    report.language,
                    str(report.n_shared),
                    coverage,
                    name,
                    value,
                ])
                + "\n"
            )
