"""Render report models as text in the association-report layout, or as a
JSON object (``report_to_obj``) that ``report_from_obj`` reads back into an
equal model."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import ContextPredicate
from .investigations import (
    DISCOVERY,
    DecileDisplay,
    DecileRow,
    Finding,
    ReportModel,
    StratumFinding,
    TableDisplay,
)
from .metrics import MetricKind, MetricValue
from .stats import TestedMetric

P_CLAMP = 1e-300


def _fmt_p(p: float) -> str:
    if p < P_CLAMP:
        return "<1e-300"
    return f"{p:.2e}"


def _fmt_ci(ci: tuple[float, float]) -> str:
    return f"[{ci[0]:.4f}, {ci[1]:.4f}]"


def _largest_remainder_percent(counts: Sequence[int]) -> list[int]:
    """Integer percentages that sum to exactly 100 (Hamilton rounding)."""
    total = sum(counts)
    if total == 0:
        return [0 for _ in counts]
    exact = [c * 100.0 / total for c in counts]
    base = [int(x) for x in exact]
    short = 100 - sum(base)
    order = sorted(range(len(counts)), key=lambda i: -(exact[i] - base[i]))
    for i in order[:short]:
        base[i] += 1
    return base


def _render_table(t: TableDisplay, indent: str = "") -> list[str]:
    counts = [list(row) for row in t.counts]
    r = len(t.row_labels)
    col_totals = [sum(counts[i][j] for i in range(r)) for j in range(len(t.col_labels))]
    row_totals = [sum(row) for row in counts]
    n = sum(row_totals)
    col_pcts = [_largest_remainder_percent([counts[i][j] for i in range(r)])
                for j in range(len(t.col_labels))]
    total_col_pcts = _largest_remainder_percent(row_totals)
    bottom_pcts = _largest_remainder_percent(col_totals)

    header = [t.row_attr] + list(t.col_labels) + ["Total"]
    body = []
    for i, label in enumerate(t.row_labels):
        cells = [f"{counts[i][j]} ({col_pcts[j][i]}%)" for j in range(len(t.col_labels))]
        body.append([label] + cells + [f"{row_totals[i]} ({total_col_pcts[i]}%)"])
    bottom = ["Total"] + [f"{col_totals[j]} ({bottom_pcts[j]}%)" for j in range(len(t.col_labels))]
    bottom.append(f"{n} (100%)")
    return _grid([header] + body + [bottom], "<" + ">" * (len(header) - 1), (0, len(body)), indent)


def _grid(rows: list[list[str]], align: str, rules: Sequence[int], indent: str) -> list[str]:
    """``rows`` of cells as text lines starting with ``indent``: column k is
    padded to its widest cell, to the left for ``align[k]`` "<" and to the
    right for ">", cells are joined by " | ", and a "-+-" rule follows each
    row whose index is in ``rules``."""
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append(indent + " | ".join(cell.ljust(w) if a == "<" else cell.rjust(w)
                                         for cell, w, a in zip(row, widths, align)))
        if idx in rules:
            lines.append(indent + "-+-".join("-" * w for w in widths))
    return lines


def _fmt_num(x: float) -> str:
    return f"{x:.4g}"


def _render_deciles(d: DecileDisplay, indent: str = "") -> list[str]:
    header = [f"{d.protected} range", "n", "min", "q1", "median", "q3", "max"]
    rows = [header]
    for row in d.rows:
        rows.append([
            f"[{_fmt_num(row.lo)}, {_fmt_num(row.hi)}]", str(row.n),
            _fmt_num(row.minimum), _fmt_num(row.q1), _fmt_num(row.median),
            _fmt_num(row.q3), _fmt_num(row.maximum),
        ])
    lines = [indent + f"{d.output} by {d.protected} decile:"]
    return lines + _grid(rows, ">" * len(header), (0,), indent)


def _context_line(predicates: Sequence[ContextPredicate]) -> str:
    return ", ".join(p.describe() for p in predicates)


def _reported(t: TestedMetric) -> tuple[float, tuple[float, float]]:
    """The p-value and CI a report shows: the corrected ones where set."""
    p = t.corrected_p if t.corrected_p is not None else t.p
    ci = t.corrected_ci if t.corrected_ci is not None else t.ci
    return p, ci


def _stats_line(t: TestedMetric) -> str:
    p, ci = _reported(t)
    return f"p-value = {_fmt_p(p)} ; {t.value.kind.display} = {_fmt_ci(ci)}"


def _render_display(display, indent: str = "") -> list[str]:
    if isinstance(display, TableDisplay):
        return _render_table(display, indent)
    if isinstance(display, DecileDisplay):
        return _render_deciles(display, indent)
    return []


def _render_finding(head: list[str], f: Finding, explanatory: str | None,
                    suffix: str = "") -> list[str]:
    """A finding's text block: the ``head`` lines, its stats line ending in
    ``suffix``, its display and a blank line, then each of its strata."""
    lines = head + [_stats_line(f.tested) + suffix, *_render_display(f.display), ""]
    for sf in f.strata:
        lines.append(f"* {explanatory}: {sf.value} ; population of size {sf.size}")
        if sf.tested is None:
            lines += [f"  excluded: {sf.note}", ""]
        else:
            lines += ["  " + _stats_line(sf.tested), *_render_display(sf.display, "  "), ""]
    return lines


def render_text(rm: ReportModel) -> str:
    """The human-readable association report, byte-identical for equal models."""
    lines = []
    head = f"Report of associations of O={rm.output} on S={rm.protected}"
    if rm.explanatory:
        lines.append(head + ",")
        lines.append(f"conditioned on explanatory attribute E={rm.explanatory}:")
    else:
        lines.append(head + ":")
    lines.append(f"Association metric: {rm.metric}. Confidence level: {rm.conf:g}.")
    lines.append(f"Hypotheses tested (correction family): {rm.family_size}. "
                 f"Train rows: {rm.train_size}. Test rows: {rm.test_size}.")
    if rm.dropped_train or rm.dropped_test:
        lines.append(f"Rows dropped for missing values: {rm.dropped_train} train, "
                     f"{rm.dropped_test} test.")
    lines.append("")

    if rm.kind == DISCOVERY:
        lines.append(f"Global Population of size {rm.test_size}")
        lines.append("")
        lines.extend(_render_discovery(rm))
    else:
        g = rm.global_finding
        if g is not None:
            weak = _reported(g.tested)[0] > 1.0 - rm.conf
            lines.extend(_render_finding([f"Global Population of size {g.size}"], g,
                                         rm.explanatory, " (not significant)" if weak else ""))
        for f in rm.findings:
            lines.extend(_render_finding([f"{f.rank}. Subpopulation of size {f.size}",
                                          f"Context = {_context_line(f.predicates)}"],
                                         f, rm.explanatory))
    return "\n".join(lines).rstrip("\n") + "\n"


def _label_share(f: Finding, col: int) -> str:
    if not isinstance(f.display, TableDisplay):
        return "?"
    counts = f.display.counts
    total = sum(counts[i][col] for i in range(len(counts)))
    present = counts[-1][col]
    return f"{round(100.0 * present / total) if total else 0}%"


def _render_discovery(rm: ReportModel) -> list[str]:
    groups = None
    for f in rm.findings:
        if isinstance(f.display, TableDisplay):
            groups = f.display.col_labels
            break
    if groups is None:
        return ["No label associations pass validation."]
    lines: list[str] = []
    for sign, col in ((1, 0), (-1, 1)):
        side = [f for f in rm.findings if f.is_global and np.sign(f.tested.value.value) == sign]
        lines.append(f"* Labels associated with {rm.protected}={groups[col]}:")
        if not side:
            lines.append("  (none)")
            lines.append("")
            continue
        header = ["Label", groups[0], groups[1], side[0].metric, "p-value"]
        rows = [header]
        for f in side:
            p, ci = _reported(f.tested)
            rows.append([f.label, _label_share(f, 0), _label_share(f, 1),
                         _fmt_ci(ci), _fmt_p(p)])
        lines.extend(_grid(rows, "<" * len(header), (0,), "  "))
        lines.append("")
    for f in rm.findings:  # a root label, shown in the tables above, gets a block for its strata
        if f.predicates:
            head = [f"{f.rank}. Label = {f.label} ; Subpopulation of size {f.size}",
                    f"Context = {_context_line(f.predicates)}"]
        elif f.strata:
            head = [f"{f.rank}. Label = {f.label} ; Global Population of size {f.size}"]
        else:
            continue
        lines.extend(_render_finding(head, f, rm.explanatory))
    return lines


# -- structured output ---------------------------------------------------------


def predicate_to_obj(p: ContextPredicate) -> dict:
    obj = {"attribute": p.attribute, "op": p.op}
    if p.op == "in":
        obj["values"] = list(p.values)
    else:
        obj["threshold"] = p.threshold
    return obj


def predicate_from_obj(obj: dict) -> ContextPredicate:
    return ContextPredicate(
        obj["attribute"], obj["op"],
        values=tuple(obj["values"]) if "values" in obj else None,
        threshold=obj.get("threshold"),
    )


def _tested_to_obj(t: TestedMetric) -> dict:
    return {
        "metric": t.value.kind.name,
        "explanatory": t.value.kind.explanatory,
        "estimate": t.value.value,
        "ci": list(t.ci),
        "p": t.p,
        "method": t.method,
        "corrected_p": t.corrected_p,
        "corrected_ci": list(t.corrected_ci) if t.corrected_ci is not None else None,
    }


def _tested_from_obj(obj: dict) -> TestedMetric:
    return TestedMetric(
        value=MetricValue(MetricKind(obj["metric"], obj.get("explanatory")), obj["estimate"]),
        ci=tuple(obj["ci"]),
        p=obj["p"],
        method=obj["method"],
        corrected_p=obj.get("corrected_p"),
        corrected_ci=tuple(obj["corrected_ci"]) if obj.get("corrected_ci") is not None else None,
    )


def _display_to_obj(display) -> dict | None:
    if display is None:
        return None
    if isinstance(display, TableDisplay):
        return {
            "type": "contingency",
            "row_attr": display.row_attr,
            "col_attr": display.col_attr,
            "row_labels": list(display.row_labels),
            "col_labels": list(display.col_labels),
            "counts": [list(row) for row in display.counts],
        }
    return {
        "type": "deciles",
        "protected": display.protected,
        "output": display.output,
        "rows": [[r.lo, r.hi, r.n, r.minimum, r.q1, r.median, r.q3, r.maximum]
                 for r in display.rows],
    }


def _display_from_obj(obj: dict | None):
    if obj is None:
        return None
    if obj["type"] == "contingency":
        return TableDisplay(
            row_attr=obj["row_attr"],
            col_attr=obj["col_attr"],
            row_labels=tuple(obj["row_labels"]),
            col_labels=tuple(obj["col_labels"]),
            counts=tuple(tuple(int(x) for x in row) for row in obj["counts"]),
        )
    return DecileDisplay(
        protected=obj["protected"],
        output=obj["output"],
        rows=tuple(DecileRow(*row[:2], int(row[2]), *row[3:]) for row in obj["rows"]),
    )


def _stratum_to_obj(sf: StratumFinding, metric: str) -> dict:
    return {
        "value": sf.value,
        "size": sf.size,
        "metric": metric,
        "tested": _tested_to_obj(sf.tested) if sf.tested is not None else None,
        "note": sf.note,
        "display": _display_to_obj(sf.display),
    }


def _stratum_from_obj(obj: dict) -> StratumFinding:
    return StratumFinding(
        value=obj["value"],
        size=obj["size"],
        tested=_tested_from_obj(obj["tested"]) if obj.get("tested") is not None else None,
        note=obj.get("note"),
        display=_display_from_obj(obj.get("display")),
    )


def _finding_to_obj(f: Finding) -> dict:
    return {
        "protected": f.protected,
        "output": f.output,
        "label": f.label,
        "predicates": [predicate_to_obj(p) for p in f.predicates],
        "size": f.size,
        "metric": f.metric,
        "tested": _tested_to_obj(f.tested),
        "display": _display_to_obj(f.display),
        "strata": [_stratum_to_obj(sf, MetricKind(f.tested.value.kind.name).display)
                   for sf in f.strata],
        "is_global": f.is_global,
        "rank": f.rank,
    }


def _finding_from_obj(obj: dict) -> Finding:
    return Finding(
        protected=obj["protected"],
        output=obj["output"],
        label=obj.get("label"),
        predicates=tuple(predicate_from_obj(p) for p in obj["predicates"]),
        size=obj["size"],
        tested=_tested_from_obj(obj["tested"]),
        display=_display_from_obj(obj.get("display")),
        strata=tuple(_stratum_from_obj(sf) for sf in obj.get("strata", [])),
        rank=obj.get("rank"),
    )


def report_to_obj(rm: ReportModel) -> dict:
    return {
        "kind": rm.kind,
        "protected": rm.protected,
        "output": rm.output,
        "explanatory": rm.explanatory,
        "metric": rm.metric,
        "conf": rm.conf,
        "family_size": rm.family_size,
        "train_size": rm.train_size,
        "test_size": rm.test_size,
        "dropped_train": rm.dropped_train,
        "dropped_test": rm.dropped_test,
        "global": _finding_to_obj(rm.global_finding) if rm.global_finding is not None else None,
        "findings": [_finding_to_obj(f) for f in rm.findings],
    }


def report_from_obj(obj: dict) -> ReportModel:
    return ReportModel(
        kind=obj["kind"],
        protected=obj["protected"],
        output=obj["output"],
        explanatory=obj.get("explanatory"),
        metric=obj["metric"],
        conf=obj["conf"],
        family_size=obj["family_size"],
        train_size=obj["train_size"],
        test_size=obj["test_size"],
        dropped_train=obj["dropped_train"],
        dropped_test=obj["dropped_test"],
        global_finding=_finding_from_obj(obj["global"]) if obj.get("global") is not None else None,
        findings=tuple(_finding_from_obj(f) for f in obj["findings"]),
    )
