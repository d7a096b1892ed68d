"""Outside-in tracing of one ``uatest`` CLI invocation.

The tracer replaces the module attributes through which the CLI reaches each
layer with timing wrappers, records one span per call as
(name, start, end, parent, invocation, info), and restores the attributes
afterwards. It only nests correctly when every call runs on one thread, so
the traced pass runs the CLI at ``--threads 1``. Spans stay in memory; the
worker writes them out with its result and ``layer_metrics`` reduces them.

This is an interim measure: the program has no run trace of its own yet.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from time import perf_counter

from uatest import cli, dataset, investigations
from uatest.metrics import MetricError
from uatest.stats import ASYMPTOTIC, StatsError

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    info: dict


def _find_contexts_info(args, kwargs, result) -> dict:
    stats = kwargs["stats"] if "stats" in kwargs else args[6]
    return {"evals": stats.n_metric_evals, "nodes": stats.n_nodes, "contexts": len(result)}


def _validate_info(args, kwargs, result) -> dict:
    trained = args[0]
    return {"contexts": sum(len(u.contexts) for u in trained.units),
            "kept": len(result.findings), "dropped": result.dropped_contexts}


# (owner, attribute, span name, info from (args, kwargs, result)). The owner
# is the module or class the CLI looks the callable up on at call time.
TARGETS = (
    (cli, "load_csv", "dataset.load_csv", None),
    (dataset.Dataset, "select", "dataset.select", None),
    (dataset.Dataset, "drop_missing", "dataset.drop_missing", None),
    (cli, "train", "investigations.train", None),
    (cli, "validate", "investigations.validate", _validate_info),
    (investigations, "validate", "investigations.validate", _validate_info),
    (cli, "filter_and_rank", "investigations.filter_and_rank", None),
    (investigations, "filter_and_rank", "investigations.filter_and_rank", None),
    (investigations, "compute_error", "investigations.compute_error", None),
    (investigations, "find_contexts", "tree.find_contexts", _find_contexts_info),
    (investigations, "logistic_label_scores", "metrics.logistic_label_scores", None),
    (investigations, "test_metric", "stats.test_metric",
     lambda args, kwargs, result: {"method": result.method}),
    (investigations, "apply_corrections", "stats.apply_corrections",
     lambda args, kwargs, result: {"family": len(args[0])}),
    (cli, "report_to_obj", "report.report_to_obj", None),
    (cli, "render_text", "report.render_text", None),
)

UNTESTABLE = (MetricError, StatsError)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._invocation = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._invocation, {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except UNTESTABLE:
                self.spans[idx].info["raised"] = True
                raise
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx].info.update(info(args, kwargs, result))
            return result
        return traced

    def run(self, argv: list[str]) -> int:
        """One traced ``cli.main(argv)``; the wrappers are removed on return."""
        self._invocation += 1
        for owner, attr, name, info in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        idx = self._open(ROOT)
        try:
            return cli.main(argv)
        finally:
            self._close(idx)
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)


def _by_invocation(spans: list[Span]) -> list[list[tuple[Span, float]]]:
    """Each invocation's spans paired with their self times: a span's
    duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    groups: dict[int, list[tuple[Span, float]]] = {}
    for s, o in zip(spans, own):
        groups.setdefault(s.invocation, []).append((s, o))
    return list(groups.values())


def invocation_metrics(pairs: list[tuple[Span, float]]) -> dict[str, float]:
    """Per-layer figures of one traced invocation."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, o in pairs:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_time[s.name] = self_time.get(s.name, 0.0) + o
        calls[s.name] = calls.get(s.name, 0) + 1

    def of(name: str, key: str) -> list:
        return [s.info[key] for s, _ in pairs if s.name == name and key in s.info]

    tests = [s for s, _ in pairs if s.name == "stats.test_metric"]
    asym = [s for s in tests if s.info.get("method") == ASYMPTOTIC]
    resampled = [s for s in tests if "method" in s.info and s.info["method"] != ASYMPTOTIC]
    evals = sum(of("tree.find_contexts", "evals"))
    contexts = sum(of("tree.find_contexts", "contexts"))
    validated = sum(of("investigations.validate", "contexts"))
    run_s = total[ROOT]
    return {
        "dataset.load_csv_s": total.get("dataset.load_csv", 0.0),
        "dataset.select_s": total.get("dataset.select", 0.0),
        "dataset.select_calls": calls.get("dataset.select", 0),
        "dataset.drop_missing_s": total.get("dataset.drop_missing", 0.0),
        "tree.find_contexts_s": total.get("tree.find_contexts", 0.0),
        "tree.metric_evals": evals,
        "tree.nodes": sum(of("tree.find_contexts", "nodes")),
        "tree.contexts": contexts,
        "tree.contexts_per_eval": contexts / evals if evals else 0.0,
        "metrics.logistic_label_scores_s": total.get("metrics.logistic_label_scores", 0.0),
        "stats.test_metric_s": total.get("stats.test_metric", 0.0),
        "stats.test_metric_calls": len(tests),
        "stats.test_metric.asymptotic_s": sum(s.end - s.start for s in asym),
        "stats.test_metric.resampling_s": sum(s.end - s.start for s in resampled),
        "stats.asymptotic_share": len(asym) / len(tests) if tests else 0.0,
        "stats.untestable": sum(1 for s in tests if s.info.get("raised")),
        "stats.apply_corrections_s": total.get("stats.apply_corrections", 0.0),
        "stats.family_size": sum(of("stats.apply_corrections", "family")),
        "investigations.train_s": total.get("investigations.train", 0.0),
        "investigations.validate_s": total.get("investigations.validate", 0.0),
        "investigations.validate_self_s": self_time.get("investigations.validate", 0.0),
        "investigations.filter_and_rank_s": total.get("investigations.filter_and_rank", 0.0),
        "investigations.compute_error_s": total.get("investigations.compute_error", 0.0),
        "investigations.contexts_dropped": sum(of("investigations.validate", "dropped")),
        "investigations.kept_ratio":
            sum(of("investigations.validate", "kept")) / validated if validated else 0.0,
        "report.render_s": total.get("report.report_to_obj", 0.0)
        + total.get("report.render_text", 0.0),
        "cli.self_s": self_time[ROOT],
        "trace.run_s": run_s,
        "trace.self_share": sum(o for _, o in pairs) / run_s,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share", "_per_eval", ".overhead")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over traced invocations of each invocation's figures."""
    rows = [invocation_metrics(pairs) for pairs in _by_invocation(spans)]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def self_time_table(spans: list[Span]) -> dict[str, float]:
    """Median self time per span name over the traced invocations; the
    entries of one invocation sum to its traced wall time."""
    rows = []
    for pairs in _by_invocation(spans):
        row: dict[str, float] = {}
        for s, o in pairs:
            row[s.name] = row.get(s.name, 0.0) + o
        rows.append(row)
    names = sorted({n for row in rows for n in row})
    return {n: statistics.median(row.get(n, 0.0) for row in rows) for n in names}
