"""The level-at-a-time tree and the itemset baseline against per-view
references.

``recursive_contexts`` grows the tree one node at a time, depth first, from
each node's own ``Dataset`` view, its own ``np.quantile`` cuts and its own
bin counts. The level tree must register the same contexts in the same
order, with the same sizes, bit-equal associations and the same node and
metric-evaluation counts. ``view_itemsets`` enumerates the itemsets of
``exhaustive_contexts`` from a view per itemset, each valued by
``stats.test_metric``.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uatest.dataset import CATEGORICAL, AttributeSchema, ContextPredicate, Dataset
from uatest.metrics import (
    BoundMetric,
    MetricError,
    MetricKind,
    grouped_moments,
    joint_counts,
    moment_correlation,
)
from uatest.stats import StatConfig
from uatest.stats import test_metric as evaluate_metric
from uatest.synth import tree_vs_itemsets
from uatest.tree import ContextNode, TreeParams, TreeStats, exhaustive_contexts, find_contexts


def _merged_moments(moments, members):
    sizes, sum_x, sum_y, sxx, syy, sxy = moments

    def total(v):
        return np.where(members, v, 0).sum(axis=-1)

    n, sx, sy = total(sizes), total(sum_x), total(sum_y)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = np.divide(sum_x, sizes, out=np.zeros(len(sizes)), where=sizes > 0)
        mean_y = np.divide(sum_y, sizes, out=np.zeros(len(sizes)), where=sizes > 0)
        ex = mean_x - (sx / n)[..., None]
        ey = mean_y - (sy / n)[..., None]
        return (n, sx, sy, total(sxx) + total(sizes * ex * ex),
                total(syy) + total(sizes * ey * ey), total(sxy) + total(sizes * ex * ey))


def _threshold_values(metric, view, bins, n_bins):
    if metric.tabular:
        summary = joint_counts(view, (metric.output, metric.protected), bins, n_bins)
        left = np.cumsum(summary, axis=0)[:-1]
        return metric.counts(view).values(np.stack([left, summary.sum(axis=0) - left], axis=1))
    x = view.scalar_values(metric.protected)
    y = view.scalar_values(metric.output)
    ok = (bins >= 0) & ~(np.isnan(x) | np.isnan(y))
    summary = grouped_moments(x[ok], y[ok], bins[ok], n_bins)
    in_left = np.arange(n_bins) <= np.arange(n_bins - 1)[:, None]
    return moment_correlation(_merged_moments(summary, np.stack([in_left, ~in_left], axis=1)))


def _candidate_splits(view, attribute, params):
    """(bins, present, categories, cuts, kept) of one node, or None."""
    attr = view.attribute(attribute)
    if attr.kind == CATEGORICAL:
        bins = view.codes(attribute)
        sizes = np.bincount(bins[bins >= 0], minlength=len(attr.categories))
        present = np.flatnonzero(sizes)
        if len(present) < 2 or sizes[present].min() < 2:
            return None
        return bins, present, attr.categories, None, None
    values = view.scalar_values(attribute)
    missing = np.isnan(values)
    finite = values[~missing]
    if len(finite) < 4:
        return None
    q = params.quantile_splits
    with np.errstate(invalid="ignore"):
        cuts = np.unique(np.quantile(finite, [(i + 1) / (q + 1) for i in range(q)]))
    bins = np.where(missing, -1, np.searchsorted(cuts, values))
    left = np.cumsum(np.bincount(bins[~missing], minlength=len(cuts) + 1))[:-1]
    kept = np.flatnonzero((left >= 2) & (len(finite) - left >= 2))
    if len(kept) == 0:
        return None
    return bins, None, (), cuts, kept


def view_value(view, metric):
    """The ``guidance`` of the metric's estimate on ``view``, NaN where it is
    undefined."""
    try:
        return float(metric.guidance(evaluate_metric(view, metric, StatConfig()).value.value))
    except MetricError:
        return math.nan


def recursive_contexts(train, params, metric, contextual, stats):
    """The tree grown node by node, depth first."""
    metric = metric.resolve(train)
    registered = []

    def recurse(view, predicates, value):
        stats.n_nodes += 1
        if not predicates and math.isnan(value):
            raise MetricError("undefined at the root")
        if not predicates or view.n_rows >= params.min_size:
            registered.append(ContextNode(predicates, view.n_rows, value))
        if view.n_rows < params.min_size:
            return
        if len(predicates) >= params.max_depth or math.isnan(value):
            return
        best_score, best = -math.inf, None
        for attr in contextual:
            found = _candidate_splits(view, attr, params)
            if found is None:
                continue
            bins, present, categories, cuts, kept = found
            if cuts is None:
                part_values = metric.counts(view).group_values(bins, len(categories))[0][present][None]
            else:
                part_values = _threshold_values(metric, view, bins, len(cuts) + 1)[kept]
            stats.n_metric_evals += part_values.size
            part_values = metric.guidance(part_values)
            zeroed = np.where(np.isnan(part_values), 0.0, part_values)
            scores = np.where((zeroed > value).any(axis=1), zeroed.mean(axis=1), -math.inf)
            j = int(np.argmax(scores))
            if scores[j] > best_score:
                best_score, best = float(scores[j]), (attr, found, j, part_values[j])
        if best is None or best_score <= value:
            return
        attr, (bins, present, categories, cuts, kept), j, part_values = best
        if cuts is None:
            part_of = np.full(len(categories), -1)
            part_of[present] = np.arange(len(present))
            preds = [ContextPredicate(attr, "in", values=(categories[c],)) for c in present]
        else:
            part_of = (np.arange(len(cuts) + 1) > kept[j]).astype(np.intp)
            t = float(cuts[kept[j]])
            preds = [ContextPredicate(attr, "le", threshold=t),
                     ContextPredicate(attr, "gt", threshold=t)]
        key = np.where(bins >= 0, part_of[bins], -1)
        if cuts is not None and not metric.tabular:
            part_values = metric.guidance(metric.counts(view).group_values(key, 2)[0])
        for i, pred in enumerate(preds):
            recurse(view._subset(np.flatnonzero(key == i)), predicates + (pred,),
                    float(part_values[i]))

    stats.n_metric_evals += 1
    recurse(train, (), view_value(train, metric))
    return registered


def _scalar_column(rng, n, style):
    """Values with ties, missing and infinite cells, and zeros of both signs."""
    if style == "distinct":
        values = rng.normal(size=n) * 10
    elif style == "ties":
        values = rng.integers(-3, 4, n).astype(float)
        values[rng.random(n) < 0.2] = -0.0
    else:  # "infinite": pairs of infinite values give NaN cuts
        values = rng.normal(size=n)
        values[rng.random(n) < 0.3] = math.inf
        values[rng.random(n) < 0.1] = -math.inf
    values[rng.random(n) < rng.choice([0.0, 0.1, 0.7])] = math.nan
    return values


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 400),
       name=st.sampled_from(["diff", "ratio", "nmi", "corr"]),
       kinds=st.lists(st.sampled_from(["categorical", "wide", "distinct", "ties", "infinite",
                                       "ordinal", "copy"]), min_size=1, max_size=4),
       quantile_splits=st.integers(2, 8), min_size=st.integers(10, 30),
       max_depth=st.integers(1, 4))
def test_level_tree_matches_recursive_tree(seed, n, name, kinds, quantile_splits, min_size,
                                           max_depth):
    rng = np.random.default_rng(seed)
    schema, columns, signal = [], {}, np.zeros(n)
    for a, kind in enumerate(kinds):
        col = f"a{a}"
        if kind == "copy" and a > 0:
            # the previous attribute again, so that the two tie exactly; a
            # categorical copy spreads its codes over twice the categories
            prev = schema[-1]
            if prev.kind == "continuous":
                schema.append(AttributeSchema(col, "continuous", "contextual"))
                columns[col] = columns[prev.name].copy()
            else:
                codes = columns[prev.name]
                schema.append(AttributeSchema(col, prev.kind, "contextual", tuple(
                    str(c) for c in range(2 * len(prev.categories)))))
                columns[col] = np.where(codes >= 0, 2 * codes, -1).astype(np.int32)
            continue
        if kind in ("categorical", "wide", "ordinal", "copy"):
            k = {"categorical": 3, "wide": 12, "ordinal": 5, "copy": 12}[kind]
            codes = rng.integers(-1 if rng.random() < 0.3 else 0, k, n).astype(np.int32)
            labels = tuple(str(c) for c in range(k))
            schema.append(AttributeSchema(col, kind if kind == "ordinal" else "categorical",
                                          "contextual", labels))
            columns[col] = codes
            signal += rng.normal() * (codes == rng.integers(k))
        else:
            values = _scalar_column(rng, n, kind)
            schema.append(AttributeSchema(col, "continuous", "contextual"))
            columns[col] = values
            signal += rng.normal() * np.nan_to_num(values > np.nanmedian(values))
    if name == "corr":
        x = rng.normal(size=n)
        y = (1 + signal) * x + rng.normal(size=n)
        x[rng.random(n) < 0.05] = math.nan
        for col, role, values in (("s", "protected", x), ("o", "output", y)):
            schema.append(AttributeSchema(col, "continuous", role))
            columns[col] = values
    else:
        k = 3 if name == "nmi" and rng.random() < 0.5 else 2
        s = rng.integers(0, k, n)
        o = (rng.random(n) < 1 / (1 + np.exp(-signal * (s - 0.5)))).astype(np.int32)
        s[rng.random(n) < 0.05] = -1
        for col, role, codes, cats in (("s", "protected", s, k), ("o", "output", o, 2)):
            schema.append(AttributeSchema(col, "categorical", role,
                                          tuple(str(c) for c in range(cats))))
            columns[col] = codes.astype(np.int32)
    view = Dataset(schema, columns)
    metric = BoundMetric(MetricKind(name), "s", "o")
    params = TreeParams(min_size=min_size, max_depth=max_depth, quantile_splits=quantile_splits)
    contextual = [f"a{a}" for a in range(len(kinds))]

    want_stats, got_stats = TreeStats(), TreeStats()
    try:
        want = recursive_contexts(view, params, metric, contextual, want_stats)
    except MetricError:
        try:
            find_contexts(view, params, metric, contextual, got_stats)
        except MetricError:
            return
        raise AssertionError("the level tree grew where the recursive tree raised")
    got = find_contexts(view, params, metric, contextual, got_stats)
    assert [repr(c.predicates) for c in got] == [repr(c.predicates) for c in want]
    assert [c.n_train for c in got] == [c.n_train for c in want]
    assert [repr(c.train_metric) for c in got] == [repr(c.train_metric) for c in want]
    assert (got_stats.n_metric_evals, got_stats.n_nodes) == (want_stats.n_metric_evals,
                                                             want_stats.n_nodes)


def view_itemsets(train, params, metric, contextual):
    """The itemsets of ``exhaustive_contexts``, each valued on its own view."""
    metric = metric.resolve(train)
    results = []

    def descend(start, rows, preds):
        results.append((preds, len(rows), view_value(train._subset(rows), metric)))
        if len(preds) >= params.max_depth:
            return
        for ai in range(start, len(contextual)):
            attr = train.attribute(contextual[ai])
            codes = train.codes(contextual[ai])[rows]
            for code, cat in enumerate(attr.categories):
                keep = rows[codes == code]
                if len(keep) < params.min_size:
                    continue
                descend(ai + 1, keep, preds + (ContextPredicate(contextual[ai], "in", values=(cat,)),))

    descend(0, np.arange(train.n_rows), ())
    return results


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
       name=st.sampled_from(["diff", "ratio", "nmi", "corr"]),
       widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       min_size=st.integers(10, 40), max_depth=st.integers(0, 3))
def test_itemsets_match_per_view_itemsets(seed, n, name, widths, min_size, max_depth):
    rng = np.random.default_rng(seed)
    schema, columns = [], {}
    for a, k in enumerate(widths):
        schema.append(AttributeSchema(f"a{a}", CATEGORICAL, "contextual",
                                      tuple(str(c) for c in range(k))))
        columns[f"a{a}"] = rng.integers(-1 if rng.random() < 0.5 else 0, k, n).astype(np.int32)
    if name == "corr":
        x = rng.normal(size=n)
        y = (1 + columns["a0"]) * x + rng.normal(size=n)
        x[rng.random(n) < 0.1] = math.nan
        y[rng.random(n) < 0.02] = rng.choice([math.inf, -math.inf])
        for col, role, values in (("s", "protected", x), ("o", "output", y)):
            schema.append(AttributeSchema(col, "continuous", role))
            columns[col] = values
    else:
        k = 3 if name == "nmi" and rng.random() < 0.5 else 2
        for col, role, cats in (("s", "protected", k), ("o", "output", 2)):
            schema.append(AttributeSchema(col, CATEGORICAL, role, tuple(str(c) for c in range(cats))))
            columns[col] = rng.integers(-1, cats, n).astype(np.int32)
    view = Dataset(schema, columns)
    metric = BoundMetric(MetricKind(name), "s", "o")
    params = TreeParams(min_size=min_size, max_depth=max_depth)
    contextual = [f"a{a}" for a in range(len(widths))]
    want = view_itemsets(view, params, metric, contextual)
    got = exhaustive_contexts(view, params, metric, contextual)
    assert [(repr(p), k, repr(v)) for p, k, v in got] == [(repr(p), k, repr(v)) for p, k, v in want]


def test_itemset_baseline_builds_no_view_per_candidate(monkeypatch):
    calls = []  # (method, calling function) of every view built
    for method in ("select", "_subset"):
        def spy(self, *args, _method=method, _original=getattr(Dataset, method)):
            calls.append((_method, sys._getframe(1).f_code.co_name))
            return _original(self, *args)
        monkeypatch.setattr(Dataset, method, spy)
    rng = np.random.default_rng(2)
    columns = {name: rng.integers(0, 2, 2000).astype(np.int32) for name in ("a", "b", "s", "o")}
    view = Dataset([AttributeSchema(name, CATEGORICAL, "contextual", ("0", "1"))
                    for name in columns], columns)
    itemsets = exhaustive_contexts(view, TreeParams(min_size=10, max_depth=2),
                                   BoundMetric(MetricKind("diff"), "s", "o"), ["a", "b"])
    assert len(itemsets) == 9 and calls == []
    tree_vs_itemsets(4000, 6, seed=1, min_size=100, max_depth=3)
    # only the split's train and test halves, which the data source cuts
    assert calls == [("_subset", "__init__")] * 2
