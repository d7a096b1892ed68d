import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatest import metrics
from uatest.dataset import CATEGORICAL, AttributeSchema, ContextPredicate, Dataset
from uatest.metrics import BoundMetric, MetricError, MetricKind
from uatest.stats import StatConfig
from uatest.stats import test_metric as evaluate_metric
from uatest.tree import (
    CategorySplits,
    ThresholdSplits,
    TreeParams,
    TreeStats,
    exhaustive_contexts,
    find_contexts,
)

DIFF = BoundMetric(MetricKind("diff"), "s", "o")


def build(columns, extra_schema=()):
    schema = list(extra_schema)
    names = {a.name for a in schema}
    roles = {"s": "protected", "o": "output"}
    for name in columns:
        if name in names:
            continue
        cats = tuple(sorted({str(v) for v in columns[name]}))
        schema.append(AttributeSchema(name, "categorical", roles.get(name, "contextual"), cats))
    return Dataset.from_columns(schema, {k: [str(v) for v in vals] for k, vals in columns.items()})


def planted_dataset(n=4000, seed=0, delta=0.2, attrs=4):
    """Binary contextual attributes; disparity planted where x0=1 and x1=1."""
    rng = np.random.default_rng(seed)
    cols = {f"x{i}": rng.integers(0, 2, n) for i in range(attrs)}
    s = rng.integers(0, 2, n)
    mask = (cols["x0"] == 1) & (cols["x1"] == 1)
    p = np.where(mask & (s == 1), 0.5 + delta, np.where(mask, 0.5 - delta, 0.5))
    o = (rng.random(n) < p).astype(int)
    cols["s"] = s
    cols["o"] = o
    return build(cols)


def node_splits(view, attribute, params, metric=DIFF):
    """The candidate splits of ``view`` on ``attribute``, scored as the one
    node of a level, with part values after ``BoundMetric.guidance``, or None
    if it has none."""
    splits = (CategorySplits(view, attribute)
              if view.attribute(attribute).kind == CATEGORICAL
              else ThresholdSplits(view, attribute, params.quantile_splits))
    scores = splits.score(np.zeros(view.n_rows, dtype=np.intp), np.array([-math.inf]),
                          metric.resolve(view).counts(view))
    return None if scores is None else splits


def split_key(view, splits, j=0):
    """Each row's part in the node's split at kept cut ``j`` (the only split
    of a categorical attribute), -1 for a row in no part, from the parts'
    predicates by ``Dataset.layer_key``."""
    if isinstance(splits, ThresholdSplits):
        splits.best[0] = splits.kept[j]  # make cut j the node's best
    preds = [pred for pred, _, _ in splits.parts(0)]
    return view.layer_key(np.zeros(view.n_rows, dtype=np.intp), [0] * len(preds), preds)


def test_candidate_splits_binary_categorical():
    d = planted_dataset(500, seed=1)
    splits = node_splits(d, "x0", TreeParams(min_size=10))
    assert splits.evals == 2 and len(splits.parts(0)) == 2  # one split of two parts
    assert np.array_equal(np.unique(split_key(d, splits)), [0, 1])
    assert {p.describe() for p, _, _ in splits.parts(0)} == {"x0: 0", "x0: 1"}


def test_candidate_splits_constant_attribute():
    d = build({"c": ["k"] * 100, "s": [0, 1] * 50, "o": [0, 1] * 50})
    assert node_splits(d, "c", TreeParams(min_size=10)) is None


def test_candidate_splits_continuous_quantiles():
    rng = np.random.default_rng(3)
    n = 400
    cols = {"s": [str(v) for v in rng.integers(0, 2, n)],
            "o": [str(v) for v in rng.integers(0, 2, n)]}
    schema = [AttributeSchema("age", "continuous", "contextual"),
              AttributeSchema("s", "categorical", "protected", ("0", "1")),
              AttributeSchema("o", "categorical", "output", ("0", "1"))]
    d = Dataset.from_columns(schema, {"age": list(rng.uniform(0, 100, n)), **cols})
    params = TreeParams(min_size=10, quantile_splits=8)
    splits = node_splits(d, "age", params)
    assert 1 <= len(splits.kept) <= 8 and splits.evals == 2 * len(splits.kept)
    for j in range(len(splits.kept)):
        key = split_key(d, splits, j)
        assert len(key) == n
        assert np.bincount(key, minlength=2).min() >= 2
        preds = [p for p, _, _ in splits.parts(0)]
        assert preds[0].op == "le" and preds[1].op == "gt"
        assert np.array_equal(key == 0, d.scalar_values("age") <= preds[0].threshold)


def brute_force_splits(view, attribute, metric, params):
    """Reference scorer: every candidate split as its own full-length key,
    scored by one ``group_values`` call per split. Returns (threshold, part
    values) pairs, the threshold None for the split by category."""
    attr = view.attribute(attribute)
    if attr.kind == CATEGORICAL:
        codes = view.codes(attribute)
        sizes = np.bincount(codes[codes >= 0], minlength=len(attr.categories))
        present = np.flatnonzero(sizes)
        if len(present) < 2 or sizes[present].min() < 2:
            return []
        part_of = np.full(len(attr.categories), -1)
        part_of[present] = np.arange(len(present))
        key = np.where(codes >= 0, part_of[codes], -1)
        return [(None, metric.counts(view).group_values(key, len(present))[0])]
    values = view.scalar_values(attribute)
    finite = values[~np.isnan(values)]
    if len(finite) < 4:
        return []
    q = params.quantile_splits
    with np.errstate(invalid="ignore"):
        thresholds = np.unique(np.quantile(finite, [(i + 1) / (q + 1) for i in range(q)]))
    out = []
    for t in thresholds:
        left, right = values <= t, values > t
        if left.sum() >= 2 and right.sum() >= 2:
            key = np.where(left, 0, np.where(right, 1, -1))
            out.append((float(t), metric.counts(view).group_values(key, 2)[0]))
    return out


def _oracle_column(data, kind, n):
    """A context column of ``kind``: repeated values, so that some equal a
    quantile threshold, with missing and infinite cells."""
    if kind == "continuous":
        pool = st.one_of(st.integers(-3, 3).map(float), st.floats(-50, 50, width=16),
                         st.sampled_from([math.nan, math.inf, -math.inf]))
        return np.array(data.draw(st.lists(pool, min_size=n, max_size=n)), dtype=np.float64)
    return np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)),
                    dtype=np.int32)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_binned_scorer_matches_per_threshold_scoring(data):
    # the binned scorer gives every split the brute-force scorer keeps, with
    # equal part values after guidance: exactly for the table metrics, within
    # 1e-12 for CORR, whose moments are merged per part instead of summed per
    # part; a split's key gives the brute-force values themselves
    n = data.draw(st.integers(0, 60))
    name = data.draw(st.sampled_from(["diff", "ratio", "nmi", "corr"]))
    kind = data.draw(st.sampled_from(["continuous", "ordinal", "categorical"]))
    cats = ("1", "2", "3.5", "10")
    schema = [AttributeSchema("x", kind, "contextual", None if kind == "continuous" else cats)]
    columns = {"x": _oracle_column(data, kind, n)}
    if name == "corr":
        # dyadic values sum exactly, so a constant part has zero variance in both scorers
        pool = st.one_of(st.integers(-4, 4).map(lambda v: v / 4), st.just(math.nan))
        for col, role in (("s", "protected"), ("o", "output")):
            schema.append(AttributeSchema(col, "continuous", role))
            columns[col] = np.array(data.draw(st.lists(pool, min_size=n, max_size=n)))
    else:
        outputs = ("a", "b", "c") if name == "nmi" and data.draw(st.booleans()) else ("a", "b")
        for col, role, labels in (("s", "protected", ("f", "m")), ("o", "output", outputs)):
            schema.append(AttributeSchema(col, "categorical", role, labels))
            codes = st.integers(-1, len(labels) - 1)
            columns[col] = np.array(data.draw(st.lists(codes, min_size=n, max_size=n)),
                                    dtype=np.int32)
    view = Dataset(schema, columns)
    metric = BoundMetric(MetricKind(name), "s", "o").resolve(view)
    params = TreeParams(min_size=10, quantile_splits=data.draw(st.integers(2, 8)))

    expected = brute_force_splits(view, "x", metric, params)
    splits = node_splits(view, "x", params, metric)
    if splits is None:
        assert expected == []
        return
    if isinstance(splits, CategorySplits):
        thresholds = [None]
        values = splits.part_values[:, splits.present[0]]
    else:
        thresholds = splits.cuts[0, splits.kept].tolist()
        values = splits.part_values[splits.kept]
    assert thresholds == [t for t, _ in expected]
    assert values.shape == (len(expected), len(expected[0][1]))
    for j, (_, want) in enumerate(expected):
        if name == "corr":
            np.testing.assert_allclose(values[j], metric.guidance(want), rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(values[j], metric.guidance(want))
        key = split_key(view, splits, j)
        assert np.array_equal(metric.counts(view).group_values(key, len(want))[0], want,
                              equal_nan=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_presorted_cuts_are_bit_equal_to_np_quantile(data):
    # ties, zeros of both signs, and infinite values, whose pairs give a NaN
    # cut; some nodes have fewer than 4 defined values, and the nodes' rows
    # are interleaved
    pool = st.one_of(st.integers(-3, 3).map(float), st.floats(-50, 50, width=16),
                     st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
    nodes = data.draw(st.lists(st.lists(pool, max_size=30), min_size=1, max_size=6))
    q = data.draw(st.integers(2, 8))
    rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(
        sum(map(len, nodes)))
    values = np.array([v for node in nodes for v in node], dtype=np.float64)[rows]
    key = np.repeat(np.arange(len(nodes)), [len(node) for node in nodes])[rows]
    schema = [AttributeSchema("x", "continuous", "contextual"),
              AttributeSchema("s", "categorical", "protected", ("0", "1")),
              AttributeSchema("o", "categorical", "output", ("0", "1"))]
    d = Dataset(schema, {"x": values, "s": (rows % 2).astype(np.int32),
                         "o": (rows % 3 == 0).astype(np.int32)})
    splits = ThresholdSplits(d, "x", q)
    splits.score(key, np.full(len(nodes), -math.inf), DIFF.resolve(d).counts(d))
    for i in range(len(nodes)):
        defined = values[(key == i) & ~np.isnan(values)]
        if len(defined) < 4:
            assert splits.index[i] == -1  # no cuts, so no split
            continue
        with np.errstate(invalid="ignore"):
            want = np.unique(np.quantile(defined, [(j + 1) / (q + 1) for j in range(q)]))
        h = splits.index[i]
        assert splits.cuts[h, :splits.n_cuts[h]].tobytes() == want.tobytes()


def continuous_context_dataset(n, seed):
    """Three continuous contexts and one categorical, a binary DIFF pair and a
    continuous CORR pair whose association depends on the contexts."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0, 100, (3, n))
    x = rng.integers(0, 3, n)
    s = rng.integers(0, 2, n)
    p = np.where((a > 50) & (b < 30), np.where(s == 1, 0.8, 0.3), 0.5)
    u = rng.normal(size=n)
    schema = [AttributeSchema("a", "continuous", "contextual"),
              AttributeSchema("b", "continuous", "contextual"),
              AttributeSchema("c", "continuous", "contextual"),
              AttributeSchema("x", "categorical", "contextual", ("0", "1", "2")),
              AttributeSchema("s", "categorical", "protected", ("0", "1")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("u", "continuous", "protected"),
              AttributeSchema("v", "continuous", "output")]
    return Dataset(schema, {"a": a, "b": b, "c": c, "x": x.astype(np.int32),
                            "s": s.astype(np.int32),
                            "o": (rng.random(n) < p).astype(np.int32), "u": u,
                            "v": np.where(a > 50, 1.0, -0.5) * u + rng.normal(size=n)})


@pytest.mark.parametrize("name,protected,output", [("diff", "s", "o"), ("corr", "u", "v")])
def test_tree_counts_once_per_node_and_attribute(monkeypatch, name, protected, output):
    # per level: one count per contextual attribute, whatever its number of
    # nodes and thresholds; plus the root's, and for CORR one of the level's
    # children, whose correlations are taken from their rows
    calls = []
    for fn in ("keyed_counts", "grouped_moments"):
        real = getattr(metrics, fn)
        monkeypatch.setattr(metrics, fn,
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    d = continuous_context_dataset(6000, seed=19)
    params = TreeParams(min_size=100, max_depth=3)
    contextual = ["a", "b", "c", "x"]
    stats = TreeStats()
    contexts = find_contexts(d, params, BoundMetric(MetricKind(name), protected, output),
                             contextual, stats)
    split_nodes = sum(c.depth < params.max_depth and c.n_train >= params.min_size
                      and not math.isnan(c.train_metric) for c in contexts)
    assert split_nodes > stats.n_levels == params.max_depth
    assert any(p.op == "le" for c in contexts for p in c.predicates)
    per_level = len(contextual) + (name == "corr")
    assert 0 < len(calls) <= 1 + stats.n_levels * per_level


def test_split_parts_scored_by_absolute_value():
    # two parts engineered to DIFF = +0.3 and -0.3 exactly; the root's DIFF
    # is 0, so the split only wins if the parts' signs cannot cancel
    def part(delta_sign):
        a_yes = 40 + delta_sign * 15
        b_yes = 40 - delta_sign * 15
        o = ["1"] * a_yes + ["0"] * (100 - a_yes) + ["1"] * b_yes + ["0"] * (100 - b_yes)
        s = ["a"] * 100 + ["b"] * 100
        x = [str(max(delta_sign, 0))] * 200
        return s, o, x

    s1, o1, x1 = part(+1)
    s2, o2, x2 = part(-1)
    d = build({"s": s1 + s2, "o": o1 + o2, "x": x1 + x2})
    contexts = find_contexts(d, TreeParams(min_size=10, max_depth=1), DIFF)
    assert [c.train_metric for c in contexts[1:]] == pytest.approx([0.3, 0.3], abs=1e-12)


def test_find_contexts_depth_zero_returns_root_only():
    d = planted_dataset(2000, seed=5)
    contexts = find_contexts(d, TreeParams(min_size=100, max_depth=0), DIFF)
    assert len(contexts) == 1
    assert contexts[0].predicates == ()


def test_find_contexts_recovers_planted_context():
    # ground truth planted through the synthetic generator: a disparity in one
    # (state, race) conjunction should surface as a registered superset context
    from uatest.synth import PlantSpec, PopulationSpec, generate

    metric = BoundMetric(MetricKind("diff"), "income", "output")
    plant = PlantSpec((ContextPredicate("state", "in", values=("S07",)),
                       ContextPredicate("race", "in", values=("R0",))), 0.15)
    hits = 0
    for seed in range(10):
        d = generate(PopulationSpec.default(50_000), (plant,), seed=seed, min_size=50)
        contexts = find_contexts(d, TreeParams(min_size=50, max_depth=3), metric)
        hits += any(set(plant.predicates) <= set(c.predicates) for c in contexts)
    assert hits >= 9


def test_find_contexts_structural_invariants():
    d = planted_dataset(5000, seed=7)
    params = TreeParams(min_size=100, max_depth=4)
    contexts = find_contexts(d, params, DIFF)
    by_preds = {frozenset(c.predicates): c for c in contexts}
    assert contexts[0].predicates == ()
    for c in contexts:
        assert c.depth <= params.max_depth
        assert c.n_train >= params.min_size
        if c.depth > 0:
            parent = by_preds[frozenset(c.predicates[:-1])]
            assert c.n_train < parent.n_train


def test_find_contexts_deterministic():
    d = planted_dataset(4000, seed=9)
    params = TreeParams(min_size=100, max_depth=3)
    a = find_contexts(d, params, DIFF)
    b = find_contexts(d, params, DIFF)
    assert [c.predicates for c in a] == [c.predicates for c in b]
    assert [c.train_metric for c in a] == [c.train_metric for c in b]


def test_find_contexts_counts_metric_evaluations():
    d = planted_dataset(3000, seed=11)
    stats = TreeStats()
    find_contexts(d, TreeParams(min_size=100, max_depth=3), DIFF, stats=stats)
    assert stats.n_metric_evals > 0
    assert stats.n_nodes > 0


def test_find_contexts_root_metric_undefined():
    d = build({"s": ["a"] * 50 + ["b"] * 50, "o": ["1"] * 100, "x": [0, 1] * 50})
    with pytest.raises(MetricError):
        find_contexts(d, TreeParams(min_size=10, max_depth=2), DIFF)


def test_null_data_grows_but_respects_invariants():
    # With no real association the tree still overfits training noise; the
    # registered set must stay structurally valid (validation prunes later).
    d = planted_dataset(8000, seed=13, delta=0.0)
    params = TreeParams(min_size=100, max_depth=5)
    contexts = find_contexts(d, params, DIFF)
    assert all(c.n_train >= params.min_size for c in contexts)
    assert all(c.depth <= params.max_depth for c in contexts)


def skewed_planted_dataset(n, seed, delta=0.4, attrs=6):
    """30/70 binary contextual attributes, disparity planted at x0=1, x1=1."""
    rng = np.random.default_rng(seed)
    cols = {f"x{i}": (rng.random(n) < 0.3).astype(int) for i in range(attrs)}
    s = rng.integers(0, 2, n)
    mask = (cols["x0"] == 1) & (cols["x1"] == 1)
    p = np.full(n, 0.5)
    p[mask & (s == 1)] = 0.5 + delta
    p[mask & (s == 0)] = 0.5 - delta
    cols["o"] = (rng.random(n) < p).astype(int)
    cols["s"] = s
    return build(cols)


def test_tree_against_exhaustive_oracle_small_scale():
    # small-scale optimality: the tree's best training association reaches at
    # least 90% of the exhaustive depth-2 maximum
    params = TreeParams(min_size=100, max_depth=2)
    for seed in range(5):
        d = skewed_planted_dataset(4000, 300 + seed)
        contexts = find_contexts(d, params, DIFF)
        tree_best = max(c.train_metric for c in contexts)
        oracle = exhaustive_contexts(d, params, DIFF)
        oracle_best = max(v for _, _, v in oracle if not np.isnan(v))
        assert tree_best >= 0.9 * oracle_best


def test_exhaustive_contexts_respects_support_and_depth():
    d = planted_dataset(2000, seed=15, attrs=4)
    params = TreeParams(min_size=300, max_depth=2)
    rows = exhaustive_contexts(d, params, DIFF)
    assert all(support >= 300 for _, support, _ in rows)
    assert all(len(preds) <= 2 for preds, _, _ in rows)
    assert rows[0][0] == ()


def test_registered_metrics_match_per_view_guidance():
    # the tree scores every part of a split from one grouped count; each
    # registered context must carry the metric of its own re-selected view
    rng = np.random.default_rng(17)
    n = 3000
    x = rng.integers(0, 3, n)
    age = rng.uniform(0, 100, n)
    s = rng.integers(0, 2, n)
    p = np.where((x == 1) & (age > 50), np.where(s == 1, 0.8, 0.3), 0.5)
    u = rng.normal(size=n)
    schema = [AttributeSchema("x", "categorical", "contextual", ("0", "1", "2")),
              AttributeSchema("age", "continuous", "contextual"),
              AttributeSchema("s", "categorical", "protected", ("0", "1")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("u", "continuous", "protected"),
              AttributeSchema("v", "continuous", "output")]
    d = Dataset(schema, {"x": x.astype(np.int32), "age": age, "s": s.astype(np.int32),
                         "o": (rng.random(n) < p).astype(np.int32),
                         "u": u, "v": np.where(x == 1, 1.0, np.where(x == 2, -1.0, 0.0)) * u
                         + rng.normal(size=n)})
    # a CORR root is scored by the same grouped moments as its children
    for name, protected, output in (("diff", "s", "o"), ("nmi", "s", "o"), ("corr", "u", "v")):
        metric = BoundMetric(MetricKind(name), protected, output).resolve(d)
        contexts = find_contexts(d, TreeParams(min_size=100, max_depth=3), metric)
        assert {p.attribute for c in contexts for p in c.predicates} == {"x", "age"}
        for c in contexts:
            tested = evaluate_metric(d.select(c.predicates), metric, StatConfig())
            assert c.train_metric == metric.guidance(tested.value.value)
