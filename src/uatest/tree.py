"""Association-guided decision-tree construction.

Starting from the full training population, the search splits each node on
the contextual attribute whose partition has the highest mean association
between the protected attribute and the output, registering every visited
subpopulation of sufficient size as a candidate context. Candidates are
hypotheses only; their validation happens later on held-out test data.

A categorical attribute splits by value. A continuous or ordinal attribute
splits at each of its deduplicated within-node quantile thresholds.

The tree grows one level at a time, as SLIQ does (Mehta, Agrawal and
Rissanen, EDBT 1996). A level is a row key that maps each training row to
its node of the level, and each contextual attribute scores every
candidate split of every node of the level from one keyed count of the
rows (``MetricCounts``). A categorical attribute counts (node, category)
groups and scores each node's split by ``MetricCounts.group_values``. A
scalar attribute's defined rows are sorted by value once per tree; each
level regroups them by node with one stable sort of the key, so each
node's values are a sorted run from which its cuts are read, bit-equal to
``np.quantile``. The rows fall into bins between their node's cuts, each
side of a cut is a run of bins, and ``MetricCounts.threshold_values`` sums
the per-bin contingency tables, or merges the per-bin correlation moments,
over each side (histogram split finding, as in Chen and Guestrin, KDD 2016,
Alg. 2). No ``Dataset`` view is built for a node: the next level's key
comes from the winning splits' predicates by ``Dataset.layer_key``, the
rule that validation applies to the test rows. A registered context
carries the metric of its own view, bit for bit: tables are exact, and for
CORR every child's correlation is taken from that key of the children by
``MetricCounts.group_values``. Every association, here and in the unguided
``exhaustive_contexts``, is the ``BoundMetric.guidance`` of a value that a
``MetricCounts`` gave. The contexts come back in depth-first order, root first.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, ContextPredicate, DataError, Dataset
from .metrics import BoundMetric, MetricCounts, MetricError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TreeParams:
    """Search bounds: minimum context size, maximum depth, and the number of
    quantile-derived threshold candidates per continuous attribute."""

    min_size: int = 100
    max_depth: int = 5
    quantile_splits: int = 8

    def __post_init__(self) -> None:
        if self.min_size < 10:
            raise DataError(f"tree setting min_size must be at least 10, got {self.min_size}")
        if self.max_depth < 0:
            raise DataError(f"tree setting max_depth must be non-negative, got {self.max_depth}")
        if self.quantile_splits < 2:
            raise DataError(
                f"tree setting quantile_splits must be at least 2, got {self.quantile_splits}")


class ContextNode:
    """A registered context: the conjunction of predicates on the path from
    the root, its training size, and its training-set association. Its
    parent is the context whose predicates are these minus the last."""

    __slots__ = ("predicates", "n_train", "train_metric")

    def __init__(self, predicates: tuple[ContextPredicate, ...], n_train: int,
                 train_metric: float):
        self.predicates = predicates
        self.n_train = n_train
        self.train_metric = train_metric

    @property
    def depth(self) -> int:
        return len(self.predicates)

    def __repr__(self) -> str:
        desc = ", ".join(p.describe() for p in self.predicates) or "<root>"
        return f"ContextNode({desc!r}, n={self.n_train}, metric={self.train_metric:.4f})"


@dataclass
class TreeStats:
    """Bookkeeping for the search: how many levels were scored, how many
    nodes were visited and how many context metric evaluations ran."""

    n_metric_evals: int = 0
    n_nodes: int = 0
    n_levels: int = 0


Part = tuple[ContextPredicate, int, float]  # a split's part: predicate, size, association


class CategorySplits:
    """The split of the nodes of a level on a categorical attribute: a part
    for each category that a node holds. A split with a part of fewer than
    2 rows is dropped."""

    def __init__(self, train: Dataset, name: str):
        self.name = name
        self.categories = train.attribute(name).categories
        self.codes = train.codes(name)

    def score(self, key: np.ndarray, node_values: np.ndarray,
              counts: MetricCounts) -> np.ndarray | None:
        """The score of each node's split (-inf for none that is eligible),
        from one count of (node, category) groups; None if no node has a
        split. ``key`` maps each row to its node, -1 for none,
        ``node_values`` holds each node's own association, and a part's is
        the ``guidance`` of its value in ``counts``."""
        f, c = len(node_values), len(self.categories)
        if c < 2:
            return None
        cell = np.where((key >= 0) & (self.codes >= 0), key * c + self.codes, -1)
        sizes = np.bincount(cell[cell >= 0], minlength=f * c).reshape(f, c)
        present = sizes > 0
        parts = present.sum(axis=1)
        splits = (parts >= 2) & (np.where(present, sizes, 2).min(axis=1) >= 2)
        if not splits.any():
            return None
        self.sizes, self.present = sizes, present
        values = counts.group_values(cell, f * c)[0]
        self.part_values = counts.metric.guidance(values).reshape(f, c)
        self.evals = int(parts[splits].sum())
        scores = np.full(f, -math.inf)
        # nodes with k parts at a time: each mean sums a node's own parts, unpadded
        for k in np.unique(parts[splits]).tolist():
            nodes = np.flatnonzero(splits & (parts == k))
            scores[nodes] = _split_scores(
                self.part_values[nodes][present[nodes]].reshape(-1, k), node_values[nodes])
        return scores

    def parts(self, i: int) -> list[Part]:
        """The parts of node i's split."""
        return [(ContextPredicate(self.name, "in", values=(self.categories[code],)),
                 int(self.sizes[i, code]), float(self.part_values[i, code]))
                for code in np.flatnonzero(self.present[i]).tolist()]


class ThresholdSplits:
    """The binary splits of the nodes of a level on a scalar attribute, one
    at each cut of a node: the deduplicated ``quantile_splits`` quantiles of
    the node's defined values (NaN is missing; infinite values count). The
    left part holds the values at or below the cut, the right part those
    above it. A split with a part of fewer than 2 rows is dropped, as is
    every split of a node with fewer than 4 defined values.

    The defined rows are sorted by value once; tied values fall in one bin,
    so their order does not matter. Each level keeps the rows still in a
    node and regroups them by node with one stable sort of the key, so every
    node's values form a run in the order of the first sort; a node's cuts
    are read from its run as ``np.quantile`` (method ``linear``) reads them
    from its sorted values, so they are bit-equal. One search of all cuts in
    the runs finds where each cut ends a bin of its node's run."""

    def __init__(self, train: Dataset, name: str, quantile_splits: int):
        self.name = name
        self.values = train.scalar_values(name)
        self.order = np.argsort(self.values)[:int((~np.isnan(self.values)).sum())]
        self.sorted_values = self.values[self.order]
        self.rank = np.empty(len(self.values), dtype=np.int64)  # each defined row's place in it
        self.rank[self.order] = np.arange(len(self.order))
        q = quantile_splits
        self.probs = np.array([(i + 1) / (q + 1) for i in range(q)])
        # np.quantile's partition may leave -0.0 and 0.0 in either order, which
        # sets the sign of a zero cut; where both occur, zero cuts come from it
        signs = np.signbit(self.values[self.values == 0])
        self.signed_zeros = bool(signs.any() and not signs.all())

    def score(self, key: np.ndarray, node_values: np.ndarray,
              counts: MetricCounts) -> np.ndarray | None:
        """The score of each node's best split (-inf for none that is
        eligible), from one count of (node, bin) groups; None if no node has
        a split. Arguments as for ``CategorySplits.score``."""
        f = len(node_values)
        node = key[self.order]
        live = node >= 0
        self.order, node = self.order[live], node[live]  # a row in no node stays in none
        by_node = np.argsort(node.astype(np.min_scalar_type(f)), kind="stable")
        rows, node = self.order[by_node], node[by_node]
        n = np.bincount(node, minlength=f)
        self.index = np.full(f, -1)  # each node's row in the per-node arrays below
        has = np.flatnonzero(n >= 4)
        if len(has) == 0:
            return None
        self.index[has] = np.arange(len(has))
        self.n = n[has]
        start = (np.cumsum(n) - n)[has]
        self.cuts, k = self._cuts(rows, start, self.n)
        self.n_cuts = k
        # the runs are sorted by (node, place in the first sort), so one
        # search of each cut's (node, place of the first value above it)
        # finds how many of the node's values lie at or below it; a NaN cut
        # has all of them
        self.cut_first = np.cumsum(k) - k  # each node's first cut
        cut_node = np.repeat(np.arange(len(has)), k)
        cut = np.arange(len(cut_node)) - self.cut_first[cut_node]
        n_all = len(self.rank)
        above = np.searchsorted(self.sorted_values, self.cuts[cut_node, cut], side="right")
        ends = np.searchsorted(node * n_all + self.rank[rows], has[cut_node] * n_all + above)
        self.left = ends - start[cut_node]
        # each node's bins, the runs between its cut ends, number its rows
        n_bins = k + 1
        first = np.cumsum(n_bins) - n_bins  # each node's first bin
        upper = np.insert(ends, np.cumsum(k), start + self.n)
        lower = np.empty_like(upper)
        lower[1:] = upper[:-1]
        lower[first] = start
        inside = self.index[node] >= 0
        bin_key = np.full(len(key), -1)
        bin_key[rows[inside]] = np.repeat(np.arange(len(upper)), upper - lower)
        self.kept = kept = np.flatnonzero((self.left >= 2) & (self.n[cut_node] - self.left >= 2))
        if len(kept) == 0:
            return None
        self.part_values = counts.metric.guidance(counts.threshold_values(bin_key, n_bins))
        self.evals = 2 * len(kept)
        scores = np.full(self.cuts.shape, -math.inf)
        scores[cut_node[kept], cut[kept]] = _split_scores(
            self.part_values[kept], node_values[has][cut_node[kept]])
        self.best = np.argmax(scores, axis=1)  # the first best: the lowest cut
        out = np.full(f, -math.inf)
        out[has] = scores[np.arange(len(has)), self.best]
        return out

    def _cuts(self, rows: np.ndarray, start: np.ndarray,
              n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each node's deduplicated cuts in ascending order, NaN last and as
        padding, and their number: ``np.unique(np.quantile(...))`` of the
        values of the node's run ``rows[start:start + n]``."""
        virtual = (n - 1)[:, None] * self.probs
        below = np.floor(virtual)  # never the last value: every prob is below 1
        lo = start[:, None] + below.astype(np.intp)
        a, b, t = self.values[rows[lo]], self.values[rows[lo + 1]], virtual - below
        # numpy's _lerp; two infinite values give a NaN cut, which sorts above
        # every value, so its right part is empty and its split is dropped
        with np.errstate(invalid="ignore"):
            cuts = np.sort(np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t), axis=1)
        repeat = np.zeros(cuts.shape, dtype=bool)
        repeat[:, 1:] = (cuts[:, 1:] == cuts[:, :-1]) | np.isnan(cuts[:, 1:]) & np.isnan(cuts[:, :-1])
        k = (~repeat).sum(axis=1)
        cuts = np.take_along_axis(cuts, np.argsort(repeat, axis=1, kind="stable"), axis=1)
        cuts[np.arange(cuts.shape[1]) >= k[:, None]] = np.nan
        if self.signed_zeros:
            for h in np.flatnonzero((cuts == 0).any(axis=1)).tolist():
                node_rows = np.sort(rows[start[h]:start[h] + n[h]])
                with np.errstate(invalid="ignore"):
                    cuts[h, :k[h]] = np.unique(np.quantile(self.values[node_rows], self.probs))
        return cuts, k

    def parts(self, i: int) -> list[Part]:
        """The parts of node i's best split."""
        h = self.index[i]
        j = self.best[h]
        c = self.cut_first[h] + j
        t = float(self.cuts[h, j])
        left = int(self.left[c])
        return [(ContextPredicate(self.name, "le", threshold=t), left,
                 float(self.part_values[c, 0])),
                (ContextPredicate(self.name, "gt", threshold=t), int(self.n[h]) - left,
                 float(self.part_values[c, 1]))]


def _split_scores(part_values: np.ndarray, node_values: np.ndarray) -> np.ndarray:
    """The score of each split, a row of ``part_values``: the mean of its
    parts (an undefined part counts 0) if some part beats its node's
    association in ``node_values``, else -inf."""
    zeroed = np.where(np.isnan(part_values), 0.0, part_values)
    return np.where((zeroed > node_values[:, None]).any(axis=1), zeroed.mean(axis=1), -math.inf)


def find_contexts(train: Dataset, params: TreeParams, metric: BoundMetric,
                  contextual: list[str] | None = None,
                  stats: TreeStats | None = None) -> list[ContextNode]:
    """Grow the guided tree on the training set and return all registered
    contexts in deterministic depth-first order (root first).

    Every candidate split of every contextual attribute is scored at every
    node; a split is eligible only if some part beats the node's own
    association, and the node splits into every part of its best split only
    when that split's mean score beats the node. Ties go to the earlier
    attribute, then to the lower threshold. A node splits only if it holds
    at least ``params.min_size`` training rows, lies above
    ``params.max_depth`` and has a defined association. Contexts are
    registered when they hold at least ``params.min_size`` training rows;
    the root is always registered. The nodes of one depth are scored
    together, one level at a time, and each level's row key is the last
    one advanced by its children's predicates (``Dataset.layer_key``). The
    association is the metric's base (unconditional) metric, at the root
    as in every part, from one ``MetricCounts`` of the training rows; for
    CORR, the children's correlations are counted again from their key.
    """
    if contextual is None:
        contextual = [a.name for a in train.schema if a.role == "contextual"]
    stats = stats if stats is not None else TreeStats()
    counts = metric.counts(train)

    def grows(node: ContextNode) -> bool:
        return (node.n_train >= params.min_size and node.depth < params.max_depth
                and not math.isnan(node.train_metric))

    key = np.zeros(train.n_rows, dtype=np.intp)  # each row's node of the level, -1 for none
    (root_value,), _ = counts.group_values(key, 1)
    root = ContextNode((), train.n_rows, float(counts.metric.guidance(root_value)))
    stats.n_metric_evals += 1
    stats.n_nodes += 1
    if math.isnan(root.train_metric):
        raise MetricError(f"{metric.kind.display} undefined on the {train.n_rows} training rows "
                          f"of protected attribute {metric.protected!r} and output "
                          f"{metric.output!r}{counts.infinite_note(key == 0)}")
    attributes = [CategorySplits(train, name) if train.attribute(name).kind == CATEGORICAL
                  else ThresholdSplits(train, name, params.quantile_splits)
                  for name in contextual]
    nodes, children = [root], [[]]
    frontier = [0] if grows(root) else []
    while frontier:
        stats.n_levels += 1
        node_values = np.array([nodes[i].train_metric for i in frontier])
        best_score = np.full(len(frontier), -math.inf)
        best = np.full(len(frontier), -1)
        for a, attr in enumerate(attributes):
            scores = attr.score(key, node_values, counts)
            if scores is None:
                continue
            stats.n_metric_evals += attr.evals
            better = scores > best_score
            best_score[better], best[better] = scores[better], a
        split = np.flatnonzero(best_score > node_values)
        parts = [(i, *part) for i in split.tolist() for part in attributes[best[i]].parts(i)]
        parents, preds = [part[0] for part in parts], [part[1] for part in parts]
        child = None  # each row's child, -1 for none
        if parts and not metric.tabular:
            # merged moments can miss the correlation of a part's own rows in
            # the last digits, so every child's is taken from its rows
            child = train.layer_key(key, parents, preds)
            values = counts.metric.guidance(counts.group_values(child, len(parts))[0]).tolist()
            parts = [(i, pred, n, value) for (i, pred, n, _), value in zip(parts, values)]

        next_of: list[int] = []  # each child's node of the next level, -1 for none
        next_frontier: list[int] = []
        for i, pred, n_rows, value in parts:
            parent = frontier[i]
            node = ContextNode(nodes[parent].predicates + (pred,), n_rows, value)
            children[parent].append(len(nodes))
            next_of.append(len(next_frontier) if grows(node) else -1)
            if grows(node):
                next_frontier.append(len(nodes))
            nodes.append(node)
            children.append([])
        stats.n_nodes += len(next_of)
        if next_frontier:
            if child is None:
                child = train.layer_key(key, parents, preds)
            key = np.where(child >= 0, np.array(next_of)[child], -1)
        frontier = next_frontier

    registered, stack = [], [0]
    while stack:
        i = stack.pop()
        if i == 0 or nodes[i].n_train >= params.min_size:
            registered.append(nodes[i])
        stack.extend(reversed(children[i]))
    return registered


def exhaustive_contexts(train: Dataset, params: TreeParams, metric: BoundMetric,
                        contextual: list[str] | None = None
                        ) -> list[tuple[tuple[ContextPredicate, ...], int, float]]:
    """Brute-force baseline: every conjunction of single-category predicates
    over categorical contextual attributes, up to ``max_depth`` clauses and
    with at least ``min_size`` supporting rows.

    Returns (predicates, support, association) triples, the unguided-search
    analog of the tree's candidate set. The association is the base metric's
    ``guidance``, as in ``find_contexts`` (NaN where undefined), read from one
    ``MetricCounts`` of the training rows by a key of the itemset's rows.
    Continuous attributes are rejected; the unguided strategy requires
    discretized features.
    """
    if contextual is None:
        contextual = [a.name for a in train.schema if a.role == "contextual"]
    for name in contextual:
        if train.attribute(name).kind != CATEGORICAL:
            raise MetricError(f"exhaustive enumeration requires categorical attributes, got {name!r}")
    counts = metric.counts(train)
    codes = [train.codes(name) for name in contextual]
    results: list[tuple[tuple[ContextPredicate, ...], int, float]] = []

    def descend(start: int, rows: np.ndarray, preds: tuple[ContextPredicate, ...]) -> None:
        key = np.full(train.n_rows, -1, dtype=np.intp)
        key[rows] = 0
        (value,), _ = counts.group_values(key, 1)
        results.append((preds, len(rows), float(counts.metric.guidance(value))))
        if len(preds) >= params.max_depth:
            return
        for ai in range(start, len(contextual)):
            row_codes = codes[ai][rows]
            for code, cat in enumerate(train.attribute(contextual[ai]).categories):
                keep = rows[row_codes == code]
                if len(keep) < params.min_size:
                    continue
                descend(ai + 1, keep, preds + (ContextPredicate(contextual[ai], "in", values=(cat,)),))

    descend(0, np.arange(train.n_rows), ())
    return results
