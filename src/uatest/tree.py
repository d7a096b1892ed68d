"""Association-guided decision-tree construction.

Starting from the full training population, the search recursively splits on
the contextual attribute whose partition has the highest mean association
between the protected attribute and the output, registering every visited
subpopulation of sufficient size as a candidate context. Candidates are
hypotheses only; their validation happens later on held-out test data.

A categorical attribute splits by value. A continuous or ordinal attribute
splits at each of its deduplicated within-node quantile thresholds. Every
candidate split of one attribute is scored from one count of the node's
rows. A categorical split is scored by one ``BoundMetric.group_values`` call
over the category codes. A scalar attribute's rows fall into bins between
its thresholds, each side of a threshold is a run of bins, and
``BoundMetric.threshold_values`` sums the per-bin contingency tables, or
merges the per-bin correlation moments, over each side (histogram split
finding, as in Chen and Guestrin, KDD 2016, Alg. 2). Row keys and
``Dataset`` views are built only for the parts of the winning split. A
registered context carries the metric of its own view, bit for bit: tables
are exact, and the correlations of a winning threshold split's parts are
taken again from its key by ``BoundMetric.group_values``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, ContextPredicate, DataError, Dataset
from .metrics import BoundMetric, MetricError

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
    """Bookkeeping for the search: how many context metric evaluations ran."""

    n_metric_evals: int = 0
    n_nodes: int = 0


@dataclass(frozen=True)
class Splits:
    """The candidate splits of a node on one contextual attribute, each row
    of the node in a bin: ``bins`` holds its bin, -1 for a missing value.

    A categorical attribute's bins are its category codes, and it has one
    split, with a part for each code in ``present``. A scalar attribute's
    bins lie between ``cuts``, its deduplicated within-node quantile
    thresholds: bin b holds the values v with cuts[b-1] < v <= cuts[b]. It
    has a binary split at each cut j in ``kept``, whose left part (``le``)
    holds bins 0..j and whose right part (``gt``) holds the rest.
    """

    attribute: str
    bins: np.ndarray
    present: np.ndarray | None = None
    categories: tuple[str, ...] = ()
    cuts: np.ndarray | None = None
    kept: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """The number of splits, and of parts in each."""
        return (1, len(self.present)) if self.cuts is None else (len(self.kept), 2)

    def part_values(self, view: Dataset, metric: BoundMetric) -> np.ndarray:
        """The base metric of every part of every split, an array of
        ``shape`` (NaN where undefined), from one count of the node's rows."""
        if self.cuts is None:
            return metric.group_values(view, self.bins, len(self.categories))[0][self.present][None]
        return metric.threshold_values(view, self.bins, len(self.cuts) + 1)[self.kept]

    def predicates(self, j: int) -> tuple[ContextPredicate, ...]:
        """The predicate of each part of split ``j``."""
        if self.cuts is None:
            return tuple(ContextPredicate(self.attribute, "in", values=(self.categories[c],))
                         for c in self.present)
        t = float(self.cuts[self.kept[j]])
        return (ContextPredicate(self.attribute, "le", threshold=t),
                ContextPredicate(self.attribute, "gt", threshold=t))

    def key(self, j: int) -> np.ndarray:
        """Each row's part in split ``j`` (-1 for a row in no part)."""
        if self.cuts is None:
            part_of = np.full(len(self.categories), -1)
            part_of[self.present] = np.arange(len(self.present))
        else:
            part_of = (np.arange(len(self.cuts) + 1) > self.kept[j]).astype(np.intp)
        return np.where(self.bins >= 0, part_of[self.bins], -1)


def candidate_splits(view: Dataset, attribute: str, params: TreeParams) -> Splits | None:
    """The candidate splits of ``view`` on one contextual attribute (see
    ``Splits``), or None if there are none. A scalar attribute's thresholds
    are up to ``params.quantile_splits`` quantiles of the node's values. A
    split with a part of fewer than 2 rows is dropped."""
    attr = view.attribute(attribute)
    if attr.kind == CATEGORICAL:
        bins = view.codes(attribute)
        sizes = np.bincount(bins[bins >= 0], minlength=len(attr.categories))
        present = np.flatnonzero(sizes)
        if len(present) < 2 or sizes[present].min() < 2:
            return None
        return Splits(attribute, bins, present=present, categories=attr.categories)

    values = view.scalar_values(attribute)
    missing = np.isnan(values)
    finite = values[~missing]
    if len(finite) < 4:
        return None
    q = params.quantile_splits
    # infinite values can give a NaN cut; it sorts above every value, so its
    # right part is empty and its split is dropped below
    with np.errstate(invalid="ignore"):
        cuts = np.unique(np.quantile(finite, [(i + 1) / (q + 1) for i in range(q)]))
    # v <= cuts[j] exactly when searchsorted puts v in a bin b <= j
    bins = np.where(missing, -1, np.searchsorted(cuts, values))
    left = np.cumsum(np.bincount(bins[~missing], minlength=len(cuts) + 1))[:-1]
    kept = np.flatnonzero((left >= 2) & (len(finite) - left >= 2))
    if len(kept) == 0:
        return None
    return Splits(attribute, bins, cuts=cuts, kept=kept)


def _part_value(part: Dataset, metric: BoundMetric) -> float:
    try:
        return metric.guidance(part)
    except MetricError:
        return math.nan


def find_contexts(train: Dataset, params: TreeParams, metric: BoundMetric,
                  contextual: list[str] | None = None,
                  stats: TreeStats | None = None) -> list[ContextNode]:
    """Grow the guided tree on the training set and return all registered
    contexts in deterministic depth-first order (root first).

    At each node every candidate split of every contextual attribute is
    scored; a split is eligible only if some part beats the node's own
    association, and the recursion descends into every part of the best
    split only when that split's mean score beats the node. Ties go to the
    earlier attribute, then to the lower threshold. Contexts are registered
    when they hold at least ``params.min_size`` training rows; the root is
    always registered.
    """
    if contextual is None:
        contextual = [a.name for a in train.schema if a.role == "contextual"]
    metric = metric.resolve(train)
    stats = stats if stats is not None else TreeStats()
    registered: list[ContextNode] = []

    def guidance(values: np.ndarray) -> np.ndarray:
        return np.abs(values) if metric.kind.signed else values

    def recurse(view: Dataset, predicates: tuple[ContextPredicate, ...], value: float) -> None:
        stats.n_nodes += 1
        if not predicates and math.isnan(value):
            raise MetricError(f"{metric.kind.display} undefined on the {view.n_rows} training rows "
                              f"of protected attribute {metric.protected!r} and output "
                              f"{metric.output!r}")
        if not predicates or view.n_rows >= params.min_size:
            registered.append(ContextNode(predicates, view.n_rows, value))
        if view.n_rows < params.min_size:
            return
        if len(predicates) >= params.max_depth or math.isnan(value):
            return

        best_score, best = -math.inf, None
        for attr in contextual:
            splits = candidate_splits(view, attr, params)
            if splits is None:
                continue
            stats.n_metric_evals += math.prod(splits.shape)
            part_values = guidance(splits.part_values(view, metric))
            zeroed = np.where(np.isnan(part_values), 0.0, part_values)
            # a split is eligible only if some part beats the node
            scores = np.where((zeroed > value).any(axis=1), zeroed.mean(axis=1), -math.inf)
            j = int(np.argmax(scores))  # the first best: the lowest threshold
            if scores[j] > best_score:
                best_score, best = float(scores[j]), (splits, j, part_values[j])
        if best is None or best_score <= value:
            return
        splits, j, part_values = best
        key = splits.key(j)
        if splits.cuts is not None and not metric.tabular:
            # merged moments can miss the correlation of a part's own rows
            # in the last digits, so take it from them
            part_values = guidance(metric.group_values(view, key, 2)[0])
        for i, pred in enumerate(splits.predicates(j)):
            recurse(view._subset(np.flatnonzero(key == i)), predicates + (pred,),
                    float(part_values[i]))

    stats.n_metric_evals += 1
    recurse(train, (), _part_value(train, metric))
    return registered


def exhaustive_contexts(train: Dataset, params: TreeParams, metric: BoundMetric,
                        contextual: list[str] | None = None
                        ) -> list[tuple[tuple[ContextPredicate, ...], int, float]]:
    """Brute-force baseline: every conjunction of single-category predicates
    over categorical contextual attributes, up to ``max_depth`` clauses and
    with at least ``min_size`` supporting rows.

    Returns (predicates, support, association) triples, the unguided-search
    analog of the tree's candidate set. Continuous attributes are rejected;
    the unguided strategy requires discretized features.
    """
    if contextual is None:
        contextual = [a.name for a in train.schema if a.role == "contextual"]
    for name in contextual:
        if train.attribute(name).kind != CATEGORICAL:
            raise MetricError(f"exhaustive enumeration requires categorical attributes, got {name!r}")
    metric = metric.resolve(train)
    results: list[tuple[tuple[ContextPredicate, ...], int, float]] = []

    def descend(start: int, rows: np.ndarray, preds: tuple[ContextPredicate, ...]) -> None:
        sub = train._subset(rows)
        results.append((preds, len(rows), _part_value(sub, metric)))
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
