"""Association-guided decision-tree construction.

Starting from the full training population, the search recursively splits on
the contextual attribute whose partition has the highest mean association
between the protected attribute and the output, registering every visited
subpopulation of sufficient size as a candidate context. Candidates are
hypotheses only; their validation happens later on held-out test data.

A candidate split is a row-to-part key over the node's rows. Every part of a
split is scored at once by ``BoundMetric.group_values`` (one bincount of
per-part contingency tables, or per-part correlation moments); ``Dataset``
views are built only for the parts of the winning split.
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
class Partition:
    """One candidate split: per-part predicates and, for each row of the
    split view, the index of its part (-1 for a row in no part)."""

    attribute: str
    predicates: tuple[ContextPredicate, ...]
    key: np.ndarray
    threshold: float | None = None


def enumerate_splits(view: Dataset, attribute: str, params: TreeParams) -> list[Partition]:
    """Candidate partitions of ``view`` on one contextual attribute.

    Categorical attributes yield the single partition by value; scalar ones
    yield one binary partition per deduplicated within-node quantile
    threshold. A partition containing a part with fewer than 2 rows is
    disqualified.
    """
    attr = view.attribute(attribute)
    if attr.kind == CATEGORICAL:
        codes = view.codes(attribute)
        sizes = np.bincount(codes[codes >= 0], minlength=len(attr.categories))
        present = np.flatnonzero(sizes)
        if len(present) < 2 or sizes[present].min() < 2:
            return []
        part_of = np.full(len(attr.categories), -1)
        part_of[present] = np.arange(len(present))
        preds = tuple(ContextPredicate(attribute, "in", values=(attr.categories[code],))
                      for code in present)
        return [Partition(attribute, preds, np.where(codes >= 0, part_of[codes], -1))]

    values = view.scalar_values(attribute)
    finite = values[~np.isnan(values)]
    if len(finite) < 4:
        return []
    q = params.quantile_splits
    probs = [(i + 1) / (q + 1) for i in range(q)]
    thresholds = np.unique(np.quantile(finite, probs))
    out = []
    for t in thresholds:
        left = values <= t
        right = values > t
        if left.sum() < 2 or right.sum() < 2:
            continue
        out.append(Partition(
            attribute,
            (ContextPredicate(attribute, "le", threshold=float(t)),
             ContextPredicate(attribute, "gt", threshold=float(t))),
            np.where(left, 0, np.where(right, 1, -1)),
            threshold=float(t),
        ))
    return out


def _part_value(part: Dataset, metric: BoundMetric) -> float:
    try:
        return metric.guidance(part)
    except MetricError:
        return math.nan


def find_contexts(train: Dataset, protected: str, output: str, params: TreeParams,
                  metric: BoundMetric, contextual: list[str] | None = None,
                  stats: TreeStats | None = None) -> list[ContextNode]:
    """Grow the guided tree on the training set and return all registered
    contexts in deterministic depth-first order (root first).

    At each node every contextual attribute's partitions are scored; a
    partition is eligible only if some part beats the node's own
    association, and the recursion descends into every part of the best
    split only when that split's mean score beats the node. Contexts are
    registered when they hold at least ``params.min_size`` training rows;
    the root is always registered.
    """
    if contextual is None:
        contextual = [a.name for a in train.schema if a.role == "contextual"]
    metric = metric.resolve(train)
    stats = stats if stats is not None else TreeStats()
    registered: list[ContextNode] = []

    def evaluate(view: Dataset, partition: Partition) -> np.ndarray:
        """Guidance value of every part (NaN where undefined)."""
        stats.n_metric_evals += len(partition.predicates)
        values, _ = metric.group_values(view, partition.key, len(partition.predicates))
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

        best_key = None
        best_parts = None
        for attr_idx, attr in enumerate(contextual):
            for partition in enumerate_splits(view, attr, params):
                part_values = evaluate(view, partition)
                zeroed = np.where(np.isnan(part_values), 0.0, part_values)
                if not (zeroed > value).any():
                    continue  # ineligible split scores 0 and can never win
                score = float(np.mean(zeroed))
                thr = partition.threshold if partition.threshold is not None else -math.inf
                key = (-score, attr_idx, thr)
                if best_key is None or key < best_key:
                    best_key = key
                    best_parts = (partition, part_values)
        if best_key is None or -best_key[0] <= value:
            return
        partition, part_values = best_parts
        for i, pred in enumerate(partition.predicates):
            part = view._subset(np.flatnonzero(partition.key == i))
            recurse(part, predicates + (pred,), float(part_values[i]))

    stats.n_metric_evals += 1
    recurse(train, (), _part_value(train, metric))
    return registered


def exhaustive_contexts(train: Dataset, protected: str, output: str, params: TreeParams,
                        metric: BoundMetric, contextual: list[str] | None = None
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
