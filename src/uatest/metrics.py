"""Canonical association metrics over contingency tables and scalar columns.

Every stage evaluates a metric through ``BoundMetric``: a metric kind bound
to its protected and output attributes. On a view it is a ``MetricCounts``,
the one home of the metric's reads of the view and the only source of its
values: it counts tables by any row key (one bincount, one table per row
group) and scores stacks of them with the vectorized kernels
(``mi_from_tables``, ``diff_from_tables``, ``ratio_from_tables``), or
correlations from per-group moments. A bound metric is the size-weighted
mean of its base metric over strata: the categories of an explanatory
attribute, or a single stratum when it is unconditional.
``MetricCounts.stratum_key`` keys the strata and ``stratum_mean`` applies
the stratum rule, for every caller, here only. ``BoundMetric.guidance`` is
the tree search's rule, applied to values that ``MetricCounts`` gave.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, ORDINAL, Dataset

logger = logging.getLogger(__name__)

DIFF = "diff"
RATIO = "ratio"
NMI = "nmi"
CORR = "corr"
METRIC_NAMES = (DIFF, RATIO, NMI, CORR)

MIN_STRATUM = 10


class MetricError(Exception):
    """A metric's preconditions do not hold on the given data."""


@dataclass(frozen=True)
class MetricKind:
    """A metric name plus the explanatory attribute it is conditioned on, if any."""

    name: str
    explanatory: str | None = None

    def __post_init__(self) -> None:
        if self.name not in METRIC_NAMES:
            raise MetricError(f"unknown metric {self.name!r}")

    @property
    def display(self) -> str:
        base = self.name.upper()
        return f"COND-{base}" if self.explanatory else base

    @property
    def signed(self) -> bool:
        return self.name in (DIFF, RATIO, CORR)


@dataclass(frozen=True)
class MetricValue:
    kind: MetricKind
    value: float


def joint_counts(view: Dataset, names: Sequence[str], key: np.ndarray | None = None,
                 groups: int = 0) -> np.ndarray:
    """Counts of every combination of categories of ``names``, one int64 axis
    per attribute in schema category order, from a single bincount. Rows
    with a missing value in any of the attributes are not counted.

    With ``key`` (one group index per row, -1 for a row in no group) the
    counts gain a leading axis of ``groups`` groups: one table per group.
    """
    return keyed_counts(*cell_codes(view, names), key, groups)


def cell_codes(view: Dataset, names: Sequence[str]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Each row's cell of the joint table of ``names`` (row-major, one axis
    per attribute in schema category order), -1 for a row with a missing
    value in any of them, and the table's shape. A caller that counts the
    same rows by many keys gathers the columns once, here."""
    attrs = [view.attribute(name) for name in names]
    for attr in attrs:
        if attr.kind not in (CATEGORICAL, ORDINAL):
            raise MetricError(f"contingency requires categorical attributes, got {attr.kind} {attr.name!r}")
    shape = tuple(len(attr.categories) for attr in attrs)
    cells = np.zeros(view.n_rows, dtype=np.int64)
    ok = np.ones(view.n_rows, dtype=bool)
    for name, size in zip(names, shape):
        c = view.codes(name)
        ok &= c >= 0
        cells = cells * size + c
    return np.where(ok, cells, -1), shape


def keyed_counts(cells: np.ndarray, shape: tuple[int, ...], key: np.ndarray | None = None,
                 groups: int = 0) -> np.ndarray:
    """The table of shape ``shape`` counted from ``cell_codes``, from a single
    bincount; with ``key`` (-1 for a row in no group), one table for each
    of ``groups`` groups, on a leading axis."""
    size = math.prod(shape)
    ok = cells >= 0
    flat = cells
    if key is not None:
        ok = ok & (key >= 0)
        flat = key.astype(np.int64) * size + cells
        size *= groups
        shape = (groups,) + shape
    # a row in no cell is counted in one extra cell, then dropped
    return np.bincount(np.where(ok, flat, size), minlength=size + 1)[:size].reshape(shape)


# -- vectorized table statistics --------------------------------------------
#
# Each helper maps a stack of tables with shape (..., r, c) to values with
# shape (...); NaN marks tables where the metric is undefined.


def mi_from_tables(tables: np.ndarray, normalized: bool) -> np.ndarray:
    t = np.asarray(tables, dtype=np.float64)
    n = t.sum(axis=(-2, -1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = t / n
        pr = p.sum(axis=-1, keepdims=True)
        pc = p.sum(axis=-2, keepdims=True)
        terms = np.where(p > 0, p * np.log(p / (pr * pc)), 0.0)
        mi = terms.sum(axis=(-2, -1))
        hr = -np.where(pr > 0, pr * np.log(pr), 0.0).sum(axis=(-2, -1))
        hc = -np.where(pc > 0, pc * np.log(pc), 0.0).sum(axis=(-2, -1))
        out = mi / np.minimum(hr, hc) if normalized else mi
    live_rows = (t.sum(axis=-1) > 0).sum(axis=-1)
    live_cols = (t.sum(axis=-2) > 0).sum(axis=-1)
    bad = (live_rows < 2) | (live_cols < 2) | (n[..., 0, 0] == 0)
    return np.where(bad, np.nan, out)


def two_groups(tables: np.ndarray, row: int, a: int, b: int) -> tuple[np.ndarray, ...]:
    """Each table's counts of ``row`` in columns ``a`` and ``b``, and the two
    columns' totals, as floats."""
    t = np.asarray(tables, dtype=np.float64)
    return t[..., row, a], t[..., row, b], t[..., a].sum(axis=-1), t[..., b].sum(axis=-1)


def diff_from_tables(tables: np.ndarray, target_row: int, col_a: int, col_b: int) -> np.ndarray:
    xa, xb, na, nb = two_groups(tables, target_row, col_a, col_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xa / na - xb / nb
    return np.where((na == 0) | (nb == 0), np.nan, out)


def ratio_from_tables(tables: np.ndarray, target_row: int, col_a: int, col_b: int) -> np.ndarray:
    xa, xb, na, nb = two_groups(tables, target_row, col_a, col_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (xa / na) / (xb / nb) - 1.0
    return np.where((na == 0) | (nb == 0) | (xb == 0), np.nan, out)


def grouped_correlation(x: np.ndarray, y: np.ndarray, key: np.ndarray,
                        groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of ``x`` and ``y`` within each of ``groups`` groups
    of ``key``, and the group sizes. Moments are taken about each group's
    mean; NaN marks groups of fewer than 3 rows or with a constant column."""
    moments = grouped_moments(x, y, key, groups)
    return moment_correlation(moments), moments[0]


def grouped_moments(x: np.ndarray, y: np.ndarray, key: np.ndarray,
                    groups: int) -> tuple[np.ndarray, ...]:
    """Paired moments of each of ``groups`` groups of ``key``: the row count,
    the sums of ``x`` and ``y``, and the sums of squares and of products of
    their deviations from the group's own means."""
    sizes = np.bincount(key, minlength=groups)
    sum_x = np.bincount(key, x, groups)
    sum_y = np.bincount(key, y, groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        dx = x - (sum_x / sizes)[key]
        dy = y - (sum_y / sizes)[key]
    return (sizes, sum_x, sum_y, np.bincount(key, dx * dx, groups),
            np.bincount(key, dy * dy, groups), np.bincount(key, dx * dy, groups))


def merged_moments(moments: tuple[np.ndarray, ...], members: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``grouped_moments`` of unions of groups, for each of many nodes:
    ``moments`` hold one row of groups per node, and ``members[..., g]``
    (bool) marks the unions that hold group g. Results have shape
    (nodes,) + ``members.shape[:-1]``. Each group's deviations are shifted
    to the union's own mean (the pairwise update of Chan, Golub and
    LeVeque, 1979), never taken from raw-moment sums, so a union of one
    group keeps that group's moments exactly. Every sum runs over a node's
    own groups, so a node's results do not depend on the other nodes."""
    lead = (slice(None),) + (None,) * (members.ndim - 1)
    sizes, sum_x, sum_y, sxx, syy, sxy = (m[lead] for m in moments)

    def total(v: np.ndarray) -> np.ndarray:
        return np.where(members, v, 0).sum(axis=-1)

    n, sx, sy = total(sizes), total(sum_x), total(sum_y)
    with np.errstate(invalid="ignore", divide="ignore"):
        # each group's mean less the union's; an empty group's term is 0
        mean_x = np.divide(sum_x, sizes, out=np.zeros(sizes.shape), where=sizes > 0)
        mean_y = np.divide(sum_y, sizes, out=np.zeros(sizes.shape), where=sizes > 0)
        ex = mean_x - (sx / n)[..., None]
        ey = mean_y - (sy / n)[..., None]
        return (n, sx, sy, total(sxx) + total(sizes * ex * ex),
                total(syy) + total(sizes * ey * ey), total(sxy) + total(sizes * ex * ey))


def moment_correlation(moments: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pearson correlation from ``grouped_moments``; NaN for fewer than 3 rows
    or a constant column."""
    sizes, _, _, sxx, syy, sxy = moments
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    return np.where((sizes >= 3) & (sxx > 0) & (syy > 0), r, np.nan)


# -- strata ----------------------------------------------------------------------
#
# A metric is the size-weighted mean of its base metric over strata: the
# categories of an explanatory attribute, or one stratum of all rows for an
# unconditional metric. The helpers work over the last (stratum) axis of
# stacks of per-stratum values and sizes.


def weighted_mean(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum over k of (w_k / W) * v_k over the last axis, with W the sum of the
    weights, taken stratum by stratum from the first stratum's term. So one
    stratum of positive weight gives its value bit-exactly, and the same
    strata give bit-equal results whatever the leading (resample) axes.
    NaN where W is zero or a stratum of positive weight has a NaN value."""
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = weights / weights.sum(axis=-1, keepdims=True)
        out = shares[..., 0] * vals[..., 0]
        for k in range(1, vals.shape[-1]):
            out = out + shares[..., k] * vals[..., k]
    return out


def stratum_weights(vals: np.ndarray, sizes: np.ndarray, floor: int) -> np.ndarray:
    """Each stratum's weight in the aggregate: its size if it holds at least
    ``floor`` rows and a defined value, else 0."""
    return np.where((sizes >= floor) & ~np.isnan(vals), sizes, 0)


def stratum_mean(vals: np.ndarray, sizes: np.ndarray, floor: int) -> np.ndarray:
    """The aggregate over the last axis: the weighted mean of the strata that
    ``stratum_weights`` keeps (NaN if it keeps none)."""
    weights = stratum_weights(vals, sizes, floor)
    return weighted_mean(np.where(weights > 0, vals, 0.0), weights)


# -- regression label scoring -------------------------------------------------

# the ridge penalty, and the Newton iteration limit and step tolerance, of
# logistic_label_scores. Its fixed-curvature phase runs first and hands over
# to Newton once a step is below NEWTON_TOL / 10 or fails to shrink the last
# one by FIXED_STEP_RATIO. A fixed step costs about a twelfth of a Newton
# step's weighted Gram, so it pays only while it contracts fast; where it
# contracts slowly (probabilities far from 1/2, where p(1-p) <= 1/4 is a loose
# bound), Newton's quadratic convergence is cheaper. The Newton finish always
# runs, since its weighted Gram confirms convergence and gives the standard
# errors.
L2_PENALTY = 1e-3
MAX_NEWTON_ITER = 100
NEWTON_TOL = 1e-8
FIXED_STEP_RATIO = 0.7


@dataclass(frozen=True)
class RegressionScores:
    """Per-label logistic coefficients and rough standard errors."""

    labels: tuple[str, ...]
    coefficients: np.ndarray
    stderr: np.ndarray

    def scores(self) -> np.ndarray:
        """Ranking scores |coefficient| / stderr, one per label."""
        return np.abs(self.coefficients) / self.stderr

    def top_labels(self, k: int) -> tuple[str, ...]:
        order = np.argsort(-self.scores(), kind="stable")
        return tuple(self.labels[i] for i in order[:k])


def logistic_label_scores(indicators: np.ndarray, protected: np.ndarray,
                          labels: Sequence[str]) -> RegressionScores:
    """Fit Pr[S=1 | label indicators] with an L2-penalized logistic model.

    The ridge penalty (excluding the intercept) keeps every coefficient
    finite even under perfect separation. Scores |beta| / stderr rank the
    labels by association strength with the protected attribute.

    The fit runs in two phases from beta = 0. Since p(1-p) <= 1/4, the
    matrix B = X'X/4 + P bounds the curvature of the penalized likelihood
    (Boehning and Lindsay, Ann. Inst. Stat. Math. 40, 1988), so the
    fixed-curvature step beta += B^-1 grad raises the likelihood at the cost
    of two matrix-vector products; B is inverted once. These steps run while
    each shrinks the last by FIXED_STEP_RATIO, down to NEWTON_TOL / 10. Then
    damped Newton finishes the fit. Newton stays because the bound alone can
    converge arbitrarily slowly, where the fitted probabilities are far from
    1/2 (a rare protected value, or a separating label), and because its
    weighted Gram gives the standard errors: on a converged start its first
    step is below NEWTON_TOL, so one Gram both confirms the fit and gives
    the errors.
    """
    b = np.asarray(indicators, dtype=np.float64)
    y = np.asarray(protected, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != len(y):
        raise MetricError("indicator matrix must be (n_rows, n_labels)")
    if b.shape[1] != len(labels):
        raise MetricError("one label name per indicator column required")
    if not np.all((b == 0) | (b == 1)):
        raise MetricError("label indicators must be 0/1")
    uniq = np.unique(y)
    if not np.array_equal(uniq, [0.0, 1.0]):
        raise MetricError("protected column must be binary with both values present")

    n, d = b.shape
    x = np.hstack([np.ones((n, 1)), b])
    pen = np.full(d + 1, L2_PENALTY)
    pen[0] = 0.0
    ridge = np.diag(np.maximum(pen, 1e-10))
    beta = np.zeros(d + 1)

    def fitted(bt: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x @ bt, -30, 30)))

    bound_inv = np.linalg.inv(x.T @ x / 4 + ridge)
    fixed_steps = 0
    last = np.inf
    while True:
        step = bound_inv @ (x.T @ (y - fitted(beta)) - pen * beta)
        beta = beta + step
        fixed_steps += 1
        size = float(np.max(np.abs(step)))
        if size < NEWTON_TOL / 10 or not size <= FIXED_STEP_RATIO * last:
            break
        last = size

    def objective(bt: np.ndarray) -> float:
        eta = x @ bt
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return ll - 0.5 * float(np.sum(pen * bt * bt))

    obj = objective(beta)
    hess = np.eye(d + 1)
    newton_steps = 0
    for _ in range(MAX_NEWTON_ITER):
        newton_steps += 1
        p = fitted(beta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        grad = x.T @ (y - p) - pen * beta
        hess = (x.T * w) @ x + ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(30):  # damped Newton: never accept a worse penalized likelihood
            cand = beta + scale * step
            cand_obj = objective(cand)
            if cand_obj >= obj - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        obj = objective(beta)
        if np.max(np.abs(scale * step)) < NEWTON_TOL:
            break
    logger.debug("label scoring over %d rows and %d labels: %d fixed-curvature steps, "
                 "%d Newton steps", n, d, fixed_steps, newton_steps)

    cov = np.linalg.inv(hess)
    se = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
    return RegressionScores(labels=tuple(labels), coefficients=beta[1:].copy(),
                            stderr=se[1:].copy())


# -- bound metrics and conditioning -------------------------------------------


@dataclass(frozen=True)
class BoundMetric:
    """A metric kind bound to concrete protected/output attributes.

    Binding fixes the orientation of signed metrics: ``target`` is the output
    category whose probability is compared, between ``group_a`` and
    ``group_b`` of the protected attribute. The tree search and the
    statistical tests both evaluate metrics through this object.
    """

    kind: MetricKind
    protected: str
    output: str
    target: str | None = None
    group_a: str | None = None
    group_b: str | None = None

    @property
    def tabular(self) -> bool:
        return self.kind.name in (DIFF, RATIO, NMI)

    @property
    def conditional(self) -> bool:
        return self.kind.explanatory is not None

    def resolve(self, view: Dataset) -> "BoundMetric":
        """Fill default orientation from the schema's category order, after
        checking that ``view``'s attributes suit the metric: the explanatory
        attribute of a conditional metric must be categorical or ordinal.

        Defaults: compare the last output category between the first and the
        last protected category, matching a (negative, positive) reading of
        binary columns.
        """
        if self.conditional and view.attribute(self.kind.explanatory).kind == CONTINUOUS:
            raise MetricError(f"explanatory attribute {self.kind.explanatory!r} is continuous; "
                              "conditioning needs a categorical or ordinal attribute")
        if self.kind.name in (DIFF, RATIO):
            p = view.attribute(self.protected)
            o = view.attribute(self.output)
            for attr, role in ((p, "protected"), (o, "output")):
                if attr.kind != CATEGORICAL or len(attr.categories or ()) != 2:
                    raise MetricError(
                        f"{self.kind.display} requires a binary categorical {role} "
                        f"attribute, got {attr.name!r}"
                    )
            return BoundMetric(
                self.kind, self.protected, self.output,
                target=self.target if self.target is not None else o.categories[-1],
                group_a=self.group_a if self.group_a is not None else p.categories[0],
                group_b=self.group_b if self.group_b is not None else p.categories[-1],
            )
        if self.kind.name == NMI:
            for name, role in ((self.protected, "protected"), (self.output, "output")):
                attr = view.attribute(name)
                if attr.kind == CONTINUOUS:
                    raise MetricError(f"NMI requires a categorical {role} attribute, got {name!r}")
                if len(attr.categories or ()) < 2:
                    raise MetricError(f"no variation: attribute {name!r} has fewer than 2 categories")
            return self
        for name, role in ((self.protected, "protected"), (self.output, "output")):  # CORR
            if not view.attribute(name).is_scalar:
                raise MetricError(f"CORR requires a scalar {role} attribute, got {name!r}")
        return self

    @property
    def min_stratum(self) -> int:
        """Fewest rows a stratum needs to enter the aggregate: MIN_STRATUM for
        an explanatory stratum, 1 for the one stratum of an unconditional
        metric."""
        return MIN_STRATUM if self.conditional else 1

    def counts(self, view: Dataset) -> MetricCounts:
        """This metric on ``view``: its summaries and values of any row key."""
        return MetricCounts(self, view)

    def guidance(self, values: np.ndarray) -> np.ndarray:
        """The tree-search score of metric values: |value| for a signed
        metric, so that opposing disparities in sibling parts cannot cancel."""
        return np.abs(values) if self.kind.signed else values

    def unconditional(self) -> "BoundMetric":
        return BoundMetric(MetricKind(self.kind.name), self.protected, self.output,
                           self.target, self.group_a, self.group_b)

    def conditioned_on(self, explanatory: str) -> "BoundMetric":
        return BoundMetric(MetricKind(self.kind.name, explanatory), self.protected,
                           self.output, self.target, self.group_a, self.group_b)


class MetricCounts:
    """A bound metric, resolved, on one view, whose columns it reads once:
    each row's cell of a table metric's (output, protected) table, or CORR's
    columns and the rows where both are defined; DIFF's and RATIO's
    orientation (the ``two_groups`` of ``values``); a conditional metric's
    explanatory codes. So every tree level and validation layer counts its
    key, and reads its values, without reading the view again. Per-group
    sums add a group's rows in row order, so every value is bit-equal to
    the one taken on the group's own rows."""

    def __init__(self, metric: BoundMetric, view: Dataset):
        self.metric = metric = metric.resolve(view)
        if metric.tabular:
            self.cells, self.shape = cell_codes(view, (metric.output, metric.protected))
        else:
            self.x = view.scalar_values(metric.protected)
            self.y = view.scalar_values(metric.output)
            self.paired = ~(np.isnan(self.x) | np.isnan(self.y))
        if metric.kind.name in (DIFF, RATIO):
            o, p = (view.attribute(name).categories for name in (metric.output, metric.protected))
            self.orientation = (o.index(metric.target), p.index(metric.group_a),
                                p.index(metric.group_b))
        if metric.conditional:
            e = metric.kind.explanatory
            self.strata, self.n_strata = view.codes(e), len(view.attribute(e).categories)

    def unconditional(self) -> "MetricCounts":
        """The same gathered columns, read with the base metric."""
        base = object.__new__(MetricCounts)
        base.__dict__.update(self.__dict__, metric=self.metric.unconditional())
        return base

    def stratum_key(self, key: np.ndarray) -> tuple[np.ndarray, int]:
        """Each row's (group, stratum) member and the number of strata per
        group, for groups keyed by ``key`` (-1 for a row in none): member
        g * groups + code holds the rows of group g whose explanatory code
        is ``code``, -1 where either is missing, for a conditional metric;
        ``key`` itself and one stratum for an unconditional one."""
        if not self.metric.conditional:
            return key, 1
        return (np.where((key >= 0) & (self.strata >= 0), key * self.n_strata + self.strata, -1),
                self.n_strata)

    def undefined(self, sizes: np.ndarray, rows: np.ndarray) -> MetricError:
        """Why ``stratum_mean`` keeps no stratum of the population of
        ``rows`` (a mask of the view's rows), whose strata have ``sizes``."""
        m, e = self.metric, self.metric.kind.explanatory
        if not m.conditional:
            why = f"{m.kind.display} undefined on this population"
        elif (sizes >= m.min_stratum).any():
            why = (f"{m.unconditional().kind.display} undefined in every stratum of "
                   f"explanatory attribute {e!r} with at least {m.min_stratum} rows")
        else:
            why = f"every stratum of explanatory attribute {e!r} has fewer than {m.min_stratum} rows"
        return MetricError(why + self.infinite_note(rows))

    def infinite_note(self, rows: np.ndarray) -> str:
        """A note naming each CORR column that is infinite in rows of ``rows``
        (a mask of the view's rows) where both columns are defined, which
        leaves CORR undefined, and in how many; "" if none is."""
        m = self.metric
        return "" if m.tabular else "".join(
            f": column {name!r} holds an infinite value in {k} of these rows"
            for name, v in zip((m.protected, m.output), (self.x, self.y))
            if (k := int((np.isinf(v) & rows & self.paired).sum())))

    def values(self, summary: np.ndarray | tuple[np.ndarray, ...]) -> np.ndarray:
        """The base metric of each group of a ``summary``, or of each table of
        a stack of tables; NaN where undefined."""
        name = self.metric.kind.name
        if name == NMI:
            return mi_from_tables(summary, normalized=True)
        if name == CORR:
            return moment_correlation(summary)
        kernel = diff_from_tables if name == DIFF else ratio_from_tables
        return kernel(summary, *self.orientation)

    def summary(self, key: np.ndarray, groups: int) -> np.ndarray | tuple[np.ndarray, ...]:
        """Per-group tables (``keyed_counts``) of a table metric, or per-group
        ``grouped_moments`` of CORR, over the rows ``key`` puts in a group."""
        if self.metric.tabular:
            return keyed_counts(self.cells, self.shape, key, groups)
        ok = (key >= 0) & self.paired
        return grouped_moments(self.x[ok], self.y[ok], key[ok], groups)

    def group_values(self, key: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
        """Base (unconditional) metric on each of ``groups`` row groups, where
        ``key`` holds each row's group (-1 for none), with the number of rows
        counted in each group; NaN where the metric is undefined. Tables
        come from one bincount, correlations from per-group moments."""
        summary = self.summary(key, groups)
        return self.values(summary), (summary.sum(axis=(-2, -1)) if self.metric.tabular
                                      else summary[0])

    def threshold_values(self, key: np.ndarray, n_bins: np.ndarray) -> np.ndarray:
        """Base (unconditional) metric on both sides of every threshold of many
        nodes, from one count. Node i has ``n_bins[i]`` ordered bins, numbered
        on from the bins of the nodes before it; ``key`` holds each row's bin
        (-1 for none), and threshold j of a node has the node's bins 0..j on
        its left. Values have shape (sum(n_bins - 1), 2), node by node and
        threshold by threshold; NaN where undefined.

        A left table is the cumulative sum of the node's bin tables and a
        right table the node's total less the left, so both are exact.
        Moments are merged per side (``merged_moments``), nodes of one bin
        count at a time, so that each sum runs over the node's own bins; a
        correlation can differ from the side's ``group_values`` in the last
        digits."""
        summary = self.summary(key, int(n_bins.sum()))
        first = np.cumsum(n_bins) - n_bins  # each node's first bin
        cuts = n_bins - 1
        node = np.repeat(np.arange(len(n_bins)), cuts)
        cut_first = np.cumsum(cuts) - cuts  # each node's first threshold
        last_left = first[node] + np.arange(len(node)) - cut_first[node]
        if self.metric.tabular:
            total = np.cumsum(summary, axis=0)
            before = total[first] - summary[first]
            left = total[last_left] - before[node]
            right = (total[first + cuts] - before)[node] - left
            return self.values(np.stack([left, right], axis=1))
        out = np.empty((len(node), 2))
        for b in np.unique(n_bins).tolist():
            nodes = np.flatnonzero(n_bins == b)
            bins = first[nodes][:, None] + np.arange(b)
            in_left = np.arange(b) <= np.arange(b - 1)[:, None]
            merged = merged_moments(tuple(m[bins] for m in summary),
                                    np.stack([in_left, ~in_left], axis=1))
            out[(cut_first[nodes][:, None] + np.arange(b - 1)).ravel()] = (
                self.values(merged).reshape(-1, 2))
        return out
