"""The three investigation primitives and their train/validate/report pipeline.

Testing checks a suspected association between one or more protected
attributes and an output. Discovery ranks a large label space by regression
scores and tests the strongest labels individually. ErrorProfiling derives a
per-row error quantity from predictions and ground truth and tests that
instead of the raw output.

Candidate contexts come from the guided tree on training data; every
reported statistic is computed on held-out test rows, corrected as one
family per investigation. Validation builds no view per context: the
contexts of a unit fall into layers of disjoint contexts, one per tree
depth, and a layer's key maps each test row to its context. A key is
derived from the parent layer's key by ``Dataset.layer_key``, the rule by
which the tree advanced its own keys on the training rows, and one count
per layer gives every context's tables. Permutation p-values, bootstrap
CIs and displays are computed on first read, so only the hypotheses a
report shows or ranks, or whose corrected p depends on them, pay for them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from .dataset import (
    CATEGORICAL,
    CONTINUOUS,
    AttributeSchema,
    ContextPredicate,
    DataError,
    Dataset,
    DataSource,
)
from .metrics import (
    CORR,
    DIFF,
    NMI,
    BoundMetric,
    MetricCounts,
    MetricError,
    MetricKind,
    joint_counts,
    logistic_label_scores,
)
from .stats import (  # noqa: F401 -- bench/tracer.py times test_metric through this module
    StatConfig,
    StatsError,
    TestedMetric,
    apply_corrections,
    test_contexts,
    test_metric,
)
from .tree import ContextNode, TreeParams, TreeStats, find_contexts

logger = logging.getLogger(__name__)

TESTING = "testing"
DISCOVERY = "discovery"
ERROR_PROFILING = "error_profiling"

ABSOLUTE = "absolute"
ZERO_ONE = "zero_one"
ERROR_KINDS = (ABSOLUTE, ZERO_ONE)

_VALIDATE_STREAM = 1


@dataclass(frozen=True)
class InvestigationSpec:
    """What to investigate: attribute roles, metric, and search/stat knobs.
    Each kind has a subclass, which adds the settings only that kind reads."""

    kind: ClassVar[str]
    protected: tuple[str, ...]
    output: str | tuple[str, ...]
    contextual: tuple[str, ...] = ()
    explanatory: str | None = None
    metric: str | None = None
    tree: TreeParams = field(default_factory=TreeParams)
    stats: StatConfig = field(default_factory=StatConfig)

    def __post_init__(self) -> None:
        protected = (self.protected,) if isinstance(self.protected, str) else self.protected
        object.__setattr__(self, "protected", tuple(protected))
        if not self.protected:
            raise DataError("an investigation needs at least one protected attribute")
        if isinstance(self.output, (list, tuple)):
            object.__setattr__(self, "output", tuple(self.output))
        object.__setattr__(self, "contextual", tuple(self.contextual))
        if self.kind == DISCOVERY:
            if not isinstance(self.output, tuple) or len(self.output) < 1:
                raise DataError("discovery requires a tuple of label indicator columns as output")
        elif isinstance(self.output, tuple) and len(self.output) == 1:
            object.__setattr__(self, "output", self.output[0])  # one output, given as a sequence
        elif not isinstance(self.output, str):
            raise DataError(f"{self.kind} takes exactly one output attribute, got {self.output!r}")
        self._check_roles()

    def _roles(self) -> list[tuple[str, str]]:
        """(attribute, role) of every attribute named for a role other than
        contextual: protected, output (label, for discovery), explanatory."""
        outputs = self.output if isinstance(self.output, tuple) else (self.output,)
        roles = ([(p, "protected") for p in self.protected]
                 + [(o, "label" if self.kind == DISCOVERY else "output") for o in outputs])
        return (roles + [(self.explanatory, "explanatory")]) if self.explanatory else roles

    def _check_roles(self) -> None:
        """Each attribute plays at most one role, and is named at most once as
        protected or as a label; contextual attributes are unrestricted."""
        seen: dict[str, str] = {}
        for name, role in self._roles():
            if name in seen:
                both = (f"twice as {role}" if seen[name] == role
                        else f"as both {seen[name]} and {role}")
                raise DataError(f"attribute {name!r} is named {both}")
            seen[name] = role

    def used_attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys([*self.protected, *self.contextual,
                                    *(name for name, _ in self._roles())]))


@dataclass(frozen=True)
class TestingSpec(InvestigationSpec):
    """Test a suspected association of the protected attributes with one output."""

    kind: ClassVar[str] = TESTING
    __test__ = False  # not a pytest class, despite the name


@dataclass(frozen=True)
class DiscoverySpec(InvestigationSpec):
    """Test the ``top_k`` labels of ``output`` that score highest per protected attribute."""

    kind: ClassVar[str] = DISCOVERY
    top_k: int = 35

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise DataError("top_k must be at least 1")
        if self.metric not in (None, DIFF):
            raise DataError(f"discovery tests DIFF only, but the metric is set to "
                            f"{self.metric!r}")
        super().__post_init__()


@dataclass(frozen=True, kw_only=True)
class ErrorProfilingSpec(InvestigationSpec):
    """Test the per-row ``error_kind`` error of the predictions ``output`` on ``ground_truth``."""

    kind: ClassVar[str] = ERROR_PROFILING
    ground_truth: str
    error_kind: str = ABSOLUTE

    def __post_init__(self) -> None:
        if self.error_kind not in ERROR_KINDS:
            raise DataError(f"unknown error kind {self.error_kind!r}")
        super().__post_init__()

    def _roles(self) -> list[tuple[str, str]]:
        return super()._roles() + [(self.ground_truth, "ground truth")]

    def used_attributes(self) -> tuple[str, ...]:
        """The named attributes and the derived error column: a row whose error
        is undefined (a prediction and truth both infinite) misses a value."""
        return super().used_attributes() + (_output_display(self),)


def compute_error(predictions: np.ndarray, truth: np.ndarray, kind: str) -> np.ndarray:
    """Per-row error of predictions against ground truth.

    ``absolute`` takes |prediction - truth| of float arrays (NaN missing).
    ``zero_one`` compares category codes of one shared coding (-1 missing)
    and returns int32 codes into ("0", "1"), 1 marking a mismatch. A missing
    value on either side yields a missing error.
    """
    if len(predictions) != len(truth):
        raise DataError("prediction and truth columns must have equal length")
    if kind == ABSOLUTE:
        with np.errstate(invalid="ignore"):  # inf - inf: an undefined, missing error
            return np.abs(predictions - truth)
    if kind == ZERO_ONE:
        codes = (predictions != truth).astype(np.int32)
        codes[(predictions < 0) | (truth < 0)] = -1
        return codes
    raise DataError(f"unknown error kind {kind!r}")


def _attach_error(view: Dataset, spec: ErrorProfilingSpec) -> Dataset:
    pred_attr = view.attribute(spec.output)
    truth_attr = view.attribute(spec.ground_truth)
    name = _output_display(spec)
    absolute = spec.error_kind == ABSOLUTE
    unfit = [f"{role} {a.name!r} is {a.kind}"
             for role, a in (("prediction", pred_attr), ("truth", truth_attr))
             if (not a.is_scalar if absolute else a.kind != CATEGORICAL)]
    if unfit:
        need = "scalar (continuous or ordinal)" if absolute else "categorical"
        raise DataError(f"{spec.error_kind} error requires {need} prediction and truth "
                        f"columns, but {' and '.join(unfit)}")
    if absolute:
        values = compute_error(view.scalar_values(spec.output),
                               view.scalar_values(spec.ground_truth), ABSOLUTE)
        attr = AttributeSchema(name, CONTINUOUS, "output")
    else:
        # truth codes recoded into the prediction's categories; an unshared category never matches
        index = {c: i for i, c in enumerate(pred_attr.categories or ())}
        recode = np.array([index.get(c, len(index)) for c in truth_attr.categories or ()] + [-1])
        values = compute_error(view.codes(spec.output), recode[view.codes(spec.ground_truth)],
                               ZERO_ONE)
        attr = AttributeSchema(name, CATEGORICAL, "output", categories=("0", "1"))
    return view.with_encoded(attr, values)


def select_metric(view: Dataset, protected: str, output: str,
                  spec: InvestigationSpec) -> BoundMetric:
    """Metric choice by data type: DIFF for binary pairs, NMI for broader
    categorical pairs, CORR for scalar pairs; explicit overrides win."""
    name = spec.metric
    if name is None:
        p = view.attribute(protected)
        o = view.attribute(output)
        if p.kind == CATEGORICAL and o.kind == CATEGORICAL:
            binary = len(p.categories or ()) == 2 and len(o.categories or ()) == 2
            name = DIFF if binary else NMI
        elif p.is_scalar and o.is_scalar:
            name = CORR
        else:
            # no metric pairs a categorical with a continuous column
            continuous = [repr(a.name) for a in (p, o) if a.kind == CONTINUOUS]
            if spec.kind == ERROR_PROFILING and o.kind == CONTINUOUS:
                # the absolute error is derived, so no schema can pin it
                hint = ("profile a scalar protected attribute (CORR), or the categorical "
                        "error with --error zero_one")
            elif continuous:
                hint = f"pin {' and '.join(continuous)} as categorical with --schema"
            else:
                hint = "pass an explicit metric"
            raise MetricError(
                f"no canonical metric for protected {protected!r} ({p.kind}) vs output "
                f"{output!r} ({o.kind}); {hint}"
            )
    return BoundMetric(MetricKind(name, spec.explanatory), protected, output).resolve(view)


@dataclass
class TrainUnit:
    """One protected attribute (and, for discovery, one label) with its
    metric, which names both attributes, and trained candidate contexts."""

    bound: BoundMetric
    contexts: list[ContextNode]
    tree_stats: TreeStats


@dataclass
class TrainedInvestigation:
    spec: InvestigationSpec
    units: list[TrainUnit]
    train_size: int
    dropped_train: int


def _output_display(spec: InvestigationSpec) -> str:
    if spec.kind == DISCOVERY:
        return "Labels"
    if spec.kind == ERROR_PROFILING:
        tag = "Abs. Error" if spec.error_kind == ABSOLUTE else "0/1 Error"
        return f"{tag}({spec.output})"
    return spec.output


def _drop_missing(view: Dataset, spec: InvestigationSpec, which: str) -> Dataset:
    """``view`` without rows that miss a value the spec uses; a DataError
    naming the columns without any value when no row is left."""
    cleaned = view.drop_missing(spec.used_attributes())
    if cleaned.n_rows == 0:
        empty = [name for name in spec.used_attributes()
                 if view.drop_missing((name,)).n_rows == 0]
        cause = (f"column(s) {', '.join(map(repr, empty))} have no values" if empty else
                 f"every row misses a value in one of {list(spec.used_attributes())}")
        raise DataError(f"no {which} rows left after dropping missing values: {cause}")
    return cleaned


def _dropped_note(view: Dataset, spec: InvestigationSpec, dropped: int, which: str) -> str:
    """Why a metric may be undefined on so few rows: the rows dropped for missing values."""
    missing = [repr(name) for name in spec.used_attributes()
               if view.drop_missing((name,)).n_rows < view.n_rows]
    return (f" (after dropping {dropped} of {view.n_rows} {which} rows with missing values "
            f"in {', '.join(missing)})")


def train(spec: InvestigationSpec, train_view: Dataset) -> TrainedInvestigation:
    """Derive candidate contexts on the training set for every protected
    attribute (and each top-ranked label, for discovery)."""
    output_col: str | tuple[str, ...] = spec.output
    if spec.kind == ERROR_PROFILING:
        train_view = _attach_error(train_view, spec)
        output_col = _output_display(spec)
    cleaned = _drop_missing(train_view, spec, "training")
    dropped = train_view.n_rows - cleaned.n_rows
    if dropped:
        logger.info("dropped %d training rows with missing values", dropped)

    contextual = list(spec.contextual)
    units: list[TrainUnit] = []
    try:
        for s in spec.protected:
            if spec.kind == DISCOVERY:
                units.extend(_train_discovery_units(spec, cleaned, s, contextual))
            else:
                bound = select_metric(cleaned, s, output_col, spec)
                units.append(_grow_tree(spec, cleaned, bound, contextual))
    except MetricError as exc:
        if not dropped:
            raise
        raise DataError(f"{exc}{_dropped_note(train_view, spec, dropped, 'training')}") from None
    return TrainedInvestigation(spec, units, cleaned.n_rows, dropped)


def _train_discovery_units(spec: DiscoverySpec, cleaned: Dataset, s: str,
                           contextual: list[str]) -> list[TrainUnit]:
    p_attr = cleaned.attribute(s)
    if p_attr.kind != CATEGORICAL or len(p_attr.categories or ()) != 2:
        raise DataError(f"discovery requires a binary protected attribute, got {s!r}")
    absent = [c for c, n in zip(p_attr.categories, np.bincount(cleaned.codes(s), minlength=2))
              if n == 0]
    if absent:  # a MetricError, so that train names the columns whose missing values caused it
        raise MetricError(f"discovery needs both values of protected attribute {s!r} in the "
                          f"training rows, but none has {absent[0]!r}")
    labels = list(spec.output)
    indicators = np.empty((cleaned.n_rows, len(labels)))
    for j, name in enumerate(labels):
        attr = cleaned.attribute(name)
        if attr.kind != CATEGORICAL or len(attr.categories or ()) != 2:
            raise DataError(f"discovery label column {name!r} must be binary categorical")
        indicators[:, j] = cleaned.codes(name) == len(attr.categories) - 1
    # a bad explanatory attribute fails before any label is scored
    BoundMetric(MetricKind(DIFF, spec.explanatory), s, labels[0]).resolve(cleaned)
    y = cleaned.codes(s) == len(p_attr.categories) - 1
    scores = logistic_label_scores(indicators, y.astype(float), labels)
    top = scores.top_labels(spec.top_k)
    logger.info("discovery on %s: testing top %d of %d labels", s, len(top), len(labels))

    return [_grow_tree(spec, cleaned,
                       BoundMetric(MetricKind(DIFF, spec.explanatory), s, label).resolve(cleaned),
                       contextual) for label in top]


def _grow_tree(spec: InvestigationSpec, cleaned: Dataset, bound: BoundMetric,
               contextual: list[str]) -> TrainUnit:
    """The unit of ``bound``, its contexts found on the raw (unconditional)
    metric; logs what the search did."""
    stats = TreeStats()
    contexts = find_contexts(cleaned, spec.tree, bound.unconditional(), contextual=contextual,
                             stats=stats)
    logger.info("tree for protected %r and %s %r: %d levels, %d nodes, %d metric evaluations, "
                "%d contexts registered", bound.protected,
                "label" if spec.kind == DISCOVERY else "output", bound.output, stats.n_levels,
                stats.n_nodes, stats.n_metric_evals, len(contexts))
    return TrainUnit(bound, contexts, stats)


# -- findings and validation ---------------------------------------------------


@dataclass(frozen=True)
class TableDisplay:
    """Contingency counts kept for report rendering."""

    row_attr: str
    col_attr: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DecileRow:
    lo: float
    hi: float
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class DecileDisplay:
    """Five-number summaries of the output per protected-attribute decile,
    the text stand-in for a scatter plot."""

    protected: str
    output: str
    rows: tuple[DecileRow, ...]


class _Display:
    """The ``display`` field of a finding: the value given to the
    constructor, or else built on first read by the finding's ``_source``
    and then kept."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        if obj._display is None and obj._source is not None:
            obj._display = obj._source()
            obj._source = None
        return obj._display

    def __set__(self, obj, value) -> None:
        obj._display = value


@dataclass
class StratumFinding:
    """Per-explanatory-stratum test attached to a conditional finding."""

    value: str
    size: int
    metric: str
    tested: TestedMetric | None
    note: str | None = None
    display: TableDisplay | DecileDisplay | None = _Display()
    _source: Callable[[], TableDisplay | DecileDisplay] | None = field(
        default=None, compare=False, repr=False)


@dataclass
class Finding:
    """One tested (context, protected attribute, output) hypothesis."""

    protected: str
    output: str
    label: str | None
    predicates: tuple[ContextPredicate, ...]
    size: int
    metric: str
    tested: TestedMetric
    display: TableDisplay | DecileDisplay | None = _Display()
    strata: tuple[StratumFinding, ...] = ()
    is_global: bool = False
    rank: int | None = None
    _source: Callable[[], TableDisplay | DecileDisplay] | None = field(
        default=None, compare=False, repr=False)

    def strength(self) -> float:
        """Ranking key: the corrected-CI bound nearest zero, signed metrics
        taken by magnitude. Intervals straddling zero have strength 0."""
        lo, hi = self.tested.corrected_ci
        if not self.tested.value.kind.signed:
            return max(0.0, lo)
        if lo > 0:
            return lo
        if hi < 0:
            return -hi
        return 0.0


@dataclass
class ValidationResult:
    spec: InvestigationSpec
    findings: list[Finding]
    family_size: int
    train_size: int
    test_size: int
    dropped_train: int
    dropped_test: int
    dropped_contexts: int


def _make_display(view: Dataset, predicates: tuple[ContextPredicate, ...],
                  bound: BoundMetric) -> TableDisplay | DecileDisplay:
    """The display of the rows of ``view`` in the context ``predicates``."""
    view = view.select(predicates)
    if bound.kind.name == CORR:
        return _decile_summary(view, bound)
    counts = joint_counts(view, (bound.output, bound.protected))
    return TableDisplay(
        row_attr=bound.output,
        col_attr=bound.protected,
        row_labels=view.attribute(bound.output).categories,
        col_labels=view.attribute(bound.protected).categories,
        counts=tuple(tuple(int(x) for x in row) for row in counts),
    )


def _decile_summary(view: Dataset, bound: BoundMetric) -> DecileDisplay:
    s = view.scalar_values(bound.protected)
    o = view.scalar_values(bound.output)
    ok = ~(np.isnan(s) | np.isnan(o))
    s, o = s[ok], o[ok]
    edges = np.unique(np.quantile(s, np.linspace(0.0, 1.0, 11)))
    rows = []
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        mask = (s >= lo) & (s <= hi) if i == len(edges) - 2 else (s >= lo) & (s < hi)
        vals = o[mask]
        if len(vals) == 0:
            continue
        q = np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
        rows.append(DecileRow(float(lo), float(hi), int(len(vals)),
                              *(float(v) for v in q)))
    return DecileDisplay(bound.protected, bound.output, tuple(rows))


# -- context layers --------------------------------------------------------------


@dataclass
class _Layer:
    """Disjoint contexts of the test rows: member j holds the rows of member
    ``parents[j]`` of layer ``parent`` that satisfy ``preds[j]``."""

    parent: int
    parents: list[int] = field(default_factory=list)
    preds: list[ContextPredicate | None] = field(default_factory=list)


def _disjoint(p: ContextPredicate, q: ContextPredicate) -> bool:
    """Whether no row can satisfy both predicates; False where unsure."""
    if p.attribute != q.attribute:
        return False
    if p.op == q.op == "in":
        return set(p.values).isdisjoint(q.values)
    if {p.op, q.op} == {"le", "gt"}:
        le, gt = (p, q) if p.op == "le" else (q, p)
        return le.threshold <= gt.threshold
    return False


def _context_layers(contexts: list[tuple[ContextPredicate, ...]]
                    ) -> tuple[list[_Layer], list[tuple[int, int]]]:
    """Layers holding every predicate prefix of ``contexts`` once, and each
    context's (layer, member). Layer 0 holds the root. A prefix joins the
    first layer under its parent's layer in which it is disjoint from every
    sibling (a prefix of the same parent), else opens a new one. So the parts
    of a tree split share a layer, and a tree has a layer per depth."""
    layers = [_Layer(-1, [-1], [None])]
    place = [(0, 0)]  # each prefix's (layer, member); prefix 0 is the root
    prefix_of: dict[tuple[int, ContextPredicate], int] = {}  # by (parent prefix, last predicate)
    under: dict[int, list[int]] = {}  # the layers whose parent layer is the key
    siblings: dict[tuple[int, int], list[ContextPredicate]] = {}  # by (layer, parent member)
    where = []
    for preds in contexts:
        node = 0
        for pred in preds:
            child = prefix_of.get((node, pred))
            if child is None:
                parent, member = place[node]
                for li in under.setdefault(parent, []):
                    if all(_disjoint(pred, q) for q in siblings.get((li, member), ())):
                        break
                else:
                    li = len(layers)
                    layers.append(_Layer(parent))
                    under[parent].append(li)
                siblings.setdefault((li, member), []).append(pred)
                child = prefix_of[(node, pred)] = len(place)
                place.append((li, len(layers[li].preds)))
                layers[li].parents.append(member)
                layers[li].preds.append(pred)
            node = child
        where.append(place[node])
    return layers, where


def _layer_keys(view: Dataset, layers: list[_Layer]) -> list[np.ndarray]:
    """Each layer's key: every row's member, -1 for a row in none, from its
    parent layer's key by ``Dataset.layer_key``."""
    keys = [np.zeros(view.n_rows, dtype=np.intp)]
    for layer in layers[1:]:
        keys.append(view.layer_key(keys[layer.parent], layer.parents, layer.preds))
    return keys


# -- validation ----------------------------------------------------------------


def validate(trained: TrainedInvestigation, test_view: Dataset) -> ValidationResult:
    """Test every candidate context on held-out test rows, and correct the
    whole family of hypotheses together.

    Each unit's contexts are placed in layers of disjoint contexts
    (``_context_layers``), one layer per tree depth. A layer's key maps each
    test row to the context that holds it, or -1; ``Dataset.layer_key``
    builds it from the parent layer's key and each context's last
    predicate, as the tree built its levels, so no context view is built.
    One ``test_contexts`` per layer tests all of its contexts from one
    count of the rows, and for a conditional metric one more tests their
    strata (``_test_layer``). Non-global contexts with fewer than min_size/2 test
    rows are dropped. The i-th context that keeps enough rows, testable or
    not, draws its RNG stream from the master seed and
    ``(_VALIDATE_STREAM, i)``. A finding's display is built on first
    read, from ``Dataset.select`` of its predicates.
    """
    spec = trained.spec
    if spec.kind == ERROR_PROFILING:
        test_view = _attach_error(test_view, spec)
    cleaned = _drop_missing(test_view, spec, "test")
    dropped_test = test_view.n_rows - cleaned.n_rows
    if dropped_test:
        logger.info("dropped %d test rows with missing values", dropped_test)
    # a misconfigured metric fails before any test runs; each unit's columns
    # are gathered once, for all of its layers
    counts = [unit.bound.counts(cleaned) for unit in trained.units]

    min_test = spec.tree.min_size // 2
    detail = logger.isEnabledFor(logging.DEBUG)
    findings: list[Finding] = []
    too_small = untestable = streams = 0
    for unit, unit_counts in zip(trained.units, counts):
        layers, where = _context_layers([node.predicates for node in unit.contexts])
        keys = _layer_keys(cleaned, layers)
        sizes = [np.bincount(key + 1, minlength=len(layer.preds) + 1)[1:]
                 for key, layer in zip(keys, layers)]
        batches: list[list[tuple[int, int, tuple[int, int]]]] = [[] for _ in layers]
        for pos, (node, (li, j)) in enumerate(zip(unit.contexts, where)):
            if node.depth > 0 and sizes[li][j] < min_test:
                too_small += 1
                if detail:
                    logger.debug("dropped context %s: only %d test rows",
                                 [p.describe() for p in node.predicates], sizes[li][j])
                continue
            batches[li].append((pos, j, (_VALIDATE_STREAM, streams)))
            streams += 1
        results: dict[int, Finding | MetricError] = {}
        for key, size, batch in zip(keys, sizes, batches):
            if batch:
                results.update(_test_layer(unit, spec, cleaned, unit_counts, key, size, batch))
        for pos in sorted(results):
            node, found = unit.contexts[pos], results[pos]
            if isinstance(found, Finding):
                findings.append(found)
            elif node.depth == 0:
                raise _untestable_population(unit, spec, found, test_view, dropped_test)
            else:
                untestable += 1
                if detail:
                    logger.debug("context %s untestable: %s",
                                 [p.describe() for p in node.predicates], found)

    family: list[TestedMetric] = []
    for f in findings:
        family.append(f.tested)
        family.extend(sf.tested for sf in f.strata if sf.tested is not None)
    apply_corrections(family, spec.stats.conf)
    logger.info("validated %d contexts: %d tested, %d dropped with fewer than %d test rows, "
                "%d untestable; a family of %d hypotheses",
                sum(len(u.contexts) for u in trained.units), len(findings), too_small, min_test,
                untestable, len(family))
    return ValidationResult(
        spec=spec,
        findings=findings,
        family_size=len(family),
        train_size=trained.train_size,
        test_size=cleaned.n_rows,
        dropped_train=trained.dropped_train,
        dropped_test=dropped_test,
        dropped_contexts=too_small + untestable,
    )


def _untestable_population(unit: TrainUnit, spec: InvestigationSpec, exc: MetricError,
                           test_view: Dataset, dropped_test: int) -> DataError:
    """The error for a unit whose global population is untestable."""
    bound = unit.bound
    what = (f"label {bound.output!r}" if spec.kind == DISCOVERY
            else f"output {bound.output!r}")
    note = _dropped_note(test_view, spec, dropped_test, "test") if dropped_test else ""
    return DataError(f"global population untestable for protected attribute "
                     f"{bound.protected!r} and {what} on the test rows: {exc}{note}")


def _test_layer(unit: TrainUnit, spec: InvestigationSpec, cleaned: Dataset,
                counts: MetricCounts, key: np.ndarray, sizes: np.ndarray,
                batch: list[tuple[int, int, tuple[int, int]]]
                ) -> dict[int, Finding | MetricError]:
    """Test the contexts ``batch`` lists of one layer, by (position in
    ``unit.contexts``, member of the layer, entropy): a finding, or the
    MetricError of an untestable context, by position. ``counts`` is the
    unit metric on ``cleaned`` (``BoundMetric.counts``), and ``sizes`` the
    layer's row count of each member. A conditional finding lists the
    non-empty strata of its context in category order. One more
    ``test_contexts``, of ``counts.unconditional()``, tests every (context,
    stratum) member of ``MetricCounts.stratum_key`` with at least
    ``min_stratum`` rows, and these tests join the family; a smaller or
    untestable stratum gets the reason. The k-th stratum of a context of
    entropy e draws from e + (k,)."""
    bound = unit.bound
    ckey, groups = counts.stratum_key(key)
    tested = test_contexts(counts, ckey, [j for _, j, _ in batch], spec.stats,
                           [e for *_, e in batch])
    out: dict[int, Finding | MetricError] = {}
    plan = []  # (stratum finding, member of ckey, entropy, display) of each stratum to test
    if bound.conditional:
        base = counts.unconditional()
        rows = np.bincount(ckey + 1, minlength=len(sizes) * groups + 1)[1:].reshape(-1, groups)
        e = bound.kind.explanatory
        categories = cleaned.attribute(e).categories
    for (pos, j, entropy), t in zip(batch, tested):
        if isinstance(t, MetricError):
            out[pos] = t
            continue
        predicates = unit.contexts[pos].predicates
        strata = []
        if bound.conditional:
            for k, code in enumerate(np.flatnonzero(rows[j]).tolist()):
                sf = StratumFinding(categories[code], int(rows[j, code]),
                                    base.metric.kind.display, None)
                strata.append(sf)
                if sf.size < bound.min_stratum:
                    sf.note = "below minimum stratum size"
                else:
                    stratum = ContextPredicate(e, "in", values=(categories[code],))
                    plan.append((sf, j * groups + code, entropy + (k,),
                                 partial(_make_display, cleaned, predicates + (stratum,), bound)))
        out[pos] = Finding(
            protected=bound.protected,
            output=bound.output,
            label=bound.output if spec.kind == DISCOVERY else None,
            predicates=predicates,
            size=int(sizes[j]),
            metric=bound.kind.display,
            tested=t,
            strata=tuple(strata),
            is_global=not predicates,
            _source=partial(_make_display, cleaned, predicates, bound),
        )
    if plan:
        found, members, entropies, sources = zip(*plan)
        for sf, source, t in zip(found, sources, test_contexts(base, ckey, members, spec.stats,
                                                               entropies)):
            if isinstance(t, MetricError):
                sf.note = str(t)
            else:
                sf.tested, sf._source = t, source
    return out


# -- filtering, ranking, reports -------------------------------------------------


@dataclass
class ReportModel:
    """Everything a rendered report contains, per protected attribute."""

    kind: str
    protected: str
    output: str
    explanatory: str | None
    metric: str
    conf: float
    family_size: int
    train_size: int
    test_size: int
    dropped_train: int
    dropped_test: int
    global_finding: Finding | None
    findings: tuple[Finding, ...]


def filter_and_rank(result: ValidationResult) -> list[ReportModel]:
    """Keep corrected-significant contexts whose effect strictly exceeds every
    surviving ancestor's, ranked by corrected-CI strength; the global
    population always leads its report regardless of significance."""
    spec = result.spec
    alpha = 1.0 - spec.stats.conf
    reports = []
    for s in spec.protected:
        findings = [f for f in result.findings if f.protected == s]
        # discovery ranks each label's root population among its candidates
        global_finding = (None if spec.kind == DISCOVERY
                          else next((f for f in findings if f.is_global), None))
        candidates = [f for f in findings if f is not global_finding]

        significant = [f for f in candidates if f.tested.significant(alpha)]
        pool = list(significant)
        if global_finding is not None and global_finding.tested.significant(alpha):
            pool.append(global_finding)
        for f in pool:
            _draw_cis(f, strata=False)
        kept = []
        for f in significant:
            ancestors = [a for a in pool
                         if a is not f and a.label == f.label
                         and set(a.predicates) < set(f.predicates)]
            if all(f.strength() > a.strength() for a in ancestors):
                kept.append(f)
        kept.sort(key=lambda f: (-f.strength(), -f.size,
                                 tuple(p.describe() for p in f.predicates), f.label or ""))
        ranked = []
        for i, f in enumerate(kept):
            f.rank = i + 1
            ranked.append(f)
        for f in ([global_finding] if global_finding is not None else []) + ranked:
            _draw_cis(f, strata=True)
        reports.append(ReportModel(
            kind=spec.kind,
            protected=s,
            output=_output_display(spec),
            explanatory=spec.explanatory,
            metric=findings[0].metric,  # every unit's root is a finding, all of one metric
            conf=spec.stats.conf,
            family_size=result.family_size,
            train_size=result.train_size,
            test_size=result.test_size,
            dropped_train=result.dropped_train,
            dropped_test=result.dropped_test,
            global_finding=global_finding,
            findings=tuple(ranked),
        ))
    return reports


def _draw_cis(f: Finding, strata: bool) -> None:
    """Read the corrected CIs of ``f``, and of its strata if asked, so that
    an unstable bootstrap fails naming its hypothesis, not while rendering."""
    tested = [(None, f.tested)]
    if strata:
        tested += [(sf.value, sf.tested) for sf in f.strata if sf.tested is not None]
    for stratum, t in tested:
        try:
            t.corrected_ci  # the first read draws the bootstrap
        except StatsError as exc:
            where = [f"context {', '.join(p.describe() for p in f.predicates) or 'global'}"]
            if f.label is not None:
                where.append(f"label {f.label}")
            if stratum is not None:
                where.append(f"stratum {stratum}")
            raise StatsError(f"{exc} ({'; '.join(where)})") from exc


# -- orchestration ----------------------------------------------------------------


@dataclass
class InvestigationRun:
    trained: TrainedInvestigation
    validated: ValidationResult
    reports: list[ReportModel]


def run_investigation(spec: InvestigationSpec, source: DataSource) -> InvestigationRun:
    """Train on the source's training set, validate on the next budgeted test
    set, and build the filtered, ranked reports."""
    trained = train(spec, source.train)
    validated = validate(trained, source.next_test_set())
    reports = filter_and_rank(validated)
    return InvestigationRun(trained, validated, reports)


def debug_with_explanatory(trained: TrainedInvestigation, explanatory: str,
                           fresh_test: Dataset) -> InvestigationRun:
    """Re-validate the same trained contexts with the metric conditioned on an
    explanatory attribute, on a fresh budgeted test set."""
    spec = replace(trained.spec, explanatory=explanatory)
    units = [replace(u, bound=u.bound.conditioned_on(explanatory)) for u in trained.units]
    debug_trained = TrainedInvestigation(spec, units, trained.train_size, trained.dropped_train)
    validated = validate(debug_trained, fresh_test)
    reports = filter_and_rank(validated)
    return InvestigationRun(debug_trained, validated, reports)
