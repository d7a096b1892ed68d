"""Synthetic populations with planted disparities, and benchmark harnesses.

The generator starts from a fair coin output, independent of the protected
attribute, then plants contexts where the two protected groups receive the
positive output with probabilities 0.5 + delta and 0.5 - delta, a proportion
gap of 2*delta. Detection scoring matches reported contexts against the
planted ground truth.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import AttributeSchema, CATEGORICAL, ContextPredicate, DataError, Dataset, make_datasource
from .investigations import ReportModel, TestingSpec, run_investigation
from .metrics import DIFF, BoundMetric, MetricKind
from .stats import StatConfig
from .tree import TreeParams, TreeStats, exhaustive_contexts, find_contexts

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CategoricalSpec:
    name: str
    categories: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.categories) != len(self.probs):
            raise DataError(f"{self.name}: one probability per category required")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise DataError(f"{self.name}: category probabilities must sum to 1")


@dataclass(frozen=True)
class PopulationSpec:
    """Shape of the synthetic population: contextual demographics, one binary
    protected attribute, and a fair-coin binary output."""

    n: int
    attributes: tuple[CategoricalSpec, ...]
    protected: CategoricalSpec
    output_name: str = "output"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError("population size must be positive")
        if len(self.protected.categories) != 2:
            raise DataError("the protected attribute must be binary")

    @classmethod
    def default(cls, n: int) -> "PopulationSpec":
        """Census-shaped demographics: 50 uniform states, 5 races, binary
        gender, binary income as the protected attribute."""
        states = tuple(f"S{i:02d}" for i in range(50))
        return cls(
            n=n,
            attributes=(
                CategoricalSpec("state", states, tuple([1.0 / 50] * 50)),
                CategoricalSpec("race", ("R0", "R1", "R2", "R3", "R4"),
                                (0.30, 0.25, 0.20, 0.15, 0.10)),
                CategoricalSpec("gender", ("F", "M"), (0.5, 0.5)),
            ),
            protected=CategoricalSpec("income", ("low", "high"), (0.5, 0.5)),
        )


@dataclass(frozen=True)
class PlantSpec:
    """A planted disparity: inside the context, the high protected group gets
    the positive output with probability 0.5 + delta, the low group with
    0.5 - delta."""

    predicates: tuple[ContextPredicate, ...]
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 0.5:
            raise DataError("delta must lie in (0, 0.5]")


def _expected_fraction(pop: PopulationSpec, predicates: tuple[ContextPredicate, ...]) -> float:
    by_name = {a.name: a for a in pop.attributes}
    frac = 1.0
    for pred in predicates:
        attr = by_name[pred.attribute]
        frac *= sum(attr.probs[attr.categories.index(v)] for v in pred.values)
    return frac


def generate(pop: PopulationSpec, plants: tuple[PlantSpec, ...] | list[PlantSpec],
             seed: int = 0, min_size: int = 100) -> Dataset:
    """Sample the population and plant the requested disparities.

    Plants must be pairwise row-disjoint and each must have expected size at
    least 4 * min_size so that both train and test halves can support it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
    n = pop.n
    columns: dict[str, np.ndarray] = {}
    schema: list[AttributeSchema] = []
    for attr in pop.attributes:
        codes = rng.choice(len(attr.categories), size=n, p=attr.probs).astype(np.int32)
        columns[attr.name] = codes
        schema.append(AttributeSchema(attr.name, CATEGORICAL, "contextual", attr.categories))
    s_codes = rng.choice(2, size=n, p=pop.protected.probs).astype(np.int32)
    columns[pop.protected.name] = s_codes
    schema.append(AttributeSchema(pop.protected.name, CATEGORICAL, "protected",
                                  pop.protected.categories))

    sampled = Dataset(schema, columns)
    masks = []
    for plant in plants:
        mask = np.zeros(n, dtype=bool)
        mask[sampled.select(plant.predicates).row_ids()] = True
        expected = n * _expected_fraction(pop, plant.predicates)
        if expected < 4 * min_size:
            raise DataError(
                f"plant expected size {expected:.0f} is below 4 * min_size = {4 * min_size}"
            )
        masks.append(mask)
    for i, j in itertools.combinations(range(len(masks)), 2):
        if np.any(masks[i] & masks[j]):
            raise DataError(f"overlapping plants: {i} and {j} share rows")

    p_one = np.full(n, 0.5)
    for plant, mask in zip(plants, masks):
        p_one[mask & (s_codes == 1)] = 0.5 + plant.delta
        p_one[mask & (s_codes == 0)] = 0.5 - plant.delta
    columns[pop.output_name] = (rng.random(n) < p_one).astype(np.int32)
    schema.append(AttributeSchema(pop.output_name, CATEGORICAL, "output", ("0", "1")))
    return Dataset(schema, columns)


def make_disjoint_plants(pop: PopulationSpec, n_plants: int, delta: float,
                         expected_size: int, seed: int = 0) -> tuple[PlantSpec, ...]:
    """Choose ``n_plants`` pairwise-disjoint contexts of roughly the requested
    expected size, varying one attribute's category across plants.

    Candidate designs fix categories on a subset of attributes and sweep one
    "vary" attribute; the design minimizing total size mismatch wins. Raises
    when no design gets every plant within 35% of the target size.
    """
    target = expected_size / pop.n
    if not 0.0 < target < 1.0:
        raise DataError("expected plant size must be a fraction of the population")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0B]))
    tol = math.log(1.35)
    attrs = list(pop.attributes)
    best = None
    for r in range(1, len(attrs) + 1):
        for subset in itertools.combinations(range(len(attrs)), r):
            vary = attrs[subset[0]]
            fixed = [attrs[i] for i in subset[1:]]
            for combo in itertools.product(*[range(len(a.categories)) for a in fixed]):
                rest = 1.0
                for a, ci in zip(fixed, combo):
                    rest *= a.probs[ci]
                if rest <= 0:
                    continue
                errs = sorted(
                    (abs(math.log(p * rest / target)), idx)
                    for idx, p in enumerate(vary.probs) if p > 0
                )
                if len(errs) < n_plants or errs[n_plants - 1][0] > tol:
                    continue
                score = sum(e for e, _ in errs[:n_plants])
                key = (score, r, subset, combo)
                if best is None or key < best[0]:
                    # keep every acceptable vary-category so the draw can randomize
                    eligible = [idx for e, idx in errs if e <= tol]
                    best = (key, vary, fixed, combo, eligible)
    if best is None:
        raise DataError(
            f"cannot build {n_plants} disjoint plants of expected size {expected_size} "
            f"from this population"
        )
    _, vary, fixed, combo, eligible = best
    chosen = rng.permutation(eligible)[:n_plants]
    plants = []
    for idx in sorted(int(c) for c in chosen):
        preds = [ContextPredicate(vary.name, "in", values=(vary.categories[idx],))]
        preds += [ContextPredicate(a.name, "in", values=(a.categories[ci],))
                  for a, ci in zip(fixed, combo)]
        plants.append(PlantSpec(tuple(preds), delta))
    return tuple(plants)


# -- detection scoring ----------------------------------------------------------


@dataclass(frozen=True)
class DetectionScore:
    recall: float
    false_discoveries: int
    discovered: tuple[bool, ...]


def score_detection(report: ReportModel, plants: tuple[PlantSpec, ...] | list[PlantSpec],
                    data: Dataset) -> DetectionScore:
    """Score a report against planted ground truth over ``data`` (the test
    rows the report was validated on).

    A plant is discovered when some reported context's predicates are a
    subset or superset of the plant's and at least half of the context's
    rows lie inside the plant. A reported subpopulation overlapping no plant
    on even 10% of its rows is a false discovery.

    The plants must be row-disjoint, as :func:`generate` plants them, so
    that one row key holds each row's plant; a finding's overlap with every
    plant is one bincount of that key over the finding's rows.
    """
    plant_of = np.full(data.n_rows, len(plants), dtype=np.intp)  # len(plants): in none
    for i, plant in enumerate(plants):
        rows = _context_key(data, plant.predicates) == 0
        shared = plant_of[rows]
        if (shared < len(plants)).any():
            raise DataError(f"overlapping plants: {int(shared.min())} and {i} share rows")
        plant_of[rows] = i
    # a list per finding: its rows in each plant, and last its rows in none
    overlaps = [np.bincount(plant_of[_context_key(data, f.predicates) == 0],
                            minlength=len(plants) + 1).tolist() for f in report.findings]
    sizes = [sum(counts) for counts in overlaps]

    discovered = []
    for i, plant in enumerate(plants):
        pset = set(plant.predicates)
        discovered.append(any(
            size and (set(f.predicates) <= pset or pset <= set(f.predicates))
            and counts[i] / size >= 0.5
            for f, counts, size in zip(report.findings, overlaps, sizes)))
    false_discoveries = sum(1 for counts, size in zip(overlaps, sizes)
                            if size and max(counts[:-1], default=0) / size < 0.1)
    recall = float(np.mean(discovered)) if discovered else 0.0
    return DetectionScore(recall, false_discoveries, tuple(discovered))


def _context_key(data: Dataset, predicates) -> np.ndarray:
    """A ``Dataset.layer_key`` of one member: 0 for the rows of ``data``
    that ``data.select(predicates)`` keeps, -1 for the others."""
    key = np.zeros(data.n_rows, dtype=np.intp)
    for pred in predicates:
        key = data.layer_key(key, [0], [pred])
    return key


# -- end-to-end benchmark harnesses ----------------------------------------------


def benchmark_population(n: int, plant_fraction: float | None) -> PopulationSpec:
    """Demographics for the detection benchmark.

    Plants above 10% of the population cannot hide inside a single state, so
    the large-plant shape concentrates probability on a few races and keeps
    few states; everything else uses the default census shape.
    """
    if plant_fraction is None or plant_fraction <= 0.1:
        return PopulationSpec.default(n)
    f = plant_fraction
    k = max(2, min(3, int(0.9 // f)))
    filler = 1.0 - k * f
    if filler <= 0:
        raise DataError(f"plant fraction {f} is too large for disjoint plants")
    races = tuple(f"R{i}" for i in range(k + 1))
    probs = tuple([f] * k + [filler])
    # states deliberately do not match the plant size, so plants live on races
    states = tuple(f"S{i:02d}" for i in range(8))
    return PopulationSpec(
        n=n,
        attributes=(
            CategoricalSpec("state", states, tuple([1.0 / 8] * 8)),
            CategoricalSpec("race", races, probs),
            CategoricalSpec("gender", ("F", "M"), (0.5, 0.5)),
        ),
        protected=CategoricalSpec("income", ("low", "high"), (0.5, 0.5)),
    )


@dataclass
class BenchResult:
    delta: float
    plant_size: int
    seed: int
    recall: float
    false_discoveries: int
    n_plants: int
    report: ReportModel
    data: Dataset


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")


def run_detection_benchmark(n: int, n_plants: int, delta: float, plant_size: int,
                            seed: int, conf: float = 0.95, min_size: int = 100,
                            max_depth: int = 5, train_fraction: float = 0.4,
                            small_sample_threshold: int = 1000) -> BenchResult:
    """Generate a planted population, run a Testing investigation on it, and
    score recall and false discoveries against the ground truth.

    The default 0.4 train fraction keeps a nominal-2000 plant's test slice
    above the small-sample threshold, where the asymptotic test can resolve
    p-values far smaller than the permutation floor of 1/(n_perm + 1); at a
    0.5 split such slices straddle the threshold and lose all power to the
    floor once the correction family is large.

    Settings are checked before anything is generated: ``n`` at least 1,
    ``delta`` in [0, 0.5], where 0 plants nothing (the null benchmark),
    ``n_plants`` at least 1 when ``delta`` is positive, and ``seed``
    non-negative.
    """
    _check_seed(seed)
    if n < 1:
        raise DataError(f"n must be at least 1, got {n}")
    if not 0.0 <= delta <= 0.5:
        raise DataError(f"delta must lie in [0, 0.5], got {delta}")
    if delta > 0 and n_plants < 1:
        raise DataError(f"n_plants must be at least 1 when delta > 0, got {n_plants}")
    tree = TreeParams(min_size=min_size, max_depth=max_depth)
    pop = benchmark_population(n, plant_size / n)
    plants = make_disjoint_plants(pop, n_plants, delta, plant_size, seed) if delta > 0 else ()
    data = generate(pop, plants, seed, min_size=min_size)
    source = make_datasource(data, budget=1, train_fraction=train_fraction, seed=seed,
                             min_size=min_size)
    spec = TestingSpec(
        protected=(pop.protected.name,),
        output=pop.output_name,
        contextual=tuple(a.name for a in pop.attributes),
        tree=tree,
        stats=StatConfig(conf=conf, seed=seed, small_sample_threshold=small_sample_threshold),
    )
    run = run_investigation(spec, source)
    report = run.reports[0]
    # synthetic data misses no value, so these are all the test rows
    score = score_detection(report, plants, run.validated.view)
    return BenchResult(delta, plant_size, seed, score.recall, score.false_discoveries,
                       len(plants), report, data)


@dataclass(frozen=True)
class StrategyRow:
    strategy: str
    candidates_considered: int
    top3_mean_association: float


def tree_vs_itemsets(n: int, n_attrs: int, seed: int, min_size: int = 500,
                     max_depth: int = 5, delta: float = 0.2) -> tuple[StrategyRow, StrategyRow]:
    """Guided tree against unguided itemset enumeration on the same data.

    Both strategies propose candidate contexts from the training half; each
    strategy's candidates are then measured on the held-out half and
    summarized by the mean of its 3 strongest test associations. The itemset
    strategy evaluates every conjunction of categorical values with enough
    support, which is the brute-force analog of the guided search. Each test
    association (0 where undefined) is read from one ``MetricCounts`` of the
    held-out half, by a ``Dataset.layer_key`` of the candidate's rows.
    A negative ``seed`` is a DataError, raised before anything is generated.
    """
    _check_seed(seed)
    if n_attrs < 3:
        raise DataError("the comparison needs at least 3 contextual attributes")
    # heterogeneous planted effects (opposing directions) so that subpopulation
    # search has something to find beyond the global association
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    codes = {f"a{i:02d}": rng.choice(2, size=n).astype(np.int32) for i in range(n_attrs)}
    s_codes = rng.choice(2, size=n).astype(np.int32)
    plant_a = (codes["a00"] == 1) & (codes["a01"] == 1)
    plant_b = (codes["a00"] == 0) & (codes["a02"] == 1)
    p_one = np.full(n, 0.5)
    p_one[plant_a & (s_codes == 1)] = 0.5 + delta
    p_one[plant_a & (s_codes == 0)] = 0.5 - delta
    p_one[plant_b & (s_codes == 1)] = 0.5 - delta / 2
    p_one[plant_b & (s_codes == 0)] = 0.5 + delta / 2
    schema = [AttributeSchema(name, CATEGORICAL, "contextual", ("0", "1")) for name in codes]
    schema.append(AttributeSchema("income", CATEGORICAL, "protected", ("low", "high")))
    schema.append(AttributeSchema("output", CATEGORICAL, "output", ("0", "1")))
    columns = dict(codes)
    columns["income"] = s_codes
    columns["output"] = (rng.random(n) < p_one).astype(np.int32)
    data = Dataset(schema, columns)
    attrs = tuple(CategoricalSpec(name, ("0", "1"), (0.5, 0.5)) for name in codes)
    source = make_datasource(data, budget=1, train_fraction=0.5, seed=seed)
    params = TreeParams(min_size=min_size, max_depth=max_depth)
    metric = BoundMetric(MetricKind(DIFF), "income", "output")
    contextual = [a.name for a in attrs]

    stats = TreeStats()
    contexts = find_contexts(source.train, params, metric, contextual=contextual, stats=stats)
    test = source.next_test_set()
    counts = metric.counts(test)

    def test_association(predicates) -> float:
        (value,), _ = counts.group_values(_context_key(test, predicates), 1)
        return 0.0 if math.isnan(value) else float(counts.metric.guidance(value))

    tree_vals = sorted((test_association(c.predicates) for c in contexts), reverse=True)
    tree_row = StrategyRow("guided-tree", stats.n_metric_evals, float(np.mean(tree_vals[:3])))

    itemsets = exhaustive_contexts(source.train, params, metric, contextual=contextual)
    retained = sorted(itemsets, key=lambda row: -(0.0 if math.isnan(row[2]) else row[2]))
    retained = retained[:max(len(contexts), 3)]
    item_vals = sorted((test_association(preds) for preds, _, _ in retained), reverse=True)
    item_row = StrategyRow("itemsets", len(itemsets), float(np.mean(item_vals[:3])))
    return tree_row, item_row
