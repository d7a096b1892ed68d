import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from uatest.dataset import ContextPredicate, DataError
from uatest.investigations import Finding, ReportModel
from uatest.metrics import BoundMetric, MetricKind, MetricValue
from uatest.stats import StatConfig, TestedMetric
from uatest.stats import test_metric as evaluate_metric
from uatest.synth import (
    CategoricalSpec,
    DetectionScore,
    PlantSpec,
    PopulationSpec,
    generate,
    make_disjoint_plants,
    run_detection_benchmark,
    score_detection,
    tree_vs_itemsets,
)


def global_diff(d):
    """DIFF of Pr(output = 1) between the low and the high income group."""
    bound = BoundMetric(MetricKind("diff"), "income", "output", "1", "low", "high")
    return evaluate_metric(d, bound, StatConfig()).value.value


def test_generate_null_has_no_global_effect():
    pop = PopulationSpec.default(200_000)
    d = generate(pop, (), seed=0)
    sigma = np.sqrt(0.25 * (2 / (d.n_rows / 2)))  # binomial noise scale of DIFF
    assert abs(global_diff(d)) < 3 * sigma


def test_generate_whole_population_plant():
    pop = PopulationSpec(
        n=40_000,
        attributes=(CategoricalSpec("state", ("X",), (1.0,)),),
        protected=CategoricalSpec("income", ("low", "high"), (0.5, 0.5)),
    )
    plant = PlantSpec((ContextPredicate("state", "in", values=("X",)),), 0.25)
    d = generate(pop, (plant,), seed=1)
    # low-income side gets 0.5 - delta, so diff(low - high) = -2 * delta
    assert global_diff(d) == pytest.approx(-0.5, abs=0.02)


def test_generate_planted_contexts_have_target_effect():
    pop = PopulationSpec.default(1_000_000)
    plants = make_disjoint_plants(pop, 10, 0.15, 20_000, seed=2)
    d = generate(pop, plants, seed=2)
    for plant in plants:
        ctx = d.select(list(plant.predicates))
        v = global_diff(ctx)
        assert v == pytest.approx(-0.30, abs=0.03)


def test_generate_marginals_match_spec():
    pop = PopulationSpec.default(100_000)
    d = generate(pop, (), seed=3)
    race = d.codes("race")
    for idx, p in enumerate(pop.attributes[1].probs):
        count = int((race == idx).sum())
        sd = np.sqrt(pop.n * p * (1 - p))
        assert abs(count - pop.n * p) <= 3 * sd


def test_generate_rejects_overlap_and_small_plants():
    pop = PopulationSpec.default(100_000)
    a = PlantSpec((ContextPredicate("state", "in", values=("S01",)),), 0.2)
    b = PlantSpec((ContextPredicate("state", "in", values=("S01", "S02")),), 0.2)
    with pytest.raises(DataError, match="overlapping plants"):
        generate(pop, (a, b), seed=0)
    tiny = PlantSpec((ContextPredicate("state", "in", values=("S01",)),
                      ContextPredicate("race", "in", values=("R4",)),
                      ContextPredicate("gender", "in", values=("F",))), 0.2)
    with pytest.raises(DataError, match="below 4"):
        generate(pop, (tiny,), seed=0, min_size=100)



def test_generate_rejects_an_unknown_plant_category():
    pop = PopulationSpec.default(10_000)
    plant = PlantSpec((ContextPredicate("state", "in", values=("S99",)),), 0.2)
    with pytest.raises(DataError, match="unknown category 'S99' for attribute 'state'"):
        generate(pop, (plant,), seed=0)


def test_make_disjoint_plants_sizes_and_disjointness():

    pop = PopulationSpec.default(100_000)
    plants = make_disjoint_plants(pop, 10, 0.15, 2000, seed=4)
    assert len(plants) == 10
    d = generate(pop, plants, seed=4)  # generate enforces pairwise disjointness
    for plant in plants:
        size = d.select(list(plant.predicates)).n_rows
        assert 0.65 * 2000 <= size <= 1.45 * 2000
    with pytest.raises(DataError, match="cannot build"):
        make_disjoint_plants(pop, 60, 0.15, 2000, seed=4)


def fake_report(findings):
    return ReportModel(kind="testing", protected="income", output="output",
                       explanatory=None, metric="DIFF", conf=0.95, family_size=1,
                       train_size=0, test_size=0, dropped_train=0, dropped_test=0,
                       global_finding=None, findings=tuple(findings))


def make_finding(predicates, rank=1):
    tm = TestedMetric(value=MetricValue(MetricKind("diff"), -0.3), ci=(-0.4, -0.2),
                      p=1e-6, method="asymptotic", corrected_p=1e-5,
                      corrected_ci=(-0.45, -0.15))
    return Finding(protected="income", output="output", label=None,
                   predicates=tuple(predicates), size=1000,
                   tested=tm, rank=rank)


def test_score_detection_exact_match_and_empty():
    pop = PopulationSpec.default(50_000)
    plants = make_disjoint_plants(pop, 5, 0.2, 1000, seed=5)
    d = generate(pop, plants, seed=5)
    report = fake_report([make_finding(p.predicates, i + 1) for i, p in enumerate(plants)])
    score = score_detection(report, plants, d)
    assert score.recall == 1.0
    assert score.false_discoveries == 0

    empty = score_detection(fake_report([]), plants, d)
    assert empty.recall == 0.0 and empty.false_discoveries == 0


def test_score_detection_false_discovery():
    pop = PopulationSpec.default(50_000)
    plants = make_disjoint_plants(pop, 3, 0.2, 1000, seed=6)
    d = generate(pop, plants, seed=6)
    used = {p.predicates[0].values[0] for p in plants}
    free_state = next(c for c in pop.attributes[0].categories if c not in used)
    bogus = make_finding([ContextPredicate("state", "in", values=(free_state,))])
    score = score_detection(fake_report([bogus]), plants, d)
    assert score.recall == 0.0
    assert score.false_discoveries == 1


def score_detection_by_views(report, plants, data):
    """The reference scorer: a ``select`` view and a set of row ids for every
    plant and every finding, intersected pairwise."""
    plant_rows = [frozenset(data.select(list(p.predicates)).row_ids().tolist()) for p in plants]
    context_rows = []
    for f in report.findings:
        rows = frozenset(data.select(list(f.predicates)).row_ids().tolist())
        context_rows.append((f, rows))

    discovered = []
    for plant, rows in zip(plants, plant_rows):
        hit = False
        pset = set(plant.predicates)
        for f, crows in context_rows:
            if not crows:
                continue
            fset = set(f.predicates)
            if not (fset <= pset or pset <= fset):
                continue
            if len(crows & rows) / len(crows) >= 0.5:
                hit = True
                break
        discovered.append(hit)

    false_discoveries = 0
    for f, crows in context_rows:
        if not crows:
            continue
        best = max((len(crows & rows) / len(crows) for rows in plant_rows), default=0.0)
        if best < 0.1:
            false_discoveries += 1

    recall = float(np.mean(discovered)) if discovered else 0.0
    return DetectionScore(recall, false_discoveries, tuple(discovered))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_score_detection_matches_the_scorer_by_views(data):
    pop = PopulationSpec.default(3000)
    d = generate(pop, (), seed=data.draw(st.integers(0, 3)))
    attrs = {a.name: a.categories for a in pop.attributes}

    def predicate(name):
        values = data.draw(st.sets(st.sampled_from(attrs[name]), min_size=1, max_size=3))
        return ContextPredicate(name, "in", values=tuple(values))

    # disjoint plants: one value each of a varied attribute, and shared others
    vary = data.draw(st.sampled_from(sorted(attrs)))
    values = data.draw(st.lists(st.sampled_from(attrs[vary]), max_size=5, unique=True))
    shared = [predicate(name) for name in sorted(attrs)
              if name != vary and data.draw(st.booleans())]
    plants = [PlantSpec((ContextPredicate(vary, "in", values=(v,)), *shared), 0.1) for v in values]
    findings = []
    for _ in range(data.draw(st.integers(0, 8))):
        if plants and data.draw(st.booleans()):  # a plant's context, less or more of it
            preds = list(data.draw(st.sampled_from(plants)).predicates)
            if data.draw(st.booleans()):
                preds.pop(data.draw(st.integers(0, len(preds) - 1)))
            free = sorted(set(attrs) - {p.attribute for p in preds})
            if free and data.draw(st.booleans()):
                preds.append(predicate(data.draw(st.sampled_from(free))))
            wide = [k for k, p in enumerate(preds) if len(p.values) > 1]
            if wide and data.draw(st.booleans()):  # fewer values: rows inside the plant, no subset
                k = data.draw(st.sampled_from(wide))
                values = data.draw(st.sets(st.sampled_from(preds[k].values), min_size=1,
                                           max_size=len(preds[k].values) - 1))
                preds[k] = ContextPredicate(preds[k].attribute, "in", values=tuple(values))
        else:
            names = data.draw(st.lists(st.sampled_from(sorted(attrs)), unique=True))
            preds = [predicate(name) for name in names]
        findings.append(make_finding(preds))
    report = fake_report(findings)
    score = score_detection(report, plants, d)
    assert score == score_detection_by_views(report, plants, d)
    event(f"recall {score.recall:.1f}")
    event(f"false discoveries: {min(score.false_discoveries, 2)}")


def test_score_detection_rejects_overlapping_plants():
    d = generate(PopulationSpec.default(1000), (), seed=0)
    a = PlantSpec((ContextPredicate("state", "in", values=("S01",)),), 0.2)
    b = PlantSpec((ContextPredicate("race", "in", values=("R1",)),), 0.2)
    with pytest.raises(DataError, match=r"^overlapping plants: 0 and 1 share rows$"):
        score_detection(fake_report([]), [a, b], d)


def test_detection_benchmark_smoke():
    # desk scale: plant test slices (~360 rows) need the asymptotic route, so
    # the small-sample threshold is lowered below them
    r = run_detection_benchmark(n=30_000, n_plants=4, delta=0.2, plant_size=600, seed=7,
                                small_sample_threshold=200)
    assert r.recall >= 0.75
    assert r.false_discoveries == 0


def test_recall_monotone_in_delta():
    grid = [0.025, 0.05, 0.1, 0.15, 0.25]
    means = []
    for delta in grid:
        recalls = [run_detection_benchmark(n=30_000, n_plants=4, delta=delta,
                                           plant_size=600, seed=s,
                                           small_sample_threshold=200).recall
                   for s in range(1, 11)]
        means.append(float(np.mean(recalls)))
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.05  # non-decreasing up to seed jitter
    assert means[-1] > means[0] + 0.5


def test_tree_vs_itemsets_economy():
    tree_row, item_row = tree_vs_itemsets(n=10_000, n_attrs=15, seed=1,
                                          min_size=500, max_depth=5)
    assert tree_row.strategy == "guided-tree"
    assert item_row.strategy == "itemsets"
    assert tree_row.candidates_considered <= item_row.candidates_considered / 4
    assert tree_row.top3_mean_association >= 0.9 * item_row.top3_mean_association


def test_detection_benchmark_rejects_a_negative_seed():
    with pytest.raises(DataError, match=r"^seed must be non-negative, got -1$"):
        run_detection_benchmark(n=1000, n_plants=1, delta=0.1, plant_size=400, seed=-1)


def test_tree_vs_itemsets_rejects_a_negative_seed():
    with pytest.raises(DataError, match=r"^seed must be non-negative, got -1$"):
        tree_vs_itemsets(n=1000, n_attrs=3, seed=-1)
