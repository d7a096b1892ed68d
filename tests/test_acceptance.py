"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line (run with -v or -s to see them)."""

import time

import numpy as np
import pytest
from scipy import stats as sps

from uatest.data import berkeley_admissions
from uatest.dataset import AttributeSchema, Dataset, make_datasource
from uatest.investigations import (
    TestingSpec,
    debug_with_explanatory,
    filter_and_rank,
    run_investigation,
    train,
    validate,
)
from uatest.metrics import (
    BoundMetric,
    MetricKind,
    diff_from_tables,
    mi_from_tables,
)
from uatest.report import render_text
from uatest.stats import StatConfig, holm_bonferroni
from uatest.stats import test_metric as evaluate_metric
from uatest.synth import run_detection_benchmark, tree_vs_itemsets
from uatest.tree import TreeParams, exhaustive_contexts, find_contexts
from tests.test_metrics import DEPT_A_SAMPLE, PRICING_GLOBAL, dataset_from_table, pearson
from tests.test_stats import two_col_dataset
from tests.test_tree import skewed_planted_dataset


def announce(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' — ' + detail if detail else ''}")


# -- 1. planted-disparity recall at desk scale -----------------------------------


def test_criterion_1_planted_disparity_recall():
    recalls = []
    clean_runs = 0
    slowest = 0.0
    for seed in range(1, 11):
        t0 = time.time()
        r = run_detection_benchmark(n=100_000, n_plants=10, delta=0.15,
                                    plant_size=2000, seed=seed, conf=0.95,
                                    min_size=100, max_depth=5)
        slowest = max(slowest, time.time() - t0)
        recalls.append(r.recall)
        clean_runs += r.false_discoveries == 0
    mean_recall = float(np.mean(recalls))
    ok = mean_recall >= 0.9 and clean_runs >= 9 and slowest < 120.0
    announce("1 (recall on planted disparities)", ok,
             f"mean recall {mean_recall:.2f}, clean runs {clean_runs}/10, "
             f"slowest run {slowest:.1f}s")
    assert mean_recall >= 0.9
    assert clean_runs >= 9
    assert slowest < 120.0


# -- 2. weak-effect sensitivity ----------------------------------------------------


def test_criterion_2_weak_effect_sensitivity():
    # 10 disjoint plants of 20,000 rows cannot exist in a population of
    # 100,000; two disjoint plants keep the same per-plant size
    large = [run_detection_benchmark(n=100_000, n_plants=2, delta=0.025,
                                     plant_size=20_000, seed=s).recall
             for s in range(1, 11)]
    small = [run_detection_benchmark(n=100_000, n_plants=10, delta=0.025,
                                     plant_size=500, seed=s).recall
             for s in range(1, 11)]
    mean_large = float(np.mean(large))
    mean_small = float(np.mean(small))
    ok = mean_large >= 0.7 and mean_large > mean_small + 0.3
    announce("2 (weak-effect sensitivity)", ok,
             f"recall large {mean_large:.2f}, small {mean_small:.2f}")
    assert mean_large >= 0.7
    assert mean_large > mean_small + 0.3


# -- 3. null safety -----------------------------------------------------------------


def test_criterion_3_null_safety():
    clean = 0
    for seed in range(1, 21):
        r = run_detection_benchmark(n=100_000, n_plants=0, delta=0.0,
                                    plant_size=2000, seed=seed)
        clean += len(r.report.findings) == 0
    ok = clean >= 18
    announce("3 (null safety)", ok, f"clean runs {clean}/20")
    assert clean >= 18


# -- 4. Berkeley Simpson's paradox ---------------------------------------------------


def test_criterion_4_berkeley_simpsons_paradox():
    seed = 2  # fixed 50/50 split; see decisions ledger for the power analysis
    data = berkeley_admissions()
    source = make_datasource(data, budget=2, train_fraction=0.5, seed=seed)
    spec = TestingSpec(protected=("gender",), output="admitted",
                       contextual=("department",), stats=StatConfig(seed=seed))
    trained = train(spec, source.train)
    first = filter_and_rank(validate(trained, source.next_test_set()))[0]
    g1 = first.global_finding
    global_significant = g1.tested.corrected_p < 0.05 and g1.tested.value.value < 0

    debug = debug_with_explanatory(trained, "department", source.next_test_set())
    g2 = debug.reports[0].global_finding
    conditional_ns = g2.tested.corrected_p > 0.05
    significant_depts = [sf.value for sf in g2.strata
                         if sf.tested is not None and sf.tested.corrected_p <= 0.05]
    dept_a = next(sf for sf in g2.strata if sf.value == "A")
    dept_a_diff = dept_a.tested.value.value
    only_a = significant_depts == ["A"] and dept_a_diff > 0
    point_ok = abs(dept_a_diff - 0.22) <= 0.10

    ok = global_significant and conditional_ns and only_a and point_ok
    announce("4 (Berkeley Simpson's paradox)", ok,
             f"global p {g1.tested.corrected_p:.1e} (male-favoring), "
             f"conditional p {g2.tested.corrected_p:.2f}, "
             f"significant departments {significant_depts}, Dept A DIFF {dept_a_diff:.3f}")
    assert global_significant
    assert conditional_ns
    assert only_a
    assert point_ok


# -- 5. metric unit checks -------------------------------------------------------------


def test_criterion_5_metric_unit_checks():
    # staples pricing: (High, Low) price rows against (<50K, >=50K) income columns
    nmi = float(mi_from_tables(np.asarray(PRICING_GLOBAL, dtype=np.int64), normalized=True))
    nmi_ok = 0.0001 <= nmi <= 0.0005

    dept_a = dataset_from_table(DEPT_A_SAMPLE)
    diff = evaluate_metric(dept_a, BoundMetric(MetricKind("diff"), "gender", "admitted", "Yes",
                                               "Female", "Male"), StatConfig()).value.value
    diff_ok = abs(diff - 0.2244) <= 1e-4

    holm = holm_bonferroni([0.01, 0.02, 0.04])
    holm_ok = holm == pytest.approx([0.03, 0.04, 0.04], abs=1e-15)

    ok = nmi_ok and diff_ok and holm_ok
    announce("5 (metric unit checks)", ok,
             f"NMI {nmi:.6f}, DIFF {diff:.6f}, Holm {holm}")
    assert nmi_ok and diff_ok and holm_ok


# -- 6. guided tree vs exhaustive enumeration --------------------------------------------


def test_criterion_6_tree_vs_exhaustive():
    tree_row, item_row = tree_vs_itemsets(n=10_000, n_attrs=15, seed=1,
                                          min_size=500, max_depth=5)
    eval_ratio = tree_row.candidates_considered / item_row.candidates_considered
    assoc_ratio = tree_row.top3_mean_association / item_row.top3_mean_association
    ok = eval_ratio <= 0.25 and assoc_ratio >= 0.9
    announce("6 (guided tree economy)", ok,
             f"metric evaluations {tree_row.candidates_considered} vs "
             f"{item_row.candidates_considered} ({eval_ratio:.2f}), "
             f"association ratio {assoc_ratio:.2f}")
    assert eval_ratio <= 0.25
    assert assoc_ratio >= 0.9


# -- 7. property suites (no external datasets) ----------------------------------------------


def test_criterion_7a_nmi_range_and_symmetry():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        r, c = rng.integers(2, 5, 2)
        counts = rng.integers(0, 30, (r, c))
        nmi = float(mi_from_tables(counts, normalized=True))
        if np.isnan(nmi):  # a degenerate marginal: NMI is undefined
            continue
        assert 0.0 <= nmi <= 1.0 + 1e-12
        mi = float(mi_from_tables(counts, normalized=False))
        assert mi >= -1e-12
        assert mi == pytest.approx(float(mi_from_tables(counts.T, normalized=False)),
                                   abs=1e-12)
        checked += 1
    announce("7a (NMI range and transpose symmetry)", True, f"{checked} tables")


def test_criterion_7b_diff_antisymmetry():
    rng = np.random.default_rng(1)
    for _ in range(200):
        counts = rng.integers(1, 60, (2, 2))
        # target output row 1, protected columns a = 0 and b = 1
        ab = float(diff_from_tables(counts, 1, 0, 1))
        ba = float(diff_from_tables(counts, 1, 1, 0))
        assert ab == pytest.approx(-ba, abs=1e-15)
    announce("7b (DIFF antisymmetry)", True)


def test_criterion_7c_pearson_affine_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=80)
        y = 0.5 * x + rng.normal(size=80)
        r = pearson(x, y)  # the production estimator, grouped_correlation
        a, b = rng.uniform(0.1, 5.0, 2)
        c, d = rng.uniform(-10.0, 10.0, 2)
        assert pearson(a * x + c, b * y + d) == pytest.approx(r, abs=1e-12)
        assert pearson(-x, y) == pytest.approx(-r, abs=1e-12)
    announce("7c (Pearson affine invariance)", True)


def test_criterion_7d_permutation_p_uniformity():
    bound = BoundMetric(MetricKind("diff"), "s", "o")
    cfg = StatConfig(seed=0)
    ps = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        s = rng.choice(["a", "b"], 400)
        o = rng.choice(["0", "1"], 400)
        view = two_col_dataset(list(s), list(o))
        tm = evaluate_metric(view, bound, cfg, entropy=(7, seed))
        assert tm.method == "permutation+bootstrap"
        ps.append(tm.p)
    ks = sps.kstest(ps, "uniform").statistic
    ok = ks < 0.1
    announce("7d (permutation p uniformity under null)", ok, f"KS statistic {ks:.3f}")
    assert ks < 0.1


def test_criterion_7e_holm_laws():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ps = rng.random(rng.integers(1, 40))
        adj = np.asarray(holm_bonferroni(ps))
        assert np.all(adj >= ps - 1e-15)
        assert np.all(adj <= 1.0)
        order = np.argsort(ps, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-15)
    assert holm_bonferroni([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.04, 0.04])
    announce("7e (Holm monotonicity and order laws)", True)


def test_criterion_7f_bootstrap_coverage():
    bound = BoundMetric(MetricKind("diff"), "s", "o")
    cfg = StatConfig(seed=0, n_bootstrap=1000, n_permutations=100)
    true_diff = 0.2
    covered = 0
    runs = 500
    for seed in range(runs):
        rng = np.random.default_rng(10_000 + seed)
        n = 400
        s = rng.choice(["a", "b"], n)
        p1 = np.where(s == "a", 0.5 + true_diff / 2, 0.5 - true_diff / 2)
        o = np.where(rng.random(n) < p1, "1", "0")
        view = two_col_dataset(list(s), list(o))
        tm = evaluate_metric(view, bound, cfg, entropy=(11, seed))
        lo, hi = tm.ci
        covered += lo <= true_diff <= hi
    rate = covered / runs
    ok = 0.93 <= rate <= 0.97
    announce("7f (bootstrap CI coverage)", ok, f"coverage {rate:.3f} over {runs} draws")
    assert 0.93 <= rate <= 0.97


def test_criterion_7g_tree_oracle_equivalence():
    metric = BoundMetric(MetricKind("diff"), "s", "o")
    params = TreeParams(min_size=100, max_depth=2)
    worst = 1.0
    for seed in range(20):
        d = skewed_planted_dataset(4000, 300 + seed)
        contexts = find_contexts(d, params, metric)
        tree_best = max(c.train_metric for c in contexts)
        oracle = exhaustive_contexts(d, params, metric)
        oracle_best = max(v for _, _, v in oracle if not np.isnan(v))
        worst = min(worst, tree_best / oracle_best)
        assert tree_best >= 0.9 * oracle_best
    announce("7g (tree-oracle equivalence)", True, f"worst ratio {worst:.3f} over 20 trials")


def test_criterion_7h_pipeline_bit_determinism_across_threads():
    rng = np.random.default_rng(4)
    n = 20_000
    state = rng.integers(0, 10, n)
    s = rng.integers(0, 2, n)
    mask = state < 2
    p = np.where(mask & (s == 1), 0.65, np.where(mask, 0.35, 0.5))
    o = (rng.random(n) < p).astype(int)
    schema = [AttributeSchema("state", "categorical", "contextual",
                              tuple(f"S{i}" for i in range(10))),
              AttributeSchema("income", "categorical", "protected", ("low", "high")),
              AttributeSchema("output", "categorical", "output", ("0", "1"))]
    data = Dataset(schema, {"state": state.astype(np.int32),
                            "income": s.astype(np.int32),
                            "output": o.astype(np.int32)})
    texts = []
    for _ in range(3):
        source = make_datasource(data, budget=1, train_fraction=0.5, seed=4)
        spec = TestingSpec(protected=("income",), output="output",
                           contextual=("state",), stats=StatConfig(seed=4),
                           tree=TreeParams(min_size=100, max_depth=3))
        run = run_investigation(spec, source)
        texts.append("".join(render_text(r) for r in run.reports))
    ok = texts[0] == texts[1] == texts[2]
    announce("7h (bit-determinism across three runs)", ok)
    assert ok
