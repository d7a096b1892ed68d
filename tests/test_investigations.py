import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatest import metrics
from uatest.data import berkeley_admissions
from uatest.dataset import (
    AttributeSchema,
    BudgetError,
    ContextPredicate,
    DataError,
    Dataset,
    make_datasource,
)
from uatest.cli import _spec_from_obj
from uatest.investigations import (
    DISCOVERY,
    TESTING,
    DiscoverySpec,
    ErrorProfilingSpec,
    Finding,
    InvestigationSpec,
    TestingSpec,
    TrainedInvestigation,
    TrainUnit,
    ValidationResult,
    _attach_error,
    _context_layers,
    _make_display,
    compute_error,
    debug_with_explanatory,
    filter_and_rank,
    run_investigation,
    select_metric,
    train,
    validate,
)
from uatest.metrics import BoundMetric, MetricError, MetricKind, MetricValue, stratum_weights
from uatest.report import render_text
from uatest.stats import StatConfig, TestedMetric
from uatest.stats import test_metric as evaluate_metric
from uatest.tree import ContextNode, TreeParams, TreeStats


def binary_testing_dataset(n=4000, seed=0, effect=0.2):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    x = rng.integers(0, 3, n)
    p = np.where(s == 1, 0.5 + effect / 2, 0.5 - effect / 2)
    o = (rng.random(n) < p).astype(int)
    schema = [AttributeSchema("income", "categorical", "protected", ("low", "high")),
              AttributeSchema("state", "categorical", "contextual", ("A", "B", "C")),
              AttributeSchema("price", "categorical", "output", ("0", "1"))]
    return Dataset.from_columns(schema, {
        "income": [str(["low", "high"][v]) for v in s],
        "state": [str("ABC"[v]) for v in x],
        "price": [str(v) for v in o],
    })


def test_metric_auto_selection():
    d = binary_testing_dataset(400, seed=1)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",))
    assert select_metric(d, "income", "price", spec).kind.name == "diff"

    d5 = berkeley_admissions().with_encoded(
        AttributeSchema("race", "categorical", "protected", ("a", "b", "c", "d", "e")),
        np.arange(berkeley_admissions().n_rows) % 5)
    spec5 = TestingSpec(protected=("race",), output="admitted",
                        contextual=("department",))
    assert select_metric(d5, "race", "admitted", spec5).kind.name == "nmi"

    schema = [AttributeSchema("age", "continuous", "protected"),
              AttributeSchema("err", "continuous", "output")]
    ds = Dataset(schema, {"age": np.arange(10.0), "err": np.arange(10.0)})
    spec_c = TestingSpec(protected=("age",), output="err", contextual=())
    assert select_metric(ds, "age", "err", spec_c).kind.name == "corr"

    mixed = [AttributeSchema("age", "continuous", "protected"),
             AttributeSchema("price", "categorical", "output", ("0", "1"))]
    dm = Dataset(mixed, {"age": np.arange(4.0), "price": np.array([0, 1, 0, 1], dtype=np.int32)})
    spec_m = TestingSpec(protected=("age",), output="price", contextual=())
    with pytest.raises(MetricError, match="no canonical metric"):
        select_metric(dm, "age", "price", spec_m)


def test_compute_error_absolute_and_zero_one():
    absolute = compute_error(np.array([1.0, 2.0]), np.array([0.5, 3.0]), "absolute")
    assert absolute.dtype == np.float64 and absolute.tolist() == [0.5, 1.0]
    assert compute_error(np.array([1.0, 2.0]), np.array([1.0, 2.0]), "absolute").tolist() == [0.0, 0.0]
    # codes of one shared coding: ("a", "b") vs ("a", "c") with "c" outside the prediction's list
    zero_one = compute_error(np.array([0, 1], dtype=np.int32), np.array([0, 2]), "zero_one")
    assert zero_one.dtype == np.int32 and zero_one.tolist() == [0, 1]
    with pytest.raises(DataError):
        compute_error(np.array([1.0]), np.array([1.0, 2.0]), "absolute")
    # a missing value on either side yields a missing error
    assert np.isnan(compute_error(np.array([np.nan, 1.0]), np.array([1.0, np.nan]), "absolute")).all()
    assert compute_error(np.array([-1, 0, 1]), np.array([0, -1, 1]), "zero_one").tolist() == [-1, -1, 0]


def test_attached_errors_match_decoded_cell_comparison():
    # zero_one: the two columns list their categories in different orders, truth
    # has a category the prediction lacks, and either side may be missing
    pred = ["a", "b", "a", "", "b", "a", "b"]
    truth = ["a", "a", "c", "b", "", "b", "b"]
    d = Dataset.from_columns(
        [AttributeSchema("pred", "categorical", "ignored", ("b", "a")),
         AttributeSchema("truth", "categorical", "ignored", ("a", "c", "b"))],
        {"pred": pred, "truth": truth})
    spec = ErrorProfilingSpec(protected=("s",), output="pred",
                              ground_truth="truth", error_kind="zero_one")
    view = d.select([ContextPredicate("truth", "in", values=("a", "b", "c"))])
    got = _attach_error(view, spec)
    want = [None if not p or not t else str(int(p != t))
            for p, t in zip(pred, truth) if t]
    assert got.attribute("0/1 Error(pred)").categories == ("0", "1")
    assert got.values("0/1 Error(pred)") == want
    # absolute: an ordinal truth and a continuous prediction with missing cells
    d = Dataset.from_columns(
        [AttributeSchema("pred", "continuous"),
         AttributeSchema("truth", "ordinal", "ignored", ("1", "2.5"))],
        {"pred": [3.0, None, 1.5, 0.25], "truth": ["2.5", "1", "", "1"]})
    spec = ErrorProfilingSpec(protected=("s",), output="pred",
                              ground_truth="truth")
    got = _attach_error(d, spec).scalar_values("Abs. Error(pred)")
    assert np.array_equal(got, [0.5, np.nan, np.nan, 0.75], equal_nan=True)


def test_spec_validation():
    # the common spec has no kind; an unknown kind in a state file is tested in test_cli
    with pytest.raises(AttributeError, match="kind"):
        InvestigationSpec(protected=("a",), output="o")
    with pytest.raises(DataError):
        TestingSpec(protected=(), output="o")
    with pytest.raises(TypeError, match="ground_truth"):
        ErrorProfilingSpec(protected=("a",), output="o")
    with pytest.raises(DataError, match="unknown error kind 'bogus'"):
        ErrorProfilingSpec(protected=("a",), output="o", ground_truth="g", error_kind="bogus")
    with pytest.raises(DataError):
        DiscoverySpec(protected=("a",), output="o")
    with pytest.raises(DataError, match="top_k must be at least 1"):
        DiscoverySpec(protected=("a",), output=("l1",), top_k=0)
    with pytest.raises(DataError, match="'a' is named as both protected and explanatory"):
        TestingSpec(protected=("a",), output="o", explanatory="a")


@pytest.mark.parametrize("spec_type, output, own, foreign", [
    (TestingSpec, "o", {}, ("top_k", "ground_truth", "error_kind")),
    (DiscoverySpec, ("l1", "l2"), {"top_k": 1}, ("ground_truth", "error_kind")),
    (ErrorProfilingSpec, "o", {"ground_truth": "g", "error_kind": "zero_one"}, ("top_k",)),
], ids=[TESTING, DISCOVERY, "error_profiling"])
def test_each_kind_refuses_the_settings_of_the_others(spec_type, output, own, foreign):
    valid = {"top_k": 5, "ground_truth": "g", "error_kind": "zero_one"}
    spec_type(protected=("s",), output=output, **own)
    for name in foreign:
        with pytest.raises(TypeError, match=name):
            spec_type(protected=("s",), output=output, **own, **{name: valid[name]})
    # a kind that ignores a setting refuses even a value its own kind would reject,
    # as in TestingSpec(..., top_k=0, error_kind="bogus")
    invalid = {"top_k": 0, "error_kind": "bogus"}
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        spec_type(protected=("s",), output=output, **own,
                  **{name: invalid[name] for name in foreign if name in invalid})


@pytest.mark.parametrize("kind, output", [(TESTING, "o"), (DISCOVERY, ("l1", "l2"))],
                         ids=[TESTING, DISCOVERY])
def test_ground_truth_outside_error_profiling_is_a_data_error(kind, output):
    # the column would take a role and drop the rows where it is missing: only an
    # error-profiling spec has the setting, and a saved spec that gives it to
    # another kind is refused
    obj = {"kind": kind, "protected": ["s"], "output": output, "tree": {}, "stats": {}}
    assert _spec_from_obj(obj).kind == kind
    with pytest.raises(DataError, match=f"a spec of kind '{kind}' takes no setting 'ground_truth'"):
        _spec_from_obj({**obj, "ground_truth": "g"})


def test_pipeline_end_to_end_and_leakage():
    d = binary_testing_dataset(6000, seed=3)
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=3)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=3),
                       tree=TreeParams(min_size=100, max_depth=3))
    trained = train(spec, ds.train)
    test_view = ds.next_test_set()
    validated = validate(trained, test_view)
    reports = filter_and_rank(validated)
    assert len(reports) == 1
    rm = reports[0]
    assert rm.global_finding is not None
    assert rm.global_finding.tested.corrected_p < 0.05  # strong planted global effect
    # no training leakage: every reported context re-materializes inside test rows
    test_ids = set(test_view.row_ids().tolist())
    train_ids = set(ds.train.row_ids().tolist())
    assert test_ids.isdisjoint(train_ids)
    trained_predicate_sets = {c.predicates for u in trained.units for c in u.contexts}
    for f in [rm.global_finding] + list(rm.findings):
        assert f.predicates in trained_predicate_sets  # reported ⊆ trained
        ctx = test_view.select(list(f.predicates))
        assert set(ctx.row_ids().tolist()) <= test_ids
        assert ctx.n_rows >= f.size  # finding sizes counted after missing-drop


def test_validate_drops_tiny_test_contexts(caplog):
    d = binary_testing_dataset(3000, seed=4)
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=4)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=4),
                       tree=TreeParams(min_size=100, max_depth=2))
    trained = train(spec, ds.train)
    # fabricate an extra candidate that cannot exist in test data
    unit = trained.units[0]
    ghost = unit.contexts[0].__class__(
        (ContextPredicate("state", "in", values=("A",)),
         ContextPredicate("income", "in", values=("low",)),
         ContextPredicate("price", "in", values=("0",)),
         ContextPredicate("price", "in", values=("1",))),  # contradictory: no rows
        150, 0.1)
    unit.contexts.append(ghost)
    validated = validate(trained, ds.next_test_set())
    assert validated.dropped_contexts >= 1
    assert all(f.predicates != ghost.predicates for f in validated.findings)


def make_tm(est, lo, hi, p, kind="nmi"):
    return TestedMetric(value=MetricValue(MetricKind(kind), est), ci=(lo, hi), p=p,
                        method="asymptotic", corrected_p=p, corrected_ci=(lo, hi))


def finding(predicates, est, lo, hi, p, size=1000, kind="nmi"):
    return Finding(protected="income", output="price", label=None,
                   predicates=tuple(predicates), size=size,
                   tested=make_tm(est, lo, hi, p, kind))


# the test rows of fake_result, one per (state, income, price), so every
# display below counts one row per cell
FAKE_VIEW = Dataset.from_columns(
    [AttributeSchema("state", "categorical", "contextual", ("A", "B")),
     AttributeSchema("income", "categorical", "protected", ("low", "high")),
     AttributeSchema("price", "categorical", "output", ("0", "1"))],
    {"state": list("AAAABBBB"), "income": ["low", "low", "high", "high"] * 2,
     "price": list("01010101")})


def fake_result(findings):
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",))
    return ValidationResult(spec=spec, view=FAKE_VIEW, findings=findings,
                            family_size=len(findings), train_size=1000, test_size=1000,
                            dropped_train=0, dropped_test=0, dropped_contexts=0)


def shown_displays(rm):
    """The row count of each display a report shows, by predicates."""
    shown = ([rm.global_finding] if rm.global_finding else []) + list(rm.findings)
    return {f.predicates: sum(map(sum, f.display.counts)) for f in shown}


P_CA = ContextPredicate("state", "in", values=("A",))
P_RACE = ContextPredicate("income", "in", values=("low",))  # stands in for any refinement



def test_report_renders_a_context_at_an_infinite_threshold():
    # the quantile between the last -inf and the first finite value is -inf,
    # so the tree splits at x <= -inf: 12 rows where the output equals s
    n = 106
    x = np.concatenate([np.full(12, -np.inf), np.linspace(0, 1, n - 12)])
    s = np.arange(n) % 2
    o = np.where(np.arange(n) < 12, s, 0)
    schema = [AttributeSchema("x", "continuous", "contextual"),
              AttributeSchema("s", "categorical", "protected", ("0", "1")),
              AttributeSchema("o", "categorical", "output", ("0", "1"))]
    view = Dataset(schema, {"x": x, "s": s.astype(np.int32), "o": o.astype(np.int32)})
    spec = TestingSpec(protected=("s",), output="o", contextual=("x",),
                       tree=TreeParams(min_size=10, max_depth=1))
    trained = train(spec, view)
    assert [[p.describe() for p in c.predicates] for c in trained.units[0].contexts] == [
        [], ["x <= -inf"], ["x > -inf"]]
    text = "".join(render_text(r) for r in filter_and_rank(validate(trained, view)))
    assert "Context = x <= -inf\n" in text


def test_filter_and_rank_nesting_rule():

    parent = finding([P_CA], 0.09, 0.08, 0.12, 0.001)
    child = finding([P_CA, P_RACE], 0.06, 0.05, 0.30, 0.001, size=300)
    g = finding([], 0.01, 0.001, 0.02, 0.001, size=1000)
    rm = filter_and_rank(fake_result([g, parent, child]))[0]
    ranked = [f.predicates for f in rm.findings]
    assert (P_CA,) in ranked
    assert (P_CA, P_RACE) not in ranked  # child lower bound 0.05 <= parent's 0.08
    assert shown_displays(rm) == {(): 8, (P_CA,): 4}
    assert child.display is None  # not shown, so not built


def test_filter_and_rank_orders_by_lower_bound():
    # the two reference subpopulations: 0.0051 lower bound ranks above 0.0040
    a = finding([P_CA], 0.01, 0.0051, 0.0203, 0.001)
    b = finding([ContextPredicate("state", "in", values=("B",))], 0.02, 0.0040, 0.0975, 0.001)
    g = finding([], 0.0002, 0.0001, 0.0005, 1e-9)
    rm = filter_and_rank(fake_result([g, a, b]))[0]
    assert [f.tested.corrected_ci[0] for f in rm.findings] == [0.0051, 0.0040]
    assert [f.rank for f in rm.findings] == [1, 2]
    assert shown_displays(rm) == {(): 8, a.predicates: 4, b.predicates: 4}


def test_filter_and_rank_insignificant_report():
    g = finding([], 0.01, -0.01, 0.03, 0.6, kind="diff")
    sub = finding([P_CA], 0.05, -0.01, 0.11, 0.2, kind="diff")
    rm = filter_and_rank(fake_result([g, sub]))[0]
    assert rm.findings == ()
    assert rm.global_finding is not None
    assert shown_displays(rm) == {(): 8} and sub.display is None
    text = render_text(rm)
    assert "not significant" in text
    assert "Total | 4 (50%) | 4 (50%) | 8 (100%)" in text


def test_discovery_top_k_bounds():
    rng = np.random.default_rng(6)
    n = 3000
    s = rng.integers(0, 2, n)
    labels = {}
    for j in range(6):
        shift = 0.25 if j == 0 else 0.0
        p = np.where(s == 1, 0.3 + shift, 0.3 - shift if j == 0 else 0.3)
        labels[f"L{j}"] = (rng.random(n) < p).astype(int)
    schema = [AttributeSchema("race", "categorical", "protected", ("b", "w")),
              AttributeSchema("grp", "categorical", "contextual", ("g0", "g1"))]
    cols = {"race": [str("bw"[v]) for v in s],
            "grp": [str(f"g{v}") for v in rng.integers(0, 2, n)]}
    for name, vals in labels.items():
        schema.append(AttributeSchema(name, "categorical", "output", ("0", "1")))
        cols[name] = [str(v) for v in vals]
    d = Dataset.from_columns(schema, cols)
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=6, min_size=50)

    for top_k, expect in ((1, 1), (6, 6), (35, 6)):
        spec = DiscoverySpec(protected=("race",), output=tuple(labels),
                             contextual=("grp",), top_k=top_k,
                             tree=TreeParams(min_size=200, max_depth=1),
                             stats=StatConfig(seed=6))
        trained = train(spec, ds.train)
        assert len({u.bound.output for u in trained.units}) == expect
        if top_k == 6:
            assert trained.units[0].bound.output == "L0"  # strongest label ranks first


def test_error_profiling_zero_one():
    rng = np.random.default_rng(8)
    n = 3000
    s = rng.integers(0, 2, n)
    truth = rng.integers(0, 2, n)
    wrong = rng.random(n) < np.where(s == 1, 0.4, 0.1)
    pred = np.where(wrong, 1 - truth, truth)
    schema = [AttributeSchema("sex", "categorical", "protected", ("f", "m")),
              AttributeSchema("region", "categorical", "contextual", ("r0", "r1")),
              AttributeSchema("pred", "categorical", "ignored", ("0", "1")),
              AttributeSchema("truth", "categorical", "ignored", ("0", "1"))]
    cols = {"sex": [str("fm"[v]) for v in s],
            "region": [f"r{v}" for v in rng.integers(0, 2, n)],
            "pred": [str(v) for v in pred],
            "truth": [str(v) for v in truth]}
    d = Dataset.from_columns(schema, cols)
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=8, min_size=50)
    spec = ErrorProfilingSpec(protected=("sex",), output="pred",
                              ground_truth="truth", error_kind="zero_one",
                              contextual=("region",), tree=TreeParams(min_size=100, max_depth=2),
                              stats=StatConfig(seed=8))
    run = run_investigation(spec, ds)
    rm = run.reports[0]
    assert rm.output == "0/1 Error(pred)"
    assert rm.global_finding.tested.corrected_p < 0.01
    assert rm.global_finding.tested.value.value < 0  # f errs less than m: diff(f-m) < 0


def test_family_of_one_correction_is_identity():
    d = berkeley_admissions()
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=1)
    spec = TestingSpec(protected=("gender",), output="admitted",
                       contextual=("department",), stats=StatConfig(seed=1))
    trained = train(spec, ds.train)
    validated = validate(trained, ds.next_test_set())
    assert validated.family_size == 1  # mean dept score never beats the global here
    g = validated.findings[0]
    assert g.tested.corrected_p == g.tested.p
    assert g.tested.corrected_ci == pytest.approx(g.tested.ci, abs=1e-12)


def test_error_profiling_debug_with_explanatory_correlation():
    # age-error correlation that vanishes once prediction confidence is held fixed
    rng = np.random.default_rng(17)
    n = 6000
    age = rng.uniform(20, 90, n)
    conf = rng.choice(2, n)
    truth = rng.normal(2.0, 1.0, n)
    scale = np.where(conf == 0, 0.2 + 0.015 * (age - 20), 0.3)
    pred = truth + rng.normal(0, 1, n) * scale
    schema = [AttributeSchema("age", "continuous", "protected"),
              AttributeSchema("confidence", "categorical", "explanatory", ("low", "high")),
              AttributeSchema("urgent", "categorical", "contextual", ("no", "yes")),
              AttributeSchema("pred", "continuous", "ignored"),
              AttributeSchema("truth", "continuous", "ignored")]
    d = Dataset(schema, {"age": age, "confidence": conf.astype(np.int32),
                         "urgent": rng.choice(2, n, p=[0.7, 0.3]).astype(np.int32),
                         "pred": pred, "truth": truth})
    ds = make_datasource(d, budget=2, train_fraction=0.4, seed=17)
    spec = ErrorProfilingSpec(protected=("age",), output="pred",
                              ground_truth="truth", error_kind="absolute",
                              contextual=("urgent",), tree=TreeParams(min_size=200, max_depth=2),
                              stats=StatConfig(seed=17))
    run = run_investigation(spec, ds)
    dbg = debug_with_explanatory(run.trained, "confidence", ds.next_test_set())
    g = dbg.reports[0].global_finding
    assert g.metric == "COND-CORR"
    low = next(sf for sf in g.strata if sf.value == "low")
    high = next(sf for sf in g.strata if sf.value == "high")
    assert low.tested.corrected_p < 0.05 and low.tested.value.value > 0.3
    assert high.tested.corrected_p > 0.05 and abs(high.tested.value.value) < 0.15


def test_debug_budget_contract():
    d = binary_testing_dataset(6000, seed=9)
    ds = make_datasource(d, budget=2, train_fraction=0.5, seed=9)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=9))
    run = run_investigation(spec, ds)
    dbg = debug_with_explanatory(run.trained, "state", ds.next_test_set())
    assert dbg.reports[0].explanatory == "state"
    assert dbg.reports[0].metric.startswith("COND-")
    with pytest.raises(BudgetError):
        ds.next_test_set()


def test_debug_constant_explanatory_matches_unconditional():
    d = binary_testing_dataset(6000, seed=10)
    d = d.with_encoded(AttributeSchema("const", "categorical", "explanatory", ("only",)),
                       np.zeros(d.n_rows, dtype=np.int32))
    ds = make_datasource(d, budget=2, train_fraction=0.5, seed=10)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=10))
    run = run_investigation(spec, ds)
    fresh = ds.next_test_set()
    dbg = debug_with_explanatory(run.trained, "const", fresh)
    g = dbg.reports[0].global_finding
    # aggregate over one stratum equals the plain metric on the same rows
    plain = evaluate_metric(fresh, run.trained.units[0].bound, StatConfig()).value.value
    assert g.tested.value.value == pytest.approx(plain, abs=1e-12)


def test_missing_rows_dropped_and_counted():
    d = binary_testing_dataset(3000, seed=11)
    prices = d.values("price")
    prices[5] = None
    schema = list(d.schema)
    cols = {"income": d.values("income"), "state": d.values("state"), "price": prices}
    d2 = Dataset.from_columns(schema, cols)
    ds = make_datasource(d2, budget=1, train_fraction=0.5, seed=11)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=11))
    trained = train(spec, ds.train)
    validated = validate(trained, ds.next_test_set())
    assert trained.dropped_train + validated.dropped_test == 1


def test_pipeline_bit_determinism_and_thread_invariance():
    d = binary_testing_dataset(8000, seed=12)
    texts = []
    for _ in range(2):
        ds = make_datasource(d, budget=1, train_fraction=0.5, seed=12)
        spec = TestingSpec(protected=("income",), output="price",
                           contextual=("state",), stats=StatConfig(seed=12),
                           tree=TreeParams(min_size=100, max_depth=3))
        trained = train(spec, ds.train)
        validated = validate(trained, ds.next_test_set())
        texts.append("".join(render_text(r) for r in filter_and_rank(validated)))
    assert texts[0] == texts[1]
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=12)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=12),
                       tree=TreeParams(min_size=100, max_depth=3))
    rerun = run_investigation(spec, ds)
    assert "".join(render_text(r) for r in rerun.reports) == texts[0]


def test_nmi_pipeline_with_ordinal_and_continuous_contexts():
    rng = np.random.default_rng(21)
    n = 30_000
    race = rng.choice(5, n, p=[0.3, 0.25, 0.2, 0.15, 0.1])
    edu = rng.choice(4, n)
    age = rng.uniform(18, 80, n)
    mask = (edu <= 1) & (age <= 42)
    p_low = np.where(mask & (race == 1), 0.85, 0.55)
    income = (rng.random(n) < p_low).astype(int)
    schema = [
        AttributeSchema("race", "categorical", "protected",
                        ("asian", "black", "latino", "white", "other")),
        AttributeSchema("education", "ordinal", "contextual", ("9", "10", "11", "12")),
        AttributeSchema("age", "continuous", "contextual"),
        AttributeSchema("income", "categorical", "output", (">50K", "<=50K")),
    ]
    d = Dataset(schema, {"race": race.astype(np.int32), "education": edu.astype(np.int32),
                         "age": age, "income": income.astype(np.int32)})
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=21)
    spec = TestingSpec(protected=("race",), output="income",
                       contextual=("education", "age"),
                       tree=TreeParams(min_size=200, max_depth=3),
                       stats=StatConfig(seed=21))
    run = run_investigation(spec, ds)
    rm = run.reports[0]
    assert rm.metric == "NMI"  # 5-category protected attribute
    assert rm.global_finding.tested.corrected_p < 0.05
    assert rm.findings, "planted low-education/young region must be reported"
    top = rm.findings[0]
    ops = {(p.attribute, p.op) for p in top.predicates}
    assert ("education", "le") in ops or ("age", "le") in ops
    assert top.tested.value.value > 5 * rm.global_finding.tested.value.value
    from uatest.report import report_from_obj, report_to_obj
    assert report_from_obj(json.loads(json.dumps(report_to_obj(rm)))) == rm


def nested_dataset(n, seed):
    """Disparity only inside state A among rows with age above 50, so the tree
    registers contexts two and three predicates deep."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    state = rng.integers(0, 3, n)
    age = rng.uniform(18, 80, n)
    inside = (state == 0) & (age > 50)
    p = np.where(inside, np.where(s == 1, 0.75, 0.25), 0.5)
    schema = [AttributeSchema("income", "categorical", "protected", ("low", "high")),
              AttributeSchema("state", "categorical", "contextual", ("A", "B", "C")),
              AttributeSchema("age", "continuous", "contextual"),
              AttributeSchema("level", "ordinal", "explanatory", ("1", "2", "3")),
              AttributeSchema("price", "categorical", "output", ("0", "1"))]
    return Dataset(schema, {"income": s.astype(np.int32), "state": state.astype(np.int32),
                            "age": age, "level": rng.integers(0, 3, n).astype(np.int32),
                            "price": (rng.random(n) < p).astype(np.int32)})


def test_validate_does_not_depend_on_context_order():
    ds = make_datasource(nested_dataset(8000, seed=21), budget=1, train_fraction=0.5, seed=21)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state", "age"), stats=StatConfig(seed=21),
                       tree=TreeParams(min_size=100, max_depth=3))
    trained = train(spec, ds.train)
    assert max(c.depth for c in trained.units[0].contexts) >= 3
    test_view = ds.next_test_set()

    def summary(result):
        # p-values and CIs follow each context's task index, so only
        # order-free fields are compared; validate builds no display, so
        # each finding's is built here from the rows it was tested on
        return {f.predicates: (f.size, _make_display(result.view, f.predicates, f.protected,
                                                     f.output, f.tested.value.kind),
                               f.tested.value.value) for f in result.findings}

    forward = validate(trained, test_view)
    assert all(sum(map(sum, display.counts)) == size
               for size, display, _ in summary(forward).values())
    for unit in trained.units:
        unit.contexts.reverse()  # every context now precedes its parent
    backward = validate(trained, test_view)
    assert summary(backward) == summary(forward)
    assert backward.dropped_contexts == forward.dropped_contexts


def test_debug_strata_on_an_ordinal_explanatory_attribute():
    ds = make_datasource(nested_dataset(8000, seed=22), budget=2, train_fraction=0.5, seed=22)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=22),
                       tree=TreeParams(min_size=100, max_depth=1))
    run = run_investigation(spec, ds)
    fresh = ds.next_test_set()
    dbg = debug_with_explanatory(run.trained, "level", fresh)
    g = dbg.reports[0].global_finding
    assert [sf.value for sf in g.strata] == ["1", "2", "3"]
    levels = fresh.values("level")
    for sf in g.strata:
        assert sf.size == levels.count(sf.value)
        assert sum(map(sum, sf.display.counts)) == sf.size


def test_debug_strata_follow_the_conditional_metric():
    # explanatory e: "z" is empty, "q" holds about 5 test rows (below
    # MIN_STRATUM), only protected group "low" has e == "r" (DIFF undefined);
    # "p" and "t" are tested, after "q" in category order
    rng = np.random.default_rng(31)
    n = 4000
    e = rng.choice(np.array([1, 2, 3, 4]), n, p=[0.005, 0.495, 0.25, 0.25])
    s = np.where(e == 3, 0, rng.integers(0, 2, n))
    o = (rng.random(n) < np.where(s == 1, 0.6, 0.4)).astype(int)
    schema = [AttributeSchema("income", "categorical", "protected", ("low", "high")),
              AttributeSchema("state", "categorical", "contextual", ("A", "B")),
              AttributeSchema("e", "categorical", "explanatory", ("z", "q", "p", "r", "t")),
              AttributeSchema("price", "categorical", "output", ("0", "1"))]
    d = Dataset(schema, {"income": s.astype(np.int32),
                         "state": rng.integers(0, 2, n).astype(np.int32),
                         "e": e.astype(np.int32), "price": o.astype(np.int32)})
    ds = make_datasource(d, budget=2, train_fraction=0.5, seed=31)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=31),
                       tree=TreeParams(min_size=100, max_depth=1))
    run = run_investigation(spec, ds)
    fresh = ds.next_test_set()
    dbg = debug_with_explanatory(run.trained, "e", fresh)
    cats = d.attribute("e").categories
    notes = {"below minimum stratum size", "DIFF undefined on this population"}
    for f in dbg.validated.findings:
        ctx = fresh.select(f.predicates)
        present = [c for c in cats if c in ctx.values("e")]
        assert [sf.value for sf in f.strata] == present
        assert all(sf.note in notes for sf in f.strata if sf.tested is None)

    g = dbg.reports[0].global_finding
    assert {sf.value: sf.note for sf in g.strata} == {
        "q": "below minimum stratum size", "p": None,
        "r": "DIFF undefined on this population", "t": None}
    base = run.trained.units[0].bound
    for k, sf in enumerate(g.strata):
        if sf.tested is None:
            continue
        stratum = fresh.select((ContextPredicate("e", "in", values=(sf.value,)),))
        ref = evaluate_metric(stratum, base, spec.stats, (1, 0, k))
        assert (sf.tested.value.value, sf.tested.p, sf.tested.ci) == (
            ref.value.value, ref.p, ref.ci)


def test_validate_builds_each_distinct_context_once(monkeypatch):
    rng = np.random.default_rng(23)
    n = 6000
    s = rng.integers(0, 2, n)
    grp = rng.integers(0, 2, n)
    schema = [AttributeSchema("race", "categorical", "protected", ("b", "w")),
              AttributeSchema("grp", "categorical", "contextual", ("g0", "g1")),
              AttributeSchema("region", "categorical", "contextual", ("n", "s", "e"))]
    cols = {"race": s.astype(np.int32), "grp": grp.astype(np.int32),
            "region": rng.integers(0, 3, n).astype(np.int32)}
    for j in range(4):  # opposite biases in the two groups: every tree splits on grp first
        shift = np.where(grp == 0, 0.2, -0.2) + 0.02 * j
        p = np.where(s == 1, 0.5 + shift, 0.5 - shift)
        schema.append(AttributeSchema(f"L{j}", "categorical", "output", ("0", "1")))
        cols[f"L{j}"] = (rng.random(n) < p).astype(np.int32)
    ds = make_datasource(Dataset(schema, cols), budget=1, train_fraction=0.5, seed=23)
    spec = DiscoverySpec(protected=("race",),
                         output=tuple(f"L{j}" for j in range(4)),
                         contextual=("grp", "region"), top_k=4,
                         tree=TreeParams(min_size=200, max_depth=2),
                         stats=StatConfig(seed=23))
    trained = train(spec, ds.train)
    assert len(trained.units) >= 3
    non_root = [c.predicates for u in trained.units for c in u.contexts if c.depth > 0]
    assert len(set(non_root)) < len(non_root)

    calls = []
    select = Dataset.select

    def counting_select(self, predicates):
        calls.append(tuple(predicates))
        return select(self, predicates)

    monkeypatch.setattr(Dataset, "select", counting_select)
    gathered = []
    cell_codes = metrics.cell_codes
    monkeypatch.setattr(metrics, "cell_codes",
                        lambda view, names: gathered.append(names) or cell_codes(view, names))
    result = validate(trained, ds.next_test_set())
    assert calls == []  # a context is a member of a layer key, not a view
    # each unit's (output, protected) cells are gathered once, for all its layers
    assert gathered == [(u.bound.output, "race") for u in trained.units]
    for unit in trained.units:
        layers, where = _context_layers([c.predicates for c in unit.contexts])
        prefixes = {c.predicates[:k] for c in unit.contexts for k in range(c.depth + 1)}
        assert sum(len(layer.preds) for layer in layers) == len(prefixes)
        assert len(layers) == 1 + max(c.depth for c in unit.contexts)  # a layer per depth
        assert len(set(where)) == len({c.predicates for c in unit.contexts})
    assert all(f.display is None for f in result.findings)
    # filter_and_rank selects the rows of each finding it reports, once
    reports = filter_and_rank(result)
    shown = [f for rm in reports for f in rm.findings]
    assert 0 < len(shown) < len(result.findings)
    assert calls == [f.predicates for f in shown]
    assert all(sum(map(sum, f.display.counts)) == f.size for f in shown)
    assert all(f.display is None for f in result.findings if f.rank is None)


# -- layered validation against one test_metric call per context ------------------

LAYER_METRICS = {"DIFF": ("diff", None), "RATIO": ("ratio", None), "NMI": ("nmi", None),
                 "CORR": ("corr", None), "COND-DIFF": ("diff", "e"),
                 "COND-CORR": ("corr", "e")}


def _layer_population(seed: int, n: int, nmi: bool) -> Dataset:
    """Test rows for every metric: binary ``s`` and ``o`` (``o`` with three
    values for NMI), scalar ``sx`` and ``y``, explanatory ``e`` with a rare
    value, and context columns ``c`` (categorical, one value absent), ``v``
    (ordinal) and ``x`` (continuous, with ties, NaN and infinities)."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    o = (rng.random(n) < np.where(s == 1, 0.6, 0.4)).astype(np.int32)
    if nmi:
        o = np.where(rng.random(n) < 0.3, 2, o).astype(np.int32)
    sx = rng.normal(size=n)
    x = rng.integers(-3, 4, n).astype(float)
    x[rng.random(n) < 0.1] = np.nan
    x[rng.random(n) < 0.05] = np.inf
    x[rng.random(n) < 0.05] = -np.inf
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1", "2") if nmi else ("0", "1")),
              AttributeSchema("sx", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output"),
              AttributeSchema("e", "categorical", "explanatory", ("E0", "E1", "E2")),
              AttributeSchema("c", "categorical", "contextual", ("p", "q", "r", "t")),
              AttributeSchema("v", "ordinal", "contextual", ("1", "2", "3")),
              AttributeSchema("x", "continuous", "contextual")]
    return Dataset(schema, {
        "s": s.astype(np.int32), "o": o, "sx": sx, "y": 0.3 * sx + rng.normal(size=n),
        "e": rng.choice(3, n, p=[0.47, 0.47, 0.06]).astype(np.int32),
        "c": rng.choice(3, n, p=[0.5, 0.3, 0.2]).astype(np.int32),  # "t" is absent
        "v": rng.integers(0, 3, n).astype(np.int32), "x": x})


SPLITS = {
    "c": [ContextPredicate("c", "in", values=(v,)) for v in "pqrt"],
    "v": [ContextPredicate("v", "le", threshold=1.0), ContextPredicate("v", "gt", threshold=1.0)],
    "x": [ContextPredicate("x", "le", threshold=0.0), ContextPredicate("x", "gt", threshold=0.0)],
    "x inf": [ContextPredicate("x", "le", threshold=np.inf),
              ContextPredicate("x", "gt", threshold=np.inf)],
    "x nan": [ContextPredicate("x", "le", threshold=np.nan),
              ContextPredicate("x", "gt", threshold=np.nan)],
    # siblings that may share rows, as a hand-written state file can hold
    "overlap": [ContextPredicate("c", "in", values=("p", "q")),
                ContextPredicate("c", "in", values=("q",)),
                ContextPredicate("x", "le", threshold=1.0),
                ContextPredicate("x", "le", threshold=-1.0),
                ContextPredicate("v", "in", values=("2",)),
                ContextPredicate("e", "in", values=("E0",))],
}


@st.composite
def context_trees(draw):
    """Contexts in depth-first order, root first: a random tree of splits
    up to depth 5, then a duplicate and a ghost path as a state file may
    hold them."""
    contexts = [()]

    def grow(prefix):
        if len(prefix) == 5 or len(contexts) > 24 or not draw(st.booleans()):
            return
        for pred in SPLITS[draw(st.sampled_from(sorted(SPLITS)))]:
            if len(contexts) <= 24:
                contexts.append(prefix + (pred,))
                grow(prefix + (pred,))

    grow(())
    contexts.append(draw(st.sampled_from(contexts)))
    ghost = draw(st.lists(st.sampled_from([p for ps in SPLITS.values() for p in ps]),
                          min_size=1, max_size=5))
    return contexts + [tuple(ghost)]


def _reference(cleaned, unit, spec):
    """(predicates, size, tested, strata) of each finding, from one
    ``test_metric`` of ``cleaned.select(predicates)`` per context."""
    bound, cfg = unit.bound, spec.stats
    out, i = [], 0
    for node in unit.contexts:
        ctx = cleaned.select(node.predicates)
        if node.depth > 0 and ctx.n_rows < spec.tree.min_size // 2:
            continue
        entropy, i = (1, i), i + 1
        try:
            tested = evaluate_metric(ctx, bound, cfg, entropy)
        except MetricError:
            continue
        strata = []
        if bound.conditional:
            counts = bound.counts(ctx)
            key, groups = counts.stratum_key(np.zeros(ctx.n_rows, dtype=np.intp))
            vals, sizes = counts.group_values(key, groups)
            kept = np.flatnonzero(stratum_weights(vals, sizes, bound.min_stratum))
            for k, code in enumerate(np.flatnonzero(sizes)):
                t = None
                if code in kept:
                    try:
                        t = evaluate_metric(ctx._subset(np.flatnonzero(key == code)),
                                            bound.unconditional(), cfg, entropy + (k,))
                    except MetricError:
                        pass
                strata.append((ctx.attribute("e").categories[code], int(sizes[code]), t))
        out.append((node.predicates, ctx.n_rows, tested, strata))
    return out


def _numbers(t):
    return None if t is None else (t.value.value, t.p, t.ci, t.method)


@pytest.mark.parametrize("metric", sorted(LAYER_METRICS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(contexts=context_trees(), seed=st.integers(0, 2**16),
       threshold=st.sampled_from([60, 150, 1000]))
def test_layered_validation_matches_one_test_per_context(metric, contexts, seed, threshold):
    name, explanatory = LAYER_METRICS[metric]
    view = _layer_population(seed, 400, nmi=name == "nmi")
    corr = name == "corr"
    spec = TestingSpec(protected=("sx" if corr else "s",), output="y" if corr else "o",
                       explanatory=explanatory, tree=TreeParams(min_size=20),
                       stats=StatConfig(seed=seed, small_sample_threshold=threshold,
                                        n_permutations=100, n_bootstrap=100))
    bound = BoundMetric(MetricKind(name, explanatory), spec.protected[0], spec.output)
    unit = TrainUnit(bound.resolve(view), [ContextNode(c, 0, 0.0) for c in contexts],
                     TreeStats())
    result = validate(TrainedInvestigation(spec, [unit], view.n_rows, 0), view)
    cleaned = view.drop_missing(spec.used_attributes())
    want = _reference(cleaned, unit, spec)
    assert [f.predicates for f in result.findings] == [w[0] for w in want]
    for f, (_, size, tested, strata) in zip(result.findings, want):
        assert f.size == size
        assert _numbers(f.tested) == _numbers(tested)
        assert [(sf.value, sf.size, _numbers(sf.tested)) for sf in f.strata] == [
            (value, n, _numbers(t)) for value, n, t in strata]
    assert result.dropped_contexts == len(contexts) - len(want)


def test_train_logs_one_line_per_tree(caplog):
    d = binary_testing_dataset(3000, seed=4)
    spec = TestingSpec(protected=("income",), output="price", contextual=("state",),
                       tree=TreeParams(min_size=100, max_depth=2))
    with caplog.at_level(logging.INFO, logger="uatest.investigations"):
        trained = train(spec, d)
    (unit,) = trained.units
    stats = unit.tree_stats
    # the root's level splits it by state; the three states' level finds no split
    assert (stats.n_levels, stats.n_nodes, len(unit.contexts)) == (2, 4, 4)
    (line,) = [r.getMessage() for r in caplog.records]
    assert line == (f"tree for protected 'income' and output 'price': 2 levels, "
                    f"{stats.n_nodes} nodes, {stats.n_metric_evals} metric evaluations, "
                    f"{len(unit.contexts)} contexts registered")

    labels = {f"L{j}": [str(v) for v in np.random.default_rng(j).integers(0, 2, d.n_rows)]
              for j in range(3)}
    schema = list(d.schema) + [AttributeSchema(name, "categorical", "output", ("0", "1"))
                               for name in labels]
    wide = Dataset.from_columns(schema, {**{a.name: d.values(a.name) for a in d.schema},
                                         **labels})
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="uatest.investigations"):
        trained = train(DiscoverySpec(protected=("income",), output=tuple(labels),
                                      contextual=("state",), top_k=2), wide)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("tree for")]
    assert [line.split(":")[0] for line in lines] == [
        f"tree for protected 'income' and label {u.bound.output!r}" for u in trained.units]


def test_validate_logs_one_summary_line(caplog):
    d = binary_testing_dataset(3000, seed=4)
    ds = make_datasource(d, budget=1, train_fraction=0.5, seed=4)
    spec = TestingSpec(protected=("income",), output="price",
                       contextual=("state",), stats=StatConfig(seed=4),
                       tree=TreeParams(min_size=100, max_depth=2))
    trained = train(spec, ds.train)
    ghost = (ContextPredicate("state", "in", values=("A",)),
             ContextPredicate("price", "in", values=("0",)),
             ContextPredicate("price", "in", values=("1",)))  # no rows
    trained.units[0].contexts.append(ContextNode(ghost, 150, 0.1))
    test = ds.next_test_set()
    with caplog.at_level(logging.INFO, logger="uatest.investigations"):
        result = validate(trained, test)
    (line,) = [r.getMessage() for r in caplog.records]
    contexts = len(trained.units[0].contexts)
    assert line == (f"validated {contexts} contexts: {len(result.findings)} tested, "
                    f"1 dropped with fewer than 50 test rows, 0 untestable; "
                    f"a family of {result.family_size} hypotheses")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="uatest.investigations"):
        validate(trained, test)
    detail = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert detail == ["dropped context ['state: A', 'price: 0', 'price: 1']: only 0 test rows"]
