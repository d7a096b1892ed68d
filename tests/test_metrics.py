import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatest.dataset import AttributeSchema, Dataset
from uatest.metrics import (
    L2_PENALTY,
    MAX_NEWTON_ITER,
    NEWTON_TOL,
    BoundMetric,
    MetricError,
    MetricKind,
    diff_from_tables,
    grouped_correlation,
    joint_counts,
    keyed_counts,
    logistic_label_scores,
    mi_from_tables,
    stratum_weights,
)
from uatest.stats import StatConfig
from uatest.stats import test_metric as evaluate_metric


def estimate(bound, view):
    """The point estimate of ``bound`` on ``view``, from ``stats.test_metric``;
    the MetricError of an untestable view."""
    return evaluate_metric(view, bound, StatConfig()).value.value


def table(counts):
    return np.asarray(counts, dtype=np.int64)


def table_metric(name, counts, target="Yes", group_a="Female", group_b="Male"):
    """DIFF or RATIO of the rows of a (admitted x gender) table, through
    ``estimate``."""
    d = dataset_from_table(counts)
    return estimate(BoundMetric(MetricKind(name), "gender", "admitted", target, group_a,
                                group_b), d)


def dataset_from_table(counts, protected="gender", output="admitted",
                       rows=("No", "Yes"), cols=("Female", "Male")):
    """Expand a contingency table back into per-row records."""
    o_vals, s_vals = [], []
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            o_vals += [r] * counts[i][j]
            s_vals += [c] * counts[i][j]
    schema = [AttributeSchema(protected, "categorical", "protected", tuple(cols)),
              AttributeSchema(output, "categorical", "output", tuple(rows))]
    return Dataset.from_columns(schema, {protected: s_vals, output: o_vals})


# frozen reference tables used across the suite:
# one department's 490-applicant admissions sample (strong female-favoring gap),
# and a half-million-user pricing table with a tiny but significant disparity
DEPT_A_SAMPLE = [[9, 161], [51, 269]]
PRICING_GLOBAL = [[15301, 13867], [234167, 231101]]


def test_contingency_reproduces_reference_table():
    d = dataset_from_table(DEPT_A_SAMPLE)
    counts = joint_counts(d, ("admitted", "gender"))
    assert counts.sum() == 490
    assert d.attribute("admitted").categories == ("No", "Yes")
    assert d.attribute("gender").categories == ("Female", "Male")
    assert np.array_equal(counts, DEPT_A_SAMPLE)


def test_contingency_schema_order_and_missing_rows():
    schema = [AttributeSchema("gender", "categorical", "protected", ("Male", "Female")),
              AttributeSchema("admitted", "categorical", "output", ("Yes", "No"))]
    d = Dataset.from_columns(schema, {
        "gender": ["Female", "Male", "Male", None, "Female"],
        "admitted": ["Yes", "No", None, "Yes", "Yes"],
    })
    # axes follow the schema's category order, not the order of first sight;
    # a row missing either value is not counted
    assert np.array_equal(joint_counts(d, ("admitted", "gender")), [[0, 2], [1, 0]])


def test_contingency_degenerate_views():
    d = dataset_from_table([[1, 0], [0, 0]])
    empty = d._subset(np.array([], dtype=np.int64))
    assert joint_counts(empty, ("admitted", "gender")).sum() == 0
    single = joint_counts(d, ("admitted", "gender"))
    assert single[0][0] == 1 and single.sum() == 1


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), groups=st.integers(0, 5))
def test_weighted_keyed_counts_equal_the_counts_of_the_expanded_rows(seed, n, shape, groups):
    rng = np.random.default_rng(seed)
    shape = tuple(shape)
    cells = rng.integers(-1, math.prod(shape), n)  # -1: a row with a missing cell
    weights = rng.integers(1, 5, n)
    key = rng.integers(-1, groups, n) if groups else None
    got = keyed_counts(cells, shape, key, groups, weights)
    want = keyed_counts(np.repeat(cells, weights), shape,
                        None if key is None else np.repeat(key, weights), groups)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_contingency_requires_categorical():
    schema = [AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("o", "categorical", "output", ("a", "b"))]
    d = Dataset.from_columns(schema, {"x": [1.0, 2.0], "o": ["a", "b"]})
    with pytest.raises(MetricError, match="'x'"):
        joint_counts(d, ("o", "x"))


def test_mutual_information_perfect_dependence():
    t = table([[50, 0], [0, 50]])
    assert float(mi_from_tables(t, normalized=False)) == pytest.approx(math.log(2), abs=1e-12)
    assert float(mi_from_tables(t, normalized=True)) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_independence():
    t = table([[25, 25], [25, 25]])
    assert float(mi_from_tables(t, normalized=False)) == pytest.approx(0.0, abs=1e-12)
    assert float(mi_from_tables(t, normalized=True)) == pytest.approx(0.0, abs=1e-12)


def test_nmi_staples_global_inside_reported_interval():
    nmi = float(mi_from_tables(table(PRICING_GLOBAL), normalized=True))
    assert 0.0001 <= nmi <= 0.0005


def test_mutual_information_degenerate_errors():
    for counts in ([[10, 20], [0, 0]], [[10, 0], [20, 0]]):
        assert np.isnan(mi_from_tables(table(counts), normalized=True))
        d = dataset_from_table(counts)
        with pytest.raises(MetricError, match="NMI undefined"):
            estimate(BoundMetric(MetricKind("nmi"), "gender", "admitted"), d)


def test_nmi_range_and_transpose_symmetry():
    rng = np.random.default_rng(42)
    for _ in range(200):
        r, c = rng.integers(2, 5, 2)
        counts = rng.integers(0, 40, (r, c))
        counts[0, 0] += 1
        v = float(mi_from_tables(counts, normalized=True))
        if np.isnan(v):
            continue
        assert 0.0 <= v <= 1.0 + 1e-12
        mi = float(mi_from_tables(counts, normalized=False))
        mi_t = float(mi_from_tables(counts.T, normalized=False))
        assert mi == pytest.approx(mi_t, abs=1e-12)
        assert mi >= -1e-12


def test_binary_difference_berkeley_department_a():
    v = table_metric("diff", DEPT_A_SAMPLE)
    assert v == pytest.approx(51 / 60 - 269 / 430, abs=1e-12)
    assert abs(v - 0.2244) < 1e-4
    assert v == float(diff_from_tables(table(DEPT_A_SAMPLE), 1, 0, 1))


def test_binary_difference_antisymmetry_and_extremes():
    a = table_metric("diff", DEPT_A_SAMPLE, "Yes", "Female", "Male")
    b = table_metric("diff", DEPT_A_SAMPLE, "Yes", "Male", "Female")
    assert a == pytest.approx(-b, abs=1e-15)
    assert table_metric("diff", [[10, 0], [0, 10]], "No", "Female", "Male") == 1.0
    assert table_metric("diff", [[30, 60], [10, 20]]) == pytest.approx(0.0)
    assert np.isnan(diff_from_tables(table([[5, 0], [5, 0]]), 1, 0, 1))
    with pytest.raises(MetricError, match="DIFF undefined"):
        table_metric("diff", [[5, 0], [5, 0]])


def test_binary_ratio():
    # Pr(Yes|F)=0.4, Pr(Yes|M)=0.2
    assert table_metric("ratio", [[30, 40], [20, 10]]) == pytest.approx(1.0)
    assert table_metric("ratio", [[30, 60], [10, 20]]) == pytest.approx(0.0)
    with pytest.raises(MetricError, match="RATIO undefined"):
        table_metric("ratio", [[10, 10], [5, 0]])


def pearson(x, y):
    """Pearson correlation of two columns as every stage takes it: from
    their moments (``grouped_correlation``), over one group of all rows."""
    return float(grouped_correlation(x, y, np.zeros(len(x), dtype=np.intp), 1)[0][0])


def corr_value(x, y):
    """CORR of columns ``x`` and ``y`` through ``estimate``."""
    schema = [AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output")]
    d = Dataset(schema, {"x": np.asarray(x, dtype=np.float64),
                         "y": np.asarray(y, dtype=np.float64)})
    return estimate(BoundMetric(MetricKind("corr"), "x", "y"), d)


def test_pearson_correlation_basics():
    x = np.arange(10.0)
    assert pearson(x, x) == pytest.approx(1.0)
    assert corr_value(x, x) == pytest.approx(1.0)
    r = 3 / math.sqrt(2 * 14 / 3)
    assert pearson(np.array([1.0, 2, 3]), np.array([1.0, 2, 4])) == pytest.approx(r, abs=1e-12)
    # a row with a missing value in either column is left out
    assert corr_value([1.0, 2, np.nan, 3], [1.0, 2, 7, 4]) == pytest.approx(r, abs=1e-12)
    # a constant column or fewer than 3 rows: undefined
    assert np.isnan(pearson(x, np.zeros(10)))
    assert np.isnan(pearson(x[:2], x[:2]))
    for xs, ys in ((x, np.zeros(10)), (x[:2], x[:2])):
        with pytest.raises(MetricError, match="^CORR undefined on this population$"):
            corr_value(xs, ys)


def test_pearson_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(size=100)
        y = x + rng.normal(scale=0.6, size=100)
        r = pearson(x, y)
        r2 = pearson(3.5 * x + 11.0, 0.25 * y - 4.0)
        assert r2 == pytest.approx(r, abs=1e-12)
        assert pearson(-x, y) == pytest.approx(-r, abs=1e-12)


def test_logistic_scores_null_rarely_exceeds_three():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 5000
        s = rng.integers(0, 2, n)
        label = (rng.random(n) < 0.3).astype(float)
        scores = logistic_label_scores(label[:, None], s.astype(float), ["l0"])
        hits += scores.scores()[0] < 3.0
    assert hits >= 99


def test_logistic_scores_perfect_separation_is_finite_and_ranks_first():
    rng = np.random.default_rng(3)
    n = 2000
    s = rng.integers(0, 2, n)
    b = np.column_stack([
        s.astype(float),                       # perfectly separating label
        (rng.random(n) < 0.4).astype(float),
        (rng.random(n) < 0.2).astype(float),
    ])
    scores = logistic_label_scores(b, s.astype(float), ["sep", "n1", "n2"])
    assert np.all(np.isfinite(scores.coefficients))
    assert scores.top_labels(1) == ("sep",)


def test_logistic_single_balanced_label_near_zero_coefficient():
    rng = np.random.default_rng(11)
    n = 10000
    s = rng.integers(0, 2, n)
    label = (rng.random(n) < 0.5).astype(float)
    scores = logistic_label_scores(label[:, None], s.astype(float), ["l0"])
    assert abs(scores.coefficients[0]) < 0.1


def test_logistic_null_calibration_fraction():
    # shuffled protected labels: scores above the 99.5% normal quantile are rare
    z995 = 2.5758293035489004
    exceed = 0
    total = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = 1500
        d = 10
        b = (rng.random((n, d)) < 0.3).astype(float)
        s = rng.permutation(np.repeat([0.0, 1.0], n // 2))
        scores = logistic_label_scores(b, s, [f"l{j}" for j in range(d)])
        exceed += int(np.sum(scores.scores() > z995))
        total += d
    assert exceed / total <= 0.02


def test_logistic_rejects_constant_protected():
    with pytest.raises(MetricError):
        logistic_label_scores(np.zeros((10, 1)), np.zeros(10), ["l0"])


def newton_label_scores(indicators, protected):
    """The reference fit of ``logistic_label_scores``: damped Newton from
    beta = 0, one weighted Gram per step, no fixed-curvature phase. Returns
    the label coefficients and standard errors."""
    b = np.asarray(indicators, dtype=np.float64)
    y = np.asarray(protected, dtype=np.float64)
    n, d = b.shape
    x = np.hstack([np.ones((n, 1)), b])
    pen = np.full(d + 1, L2_PENALTY)
    pen[0] = 0.0
    beta = np.zeros(d + 1)

    def objective(bt):
        eta = x @ bt
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return ll - 0.5 * float(np.sum(pen * bt * bt))

    obj = objective(beta)
    for _ in range(MAX_NEWTON_ITER):
        eta = np.clip(x @ beta, -30, 30)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(p * (1.0 - p), 1e-10, None)
        grad = x.T @ (y - p) - pen * beta
        hess = (x.T * w) @ x + np.diag(np.maximum(pen, 1e-10))
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(30):
            if objective(beta + scale * step) >= obj - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        obj = objective(beta)
        if np.max(np.abs(scale * step)) < NEWTON_TOL:
            break
    se = np.sqrt(np.clip(np.diag(np.linalg.inv(hess)), 1e-300, None))
    return beta[1:], se[1:]


LABEL_DESIGNS = ("balanced", "rare", "separated", "wide")


def label_design(design, seed, order):
    """A 0/1 label matrix in ``order`` and a binary protected column:
    ``balanced`` (a 1/2 base rate), ``rare`` (a base rate near 3 %),
    ``separated`` (label l0 equals the protected value) or ``wide`` (about
    n/10 labels)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 3000))
    d = n // 10 if design == "wide" else int(rng.integers(1, 30))
    b = (rng.random((n, d)) < rng.uniform(0.05, 0.6, d)).astype(float)
    effect = np.where(rng.random(d) < 0.3, rng.normal(0.0, 0.5, d), 0.0)
    intercept = -3.5 if design == "rare" else -float(b.mean(axis=0) @ effect)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(intercept + b @ effect)))).astype(float)
    y[:2] = (0.0, 1.0)  # both protected values present
    if design == "separated":
        b[:, 0] = y
    return (np.asfortranarray(b) if order == "F" else np.ascontiguousarray(b)), y


def label_score(b, y, coefficients):
    """The penalized score X'(y - p) - P beta of the label coefficients, at
    the intercept that zeroes its own score (found by bisection: that score
    falls as the intercept rises)."""
    eta = b @ coefficients
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(y - 1.0 / (1.0 + np.exp(-np.clip(mid + eta, -700, 700)))) > 0:
            lo = mid
        else:
            hi = mid
    p = 1.0 / (1.0 + np.exp(-np.clip(0.5 * (lo + hi) + eta, -700, 700)))
    return b.T @ (y - p) - L2_PENALTY * coefficients


def label_inputs(test):
    """Run ``test`` over derandomized ``label_design`` inputs."""
    return settings(max_examples=80, deadline=None, derandomize=True)(
        given(design=st.sampled_from(LABEL_DESIGNS), seed=st.integers(0, 2**32 - 1),
              order=st.sampled_from("CF"))(test))


@label_inputs
def test_label_scores_match_damped_newton(design, seed, order):
    """The fixed-curvature phase moves no coefficient, standard error or
    ranking beyond the damped-Newton reference's own tolerance."""
    b, y = label_design(design, seed, order)
    labels = [f"l{j}" for j in range(b.shape[1])]
    scores = logistic_label_scores(b, y, labels)
    coefficients, stderr = newton_label_scores(b, y)
    np.testing.assert_allclose(scores.coefficients, coefficients, rtol=1e-8,
                               atol=1e-8 * np.max(np.abs(coefficients)))
    np.testing.assert_allclose(scores.stderr, stderr, rtol=1e-8)
    order_ref = np.argsort(-np.abs(coefficients) / stderr, kind="stable")
    assert scores.top_labels(len(labels)) == tuple(labels[i] for i in order_ref)


@label_inputs
def test_label_scores_are_stationary(design, seed, order):
    """Every label's penalized score is below NEWTON_TOL per row at the fit:
    the fixed-curvature phase hands over a point Newton finishes."""
    b, y = label_design(design, seed, order)
    scores = logistic_label_scores(b, y, [f"l{j}" for j in range(b.shape[1])])
    assert np.max(np.abs(label_score(b, y, scores.coefficients))) <= NEWTON_TOL * len(y)


def scoring_steps(caplog, indicators, protected):
    """The (fixed-curvature, Newton) step counts of one label scoring, from
    its debug line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="uatest.metrics"):
        logistic_label_scores(indicators, protected,
                              [f"l{j}" for j in range(indicators.shape[1])])
    (message,) = caplog.messages
    found = re.fullmatch(r"label scoring over \d+ rows and \d+ labels: (\d+) fixed-curvature "
                         r"steps, (\d+) Newton steps", message)
    return int(found[1]), int(found[2])


def test_label_scoring_logs_its_steps(caplog):
    rng = np.random.default_rng(4)
    n = 2000
    balanced = (rng.random((n, 50)) < rng.uniform(0.1, 0.5, 50)).astype(float)
    fixed, newton = scoring_steps(caplog, balanced, rng.integers(0, 2, n).astype(float))
    assert fixed >= 1 and newton <= 2
    # the input of test_logistic_scores_perfect_separation_is_finite_and_ranks_first
    rng = np.random.default_rng(3)
    s = rng.integers(0, 2, n)
    separated = np.column_stack([s.astype(float), (rng.random(n) < 0.4).astype(float),
                                 (rng.random(n) < 0.2).astype(float)])
    fixed, newton = scoring_steps(caplog, separated, s.astype(float))
    assert fixed <= 10 and newton >= 1




def berkeley_like_dataset():
    from uatest.data import berkeley_admissions
    return berkeley_admissions()


def test_conditional_metric_constant_explanatory_equals_unconditional():
    d = dataset_from_table([[40, 60], [60, 40]])
    d = d.with_encoded(AttributeSchema("e", "categorical", "explanatory", ("only",)),
                       np.zeros(d.n_rows, dtype=np.int32))
    bound = BoundMetric(MetricKind("diff", "e"), "gender", "admitted").resolve(d)
    assert estimate(bound, d) == pytest.approx(estimate(bound.unconditional(), d), abs=1e-12)


def stratum_values(bound, d):
    """The base metric's value and size in each explanatory stratum of ``d``."""
    counts = bound.counts(d)
    return counts.group_values(*counts.stratum_key(np.zeros(d.n_rows, dtype=np.intp)))


def test_conditional_metric_symmetric_strata_cancel():
    left = dataset_from_table([[30, 10], [10, 30]])     # DIFF(yes; F-M) = -0.5
    right = dataset_from_table([[10, 30], [30, 10]])    # DIFF = +0.5
    o = left.values("admitted") + right.values("admitted")
    s = left.values("gender") + right.values("gender")
    e = ["L"] * left.n_rows + ["R"] * right.n_rows
    schema = [AttributeSchema("gender", "categorical", "protected", ("Female", "Male")),
              AttributeSchema("admitted", "categorical", "output", ("No", "Yes")),
              AttributeSchema("e", "categorical", "explanatory", ("L", "R"))]
    d = Dataset.from_columns(schema, {"gender": s, "admitted": o, "e": e})
    bound = BoundMetric(MetricKind("diff", "e"), "gender", "admitted").resolve(d)
    assert estimate(bound, d) == pytest.approx(0.0, abs=1e-12)
    estimates, _ = stratum_values(bound, d)
    assert sorted(estimates) == pytest.approx([-0.5, 0.5])


def test_conditional_metric_berkeley_weighted_mean():
    d = berkeley_like_dataset()
    bound = BoundMetric(MetricKind("diff", "department"), "gender", "admitted").resolve(d)
    aggregate = estimate(bound, d)
    # independent oracle: direct size-weighted mean over department tables
    total = 0.0
    weight = 0
    for dept in "ABCDEF":
        sub = d.select([__import__("uatest.dataset", fromlist=["ContextPredicate"])
                       .ContextPredicate("department", "in", values=(dept,))])
        v = float(diff_from_tables(joint_counts(sub, ("admitted", "gender")), 1, 0, 1))
        total += sub.n_rows * v
        weight += sub.n_rows
    assert aggregate == pytest.approx(total / weight, abs=1e-12)
    assert aggregate == pytest.approx(0.0426, abs=2e-3)


def test_conditional_metric_small_strata_flagged():
    d = dataset_from_table([[40, 60], [60, 40]])
    e = np.repeat([0, 1], [d.n_rows - 4, 4])  # codes into ("big", "tiny")
    d = d.with_encoded(AttributeSchema("e", "categorical", "explanatory", ("big", "tiny")), e)
    bound = BoundMetric(MetricKind("diff", "e"), "gender", "admitted").resolve(d)
    vals, sizes = stratum_values(bound, d)
    kept = np.flatnonzero(stratum_weights(vals, sizes, bound.min_stratum))
    kept = {d.attribute("e").categories[k] for k in kept}
    assert "tiny" not in kept
    assert "big" in kept


def test_unknown_metric_name_is_refused():
    for name in ("reg", "DIFF", ""):
        with pytest.raises(MetricError, match="unknown metric"):
            MetricKind(name)


def test_bound_metric_resolution_defaults():
    d = dataset_from_table([[40, 60], [60, 40]])
    b = BoundMetric(MetricKind("diff"), "gender", "admitted").resolve(d)
    assert (b.target, b.group_a, b.group_b) == ("Yes", "Female", "Male")
    with pytest.raises(MetricError):
        BoundMetric(MetricKind("corr"), "gender", "admitted").resolve(d)


def test_group_values_match_per_view_value():
    # group 3 is empty, group 2 holds a single protected category (DIFF,
    # RATIO and NMI undefined) and a constant x (CORR undefined), and rows
    # keyed -1 belong to no group
    rng = np.random.default_rng(4)
    n = 600
    key = rng.choice([-1, 0, 1, 2], n, p=[0.1, 0.45, 0.35, 0.1])
    s = np.where(key == 2, 0, rng.integers(0, 2, n))
    o = (rng.random(n) < 0.3 + 0.3 * s * (key == 0)).astype(np.int32)
    x = np.where(key == 2, 1.0, rng.normal(size=n))
    y = 0.5 * x + rng.normal(size=n)
    y[:5] = np.nan  # a missing value is left out of its group's correlation
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output")]
    d = Dataset(schema, {"s": s.astype(np.int32), "o": o, "x": x, "y": y})
    groups = 4
    for name, protected, output in (("diff", "s", "o"), ("ratio", "s", "o"),
                                    ("nmi", "s", "o"), ("corr", "x", "y")):
        metric = BoundMetric(MetricKind(name), protected, output).resolve(d)
        values, counted = metric.counts(d).group_values(key, groups)
        assert values.shape == counted.shape == (groups,)
        for g in range(groups):
            part = d._subset(np.flatnonzero(key == g))
            ok = ~np.isnan(y[key == g]) if name == "corr" else np.ones(part.n_rows, bool)
            assert counted[g] == ok.sum()
            try:
                expected = estimate(metric, part)
            except MetricError:
                expected = math.nan
            if g >= 2:
                assert math.isnan(values[g]) and math.isnan(expected)
            else:
                assert values[g] == expected
