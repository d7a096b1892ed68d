import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from uatest import stats
from uatest.dataset import AttributeSchema, Dataset
from uatest.metrics import (
    MIN_STRATUM,
    BoundMetric,
    MetricCounts,
    MetricError,
    MetricKind,
    diff_from_tables,
    grouped_correlation,
    joint_counts,
    mi_from_tables,
    stratum_mean,
)
from uatest.stats import (
    StatConfig,
    StatsError,
    TestedMetric,
    apply_corrections,
    holm_bonferroni,
)
from uatest.stats import (
    _chi2_sf,
    _chunks,
    _ci_from_recipe,
    _g_test,
    _norm_ppf,
    _norm_sf,
    _perm_pvalue,
    _t_sf,
)
from uatest.stats import test_contexts as evaluate_contexts
from uatest.stats import test_metric as evaluate_metric
from tests.test_metrics import DEPT_A_SAMPLE, PRICING_GLOBAL, dataset_from_table


# -- Holm-Bonferroni ----------------------------------------------------------


def test_holm_worked_example():
    assert holm_bonferroni([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.04, 0.04], abs=1e-15)


def test_holm_identity_and_ties():
    assert holm_bonferroni([0.2]) == [0.2]
    assert holm_bonferroni([0.01, 0.01, 0.01]) == pytest.approx([0.03, 0.03, 0.03])
    assert holm_bonferroni([0.5, 0.5]) == pytest.approx([1.0, 1.0])


def test_holm_laws():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ps = rng.random(rng.integers(1, 30))
        adj = np.asarray(holm_bonferroni(ps))
        assert np.all(adj >= ps - 1e-15)
        assert np.all(adj <= 1.0)
        order = np.argsort(ps, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-15)


def test_holm_rejects_bad_input():
    with pytest.raises(StatsError):
        holm_bonferroni([0.5, 1.5])


def test_holm_matches_step_down_loop():
    def reference(ps):
        order = sorted(range(len(ps)), key=lambda i: ps[i])
        out, running = [0.0] * len(ps), 0.0
        for rank, i in enumerate(order):
            running = max(running, min(1.0, (len(ps) - rank) * ps[i]))
            out[i] = running
        return out

    rng = np.random.default_rng(1)
    specials = np.array([0.0, 1.0, 1 / 1001, 0.5])
    for _ in range(200):
        m = int(rng.integers(1, 60))
        ps = np.where(rng.random(m) < 0.3, rng.choice(specials, m), rng.random(m))
        ps[rng.random(m) < 0.2] = ps[0]  # ties
        assert holm_bonferroni(ps) == reference(ps.tolist())


# -- resampling ------------------------------------------------------------------


def two_col_dataset(s, o, s_cats=("a", "b"), o_cats=("0", "1")):
    schema = [AttributeSchema("s", "categorical", "protected", s_cats),
              AttributeSchema("o", "categorical", "output", o_cats)]
    return Dataset.from_columns(schema, {"s": s, "o": o})


def stratified_dataset(s, o, e, e_cats=("L", "R")):
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("e", "categorical", "explanatory", e_cats)]
    return Dataset.from_columns(schema, {"s": list(s), "o": list(o), "e": list(e)})


def stratified_null(n, seed):
    """Two strata with different base rates of s and o, s independent of o
    within each stratum."""
    r = np.random.default_rng(seed)
    e = r.choice(["L", "R"], n)
    s = np.where(r.random(n) < np.where(e == "L", 0.3, 0.7), "a", "b")
    o = np.where(r.random(n) < np.where(e == "L", 0.2, 0.6), "1", "0")
    return stratified_dataset(s, o, e)


DIFF = BoundMetric(MetricKind("diff"), "s", "o")
COND_DIFF = BoundMetric(MetricKind("diff", "e"), "s", "o")


def test_permutation_p_extreme_and_constant():
    s = ["a", "b"] * 100
    o = ["1" if x == "a" else "0" for x in s]  # perfect association
    cfg = StatConfig(seed=4, n_permutations=500)
    assert evaluate_metric(two_col_dataset(s, o), DIFF, cfg).p == pytest.approx(1 / 501)
    e = ["L"] * 100 + ["R"] * 100
    assert evaluate_metric(stratified_dataset(s, o, e), COND_DIFF, cfg).p == pytest.approx(1 / 501)
    # a constant output makes every permuted statistic equal the observed one
    constant = stratified_dataset(s, ["1"] * 200, e)
    assert evaluate_metric(constant, COND_DIFF, cfg).p == 1.0


def test_permutation_p_deterministic():
    d = stratified_null(300, 2)
    cfg = StatConfig(seed=9, n_permutations=300, n_bootstrap=300)
    t1 = evaluate_metric(d, COND_DIFF, cfg, entropy=(1, 5))
    t2 = evaluate_metric(d, COND_DIFF, cfg, entropy=(1, 5))
    t3 = evaluate_metric(d, COND_DIFF, cfg, entropy=(1, 6))
    assert t1 == t2
    assert np.array_equal(t1._recipe[1], t2._recipe[1])
    assert t1.p != t3.p or t1.ci != t3.ci


def test_permutation_counts_a_mirrored_tie():
    # the mirror of [[28, 27], [26, 29]] (same margins) has the same DIFF
    # magnitude but for the last bits
    observed = np.array([[28, 27], [26, 29]])
    mirror = np.array([[26, 29], [28, 27]])
    obs = float(diff_from_tables(observed, 1, 0, 1))
    perm = diff_from_tables(mirror[None], 1, 0, 1)
    assert abs(perm[0]) != abs(obs) and abs(perm[0]) == pytest.approx(abs(obs), rel=1e-14)
    assert _perm_pvalue(perm, obs, two_sided=True) == 1.0
    assert _perm_pvalue(perm, -obs, two_sided=False) == 1.0  # one-sided, same tie


def test_bootstrap_ci_constant_statistic():
    # a constant output gives DIFF = 0 on every resample that has both groups
    cfg = StatConfig(seed=0, n_bootstrap=200)
    d = two_col_dataset(["a", "b"] * 50, ["1"] * 100)
    assert evaluate_metric(d, DIFF, cfg).ci == (0.0, 0.0)
    d = stratified_dataset(["a", "b"] * 50, ["1"] * 100, ["L"] * 50 + ["R"] * 50)
    assert evaluate_metric(d, COND_DIFF, cfg).ci == (0.0, 0.0)


def test_bootstrap_ci_width_shrinks_with_n():
    def make(n, seed):
        r = np.random.default_rng(seed)
        e = r.choice(["L", "R"], n)
        s = r.choice(["a", "b"], n)
        o = np.where(r.random(n) < np.where(s == "a", 0.6, 0.4), "1", "0")
        return stratified_dataset(s, o, e)

    cfg = StatConfig(seed=3, n_bootstrap=400)
    lo_s, hi_s = evaluate_metric(make(100, 1), COND_DIFF, cfg).ci
    lo_l, hi_l = evaluate_metric(make(10000, 2), COND_DIFF, cfg).ci
    assert hi_s - lo_s > hi_l - lo_l


def test_bootstrap_unstable_context(monkeypatch):
    # a metric defined on the observed strata but on no resample exhausts
    # every redraw; the observed tensor is (K, r, c), the permuted and
    # resampled stacks are (m, K, r, c)
    original = MetricCounts.values

    def undefined_on_resamples(self, tables):
        if np.ndim(tables) == 4:
            return np.full(np.shape(tables)[:-2], np.nan)
        return original(self, tables)

    monkeypatch.setattr(MetricCounts, "values", undefined_on_resamples)
    tm = evaluate_metric(stratified_null(200, 0), COND_DIFF, StatConfig(seed=0))
    # the bootstrap is drawn on the first read of a CI
    with pytest.raises(StatsError, match="unstable context"):
        tm.ci


def test_deferred_bootstrap_matches_a_draw_right_after_the_test(monkeypatch):
    # each metric's bootstrap is drawn right after its test, and again from
    # a fresh test of the same entropy read only after the whole family was
    # tested and corrected, in reverse order: same samples, same CIs
    d = stratified_null(400, 11)
    r = np.random.default_rng(33)
    s = r.choice(["a", "b"], 600)
    o = np.where(r.random(600) < np.where(s == "a", 0.5, 0.2), "x",
                 np.where(r.random(600) < 0.5, "y", "z"))
    three = two_col_dataset(list(s), list(o), o_cats=("x", "y", "z"))
    corr_view = corr_strata_dataset(600, 8, slope=1.0)[0]
    cases = [(d, DIFF), (d, BoundMetric(MetricKind("ratio"), "s", "o")),
             (three, BoundMetric(MetricKind("nmi"), "s", "o")),
             (make_null_view(1500, 3), BoundMetric(MetricKind("nmi"), "s", "o")),  # G-test
             (corr_view, BoundMetric(MetricKind("corr"), "x", "y")),
             (d, COND_DIFF), (corr_view, BoundMetric(MetricKind("corr", "e"), "x", "y"))]
    cfg = StatConfig(seed=4, n_permutations=200, n_bootstrap=200)
    @contextlib.contextmanager
    def forbid(*names):
        with monkeypatch.context() as m:
            for name in names:
                m.setattr(stats, name, lambda *args, name=name: pytest.fail(f"{name} called"))
            yield

    eager = []
    for i, (view, bound) in enumerate(cases):
        t = evaluate_metric(view, bound, cfg, entropy=(1, i))
        with forbid("_bootstrap"):  # a p-value draws no bootstrap
            p = t.p
        eager.append((p, t._recipe, t.ci))
    family = [evaluate_metric(view, bound, cfg, entropy=(1, i))
              for i, (view, bound) in enumerate(cases)]
    apply_corrections(family, cfg.conf)
    level = 1.0 - (1.0 - cfg.conf) / len(family)
    for t, (p, recipe, ci) in reversed(list(zip(family, eager))):
        assert recipe[0] == "percentile"
        assert t.corrected_ci == _ci_from_recipe(recipe, level)
        assert t.ci == ci
        assert np.array_equal(t._recipe[1], recipe[1])
        assert t.p == p
    # a CI draws no permutations, and a permutation p-value read after it
    # is drawn all the same
    for i, ((view, bound), (p, recipe, ci)) in enumerate(zip(cases, eager)):
        t = evaluate_metric(view, bound, cfg, entropy=(1, i))
        with forbid("_fixed_margin_tables", "_corr_permutation_stats"):
            assert t.ci == ci
        assert t.p == p
        assert np.array_equal(t._recipe[1], recipe[1])


def test_conditional_one_stratum_matches_unconditional_exactly():
    r = np.random.default_rng(21)
    n = 900
    s = r.choice(["a", "b"], n)
    o = np.where(r.random(n) < np.where(s == "a", 0.55, 0.45), "1", "0")
    d = stratified_dataset(s, o, ["only"] * n, e_cats=("only",))
    cfg = StatConfig(seed=6)
    plain = evaluate_metric(d, DIFF, cfg, entropy=(2, 3))
    cond = evaluate_metric(d, COND_DIFF, cfg, entropy=(2, 3))
    assert plain.method == cond.method == "permutation+bootstrap"
    assert cond.p == plain.p
    assert cond.value.value == plain.value.value
    assert cond.ci == plain.ci
    assert np.array_equal(cond._recipe[1], plain._recipe[1])


def test_resampling_draws_follow_the_reference_stream():
    # a test-local reference of the resampling draws from the hypothesis's
    # two streams: fixed-margin tables from its permutation stream, and a
    # multinomial bootstrap of the counts from its bootstrap stream, numpy's
    # first spawned child of the first; for CORR, shuffles of x and bootstrap
    # row indices, in the same batches
    cfg = StatConfig(seed=5, n_permutations=300, n_bootstrap=300)
    entropy = (4, 2)

    def streams():
        seq = np.random.SeedSequence([cfg.seed, *entropy])
        return np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])

    def p_value(perm, obs, two_sided):
        if two_sided:
            perm, obs = np.abs(perm), abs(obs)
        tie = abs(100 * np.finfo(np.float64).eps * obs)
        return (1 + int(np.sum(np.isnan(perm) | (perm >= obs - tie)))) / (1 + len(perm))

    def table_reference(view, bound):
        bound = bound.resolve(view)
        counts = joint_counts(view, (bound.output, bound.protected))
        rng, boot_rng = streams()
        col_tot, row_tot = counts.sum(axis=0), counts.sum(axis=1)
        if len(row_tot) == 2:
            first = rng.multivariate_hypergeometric(col_tot, int(row_tot[0]),
                                                    size=cfg.n_permutations)
            tables = np.stack([first, col_tot - first], axis=1)
        else:
            tables = []
            for _ in range(cfg.n_permutations):
                remaining, rows = col_tot.copy(), []
                for total in row_tot[:-1]:
                    rows.append(rng.multivariate_hypergeometric(remaining, int(total)))
                    remaining = remaining - rows[-1]
                tables.append(np.stack(rows + [remaining]))
            tables = np.stack(tables)
        values = bound.counts(view).values
        p = p_value(values(tables), float(values(counts)), bound.kind.signed)
        n = counts.sum()
        boot = boot_rng.multinomial(n, counts.ravel() / n, size=cfg.n_bootstrap)
        return p, np.sort(values(boot.reshape(-1, *counts.shape)))

    def corr(xs, ys):
        xs = xs - xs.mean(axis=-1, keepdims=True)
        ys = ys - ys.mean(axis=-1, keepdims=True)
        return (xs * ys).sum(axis=-1) / np.sqrt((xs * xs).sum(axis=-1) * (ys * ys).sum(axis=-1))

    def corr_reference(x, y):
        rng, boot_rng = streams()
        n = len(x)
        perm = np.concatenate([corr(rng.permuted(np.tile(x, (k, 1)), axis=1), y)
                               for k in _chunks(cfg.n_permutations, n)])
        boot = []
        for k in _chunks(cfg.n_bootstrap, n):
            idx = boot_rng.integers(0, n, size=(k, n))
            boot.append(corr(x[idx], y[idx]))
        return p_value(perm, float(corr(x, y)), True), np.sort(np.concatenate(boot))

    r = np.random.default_rng(40)
    s = r.choice(["a", "b"], 400)
    o = np.where(r.random(400) < np.where(s == "a", 0.45, 0.35), "1", "0")
    two = two_col_dataset(list(s), list(o))
    o3 = np.where(r.random(400) < np.where(s == "a", 0.5, 0.3), "x",
                  np.where(r.random(400) < 0.5, "y", "z"))
    three = two_col_dataset(list(s), list(o3), o_cats=("x", "y", "z"))
    for view, name in ((two, "diff"), (two, "ratio"), (two, "nmi"), (three, "nmi")):
        bound = BoundMetric(MetricKind(name), "s", "o")
        tm = evaluate_metric(view, bound, cfg, entropy)
        p, samples = table_reference(view, bound)
        assert tm.method == "permutation+bootstrap"
        assert tm.p == p
        assert np.array_equal(tm._recipe[1], samples)

    x = r.normal(size=300)
    y = 0.1 * x + r.normal(size=300)
    schema = [AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output")]
    tm = evaluate_metric(Dataset(schema, {"x": x, "y": y}),
                         BoundMetric(MetricKind("corr"), "x", "y"), cfg, entropy)
    p, samples = corr_reference(x, y)
    assert tm.method == "permutation+bootstrap"
    assert tm.p == p
    np.testing.assert_allclose(tm._recipe[1], samples, rtol=0, atol=1e-12)


def test_seven_row_population_is_tested():
    # an unconditional metric has one stratum, which needs one row, not
    # MIN_STRATUM; so a context of 5-9 test rows is still tested
    d = two_col_dataset(["a", "b", "a", "b", "a", "b", "a"], ["1", "0", "1", "1", "0", "0", "1"])
    tm = evaluate_metric(d, DIFF, StatConfig(seed=3, n_bootstrap=200))
    assert tm.method == "permutation+bootstrap"
    assert tm.value.value == 3 / 4 - 1 / 3
    lo, hi = tm.ci
    assert lo <= tm.value.value <= hi


def test_conditional_value_matches_conditional_metric():
    d = stratified_null(700, 4)
    tm = evaluate_metric(d, COND_DIFF, StatConfig(seed=0, n_bootstrap=200))
    assert tm.value.value == pytest.approx(COND_DIFF.resolve(d).value(d), abs=1e-12)


def test_conditional_bootstrap_reapplies_stratum_exclusions():
    # stratum L: 200 rows, constant output, DIFF 0 on every resample; stratum
    # R: 9 rows with DIFF 1, below MIN_STRATUM. R enters only the resamples
    # that draw it at least 10 times (about 40% of them).
    s = ["a", "b"] * 100 + ["a"] * 5 + ["b"] * 4
    o = ["0"] * 200 + ["1"] * 5 + ["0"] * 4
    d = stratified_dataset(s, o, ["L"] * 200 + ["R"] * 9)
    tm = evaluate_metric(d, COND_DIFF, StatConfig(seed=1, n_bootstrap=1000))
    samples = tm._recipe[1]
    assert tm.value.value == 0.0
    assert 0.5 < np.mean(samples == 0.0) < 0.7
    assert samples.max() > 0.0


def corrcoef(x, y):
    """A reference Pearson correlation, independent of the package's."""
    return float(np.corrcoef(x, y)[0, 1])


def test_batched_resample_statistics_match_conditional_metric():
    # the per-resample aggregates, batched as the bootstrap computes them,
    # against a per-stratum loop of scalar metrics on the same rows; stratum
    # "r" hovers around MIN_STRATUM, so exclusions vary by resample
    r = np.random.default_rng(12)
    n, n_res = 120, 60
    e = r.choice(3, n, p=[0.6, 0.32, 0.08])
    x = r.normal(size=n)
    y = 0.4 * x + r.normal(size=n)
    schema = [AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output"),
              AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("e", "categorical", "explanatory", ("p", "q", "r"))]
    d = Dataset(schema, {"x": x, "y": y, "s": (x > 0).astype(np.int32),
                         "o": (y > 0).astype(np.int32), "e": e.astype(np.int32)})
    idx = r.integers(0, n, size=(n_res, n))
    diff = COND_DIFF.resolve(d)
    corr = BoundMetric(MetricKind("corr", "e"), "x", "y")

    def stratum_value(rows, name):
        if name == "corr":
            return corrcoef(x[rows], y[rows])
        return diff.unconditional().value(d._subset(rows))

    def reference(bound):
        out = []
        for rows in idx:
            total = weight = 0.0
            for k in range(3):
                stratum = rows[e[rows] == k]
                if len(stratum) < MIN_STRATUM:
                    continue
                try:
                    total += len(stratum) * stratum_value(stratum, bound.kind.name)
                except MetricError:
                    continue
                weight += len(stratum)
            out.append(total / weight if weight else np.nan)
        return np.array(out)

    tables = np.stack([joint_counts(d._subset(rows), ("e", "o", "s")) for rows in idx])
    diffs = stratum_mean(diff.unconditional().counts(d).values(tables),
                         tables.sum(axis=(-2, -1)), MIN_STRATUM)
    key = np.arange(n_res)[:, None] * 3 + e[idx]
    v, c = grouped_correlation(x[idx].ravel(), y[idx].ravel(), key.ravel(), n_res * 3)
    corrs = stratum_mean(v.reshape(n_res, 3), c.reshape(n_res, 3), MIN_STRATUM)
    assert np.isnan(reference(diff)).sum() == 0  # stratum "p" always qualifies
    np.testing.assert_allclose(diffs, reference(diff), rtol=0, atol=1e-12)
    np.testing.assert_allclose(corrs, reference(corr), rtol=0, atol=1e-12)


def test_conditional_undefined_permuted_stratum_counts_as_extreme():
    # COND-RATIO. Stratum L holds the only target row, in group b: RATIO is
    # -1, and undefined on every shuffle that moves the row to group a.
    # Stratum R has a constant output: RATIO is 0 on every shuffle. Every
    # permuted aggregate is either the observed -0.5 or undefined.
    s = ["a", "b"] * 100
    o = ["0"] * 99 + ["1"] + ["1"] * 100
    d = stratified_dataset(s, o, ["L"] * 100 + ["R"] * 100)
    bound = BoundMetric(MetricKind("ratio", "e"), "s", "o")
    tm = evaluate_metric(d, bound, StatConfig(seed=5, n_permutations=200, n_bootstrap=200))
    assert tm.value.value == -0.5
    assert tm.p == 1.0


def corr_strata_dataset(n, seed, slope):
    r = np.random.default_rng(seed)
    e = r.choice(3, n)
    x = r.normal(size=n) + e  # the strata differ in level, not in slope
    y = slope * x * (e == 0) + 2.0 * e + r.normal(size=n)
    schema = [AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output"),
              AttributeSchema("e", "categorical", "explanatory", ("p", "q", "r"))]
    return Dataset(schema, {"x": x, "y": y, "e": e.astype(np.int32)}), x, y, e


def test_conditional_corr_aggregate_and_p_floor():
    d, x, y, e = corr_strata_dataset(1500, 8, slope=1.5)
    bound = BoundMetric(MetricKind("corr", "e"), "x", "y")
    cfg = StatConfig(seed=2, n_permutations=300, n_bootstrap=300)
    tm = evaluate_metric(d, bound, cfg, entropy=(1,))
    brute = sum((e == k).sum() * corrcoef(x[e == k], y[e == k]) for k in range(3)) / len(e)
    assert tm.value.value == pytest.approx(brute, abs=1e-12)
    assert tm.method == "permutation+bootstrap"
    assert tm.p == pytest.approx(1 / 301)
    lo, hi = tm.ci
    assert lo <= tm.value.value <= hi
    assert evaluate_metric(d, bound, cfg, entropy=(1,)) == tm


def test_conditional_corr_null_is_not_significant_across_strata():
    # y tracks x only through the stratum levels: conditioning removes it
    d, x, y, e = corr_strata_dataset(1500, 9, slope=0.0)
    assert corrcoef(x, y) > 0.3
    bound = BoundMetric(MetricKind("corr", "e"), "x", "y")
    tm = evaluate_metric(d, bound, StatConfig(seed=2, n_permutations=300, n_bootstrap=300))
    assert abs(tm.value.value) < 0.1
    assert tm.p > 0.01


def test_conditional_permutation_p_uniformity():
    cfg = StatConfig(seed=0)
    ps = []
    for seed in range(200):
        tm = evaluate_metric(stratified_null(400, seed), COND_DIFF, cfg, entropy=(7, seed))
        assert tm.method == "permutation+bootstrap"
        ps.append(tm.p)
    assert sps.kstest(ps, "uniform").statistic < 0.1


# -- test_metric ---------------------------------------------------------------


def test_metric_staples_global_nmi():
    d = dataset_from_table(PRICING_GLOBAL, protected="income", output="price",
                           rows=("High", "Low"), cols=("<50K", ">=50K"))
    bound = BoundMetric(MetricKind("nmi"), "income", "price")
    cfg = StatConfig(seed=0, n_bootstrap=200)
    tm = evaluate_metric(d, bound, cfg)
    assert tm.method == "asymptotic"
    assert tm.p < 1e-8
    assert 0.0001 <= tm.value.value <= 0.0005
    lo, hi = tm.ci
    assert lo <= tm.value.value <= hi


def test_metric_berkeley_dept_a_diff():
    d = dataset_from_table(DEPT_A_SAMPLE)
    bound = BoundMetric(MetricKind("diff"), "gender", "admitted")
    cfg = StatConfig(seed=1)
    tm = evaluate_metric(d, bound, cfg)
    assert tm.method == "permutation+bootstrap"  # 490 rows is a small sample
    assert tm.p < 0.01
    assert tm.value.value == pytest.approx(0.22441860465116276, abs=1e-9)
    lo, hi = tm.ci
    assert lo <= tm.value.value <= hi


def test_metric_determinism_and_entropy_streams():
    rng = np.random.default_rng(8)
    s = rng.choice(["a", "b"], 400)
    o = rng.choice(["0", "1"], 400)
    d = two_col_dataset(list(s), list(o))
    bound = BoundMetric(MetricKind("diff"), "s", "o")
    cfg = StatConfig(seed=7)
    t1 = evaluate_metric(d, bound, cfg, entropy=(1, 5))
    t2 = evaluate_metric(d, bound, cfg, entropy=(1, 5))
    t3 = evaluate_metric(d, bound, cfg, entropy=(1, 6))
    assert t1 == t2
    assert t1.p != t3.p or t1.ci != t3.ci


def test_metric_corr_asymptotic_and_small():
    rng = np.random.default_rng(10)
    n = 2000
    x = rng.normal(size=n)
    y = 0.3 * x + rng.normal(size=n)
    schema = [AttributeSchema("x", "continuous", "protected"),
              AttributeSchema("y", "continuous", "output")]
    d = Dataset(schema, {"x": x, "y": y})
    bound = BoundMetric(MetricKind("corr"), "x", "y")
    tm = evaluate_metric(d, bound, StatConfig(seed=0))
    assert tm.method == "asymptotic"
    assert tm.p < 1e-10
    small = Dataset(schema, {"x": x[:300], "y": y[:300]})
    ts = evaluate_metric(small, bound, StatConfig(seed=0))
    assert ts.method == "permutation+bootstrap"
    assert ts.p < 0.05


def test_metric_ratio_always_resamples():
    d = dataset_from_table([[300, 400], [200, 100]])
    bound = BoundMetric(MetricKind("ratio"), "gender", "admitted")
    tm = evaluate_metric(d, bound, StatConfig(seed=0, small_sample_threshold=100))
    assert tm.method == "permutation+bootstrap"


# -- corrections -----------------------------------------------------------------


def make_tested(est, se, conf=0.95):
    z = sps.norm.ppf(1 - (1 - conf) / 2)
    return TestedMetric(
        value=None, ci=(est - z * se, est + z * se), p=0.01, method="asymptotic",
        _recipe=("wald", est, se),
    )


def test_corrected_cis_identity_and_containment():
    one = [make_tested(0.4, 0.05)]
    apply_corrections(one, 0.95)
    assert one[0].corrected_ci == pytest.approx(one[0].ci, abs=1e-12)

    many = [make_tested(0.1 * i, 0.05) for i in range(1, 21)]
    apply_corrections(many, 0.95)
    for t in many:
        assert t.corrected_ci[0] <= t.ci[0] + 1e-12
        assert t.corrected_ci[1] >= t.ci[1] - 1e-12


def test_corrected_wald_width_scales_with_z_quantile_ratio():
    tested = [make_tested(0.0, 0.1) for _ in range(20)]
    apply_corrections(tested, 0.95)
    raw_width = tested[0].ci[1] - tested[0].ci[0]
    corr_width = tested[0].corrected_ci[1] - tested[0].corrected_ci[0]
    expected = sps.norm.ppf(1 - 0.05 / 20 / 2) / sps.norm.ppf(1 - 0.05 / 2)
    assert corr_width / raw_width == pytest.approx(expected, abs=1e-12)


def test_apply_corrections_p_and_ci():
    tested = [make_tested(0.2, 0.05), make_tested(0.1, 0.05), make_tested(0.0, 0.05)]
    tested[0].p, tested[1].p, tested[2].p = 0.01, 0.02, 0.04
    apply_corrections(tested, 0.95)
    assert [t.corrected_p for t in tested] == pytest.approx([0.03, 0.04, 0.04])
    assert all(t.corrected_ci is not None for t in tested)


def test_holm_bounds_decide_only_exact_corrections():
    # families whose unread members are permutation p-values of at least
    # 1/1001, with ties, members at that floor and at 1, and sizes on both
    # sides of m - k = 50, where a floor p stops passing 0.05 after Holm
    # correction: every corrected p fixed from the Holm bounds, and every
    # significance decision, equals the exact Holm result of all p-values,
    # whether it read none, some or all of the unread p-values
    rng = np.random.default_rng(3)
    floor = 1 / 1001
    specials = np.array([floor, 1.0, 0.01, 0.05])
    undrawn = {"fixed": 0, "decided": 0}
    drew_some = drew_all = 0
    for _ in range(300):
        m = int(rng.integers(1, 120))
        ps = np.where(rng.random(m) < 0.4, rng.choice(specials, m), rng.random(m) ** 4)
        ps[rng.random(m) < 0.2] = ps[0]  # ties
        unread = rng.random(m) < rng.random()
        ps[unread] = np.maximum(ps[unread], floor)
        reads = []

        class Deferred:
            """A resampled member's p: [floor, 1] until it is drawn, once."""

            def __init__(self, i):
                self.i, self.drawn = i, None

            @property
            def p(self):
                if self.drawn is None:
                    reads.append(self.i)
                    self.drawn = float(ps[self.i])
                return self.drawn

            @property
            def p_bounds(self):
                return (floor, 1.0) if self.drawn is None else (self.drawn, self.drawn)

        family = [TestedMetric(None, (0.0, 0.0), None if unread[i] else float(ps[i]),
                               "permutation+bootstrap", resampled=Deferred(i))
                  for i in range(m)]
        apply_corrections(family, 0.95)
        exact = holm_bonferroni(ps)
        alpha = float(rng.choice([0.01, 0.05, 0.1]))
        for i in rng.permutation(m):
            t, before = family[i], len(reads)
            lo, hi = t.corrected_p_bounds
            assert lo <= exact[i] <= hi
            if rng.random() < 0.5:
                assert t.significant(alpha) == (exact[i] <= alpha)
                undrawn["decided"] += len(reads) == before and lo < hi
            else:
                assert t.corrected_p == exact[i]
                undrawn["fixed"] += len(reads) == before and lo == hi
            drew_some += before < len(reads) < unread.sum()
            drew_all += before < len(reads) == unread.sum()
            for u, e in zip(family, exact):  # the bounds stay valid as p-values are read
                assert u.corrected_p_bounds[0] <= e <= u.corrected_p_bounds[1]
        assert len(reads) == len(set(reads))  # each p is drawn at most once
        assert [t.p for t in family] == ps.tolist()
        assert [t.corrected_p for t in family] == exact
    assert min(undrawn.values()) > 100 and drew_some > 10 and drew_all > 10


# -- distributional properties ----------------------------------------------------


def make_null_view(n, seed):
    r = np.random.default_rng(seed)
    s = r.choice(["a", "b"], n)
    o = r.choice(["0", "1"], n)
    return two_col_dataset(list(s), list(o))


def test_null_rejection_rate_asymptotic():
    cfg = StatConfig(seed=0)
    bound = BoundMetric(MetricKind("diff"), "s", "o")
    hits = 0
    runs = 1000
    for seed in range(runs):
        d = make_null_view(1200, seed)
        tm = evaluate_metric(d, bound, cfg, entropy=(seed,))
        hits += tm.p < 0.05
    assert 0.03 <= hits / runs <= 0.07


def test_holm_family_wise_error_under_null():
    cfg = StatConfig(seed=0)
    bound = BoundMetric(MetricKind("diff"), "s", "o")
    family_errors = 0
    for run in range(200):
        ps = []
        for k in range(20):
            d = make_null_view(1200, 10_000 + run * 20 + k)
            ps.append(evaluate_metric(d, bound, cfg, entropy=(run, k)).p)
        adjusted = holm_bonferroni(ps)
        family_errors += min(adjusted) < 0.05
    assert family_errors / 200 <= 0.08


def test_asymptotic_and_permutation_agree_within_factor_three():
    # moderate effect, N=1000; the permutation p cannot resolve below its
    # floor of 1/(n_perm+1), so the asymptotic value is clamped there
    bound = BoundMetric(MetricKind("diff"), "s", "o")
    n_perm = 4000  # enough resolution that Monte Carlo noise stays within the bound
    for seed in range(50):
        r = np.random.default_rng(200 + seed)
        n = 1000
        s = r.choice(["a", "b"], n)
        p1 = np.where(s == "a", 0.55, 0.45)
        o = np.where(r.random(n) < p1, "1", "0")
        d = two_col_dataset(list(s), list(o))
        perm = evaluate_metric(d, bound, StatConfig(seed=seed, n_permutations=n_perm),
                               entropy=(seed,))
        asym = evaluate_metric(d, bound,
                           StatConfig(seed=seed, small_sample_threshold=10), entropy=(seed,))
        assert perm.method == "permutation+bootstrap"
        assert asym.method == "asymptotic"
        clamped = max(asym.p, 1 / (n_perm + 1))
        ratio = perm.p / clamped
        assert 1 / 3 <= ratio <= 3, f"seed {seed}: perm {perm.p} vs asym {asym.p}"


def test_metric_nmi_multirow_permutation_branch():
    # 3 output categories force the general fixed-margin sampler
    rng = np.random.default_rng(33)
    s = rng.choice(["a", "b"], 600)
    o = np.where(rng.random(600) < np.where(s == "a", 0.5, 0.2), "x",
                 np.where(rng.random(600) < 0.5, "y", "z"))
    d = two_col_dataset(list(s), list(o), o_cats=("x", "y", "z"))
    bound = BoundMetric(MetricKind("nmi"), "s", "o")
    cfg = StatConfig(seed=12, n_permutations=300, n_bootstrap=200)
    t1 = evaluate_metric(d, bound, cfg, entropy=(3,))
    t2 = evaluate_metric(d, bound, cfg, entropy=(3,))
    assert t1 == t2
    assert t1.method == "permutation+bootstrap"
    assert t1.p < 0.05  # strong planted dependence
    lo, hi = t1.ci
    assert 0.0 <= lo <= t1.value.value <= hi <= 1.0


def test_metric_handles_absent_categories_in_context():
    # a subpopulation missing one protected category entirely: live-margin dof
    rng = np.random.default_rng(34)
    s = rng.choice(["a", "b"], 3000)   # category "c" never occurs
    o = np.where(rng.random(3000) < np.where(s == "a", 0.6, 0.4), "1", "0")
    d = two_col_dataset(list(s), list(o), s_cats=("a", "b", "c"))
    bound = BoundMetric(MetricKind("nmi"), "s", "o")
    tm = evaluate_metric(d, bound, StatConfig(seed=0, n_bootstrap=200))
    assert tm.method == "asymptotic"
    assert tm.p < 1e-6


# -- distribution tails without scipy ------------------------------------------------

U = 2.0 ** -53  # the unit roundoff
TINY = np.finfo(np.float64).tiny  # the smallest normal float


def assert_close(ours, ref, bound) -> None:
    """``ours`` is NaN exactly where ``ref`` is, equal to it at infinities,
    and elsewhere within ``bound`` relative error of it, or within TINY where
    ``ref`` is below the normal range: a float there holds fewer digits, and
    the scipy references lose the last of them (``chdtrc`` flushes such
    tails to 0)."""
    ours, ref = np.broadcast_arrays(np.asarray(ours, dtype=np.float64),
                                    np.asarray(ref, dtype=np.float64))
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    with np.errstate(invalid="ignore"):  # inf - inf
        err = np.abs(ours - ref)
    bad = ~((ours == ref) | np.isnan(ref)
            | np.isfinite(ref) & (err <= np.maximum(bound * np.abs(ref), TINY)))
    assert not bad.any(), (np.flatnonzero(bad)[:5], ours[bad][:5], ref[bad][:5])


def norm_sf_bound(x):
    """``_norm_sf``'s docstring bound, (2x^2 + 4)u, twice: Cephes' ``ndtr``
    rounds its argument the same way. Past |x| = 40 the tail is 0 or 1."""
    return (4.0 * np.clip(x, -40.0, 40.0) ** 2 + 8.0) * U


NORM_PPF_BOUND = 1e-15  # AS 241 and Cephes' ndtri are each good to a few 1e-16


def chi2_bound(g, dof):
    """``_chi2_sf``'s docstring bound, twice, for a reference whose Poisson
    terms round the same way, plus 2e-13 for Cephes' ``igamc`` itself, which
    its tests put at 1.4e-13 relative (and which is off by 3e-14 at dof 1, g
    near 1, where ours is within 1e-15)."""
    x = np.asarray(g, dtype=np.float64) / 2.0
    x = np.where((x > 0) & (x < np.inf), x, 1.0)  # the tail is exact elsewhere
    lgam = np.array([math.lgamma(d / 2.0 + 1.0) for d in np.ravel(dof)]).reshape(np.shape(dof))
    return 4.0 * U * (x + np.asarray(dof) / 2.0 * np.abs(np.log(x)) + lgam + 8.0) + 2e-13


T_SF_BOUND = 1e-12  # ``_t_sf``'s docstring bound of 6.6e-13, plus Cephes' stdtr


def t_sf_reference(t, df):
    """scipy's t tail; with one degree of freedom the Cauchy tail, since
    ``stdtr`` returns 0 past |t| = 1e154, where t^2 overflows."""
    return np.where(np.asarray(df) == 1, sps.cauchy.sf(t), sps.t.sf(t, df))


TAIL_INPUTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.floats(-50, 50), st.sampled_from([0.0, -0.0, -1e-17, 1e-300]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.lists(st.tuples(TAIL_INPUTS, st.floats(0, 1), st.integers(1, 60),
                               st.one_of(st.integers(1, 60), st.integers(1000, 10**7))),
                     min_size=1, max_size=40))
def test_special_tails_match_scipy_stats_within_their_bounds(data):
    x, q, dof, df = (np.array(column) for column in zip(*data))
    assert_close(_norm_sf(x), sps.norm.sf(x), norm_sf_bound(x))
    assert_close(_norm_ppf(q), sps.norm.ppf(q), NORM_PPF_BOUND)
    assert_close(_chi2_sf(x, dof), sps.chi2.sf(x, dof), chi2_bound(x, dof))
    assert_close(_t_sf(x, df), t_sf_reference(x, df), T_SF_BOUND)


SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300])


def test_special_tails_on_a_grid_of_deep_tails():
    x = np.concatenate([np.linspace(-38.0, 38.0, 7601), SPECIALS])
    assert_close(_norm_sf(x), sps.norm.sf(x), norm_sf_bound(x))

    q = np.concatenate([np.logspace(-300, -1, 600), 1.0 - np.logspace(-16, -1, 300),
                        np.linspace(0.0, 1.0, 1001), 0.5 + np.logspace(-17, -2, 30),
                        [np.nan, -0.0, -0.5, 1.5, 5e-324, 1.0 - 2.0 ** -53]])
    assert_close(_norm_ppf(q), sps.norm.ppf(q), NORM_PPF_BOUND)

    g = np.concatenate([np.linspace(0.0, 5000.0, 251), np.logspace(-8, 3.7, 60), SPECIALS])
    for dof in range(1, 401):
        assert_close(_chi2_sf(g, dof), sps.chi2.sf(g, dof), chi2_bound(g, dof))

    t = np.concatenate([np.linspace(-50.0, 50.0, 401), np.logspace(-300, 300, 31),
                        -np.logspace(-300, 300, 31), SPECIALS])
    for df in [*range(1, 61), *np.logspace(3, 7, 9)]:
        assert_close(_t_sf(t, df), t_sf_reference(t, df), T_SF_BOUND)


def test_special_tails_of_a_call_do_not_depend_on_each_other():
    # one call over mixed degrees of freedom gives each entry the bits of its own call
    g, dof = np.linspace(0.5, 900.0, 120), np.arange(1, 121)
    assert np.array_equal(_chi2_sf(g, dof), [_chi2_sf(gi, di) for gi, di in zip(g, dof)])
    t, df = np.linspace(-9.0, 40.0, 120), np.concatenate([np.arange(1, 61), np.logspace(2, 7, 60)])
    assert np.array_equal(_t_sf(t, df), [_t_sf(ti, di) for ti, di in zip(t, df)])


def test_special_tails_exact_values():
    signed_zeros = np.array([0.0, -0.0])
    assert np.array_equal(_norm_sf(signed_zeros), [0.5, 0.5])
    assert np.array_equal(_norm_sf([np.inf, -np.inf]), [0.0, 1.0])
    assert np.array_equal(_norm_ppf([0.0, 1.0]), [-np.inf, np.inf])
    for dof in (1, 2, 3, 400):
        assert np.array_equal(_chi2_sf([0.0, -0.0, -1.0, -np.inf, np.inf], dof),
                              [1.0, 1.0, 1.0, 1.0, 0.0])
    for df in (1, 2, 7, 1e7):
        assert np.array_equal(_t_sf(signed_zeros, df), [0.5, 0.5])
        assert np.array_equal(_t_sf([np.inf, -np.inf], df), [0.0, 1.0])
    nan = np.array([np.nan])
    assert np.isnan(_norm_sf(nan)).all() and np.isnan(_norm_ppf(nan)).all()
    assert np.isnan(_chi2_sf(nan, 3)).all() and np.isnan(_t_sf(nan, 3)).all()
    assert np.isnan(_t_sf([1.0], [np.nan])).all()


def test_g_test_matches_scipy_chi2_contingency():
    """``_g_test``'s p-values against scipy's log-likelihood ratio test on
    random r x c tables with no empty row or column. The two sum G in
    different orders; a shift dG moves ln p by the chi-squared hazard, its
    density over its tail, times dG, to first order. So the bound is the
    chi-squared tail's plus that shift."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        r, c = rng.integers(2, 6, size=2)
        table = (rng.multinomial(rng.integers(20, 5000), rng.dirichlet(np.ones(r * c)))
                 .reshape(r, c) + 1).astype(np.float64)
        g, p, dof, _ = sps.chi2_contingency(table, correction=False, lambda_="log-likelihood")
        assert dof == (r - 1) * (c - 1)
        ours_g = 2.0 * table.sum() * mi_from_tables(table[None], normalized=False)[0]
        shift = sps.chi2.pdf(g, dof) / p * abs(ours_g - g) if p >= TINY else 0.0
        assert_close(_g_test(table[None]), p, chi2_bound(g, dof) + shift)


# -- null validity of the rewritten routes -------------------------------------------


def _null_rejections(p: np.ndarray, draws: int) -> None:
    """Assert P(p <= alpha) <= alpha + margin at alpha = 0.01 and 0.05 over
    ``draws`` independent null draws. A valid p-value has P(p <= alpha) <=
    alpha, so the count of rejections is at most Binomial(draws, alpha) in
    the stochastic order; the margin is that binomial's upper 1e-4 quantile,
    over ``draws``, less alpha. A valid test so exceeds it with probability
    below 1e-4 per level (about 0.016 at alpha = 0.05 and 0.0078 at alpha =
    0.01 for 2,000 draws; 0.022 and 0.011 for 1,000)."""
    assert len(p) == draws and not np.isnan(p).any()
    for alpha in (0.01, 0.05):
        bound = sps.binom.ppf(1 - 1e-4, draws, alpha) / draws
        assert np.mean(p <= alpha) <= bound, (alpha, np.mean(p <= alpha), bound)


def _replicates(columns: dict, draws: int, n: int, schema) -> tuple[Dataset, np.ndarray]:
    """``draws`` populations of ``n`` rows stacked in one dataset, with the
    key that puts each row in its population."""
    return Dataset(schema, columns), np.repeat(np.arange(draws), n)


def test_nmi_g_test_null_validity():
    # 3 x 3 tables of independent s and o, 600 rows each, above the
    # small-sample threshold: the asymptotic G-test route
    draws, n = 2000, 600
    r = np.random.default_rng(71)
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b", "c")),
              AttributeSchema("o", "categorical", "output", ("x", "y", "z"))]
    view, key = _replicates({"s": r.choice(3, draws * n, p=[0.5, 0.3, 0.2]).astype(np.int32),
                             "o": r.choice(3, draws * n, p=[0.2, 0.4, 0.4]).astype(np.int32)},
                            draws, n, schema)
    cfg = StatConfig(seed=71, small_sample_threshold=500)
    tested = evaluate_contexts(BoundMetric(MetricKind("nmi"), "s", "o").counts(view), key,
                               range(draws), cfg, [(i,) for i in range(draws)])
    assert {t.method for t in tested} == {"asymptotic"}
    _null_rejections(np.array([t.p for t in tested]), draws)


def test_conditional_diff_permutation_null_validity():
    # two strata with different base rates of s and o, s independent of o
    # within each: the stratified permutation test at its smallest count
    draws, n = 1000, 200
    r = np.random.default_rng(72)
    e = r.integers(0, 2, draws * n)
    s = (r.random(draws * n) < np.where(e == 0, 0.3, 0.7)).astype(np.int32)
    o = (r.random(draws * n) < np.where(e == 0, 0.2, 0.6)).astype(np.int32)
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("e", "categorical", "explanatory", ("L", "R"))]
    view, key = _replicates({"s": s, "o": o, "e": e.astype(np.int32)}, draws, n, schema)
    cfg = StatConfig(seed=72, n_permutations=100, n_bootstrap=100)
    counts = COND_DIFF.counts(view)
    tested = evaluate_contexts(counts, counts.stratum_key(key)[0], range(draws), cfg,
                               [(i,) for i in range(draws)])
    assert {t.method for t in tested} == {"permutation+bootstrap"}
    _null_rejections(np.array([t.p for t in tested]), draws)


def _normal_pairs(r: np.random.Generator, size: int, rho: float) -> dict:
    """``size`` draws of standard bivariate normal columns x, y of correlation ``rho``."""
    x = r.normal(size=size)
    return {"x": x, "y": rho * x + np.sqrt(1.0 - rho * rho) * r.normal(size=size)}


CORR_SCHEMA = [AttributeSchema("x", "continuous", "protected"),
               AttributeSchema("y", "continuous", "output")]


def test_corr_t_test_null_validity():
    # independent normal x and y, 600 rows each, above the small-sample
    # threshold: the asymptotic t-test route, from the counted moments
    draws, n = 2000, 600
    view, key = _replicates(_normal_pairs(np.random.default_rng(73), draws * n, 0.0), draws, n,
                            CORR_SCHEMA)
    cfg = StatConfig(seed=73, small_sample_threshold=500)
    tested = evaluate_contexts(BoundMetric(MetricKind("corr"), "x", "y").counts(view), key,
                               range(draws), cfg, [(i,) for i in range(draws)])
    assert {t.method for t in tested} == {"asymptotic"}
    _null_rejections(np.array([t.p for t in tested]), draws)


def test_corr_fisher_z_ci_coverage():
    """The 95 % Fisher-z CI of CORR covers an interior true correlation,
    rho = 0.5, at its nominal rate over 2,000 draws of 600 rows.

    For bivariate normal rows, atanh(r) is close to normal with mean
    atanh(rho) + rho / (2(n - 1)) and variance 1 / (n - 3) (Fisher, 1921).
    At n = 600 the bias is 0.011 of a standard deviation, which moves the
    coverage by under 1e-4, so the count of covering CIs is close to
    Binomial(2000, 0.95). The band is that binomial's 5e-5 and 1 - 5e-5
    quantiles over 2,000, about 0.95 -+ 0.019: a valid interval falls
    outside it with probability about 1e-4."""
    draws, n, rho = 2000, 600, 0.5
    view, key = _replicates(_normal_pairs(np.random.default_rng(74), draws * n, rho), draws, n,
                            CORR_SCHEMA)
    cfg = StatConfig(seed=74, small_sample_threshold=500)
    tested = evaluate_contexts(BoundMetric(MetricKind("corr"), "x", "y").counts(view), key,
                               range(draws), cfg, [(i,) for i in range(draws)])
    assert {t.method for t in tested} == {"asymptotic"}
    coverage = np.mean([t.ci[0] <= rho <= t.ci[1] for t in tested])
    lo, hi = sps.binom.ppf([5e-5, 1 - 5e-5], draws, 0.95) / draws
    assert lo <= coverage <= hi, (lo, coverage, hi)


def test_conditional_corr_permutation_null_validity():
    # two strata with different means of x and y, x independent of y within
    # each, so the pooled correlation is far from 0: the stratified row
    # permutation of COND-CORR at its smallest count
    draws, n = 1000, 200
    r = np.random.default_rng(75)
    e = r.integers(0, 2, draws * n)
    columns = _normal_pairs(r, draws * n, 0.0)
    columns = {"x": columns["x"] + 2.0 * e, "y": columns["y"] + 3.0 * e, "e": e.astype(np.int32)}
    schema = CORR_SCHEMA + [AttributeSchema("e", "categorical", "explanatory", ("L", "R"))]
    view, key = _replicates(columns, draws, n, schema)
    cfg = StatConfig(seed=75, n_permutations=100, n_bootstrap=100)
    counts = BoundMetric(MetricKind("corr", "e"), "x", "y").counts(view)
    tested = evaluate_contexts(counts, counts.stratum_key(key)[0], range(draws), cfg,
                               [(i,) for i in range(draws)])
    assert {t.method for t in tested} == {"permutation+bootstrap"}
    _null_rejections(np.array([t.p for t in tested]), draws)


def test_resampled_corr_hypotheses_gather_the_paired_rows_once(monkeypatch):
    # the resampled CORR hypotheses of one call share one gathering of the
    # paired rows: none while no p or CI is read, then one for all of them
    calls, paired_rows = [], stats._paired_rows

    def counting(*args):
        calls.append(1)
        return paired_rows(*args)

    monkeypatch.setattr(stats, "_paired_rows", counting)
    draws, n = 4, 60
    view, key = _replicates(_normal_pairs(np.random.default_rng(77), draws * n, 0.3), draws, n,
                            CORR_SCHEMA)
    counts = BoundMetric(MetricKind("corr"), "x", "y").counts(view)
    cfg = StatConfig(seed=77, n_permutations=100, n_bootstrap=100)
    unread = evaluate_contexts(counts, key, range(draws), cfg, [(i,) for i in range(draws)])
    tested = evaluate_contexts(counts, key, range(draws), cfg, [(i,) for i in range(draws)])
    assert {t.method for t in unread} == {t.method for t in tested} == {"permutation+bootstrap"}
    assert not calls
    assert 0.0 < tested[1].p <= 1.0
    assert len(calls) == 1
    for t in tested:
        assert t.ci[0] <= t.value.value <= t.ci[1]
    assert len(calls) == 1


def test_ratio_permutation_null_validity():
    # independent binary s and o, 200 rows each: RATIO has no asymptotic
    # route, so every draw takes the fixed-margin permutation test
    draws, n = 1000, 200
    r = np.random.default_rng(76)
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1"))]
    view, key = _replicates({"s": (r.random(draws * n) < 0.4).astype(np.int32),
                             "o": (r.random(draws * n) < 0.3).astype(np.int32)},
                            draws, n, schema)
    cfg = StatConfig(seed=76, n_permutations=100, n_bootstrap=100)
    tested = evaluate_contexts(BoundMetric(MetricKind("ratio"), "s", "o").counts(view), key,
                               range(draws), cfg, [(i,) for i in range(draws)])
    assert {t.method for t in tested} == {"permutation+bootstrap"}
    _null_rejections(np.array([t.p for t in tested]), draws)


def _percentile_coverage(tested: list, truth: float, draws: int, n_bootstrap: int) -> None:
    """Assert that the 95 % percentile CIs ``tested`` of ``draws``
    independent populations cover ``truth`` at a rate inside a binomial band.

    numpy's linear quantile of B sorted draws sits, in expectation, at tail
    mass a + (1 - 2a)/(B + 1) for a = 0.025 (the order statistics' means),
    so each finite bootstrap loses q = 1.9/(B + 1) of coverage: 0.019 at B =
    100, which 20,000 replications of both cells confirmed (0.0187 and
    0.019, against B = 1,000). Over the method's own small-sample error,
    allowed up to 0.01 (the same runs read at most 0.005 at 200 rows), a
    correct interval covers at a rate c in [0.94 - q, 0.95]. The band runs
    from the 5e-5 quantile of Binomial(draws, 0.94 - q) to the 1 - 5e-5
    quantile of Binomial(draws, 0.95), over ``draws``: a correct interval
    falls outside it with probability below 1e-4.

    B enters only through q, which shifts a correct and a defective interval
    alike, so B = 100, the smallest ``StatConfig`` allows, is the cheapest.
    The cell must fail, with probability at least 0.99, an interval that
    covers 0.03 less than the band's lowest correct rate (a 92 % interval,
    say). The smallest number of draws that does so is 3,587, which the
    cells use; the check below recomputes that power. (The power is not
    monotone in the draws: at 3,600 it is 0.989.)"""
    assert len(tested) == draws and {t.method for t in tested} == {"permutation+bootstrap"}
    q = 1.9 / (n_bootstrap + 1)
    lo, hi = sps.binom.ppf([5e-5, 1 - 5e-5], draws, [0.94 - q, 0.95])
    assert sps.binom.cdf(lo - 1, draws, 0.91 - q) >= 0.99
    covered = sum(t.ci[0] <= truth <= t.ci[1] for t in tested)
    assert lo <= covered <= hi, (lo / draws, covered / draws, hi / draws)


def test_ratio_percentile_ci_coverage():
    # RATIO, P(o | a) / P(o | b) - 1, at an interior true value of 0.45 / 0.3
    # - 1 = 0.5, on 200 rows per draw; its CI reads no permutation
    draws, n, b = 3587, 200, 100
    r = np.random.default_rng(78)
    s = (r.random(draws * n) < 0.5).astype(np.int32)
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1"))]
    view, key = _replicates({"s": s, "o": (r.random(draws * n) < np.where(s == 0, 0.45, 0.3))
                             .astype(np.int32)}, draws, n, schema)
    cfg = StatConfig(seed=78, n_permutations=100, n_bootstrap=b)
    tested = evaluate_contexts(BoundMetric(MetricKind("ratio"), "s", "o").counts(view), key,
                               range(draws), cfg, [(i,) for i in range(draws)])
    _percentile_coverage(tested, 0.45 / 0.3 - 1.0, draws, b)


def test_conditional_diff_percentile_ci_coverage():
    # two equally likely strata with different rates of s and o: DIFF 0.15
    # in L and 0.1 in R, so COND-DIFF, the size-weighted mean, has an
    # interior true value of 0.125, on 200 rows per draw
    draws, n, b = 3587, 200, 100
    r = np.random.default_rng(79)
    e = r.integers(0, 2, draws * n)
    s = (r.random(draws * n) >= np.where(e == 0, 0.3, 0.7)).astype(np.int32)
    rate = np.where(s == 0, np.where(e == 0, 0.4, 0.6), np.where(e == 0, 0.25, 0.5))
    schema = [AttributeSchema("s", "categorical", "protected", ("a", "b")),
              AttributeSchema("o", "categorical", "output", ("0", "1")),
              AttributeSchema("e", "categorical", "explanatory", ("L", "R"))]
    view, key = _replicates({"s": s, "o": (r.random(draws * n) < rate).astype(np.int32),
                             "e": e.astype(np.int32)}, draws, n, schema)
    cfg = StatConfig(seed=79, n_permutations=100, n_bootstrap=b)
    counts = COND_DIFF.counts(view)
    tested = evaluate_contexts(counts, counts.stratum_key(key)[0], range(draws), cfg,
                               [(i,) for i in range(draws)])
    _percentile_coverage(tested, 0.125, draws, b)


@pytest.mark.parametrize("o, est", [("11", 0.0), ("10", 1.0)])
def test_asymptotic_diff_with_no_spread_has_a_point_ci(o, est):
    # above the threshold with both groups' rates at 1, or at 1 and 0: the
    # Wald spread is 0, so every CI, corrected or not, is the estimate itself
    tm = evaluate_metric(two_col_dataset(["a", "b"] * 600, list(o) * 600), DIFF,
                         StatConfig(seed=0))
    apply_corrections([tm, make_tested(0.1, 0.05)], 0.95)
    assert tm.method == "asymptotic"
    assert tm.p == 1.0 if est == 0.0 else tm.p < 1e-100
    assert tm.value.value == est
    assert tm.ci == tm.corrected_ci == (est, est)
    assert not np.signbit([est, *tm.ci, *tm.corrected_ci]).any()
