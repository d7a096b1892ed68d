"""Significance and confidence machinery for association metrics.

Small populations are tested with permutation tests and percentile
bootstraps; large ones with the matching asymptotic tests. Below the
threshold, or when conditioned on an explanatory attribute, a metric is
resampled as a stratified metric, the size-weighted mean of its base metric
over strata; an unconditional metric has one stratum. Families of
simultaneous hypotheses are corrected with Holm-Bonferroni p-values and
Bonferroni-level confidence intervals.

Estimates, asymptotic p-values and the checks that make a population
untestable run when a metric is tested, over every population of one keyed
count at once (``test_contexts``); ``test_metric`` is the one-population
case. The count, a ``MetricCounts``, gives the metric's strata, values and
orientation, and each population's tables or, for CORR, its moments, from
which the t-test and the Fisher-z CI read the correlation and the paired
row count. A resampled hypothesis is one object: a ``_Tables`` draws from
its per-stratum tables, a CORR ``_Rows`` from its population's rows, which
it gathers on its first draw. It has two RNG streams: its permutations come
from the first on the first read of its p-value, its bootstrap from the
second on the first read of a CI. So the numbers are the same in any read
order, a CI draws no permutations, and a hypothesis nobody reads never
resamples. A permutation p-value is at least 1/(n_permutations+1), and
Holm-adjusted p-values never decrease when a raw p increases; so the Holm
family bounds each raw p, by [floor, 1] until it is read, and a corrected p
is fixed without drawing anything when the Holm runs at the lower and at the
upper bounds agree; otherwise unread p-values are drawn only until they
agree. Reports are the same as when every p-value is drawn at once.

Every randomized procedure is reproducible from (seed, input). Callers give
each hypothesis its own entropy tuple, from which ``_rng`` derives its two
streams (and says which tuples share one), so that lazy draws yield the
same numbers whichever hypothesis is read first.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset
from .metrics import (
    CORR,
    NMI,
    RATIO,
    BoundMetric,
    MetricCounts,
    MetricError,
    MetricValue,
    grouped_correlation,
    mi_from_tables,
    stratum_mean,
    stratum_weights,
    two_groups,
    weighted_mean,
)

logger = logging.getLogger(__name__)

ASYMPTOTIC = "asymptotic"
RESAMPLING = "permutation+bootstrap"

_BOOT_CHUNK = 256
_CHUNK_CELLS = 1 << 20


# The normal, chi-squared and Student t tails, from numpy, math and
# statistics alone: importing scipy would cost a run more time and memory
# than all of its tests. Each docstring bounds the relative error in units
# of u = 2**-53, for results in the normal float range (above about
# 2.2e-308); a result below that is accurate to within that number. NaN in
# gives NaN out.
_erfc = np.frompyfunc(math.erfc, 1, 1)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)
_SQRT1_2 = math.sqrt(0.5)
_LN_SQRT_PI = 0.5 * math.log(math.pi)
_CF_EPS = 1e-15
_CF_MAX_ITER = 1000  # a cap: the t tail's fractions converge in under about 80 steps


def _floats(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _norm_sf(x):
    """The standard normal upper tail, erfc(x/sqrt 2)/2. Rounding the
    argument, by at most 1.6u, moves ln erfc(z) by (2z^2 + 1) times that;
    with erfc's own rounding, the relative error is below (2x^2 + 4)u:
    3.2e-13 at |x| = 38, where the tail leaves the normal range."""
    return 0.5 * _floats(_erfc(np.multiply(x, _SQRT1_2)))


def _ppf(q: float) -> float:
    if math.isnan(q):  # before any ordered comparison, which would flag it as invalid
        return q
    if 0.0 < q < 1.0:
        return NormalDist().inv_cdf(q)
    return -math.inf if q == 0.0 else math.inf if q == 1.0 else math.nan


def _norm_ppf(q):
    """The standard normal quantile: Wichura's AS 241 (Applied Statistics
    37, 1988), as ``statistics.NormalDist`` implements it, to about 1e-16
    relative; -inf at 0, inf at 1, NaN outside [0, 1]."""
    return _floats(np.frompyfunc(_ppf, 1, 1)(q))[()]


def _chi2_sf(g, dof):
    """The chi-squared upper tail at ``g`` with whole-number ``dof``: 1 at
    and below 0. With x = g/2 it is the Poisson sum of Abramowitz and
    Stegun 26.4.4 (even dof) and 26.4.5 (odd dof), the sum over a = dof/2 -
    1, dof/2 - 2, ... >= 0 of exp(a ln x - x - ln Gamma(a + 1)), plus
    erfc(sqrt x) for odd dof. The terms are summed in log space, scaled by
    the largest, because exp(-x) underflows where the sum does not. Each
    exponent is rounded to about its magnitude times u, so the relative
    error is at most about (x + dof/2 |ln x| + ln Gamma(dof/2 + 1) + 8) 2u:
    below 6e-13 for g <= 5,000 and dof <= 400."""
    x, dof = np.broadcast_arrays(_floats(g) / 2.0, np.asarray(dof))
    out = np.where(np.isnan(x), np.nan, np.where(x > 0, 0.0, 1.0))  # the limits
    live = (x > 0) & (x < np.inf)
    x, dof = x[live], dof[live]
    odd = dof % 2
    k = np.arange(int(np.max(dof, initial=0)) // 2)
    lgam = _floats(_lgamma(k + np.array([[1.0], [1.5]])))  # ln Gamma(a + 1), by parity
    a = k + odd[:, None] / 2.0
    log_terms = np.where(a < dof[:, None] / 2.0,
                         a * np.log(x)[:, None] - x[:, None] - lgam[odd], -np.inf)
    top = np.max(log_terms, axis=1, initial=-np.inf)
    top = np.where(top > -np.inf, top, 0.0)  # no terms: dof 1
    # summed in order, so that a row's padding of zeros leaves its sum alone
    terms = np.cumsum(np.exp(log_terms - top[:, None]), axis=1)[:, -1] if len(k) else 0.0
    out[live] = np.exp(top) * terms + np.where(odd == 1, _floats(_erfc(np.sqrt(x))), 0.0)
    return out


def _ln_gamma_half_ratio(a: np.ndarray) -> np.ndarray:
    """ln Gamma(a + 1/2) - ln Gamma(a) for a > 0. From a = 20 on, its
    asymptotic series in Bernoulli numbers, whose terms omitted are below
    1e-16 there; ``math.lgamma``'s difference would cancel to lgamma(a)
    times u. Absolute error below 1e-14."""
    big = a >= 20.0
    s = np.where(big, a, 20.0)
    z = 1.0 / (s * s)
    series = 0.5 * np.log(s) - (1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (
        17 / 14336 - z * 31 / 18432)))) / s
    small = np.where(big, 1.0, a)
    return np.where(big, series, _floats(_lgamma(small + 0.5)) - _floats(_lgamma(small)))


def _beta_cf(p, q, x, y, lam):
    """The continued fraction of I_x(p, q), over its front factor x^p y^q /
    B(p, q), with y = 1 - x and lam = (p + q) y - q, both computed without
    cancellation: BFRAC of Didonato and Morris (ACM TOMS 18, 1992, algorithm
    708), the even part of the fraction of Numerical Recipes 6.4. Unlike
    that fraction it never takes 1 - x, which would cost p u of relative
    accuracy near the mean. Vectorized; each entry stops at its own
    convergence, so it does not depend on the others."""
    c, c0, c1, yp1 = lam + 1.0, q / p, 1.0 / p + 1.0, y + 1.0
    s, t0 = p + 1.0, np.ones_like(x)
    an, bn, anp1, bnp1 = np.zeros_like(x), np.ones_like(x), np.ones_like(x), c / c1
    r = c1 / c
    live = np.ones(x.shape, dtype=bool)
    for n in range(1, _CF_MAX_ITER):
        t = n / p
        w = n * (q - n) * x
        e = p / s
        alpha = t0 * (t0 + c0) * e * e * (w * x)
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * yp1)
        t0, s = t + 1.0, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, np.where(live, anp1 / bnp1, r)
        live &= np.abs(r - r0) > _CF_EPS * r
        if not live.any():
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, np.ones_like(x)
    return r


def _t_sf(t, df):
    """Student's t upper tail with ``df`` > 0 degrees of freedom: I_x(df/2,
    1/2)/2 at x = df/(df + t^2) for t > 0, 1 minus that for t < 0, and 1/2
    at 0. The regularized incomplete beta is its front factor times
    ``_beta_cf``, or 1 - I_y(1/2, df/2) where t^2 is below about 2, so that
    the fraction takes under about 80 steps. ln x, ln y and ln B(df/2, 1/2)
    = ln sqrt(pi) - ``_ln_gamma_half_ratio`` are formed without
    cancellation, so the front factor's exponent, within 20 of |ln sf|, is
    rounded to about 8u of its size; the fraction, ln B and the complement
    add under 3e-14. The relative error is below (|ln sf| + 40) 8u: 6.6e-13
    at the bottom of the normal range."""
    t, df = np.broadcast_arrays(_floats(t), _floats(df))
    out = np.where(np.isnan(t) | np.isnan(df), np.nan,
                   np.where(t > 0, 0.0, np.where(t < 0, 1.0, 0.5)))  # the limits
    live = np.isfinite(t) & (t != 0) & (df > 0)
    a = df[live] / 2.0
    v = np.abs(t[live]) / np.sqrt(df[live])
    big = v > 1.0
    with np.errstate(divide="ignore"):  # v is 0 only where t^2/df underflows
        lw = -2.0 * np.abs(np.log(v))  # w = min(r, 1/r) for r = t^2/df
    w = np.exp(lw)
    lp = np.log1p(w)
    lx = np.where(big, lw, 0.0) - lp  # x = 1/(1 + r)
    ly = np.where(big, 0.0, lw) - lp  # y = 1 - x = r/(1 + r)
    x = np.where(big, w, 1.0) / (1.0 + w)
    y = np.where(big, 1.0, w) / (1.0 + w)
    front = np.exp(a * lx + 0.5 * ly - _LN_SQRT_PI + _ln_gamma_half_ratio(a))
    lam = (a + 0.5) * y - 0.5
    direct = lam >= np.minimum(0.5, a / 2.0)  # keeps 1 + lam and 1 - lam at least 1/2
    i = front * _beta_cf(np.where(direct, a, 0.5), np.where(direct, 0.5, a),
                         np.where(direct, x, y), np.where(direct, y, x),
                         np.where(direct, lam, -lam))
    half = np.where(direct, 0.5 * i, 0.5 - 0.5 * i)
    out[live] = np.where(t[live] > 0, half, 1.0 - half)
    return out


class StatsError(Exception):
    """A statistical procedure cannot produce a valid answer on this data."""


@dataclass
class StatConfig:
    """Knobs for statistical validation.

    Populations of at most ``small_sample_threshold`` rows are tested by
    resampling; larger ones use asymptotic approximations.
    """

    conf: float = 0.95
    small_sample_threshold: int = 1000
    n_permutations: int = 1000
    n_bootstrap: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.conf < 1.0:
            raise StatsError("conf must lie strictly between 0 and 1")
        if self.n_permutations < 100 or self.n_bootstrap < 100:
            raise StatsError("resampling counts must be at least 100")


@dataclass(init=False)
class TestedMetric:
    """A metric estimate with its CI and p-value, before and after correction.

    A ``p`` or ``_recipe`` given as None is read from the ``_Resampled``
    object ``resampled``, which draws it, on the first read, and kept. A
    percentile recipe holds the sorted bootstrap statistics, a Wald or
    Fisher-z recipe the estimate and its spread. A ``ci`` of None is derived
    from the recipe at level ``conf``, a ``corrected_ci`` of None at the
    Bonferroni level ``apply_corrections`` records (None until then); given
    values are kept. ``apply_corrections`` leaves ``corrected_p`` to its
    first read, which reads unread p-values of the family only until the
    Holm bounds ``corrected_p_bounds`` agree. Equality compares the fields
    below, CIs included.
    """

    __test__ = False  # not a pytest class, despite the name

    # ``ci``, ``p``, ``corrected_p`` and ``corrected_ci`` are properties,
    # defined after ``__init__``; ``p`` is a cached one
    value: MetricValue
    ci: tuple[float, float]
    p: float
    method: str
    corrected_p: float | None
    corrected_ci: tuple[float, float] | None

    def __init__(self, value: MetricValue, ci: tuple[float, float] | None,
                 p: float | None, method: str,
                 corrected_p: float | None = None,
                 corrected_ci: tuple[float, float] | None = None,
                 _recipe: tuple | None = None, conf: float | None = None,
                 resampled: _Resampled | None = None) -> None:
        self.value, self.method = value, method
        self.corrected_p = corrected_p
        self._ci, self._corrected_ci = ci, corrected_ci
        self._conf, self._resampled = conf, resampled
        self._level: float | None = None
        if p is not None:
            self.p = p
        if _recipe is not None:
            self._recipe = _recipe

    @cached_property
    def p(self) -> float:
        return self._resampled.p

    @property
    def corrected_p(self) -> float | None:
        if self._holm is not None:
            family, i = self._holm
            family.tighten(i, lambda lo, hi: lo == hi)
            self.corrected_p = family.lo[i]
        return self._corrected_p

    @corrected_p.setter
    def corrected_p(self, value: float | None) -> None:
        self._corrected_p, self._holm = value, None

    @property
    def corrected_p_bounds(self) -> tuple[float | None, float | None]:
        """Bounds on ``corrected_p`` that draw nothing: its family's Holm
        bounds until it is fixed, then the value twice."""
        if self._holm is None:
            return self._corrected_p, self._corrected_p
        family, i = self._holm
        return family.lo[i], family.hi[i]

    def significant(self, alpha: float) -> bool:
        """Whether ``corrected_p <= alpha``, reading unread p-values of the
        family only while ``alpha`` lies between the bounds."""
        if self._holm is not None:
            family, i = self._holm
            family.tighten(i, lambda lo, hi: hi <= alpha or lo > alpha)
        return self.corrected_p_bounds[1] <= alpha

    @cached_property
    def _recipe(self) -> tuple:
        return self._resampled.recipe

    @property
    def ci(self) -> tuple[float, float]:
        if self._ci is None:
            self._ci = _ci_from_recipe(self._recipe, self._conf)
        return self._ci

    @property
    def corrected_ci(self) -> tuple[float, float] | None:
        if self._corrected_ci is None and self._level is not None:
            self._corrected_ci = _ci_from_recipe(self._recipe, self._level)
        return self._corrected_ci


def _rng(cfg: StatConfig, entropy: Sequence[int], bootstrap: bool = False) -> np.random.Generator:
    """The permutation stream of the hypothesis of ``entropy`` or, with
    ``bootstrap``, its bootstrap stream: numpy's first spawned child of the
    first, whose entropy is the first's padded with zeros to the 4-word pool,
    then 0. So two tuples share a stream if one is the other followed by
    zeros, and no stream otherwise."""
    return np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, *entropy], spawn_key=(0,) if bootstrap else ()))


# -- multiple-testing corrections --------------------------------------------


def holm_bonferroni(pvalues: Sequence[float]) -> list[float]:
    """Step-down Holm adjustment, returned in the input order.

    Sorted ascending, the i-th smallest p is scaled by (m - i) and running
    maxima enforce monotonicity; values are capped at 1.
    """
    ps = np.asarray(list(pvalues), dtype=np.float64)
    if np.any((ps < 0) | (ps > 1)):
        raise StatsError("p-values must lie in [0, 1]")
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    adjusted = np.empty(m)
    adjusted[order] = np.maximum.accumulate(np.minimum(1.0, (m - np.arange(m)) * ps[order]))
    return adjusted.tolist()


class _HolmFamily:
    """The members of one Holm family with bounds on their corrected p.

    The family holds bounds on each member's raw p, [floor, 1] while it is
    unread and [p, p] once it is read. Holm-adjusted p-values never decrease
    when a raw p increases, so the Holm run at the lower bounds ``lo``
    bounds the corrected p-values from below, and the run at the upper
    bounds ``hi`` from above; where the two agree, that is the exact
    corrected p. Once every p is read they agree everywhere. The family
    asks a resampled member's ``_Resampled`` object for its bounds, not the
    member, so members and family form no reference cycle.
    """

    def __init__(self, tested: Sequence[TestedMetric]) -> None:
        # a p given or read is kept in its member; the others are asked
        self.members = [None if "p" in vars(t) else t._resampled for t in tested]
        self.p_bounds = np.array([(t.p, t.p) if m is None else m.p_bounds
                                  for t, m in zip(tested, self.members)]).reshape(-1, 2)
        self._bound()

    def _bound(self) -> None:
        for j, member in enumerate(self.members):  # bounds narrowed since, by any reader
            if member is not None:
                self.p_bounds[j] = member.p_bounds
        self.lo, self.hi = (holm_bonferroni(b) for b in self.p_bounds.T)

    def tighten(self, i: int, done: Callable[[float, float], bool]) -> None:
        """Narrow members' p bounds until ``done(lo[i], hi[i])``: member i's
        first, then the others in family order, in batches of an eighth of
        those narrowed so far, bounding the family again after each batch.
        With one-shot permutation draws, narrowing a member reads its p."""
        if done(self.lo[i], self.hi[i]):
            return  # before asking the members, a pass over the whole family
        self._bound()
        unread = [j for j in dict.fromkeys([i, *range(len(self.members))])
                  if self.p_bounds[j, 0] < self.p_bounds[j, 1]]
        read = 0
        while not done(self.lo[i], self.hi[i]):
            batch = unread[read:read + max(1, read // 8)]
            for j in batch:
                self.members[j].p  # drawn and kept, so _bound reads [p, p]
            read += len(batch)
            self._bound()


def apply_corrections(tested: Sequence[TestedMetric], conf: float) -> None:
    """Attach Holm-corrected p-values and Bonferroni-corrected CIs in place;
    both are fixed on first read, and a corrected p reads the family's
    unread p-values only while its Holm bounds disagree. A corrected CI is
    the CI at the Bonferroni level 1 - (1-conf)/m, so the widened intervals
    are simultaneously valid and always contain the raw intervals."""
    family = _HolmFamily(tested)
    for i, t in enumerate(tested):
        t._holm = (family, i)
        t._level, t._corrected_ci = 1.0 - (1.0 - conf) / len(tested), None


def _ci_from_recipe(recipe: tuple, level: float) -> tuple[float, float]:
    alpha = 1.0 - level
    kind = recipe[0]
    if kind == "percentile":
        samples, est = recipe[1], recipe[2]
        lo, hi = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0])
        # a skewed resampling distribution may exclude the estimate; widen so
        # the interval always contains it
        return min(float(lo), est), max(float(hi), est)
    if kind == "wald":
        _, est, se = recipe
        z = _norm_ppf(1.0 - alpha / 2.0)
        return est - z * se, est + z * se
    if kind == "fisher":
        _, r, n = recipe
        if n <= 3:
            return -1.0, 1.0
        rc = min(1.0 - 1e-15, max(-1.0 + 1e-15, r))
        z = _norm_ppf(1.0 - alpha / 2.0)
        zr = np.arctanh(rc)
        half = z / np.sqrt(n - 3)
        return float(np.tanh(zr - half)), float(np.tanh(zr + half))
    raise StatsError(f"unknown CI recipe {kind!r}")


# -- the main dispatch ---------------------------------------------------------


def test_metric(view: Dataset, bound: BoundMetric, cfg: StatConfig,
                entropy: Sequence[int] = ()) -> TestedMetric:
    """Point estimate, CI, and p-value for a bound metric on one population:
    ``test_contexts`` with every row of ``view`` in one context. Raises the
    MetricError of an untestable population."""
    counts = bound.counts(view)
    (tested,) = test_contexts(counts, counts.stratum_key(np.zeros(view.n_rows, np.intp))[0],
                              [0], cfg, [entropy])
    if isinstance(tested, MetricError):
        raise tested
    return tested


def test_contexts(counts: MetricCounts, ckey: np.ndarray, contexts: Sequence[int],
                  cfg: StatConfig, entropies: Sequence[Sequence[int]]
                  ) -> list[TestedMetric | MetricError]:
    """Test the metric of ``counts`` on many populations of its view at
    once. ``ckey`` is ``counts.stratum_key(key)[0]`` for a ``key`` that puts
    each row in a context (-1 for a row in none): ``key`` itself for an
    unconditional metric. Hypothesis h tests context ``contexts[h]`` with the
    RNG stream of ``entropies[h]``; an untestable one gives the MetricError
    that says why.

    An unconditional metric on more than ``small_sample_threshold`` rows,
    RATIO excepted, is tested asymptotically: G-test for NMI, z-test and
    Wald CI for DIFF, t-test and Fisher-z CI for CORR. Every other metric is
    resampled as a stratified metric, the size-weighted mean of its base
    metric over the strata of ``MetricCounts.stratum_key``; an unconditional
    metric has one stratum. The permutation shuffles the protected column
    within each stratum that enters the aggregate; for tables it draws
    fixed-margin tables, exactly the distribution such shuffles induce. The
    bootstrap resamples rows of the whole population (multinomially, for
    tables) and re-applies the stratum rule to each resample.

    Every context's per-stratum tables, or its per-stratum correlation
    moments, come from one ``summary`` of ``counts`` and their values from
    its ``values``; a caller that tests many keys of one view builds the
    count once. Its sums add a context's rows in row order, so each
    estimate is bit-equal to the one taken on the context's own rows.
    The estimates, the stratum rule, the checks that make a population
    untestable and the asymptotic tests run over all hypotheses at once:
    CORR's t-test and Fisher-z CI read the moment correlation and the paired
    row count. A resampled hypothesis is one object, which draws its
    permutations on the first read of ``p`` and its bootstrap on the first
    read of a CI, each from its own stream (``_rng``): a ``_Tables``, which
    keeps its per-stratum tables, or for CORR a ``_Rows``, which gathers its
    context's rows on its first draw; only these draws differ by kind.
    """
    bound = counts.metric
    groups = counts.n_strata if bound.conditional else 1
    n = max(int(np.max(ckey, initial=-1)) // groups, max(contexts, default=-1)) + 1
    contexts = np.asarray(contexts, dtype=np.intp)
    summary = counts.summary(ckey, n * groups)
    floor = bound.min_stratum
    if bound.tabular:
        tables = summary.reshape(n, groups, *summary.shape[1:])[contexts]
        # one stack of (hypothesis, stratum) tables; resampled stacks gain an axis
        vals = counts.values(tables.reshape(-1, *tables.shape[-2:])).reshape(tables.shape[:2])
        sizes = tables.sum(axis=(-2, -1))
    else:  # CORR, whose counts are over the rows where both columns are defined
        moments = tuple(m.reshape(n, groups)[contexts] for m in summary)
        vals, sizes = counts.values(moments), moments[0]
        paired = cache(partial(_paired_rows, counts, ckey, groups))
    testable = (stratum_weights(vals, sizes, floor) > 0).any(axis=-1)
    obs = stratum_mean(vals, sizes, floor)
    tests = {}  # (p-value, CI recipe) of each asymptotic hypothesis
    # Conditional metrics and RATIO have no asymptotic route here; they always
    # resample, so only the other metrics count rows, by ckey, the key of contexts.
    if not bound.conditional and bound.kind.name != RATIO:
        n_rows = (np.bincount(ckey + 1, minlength=n + 1)[1:][contexts] if bound.tabular
                  else sizes[:, 0])
        asym = np.flatnonzero(testable & (n_rows > cfg.small_sample_threshold))
        if len(asym):
            tests = dict(zip(asym.tolist(), _asymptotic_tests(
                counts, tables[asym, 0] if bound.tabular else None, obs[asym], n_rows[asym])))

    out: list[TestedMetric | MetricError] = []
    for h, (entropy, ok, est) in enumerate(zip(entropies, testable.tolist(), obs.tolist())):
        if not ok:
            out.append(bound.undefined(sizes[h]))
            continue
        p, recipe = tests.get(h, (None, None))
        drawn = None
        if recipe is None:  # resampled; a G-test keeps its p-value and takes a bootstrap CI
            args = (cfg, entropy, vals[h], sizes[h], floor, est, bound.kind.signed)
            drawn = (_Tables(counts.values, tables[h], *args) if bound.tabular
                     else _Rows(paired, contexts[h], groups, *args))
        out.append(TestedMetric(MetricValue(bound.kind, est), None, p,
                                RESAMPLING if p is None else ASYMPTOTIC, _recipe=recipe,
                                conf=cfg.conf, resampled=drawn))
    return out


def _asymptotic_tests(counts: MetricCounts, tables: np.ndarray | None, obs: np.ndarray,
                      n_rows: np.ndarray) -> list[tuple[float, tuple | None]]:
    """The p-value and CI recipe of each asymptotic hypothesis of the metric
    of ``counts``, with its estimate ``obs``, its ``n_rows`` rows and, for a
    table metric, its table in ``tables``: a G-test with a bootstrap CI
    (recipe None) for NMI, a z-test with a Wald CI for DIFF in the count's
    orientation, a t-test with a Fisher-z CI for CORR."""
    if counts.metric.kind.name == NMI:
        p, recipes = _g_test(tables), [None] * len(obs)
    elif counts.metric.kind.name == CORR:
        p = _t_test(obs, n_rows)
        recipes = [("fisher", r, m) for r, m in zip(obs.tolist(), n_rows.tolist())]
    else:  # DIFF
        p, se = _z_test(counts.orientation, tables, obs)
        recipes = [("wald", est, s) for est, s in zip(obs.tolist(), se.tolist())]
    return list(zip(p.tolist(), recipes))


def _g_test(counts: np.ndarray) -> np.ndarray:
    """G-test p-values of independence of a stack of r x c tables."""
    mi = mi_from_tables(counts, normalized=False)
    g = 2.0 * counts.sum(axis=(-2, -1)) * mi
    live_r = (counts.sum(axis=-1) > 0).sum(axis=-1)
    live_c = (counts.sum(axis=-2) > 0).sum(axis=-1)
    return _chi2_sf(g, np.maximum(1, (live_r - 1) * (live_c - 1)))


def _z_test(orientation: tuple[int, int, int], tables: np.ndarray,
            obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-proportion z-test p-values, 1 where the pooled spread is 0, and
    Wald standard errors of DIFF estimates ``obs`` of a stack of tables,
    whose groups ``two_groups`` reads in ``orientation``."""
    xa, xb, na, nb = two_groups(tables, *orientation)
    pa, pb = xa / na, xb / nb
    pooled = (xa + xb) / (na + nb)
    se0 = np.sqrt(pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(se0 == 0, 1.0, 2.0 * _norm_sf(np.abs(obs) / se0))
    return p, np.sqrt(pa * (1 - pa) / na + pb * (1 - pb) / nb)


def _t_test(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Two-sided t-test p-values of Pearson correlations ``r`` of ``m``
    paired rows each; 0 where |r| is 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = r * np.sqrt((m - 2) / (1.0 - r * r))
        return np.where(np.abs(r) >= 1.0, 0.0, 2.0 * _t_sf(np.abs(t), m - 2))


# -- resampling ----------------------------------------------------------------


class _Resampled:
    """One resampled hypothesis: its per-stratum values ``vals`` and sizes
    ``sizes``, the stratum rule's ``floor`` and its estimate ``est``. It
    draws its permutations on the first read of ``p`` and its bootstrap on
    the first read of ``recipe``, each from its own stream (``_rng``), and
    keeps each value. A subclass gives ``permuted(rng, k)``, the statistics
    of ``n_permutations`` permutations of stratum k, and ``draw(rng, m)``,
    the stratified statistics of m bootstrap resamples."""

    def __init__(self, cfg: StatConfig, entropy: Sequence[int], vals: np.ndarray,
                 sizes: np.ndarray, floor: int, est: float, signed: bool) -> None:
        self.cfg, self.entropy, self.vals, self.sizes = cfg, entropy, vals, sizes
        self.floor, self.est, self.signed = floor, est, signed

    @cached_property
    def p(self) -> float:
        """The permutation p-value of the estimate, two-sided for a signed
        metric; at least 1/(n_permutations+1)."""
        rng = _rng(self.cfg, self.entropy)
        # the strata the aggregate keeps keep their sizes under permutation; NaN
        # propagates from any undefined permuted stratum and counts as extreme
        kept = np.flatnonzero(stratum_weights(self.vals, self.sizes, self.floor))
        perm = weighted_mean(np.array([self.permuted(rng, k) for k in kept]).T,
                             self.sizes[kept])
        return _perm_pvalue(perm, self.est, two_sided=self.signed)

    @property
    def p_bounds(self) -> tuple[float, float]:
        """Bounds on ``p`` that draw nothing: [floor, 1] until it is drawn."""
        return (self.p, self.p) if "p" in vars(self) else (1 / (self.cfg.n_permutations + 1), 1.0)

    @cached_property
    def recipe(self) -> tuple:
        """The percentile CI recipe: the sorted bootstrap statistics."""
        rng = _rng(self.cfg, self.entropy, bootstrap=True)
        return ("percentile", _bootstrap(partial(self.draw, rng), self.cfg.n_bootstrap), self.est)


class _Tables(_Resampled):
    """A hypothesis drawn from its stack of per-stratum ``tables``, each
    scored by ``values``: fixed-margin tables of a stratum, and multinomial
    resamples of the joint counts (equivalent in distribution to resampling
    rows with replacement)."""

    def __init__(self, values: Callable[[np.ndarray], np.ndarray], tables: np.ndarray,
                 *args) -> None:
        super().__init__(*args)
        self.values, self.tables = values, tables

    def permuted(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return self.values(_fixed_margin_tables(self.tables[k], self.cfg.n_permutations, rng))

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        n = int(self.tables.sum())
        boot = rng.multinomial(n, self.tables.ravel() / n, size=m)
        boot = boot.reshape(m, *self.tables.shape)
        return stratum_mean(self.values(boot), boot.sum(axis=(-2, -1)), self.floor)


class _Rows(_Resampled):
    """A CORR hypothesis drawn from the rows of context ``c`` among the
    ``paired()`` rows (``_paired_rows``), gathered on its first draw:
    shuffles of ``x`` within a stratum, and resamples of the context's rows,
    both in batches of ``_chunks``."""

    def __init__(self, paired: Callable[[], list[np.ndarray]], c: int, groups: int,
                 *args) -> None:
        super().__init__(*args)
        self.paired, self.c, self.groups = paired, c, groups

    @cached_property
    def rows(self) -> list[np.ndarray]:
        """The context's ``x``, ``y`` and stratum columns, in row order."""
        context, *columns = self.paired()
        at = np.flatnonzero(context == self.c)
        return [col[at] for col in columns]

    def permuted(self, rng: np.random.Generator, k: int) -> np.ndarray:
        x, y, e = self.rows
        return _corr_permutation_stats(x[e == k], y[e == k], self.cfg.n_permutations, rng)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        x, y, e = self.rows
        n, groups, out = len(e), self.groups, []
        for chunk in _chunks(m, n):
            idx = rng.integers(0, n, size=(chunk, n))
            rkey = np.arange(chunk)[:, None] * groups + e[idx]
            v, c = grouped_correlation(x[idx].ravel(), y[idx].ravel(), rkey.ravel(),
                                       chunk * groups)
            out.append(stratum_mean(v.reshape(chunk, groups), c.reshape(chunk, groups),
                                    self.floor))
        return np.concatenate(out)


def _paired_rows(counts: MetricCounts, ckey: np.ndarray, groups: int) -> list[np.ndarray]:
    """The context, ``x``, ``y`` and stratum of each row of ``counts`` in a
    context (``ckey`` is context times ``groups`` plus stratum, -1 for none)
    with both columns defined, in row order."""
    ok = (ckey >= 0) & counts.paired
    context, strata = np.divmod(ckey[ok], groups)
    return [context, counts.x[ok], counts.y[ok], strata]


def _fixed_margin_tables(counts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random tables with the observed margins; the permutation null."""
    r, c = counts.shape
    col_tot = counts.sum(axis=0).astype(np.int64)
    row_tot = counts.sum(axis=1).astype(np.int64)
    if r == 2:
        first = rng.multivariate_hypergeometric(col_tot, int(row_tot[0]), size=k)
        return np.stack([first, col_tot[None, :] - first], axis=1)
    out = np.empty((k, r, c), dtype=np.int64)
    for i in range(k):
        remaining = col_tot.copy()
        for row in range(r - 1):
            draw = rng.multivariate_hypergeometric(remaining, int(row_tot[row]))
            out[i, row] = draw
            remaining -= draw
        out[i, r - 1] = remaining
    return out


def _perm_pvalue(perm_stats: np.ndarray, obs: float, two_sided: bool) -> float:
    """Share of permuted statistics at least as extreme as ``obs``, counting
    the observed one. Within scipy's ``monte_carlo_test`` tolerance of
    100 ulps relative to ``obs`` a statistic counts as a tie: a table and its
    mirror give magnitudes that can differ in the last bits."""
    if two_sided:
        perm_stats = np.abs(perm_stats)
        obs = abs(obs)
    gamma = abs(100 * np.finfo(np.float64).eps * obs)
    # NaN permutation statistics count as extreme, which is conservative.
    exceed = int(np.sum(np.isnan(perm_stats) | (perm_stats >= obs - gamma)))
    return (1 + exceed) / (1 + len(perm_stats))


def _bootstrap(draw: Callable[[int], np.ndarray], n_boot: int) -> np.ndarray:
    """Sorted statistics of ``n_boot`` resamples, ``draw(m)`` giving m of them.

    NaN marks a degenerate resample; those are redrawn for up to 10 rounds
    and then skipped, and more than half skipped is an "unstable context".
    """
    stats_ = draw(n_boot)
    for _round in range(10):
        bad = np.flatnonzero(np.isnan(stats_))
        if len(bad) == 0:
            break
        stats_[bad] = draw(len(bad))
    stats_ = stats_[~np.isnan(stats_)]
    if len(stats_) < n_boot // 2:
        raise StatsError("unstable context: most bootstrap resamples were degenerate")
    return np.sort(stats_)


def _chunks(total: int, n_rows: int):
    """Batch sizes for ``total`` resamples of ``n_rows`` rows each: at most
    _BOOT_CHUNK resamples and about _CHUNK_CELLS cells per batch."""
    step = max(1, min(_BOOT_CHUNK, _CHUNK_CELLS // max(1, n_rows)))
    for done in range(0, total, step):
        yield min(step, total - done)


def _corr_permutation_stats(x: np.ndarray, y: np.ndarray, n_perm: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Correlations of ``y`` with ``n_perm`` shuffles of ``x``."""
    n = len(x)
    yc = y - y.mean()
    denom = n * x.std() * y.std()
    out = []
    for chunk in _chunks(n_perm, n):
        xs = rng.permuted(np.tile(x, (chunk, 1)), axis=1)
        out.append((xs - x.mean()) @ yc / denom)
    return np.concatenate(out)
