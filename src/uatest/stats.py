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
row count; only a resampled CORR hypothesis gathers its population's
rows, on its first draw. A resampled hypothesis draws its permutations on
the first read of its p-value and its bootstrap on the first read of a CI,
which reads the p-value first; both come from the hypothesis's own RNG
stream, permutations then bootstrap, so the numbers are the same in any read
order, and a hypothesis nobody reads never resamples. A permutation
p-value is at least 1/(n_permutations+1), and Holm-adjusted p-values never
decrease when a raw p increases; so a corrected p is fixed without drawing
anything when the Holm runs with every unread p at that floor and at 1 agree,
and otherwise unread p-values are drawn only until they agree. Reports are
the same as when every p-value is drawn at once.

Every randomized procedure is reproducible from (seed, input). Callers give
each hypothesis its own entropy tuple, hence its own stream, so that lazy
draws yield the same numbers whichever hypothesis is read first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import special

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


# The normal, chi-squared and Student t tails, from the scipy.special
# functions behind scipy.stats' distributions, bit for bit: importing
# scipy.stats costs more than every test of a run.
def _norm_sf(x):
    return special.ndtr(-x)


def _norm_ppf(q):
    return special.ndtri(q)


def _chi2_sf(g, dof):
    return special.chdtrc(dof, np.maximum(g, 0.0))  # 1 at and below 0, as chi2.sf


def _t_sf(t, df):
    return special.stdtr(df, -t)


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

    ``p`` may be a function that draws it, a permutation p-value of at least
    ``p_floor``; it is called on the first read of ``p`` and its result
    kept. The CIs derive from a recipe: a percentile recipe holds the sorted
    bootstrap statistics, a Wald or Fisher-z recipe the estimate and its
    spread. ``_recipe`` may be a function that draws it; it is called on the
    first read of ``ci``, ``corrected_ci`` or ``_recipe``, after reading
    ``p``, and its result kept. A ``ci`` of None is derived from the recipe
    at level ``conf``, a ``corrected_ci`` of None at the Bonferroni level
    ``apply_corrections`` records (None until then); given values are kept.
    ``apply_corrections`` leaves ``corrected_p`` to its first read, which
    reads unread p-values of the family only until the Holm bounds
    ``corrected_p_bounds`` agree. Equality compares the fields below, CIs
    included.
    """

    __test__ = False  # not a pytest class, despite the name

    # ``ci``, ``p``, ``corrected_p`` and ``corrected_ci`` are properties,
    # defined after ``__init__``
    value: MetricValue
    ci: tuple[float, float]
    p: float
    method: str
    corrected_p: float | None
    corrected_ci: tuple[float, float] | None

    def __init__(self, value: MetricValue, ci: tuple[float, float] | None,
                 p: float | Callable[[], float], method: str,
                 corrected_p: float | None = None,
                 corrected_ci: tuple[float, float] | None = None,
                 _recipe: tuple | Callable[[], tuple] | None = None,
                 conf: float | None = None, p_floor: float = 0.0) -> None:
        self.value, self.method = value, method
        self._p, self._p_floor = [p], p_floor  # a cell the family's bounds also read
        self.corrected_p = corrected_p
        self._ci, self._corrected_ci = ci, corrected_ci
        self._source, self._conf = _recipe, conf
        self._level: float | None = None

    @property
    def p(self) -> float:
        return _read(self._p)

    @p.setter
    def p(self, value: float) -> None:
        self._p[0] = value

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

    @property
    def _recipe(self) -> tuple | None:
        if callable(self._source):
            self.p  # the permutations precede the bootstrap in the hypothesis's stream
            self._source = self._source()
        return self._source

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


def _read(cell: list) -> float:
    """The p-value in a one-item ``cell``, drawn and kept on the first read."""
    if callable(cell[0]):
        cell[0] = cell[0]()
    return cell[0]


def _rng(cfg: StatConfig, entropy: Sequence[int]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, *entropy]))


class _Once:
    """``fn(*args)``, called on the first call and then kept: a hypothesis's
    generator, built on its first draw, its context's rows, or the paired
    rows of a count."""

    __slots__ = ("_call", "_result")

    def __init__(self, fn: Callable, *args) -> None:
        self._call, self._result = (fn, args), None

    def __call__(self):
        if self._call is not None:
            fn, args = self._call
            self._result, self._call = fn(*args), None
        return self._result


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

    Holm-adjusted p-values never decrease when a raw p increases, so with
    every unread p at its floor ``lo`` bounds the corrected p-values from
    below, and with every unread p at 1 ``hi`` bounds them from above; where
    the two agree, that is the exact corrected p. Once every p is read they
    agree everywhere. The family holds its members' p-value cells, not the
    members, so members and family form no reference cycle.
    """

    def __init__(self, tested: Sequence[TestedMetric]) -> None:
        self.cells = [t._p for t in tested]
        self.floors = [t._p_floor for t in tested]
        self._bound()

    def _bound(self) -> None:
        ps = [cell[0] for cell in self.cells]
        unread = [callable(p) for p in ps]
        self.lo = holm_bonferroni([f if u else p for p, f, u in zip(ps, self.floors, unread)])
        self.hi = holm_bonferroni([1.0 if u else p for p, u in zip(ps, unread)])

    def tighten(self, i: int, done: Callable[[float, float], bool]) -> None:
        """Read unread p-values until ``done(lo[i], hi[i])``: member i's
        first, then the others in family order, in batches of an eighth of
        those read so far, bounding the family again after each batch."""
        if done(self.lo[i], self.hi[i]):
            return  # before listing the unread members, a pass over the whole family
        unread = [j for j in dict.fromkeys([i, *range(len(self.cells))])
                  if callable(self.cells[j][0])]
        read = 0
        while not done(self.lo[i], self.hi[i]):
            batch = unread[read:read + max(1, read // 8)]
            for j in batch:
                _read(self.cells[j])
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
    (tested,) = test_contexts(bound.counts(view), np.zeros(view.n_rows, dtype=np.intp), [0],
                              cfg, [entropy])
    if isinstance(tested, MetricError):
        raise tested
    return tested


def test_contexts(counts: MetricCounts, key: np.ndarray, contexts: Sequence[int],
                  cfg: StatConfig, entropies: Sequence[Sequence[int]]
                  ) -> list[TestedMetric | MetricError]:
    """Test the metric of ``counts`` on many populations of its view at
    once: context c holds the rows where ``key`` is c (-1 for a row in
    none). Hypothesis h tests context ``contexts[h]`` with the RNG stream of
    ``entropies[h]``; an untestable one gives the MetricError that says why.

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
    row count. A resampled hypothesis keeps its tables, or gathers its
    context's rows on its first draw, with its RNG stream (its generator is
    built on the first draw) and the statistic; only these draws differ by
    kind. The permutations are drawn on the first read of ``p`` and the
    bootstrap on the first read of a CI, which reads ``p`` first; so both
    give the same numbers whenever they run.
    """
    bound = counts.metric
    ckey, groups = counts.stratum_key(key)
    n = max(int(np.max(key, initial=-1)), max(contexts, default=-1)) + 1
    contexts = np.asarray(contexts, dtype=np.intp)
    summary = counts.summary(ckey, n * groups)
    floor = bound.min_stratum
    if bound.tabular:
        tables = summary.reshape(n, groups, *summary.shape[1:])[contexts]
        # one stack of (hypothesis, stratum) tables; resampled stacks gain an axis
        vals = counts.values(tables.reshape(-1, *tables.shape[-2:])).reshape(tables.shape[:2])
        sizes = tables.sum(axis=(-2, -1))
        n_rows = np.bincount(key + 1, minlength=n + 1)[1:][contexts]
        draws = partial(_table_draws, counts.values,
                        partial(_stratum_statistic, counts.values, floor), tables, cfg)
    else:  # CORR, whose counts are over the rows where both columns are defined
        moments = tuple(m.reshape(n, groups)[contexts] for m in summary)
        vals, sizes = counts.values(moments), moments[0]
        n_rows = sizes.sum(axis=-1)
        draws = partial(_row_draws, _Once(_paired_rows, counts, ckey, groups), contexts,
                        groups, floor, cfg)
    testable = (stratum_weights(vals, sizes, floor) > 0).any(axis=-1)
    obs = stratum_mean(vals, sizes, floor)
    # RATIO has no asymptotic route here; it always resamples.
    asym = np.flatnonzero(testable & (n_rows > cfg.small_sample_threshold)
                          & (not bound.conditional and bound.kind.name != RATIO))
    tests = {}  # (p-value, CI recipe) of each asymptotic hypothesis
    if len(asym):
        tests = dict(zip(asym.tolist(), _asymptotic_tests(
            counts, tables[asym, 0] if bound.tabular else None, obs[asym], n_rows[asym])))

    out: list[TestedMetric | MetricError] = []
    for h, (entropy, ok, est) in enumerate(zip(entropies, testable.tolist(), obs.tolist())):
        if not ok:
            out.append(bound.undefined(sizes[h]))
            continue
        value = MetricValue(bound.kind, est)
        p, recipe = tests.get(h, (None, None))
        if recipe is not None:
            out.append(TestedMetric(value, None, p, ASYMPTOTIC, _recipe=recipe, conf=cfg.conf))
            continue
        permuted, samples = draws(h, _Once(_rng, cfg, entropy))
        if p is not None:  # a G-test with a bootstrap CI
            out.append(_percentile(value, p, ASYMPTOTIC, cfg, samples))
            continue
        pvalue = partial(_permutation_p, permuted, vals[h], sizes[h], floor, est,
                         bound.kind.signed)
        out.append(_percentile(value, pvalue, RESAMPLING, cfg, samples))
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


def _percentile(value: MetricValue, p: float | Callable[[], float], method: str,
                cfg: StatConfig, samples: Callable[[], np.ndarray]) -> TestedMetric:
    """A tested metric whose percentile CIs come from ``samples()``, the
    sorted bootstrap statistics, drawn on the first read of a CI; ``p`` may
    be a function drawing a permutation p-value, at least
    1/(n_permutations+1)."""
    est = value.value
    return TestedMetric(value, None, p, method, conf=cfg.conf,
                        _recipe=lambda: ("percentile", samples(), est),
                        p_floor=1.0 / (cfg.n_permutations + 1))


def _table_draws(values: Callable[[np.ndarray], np.ndarray],
                 statistic: Callable[[np.ndarray], np.ndarray], tables: np.ndarray,
                 cfg: StatConfig, h: int, rng: Callable[[], np.random.Generator]
                 ) -> tuple[Callable[[int], np.ndarray], Callable[[], np.ndarray]]:
    """Hypothesis h's draws from its stack of per-stratum ``tables[h]``:
    ``permuted(k)``, the ``values`` of permutations of stratum k, and the
    sorted bootstrap ``statistic``, both from ``rng()``."""
    own = tables[h]
    return (partial(_permuted_tables, values, own, cfg.n_permutations, rng),
            partial(_bootstrap_table_stats, own, statistic, cfg.n_bootstrap, rng))


def _stratum_statistic(values: Callable[[np.ndarray], np.ndarray], floor: int,
                       tables: np.ndarray) -> np.ndarray:
    """The stratified metric of each stack of per-stratum ``tables``."""
    return stratum_mean(values(tables), tables.sum(axis=(-2, -1)), floor)


def _paired_rows(counts: MetricCounts, ckey: np.ndarray, groups: int) -> list[np.ndarray]:
    """The context, ``x``, ``y`` and stratum of each row of ``counts`` in a
    context (``ckey`` is context times ``groups`` plus stratum, -1 for none)
    with both columns defined, in row order."""
    ok = (ckey >= 0) & counts.paired
    context, strata = np.divmod(ckey[ok], groups)
    return [context, counts.x[ok], counts.y[ok], strata]


def _context_rows(paired: Callable[[], list[np.ndarray]], c: int) -> list[np.ndarray]:
    """The ``x``, ``y`` and stratum columns of ``paired()`` at the rows of
    context ``c``, in row order."""
    context, *columns = paired()
    rows = np.flatnonzero(context == c)
    return [col[rows] for col in columns]


def _row_draws(paired: Callable[[], list[np.ndarray]], contexts: np.ndarray, groups: int,
               floor: int, cfg: StatConfig, h: int, rng: Callable[[], np.random.Generator]
               ) -> tuple[Callable[[int], np.ndarray], Callable[[], np.ndarray]]:
    """Hypothesis h's draws from the rows of its context ``contexts[h]``,
    gathered on the first draw: ``permuted(k)``, the correlations of
    permutations of stratum k, and the sorted bootstrap statistics, both
    from ``rng()``."""
    rows = _Once(_context_rows, paired, contexts[h])

    def permuted(k: int) -> np.ndarray:
        x, y, e = rows()
        return _corr_permutation_stats(x[e == k], y[e == k], cfg.n_permutations, rng())

    def draw(m: int) -> np.ndarray:
        x, y, e = rows()
        n = len(e)
        out = []
        for chunk in _chunks(m, n):
            idx = rng().integers(0, n, size=(chunk, n))
            rkey = np.arange(chunk)[:, None] * groups + e[idx]
            v, c = grouped_correlation(x[idx].ravel(), y[idx].ravel(), rkey.ravel(),
                                       chunk * groups)
            out.append(stratum_mean(v.reshape(chunk, groups), c.reshape(chunk, groups), floor))
        return np.concatenate(out)

    return permuted, partial(_bootstrap, draw, cfg.n_bootstrap)


def _permutation_p(permuted: Callable[[int], np.ndarray], vals: np.ndarray, sizes: np.ndarray,
                   floor: int, obs: float, signed: bool) -> float:
    """The permutation p-value of a stratified statistic ``obs`` with
    per-stratum values ``vals`` and sizes ``sizes``, from ``permuted(k)``,
    the permuted statistics of stratum k."""
    # the strata the aggregate keeps keep their sizes under permutation; NaN
    # propagates from any undefined permuted stratum and counts as extreme
    kept = np.flatnonzero(stratum_weights(vals, sizes, floor))
    perm = weighted_mean(np.array([permuted(k) for k in kept]).T, sizes[kept])
    return _perm_pvalue(perm, obs, two_sided=signed)


def _permuted_tables(values: Callable[[np.ndarray], np.ndarray], tables: np.ndarray, n_perm: int,
                     rng: Callable[[], np.random.Generator], k: int) -> np.ndarray:
    """``values`` of ``n_perm`` fixed-margin permutations of stratum k's table."""
    return values(_fixed_margin_tables(tables[k], n_perm, rng()))


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


def _bootstrap_table_stats(counts: np.ndarray, statistic: Callable[[np.ndarray], np.ndarray],
                           n_boot: int, rng: Callable[[], np.random.Generator]) -> np.ndarray:
    """Bootstrap ``statistic`` of a stack of count tables via multinomial
    resampling of the joint counts (equivalent in distribution to resampling
    rows with replacement), drawing from ``rng()``."""
    flat = counts.ravel().astype(np.int64)
    n = int(flat.sum())
    probs = flat / n

    def draw(m: int) -> np.ndarray:
        return statistic(rng().multinomial(n, probs, size=m).reshape(m, *counts.shape))

    return _bootstrap(draw, n_boot)


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
