"""Seeded inputs, argv and output checks for the four benchmark workloads.

Each workload writes its inputs (CSV files and, for ``conditional-debug``, a
saved state file) from the workload seed alone, so the program receives only
files. The harness runs the returned argv through ``uatest.cli.main`` the way
an auditor would type it, adding ``--threads`` and ``--out`` itself.

Every workload plants effects it can score: ``recall`` is the share of the
planted effects that the report recovers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from uatest import cli
from uatest.dataset import (
    CATEGORICAL,
    CONTINUOUS,
    AttributeSchema,
    ContextPredicate,
    Dataset,
    make_datasource,
    save_csv,
)
from uatest.investigations import ReportModel
from uatest.report import report_from_obj
from uatest.synth import (
    benchmark_population,
    generate,
    make_disjoint_plants,
    score_detection,
)


@dataclass
class Prepared:
    """What a generator wrote: the argv (without ``--threads``/``--out``),
    files to copy fresh before every invocation, and the ground truth."""

    argv: list[str]
    fresh: list[tuple[str, str]] = field(default_factory=list)
    truth: object = None


@dataclass(frozen=True)
class Workload:
    """A workload's generator, output check and recall scorer; why each one
    was chosen is recorded in BENCHMARK.json."""

    name: str
    prepare: Callable[[Path, int, bool], Prepared]
    check: Callable[[list[ReportModel]], str | None]
    recall: Callable[[list[ReportModel], object], float]

    def verify(self, text: str) -> str | None:
        """Why a ``--format json`` report fails this workload's checks, or None."""
        try:
            reports = parse_reports(text)
        except (ValueError, KeyError, TypeError) as exc:
            return f"report does not parse: {exc!r}"
        return self.check(reports)


def parse_reports(text: str) -> list[ReportModel]:
    """The ``--format json`` document as report models."""
    return [report_from_obj(obj) for obj in json.loads(text)["reports"]]


def _expect(reports: list[ReportModel], metric: str, output: str | None = None) -> str | None:
    if len(reports) != 1:
        return f"expected one report, got {len(reports)}"
    rm = reports[0]
    if rm.metric != metric:
        return f"report metric {rm.metric!r}, expected {metric!r}"
    if output is not None and rm.output != output:
        return f"report output {rm.output!r}, expected {output!r}"
    findings = list(rm.findings) + ([rm.global_finding] if rm.global_finding else [])
    wrong = [f.metric for f in findings if f.metric != metric]
    if wrong:
        return f"finding metric {wrong[0]!r}, expected {metric!r}"
    return None


def _plant_recall(reports: list[ReportModel], truth) -> float:
    plants, test = truth
    return score_detection(reports[0], plants, test).recall


def _recovered(reports: list[ReportModel], planted: list, keys) -> float:
    found = {k for rm in reports for f in rm.findings for k in keys(f)}
    return sum(1 for p in planted if p in found) / len(planted)


# -- planted-testing ------------------------------------------------------------

# The population of ``uatest bench``: 10 disjoint plants of about 2,000 rows.
PT_N, PT_PLANTS, PT_SIZE, PT_DELTA, PT_TRAIN = 100_000, 10, 2000, 0.15, 0.4
PT_SMOKE = (10_000, 3, 1000)


def prepare_planted_testing(workdir: Path, seed: int, smoke: bool) -> Prepared:
    n, k, size = PT_SMOKE if smoke else (PT_N, PT_PLANTS, PT_SIZE)
    pop = benchmark_population(n, size / n)
    plants = make_disjoint_plants(pop, k, PT_DELTA, size, seed)
    data = generate(pop, plants, seed)
    path = workdir / "population.csv"
    save_csv(data, path)
    argv = ["testing", "--data", str(path), "--protected", "income", "--output", "output",
            "--context", "state,race,gender", "--train-fraction", str(PT_TRAIN),
            "--budget", "1", "--seed", str(seed), "--format", "json"]
    test = make_datasource(data, budget=1, train_fraction=PT_TRAIN, seed=seed).next_test_set()
    return Prepared(argv, truth=(plants, test))


# -- conditional-debug ------------------------------------------------------------

# Eight states of 1,250 rows each, three of them planted. A depth-1 tree over
# state alone keeps the family at 27 hypotheses (9 contexts, each with 2
# gender strata) on every seed, so one debug invocation takes about 2 s and
# its work does not depend on the seed. (With race as a context too, a race
# split scores about as well as the state split and wins on some seeds.) A
# family this small also lets the permutation p-value floor of 1/1001 survive
# Holm correction, so recall is meaningful.
CD_N, CD_PLANTS, CD_SIZE, CD_DELTA, CD_TRAIN, CD_MIN = 10_000, 3, 1250, 0.25, 0.4, 300
CD_SMOKE = (4_000, 2, 500, 200)


def prepare_conditional_debug(workdir: Path, seed: int, smoke: bool) -> Prepared:
    n, k, size, min_size = CD_SMOKE if smoke else (CD_N, CD_PLANTS, CD_SIZE, CD_MIN)
    pop = benchmark_population(n, size / n)
    plants = make_disjoint_plants(pop, k, CD_DELTA, size, seed)
    data = generate(pop, plants, seed)
    path = workdir / "population.csv"
    save_csv(data, path)
    saved = workdir / "saved-state.json"
    code = cli.main(["testing", "--data", str(path), "--protected", "income",
                     "--output", "output", "--context", "state",
                     "--train-fraction", str(CD_TRAIN), "--budget", "2", "--seed", str(seed),
                     "--min-size", str(min_size), "--max-depth", "1", "--threads", "1",
                     "--format", "json", "--out", str(workdir / "testing.json"),
                     "--state", str(saved)])
    if code != 0:
        raise RuntimeError(f"the testing run that saves the debug state exited {code}")
    state = workdir / "state.json"
    argv = ["debug", "--data", str(path), "--state", str(state), "--explanatory", "gender",
            "--format", "json"]
    source = make_datasource(data, budget=2, train_fraction=CD_TRAIN, seed=seed,
                             min_size=min_size)
    source.next_test_set()
    return Prepared(argv, fresh=[(str(saved), str(state))],
                    truth=(plants, source.next_test_set()))


def check_conditional_debug(reports: list[ReportModel]) -> str | None:
    problem = _expect(reports, "COND-DIFF")
    if problem:
        return problem
    rm = reports[0]
    if rm.explanatory != "gender":
        return f"report explanatory {rm.explanatory!r}, expected 'gender'"
    findings = list(rm.findings) + ([rm.global_finding] if rm.global_finding else [])
    if any(not f.strata for f in findings):
        return "a conditional finding has no strata"
    return None


# -- error-corr ----------------------------------------------------------------------

EC_N, EC_STATES, EC_CONTEXTS = 50_000, 10, 4
EC_SMOKE = 5_000


def _columns_csv(path: Path, columns: dict[str, np.ndarray],
                 categories: dict[str, tuple[str, ...]]) -> None:
    """Write numpy columns through ``save_csv``: float arrays become
    continuous columns, int arrays index into ``categories``."""
    schema = [AttributeSchema(name, CATEGORICAL, categories=categories[name])
              if name in categories else AttributeSchema(name, CONTINUOUS)
              for name in columns]
    save_csv(Dataset(schema, columns), path)


def prepare_error_corr(workdir: Path, seed: int, smoke: bool) -> Prepared:
    """A regressor whose absolute error grows with age in two states and
    shrinks with age in two others, so the global correlation is near zero
    and the tree has to split on state to find it."""
    n = EC_SMOKE if smoke else EC_N
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE77]))
    states = tuple(f"S{i}" for i in range(EC_STATES))
    state = rng.integers(0, EC_STATES, n).astype(np.int32)
    age = np.round(rng.uniform(18.0, 80.0, n), 1)
    columns = {"age": age}
    for j in range(EC_CONTEXTS):
        columns[f"c{j}"] = np.round(rng.random(n), 4)
    actual = np.round(rng.normal(50.0, 15.0, n), 2)
    planted = rng.permutation(EC_STATES)[:4]
    slope = np.zeros(EC_STATES)
    slope[planted[:2]] = 1.0
    slope[planted[2:]] = -1.0
    scale = 5.0 + 4.0 * slope[state] * (age - 49.0) / 31.0
    columns["actual"] = actual
    columns["predicted"] = np.round(actual + scale * rng.standard_normal(n), 2)
    columns["state"] = state
    path = workdir / "predictions.csv"
    _columns_csv(path, columns, {"state": states})
    argv = ["error-profile", "--data", str(path), "--protected", "age",
            "--output", "predicted", "--ground-truth", "actual", "--error", "absolute",
            "--context", ",".join([f"c{j}" for j in range(EC_CONTEXTS)] + ["state"]),
            "--seed", str(seed), "--format", "json"]
    truth = [ContextPredicate("state", "in", values=(states[i],)) for i in sorted(planted)]
    return Prepared(argv, truth=truth)


# -- discovery-wide ----------------------------------------------------------------

DW_N, DW_LABELS, DW_PLANTED, DW_DELTA, DW_TOP_K = 20_000, 200, 5, 0.08, 35
DW_SMOKE = (4_000, 30, 10)


def prepare_discovery_wide(workdir: Path, seed: int, smoke: bool) -> Prepared:
    """200 binary labels with varied base rates; five of them are shown to
    men more often than to women by 2 * DW_DELTA."""
    n, n_labels, top_k = DW_SMOKE if smoke else (DW_N, DW_LABELS, DW_TOP_K)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD15]))
    columns = {
        "state": rng.integers(0, 10, n).astype(np.int32),
        "race": rng.choice(5, size=n, p=(0.3, 0.25, 0.2, 0.15, 0.1)).astype(np.int32),
        "gender": rng.integers(0, 2, n).astype(np.int32),
    }
    categories = {"state": tuple(f"S{i}" for i in range(10)),
                  "race": tuple(f"R{i}" for i in range(5)),
                  "gender": ("F", "M")}
    labels = [f"L{j:03d}" for j in range(n_labels)]
    base = rng.uniform(0.1, 0.5, n_labels)
    planted = sorted(rng.permutation(n_labels)[:DW_PLANTED].tolist())
    shift = np.zeros(n_labels)
    shift[planted] = DW_DELTA
    male = columns["gender"] == 1
    p_one = base + np.where(male[:, None], shift, -shift)
    shown = (rng.random((n, n_labels)) < p_one).astype(np.int32)
    for j, name in enumerate(labels):
        columns[name] = shown[:, j]
        categories[name] = ("0", "1")
    path = workdir / "labels.csv"
    _columns_csv(path, columns, categories)
    argv = ["discovery", "--data", str(path), "--protected", "gender",
            "--output", ",".join(labels), "--context", "state,race",
            "--top-k", str(top_k), "--seed", str(seed), "--format", "json"]
    return Prepared(argv, truth=[labels[j] for j in planted])


def check_discovery(reports: list[ReportModel]) -> str | None:
    problem = _expect(reports, "DIFF", "Labels")
    if problem:
        return problem
    if any(f.label is None for f in reports[0].findings):
        return "a discovery finding has no label"
    return None


WORKLOADS = {w.name: w for w in (
    Workload(
        "planted-testing",
        prepare_planted_testing,
        lambda reports: _expect(reports, "DIFF"),
        _plant_recall,
    ),
    Workload(
        "conditional-debug",
        prepare_conditional_debug,
        check_conditional_debug,
        _plant_recall,
    ),
    Workload(
        "error-corr",
        prepare_error_corr,
        lambda reports: _expect(reports, "CORR", "Abs. Error(predicted)"),
        lambda reports, truth: _recovered(reports, truth, lambda f: f.predicates),
    ),
    Workload(
        "discovery-wide",
        prepare_discovery_wide,
        check_discovery,
        lambda reports, truth: _recovered(reports, truth, lambda f: (f.label,)),
    ),
)}
