"""Command-line front door.

Subcommands: testing, discovery, error-profile (run one investigation and
write its report), debug (re-validate a saved investigation's contexts with
an explanatory attribute on the next budgeted test set), bench (planted
disparity recall benchmark), and tree-vs-itemsets (guided vs unguided
subpopulation search comparison).

Exit codes: 0 success, 1 usage error, 2 data or file error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import sys

from .dataset import (
    BudgetError,
    DataError,
    DataSource,
    load_csv,
    save_csv,
    schema_from_json,
)
from .investigations import (
    ERROR_KINDS,
    DiscoverySpec,
    ErrorProfilingSpec,
    InvestigationSpec,
    TestingSpec,
    TrainedInvestigation,
    TrainUnit,
    debug_with_explanatory,
    filter_and_rank,
    train,
    validate,
)
from .metrics import BoundMetric, MetricError, MetricKind
from .report import predicate_from_obj, predicate_to_obj, render_text, report_to_obj
from .stats import StatConfig, StatsError
from .synth import run_detection_benchmark, tree_vs_itemsets
from .tree import ContextNode, TreeParams, TreeStats

USAGE_ERROR = 1
DATA_ERROR = 2
BUDGET_ERROR = 3

STATE_VERSION = 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (falls back to UATEST_SEED, then 0)")
    p.add_argument("--min-size", type=int, default=100, help="minimum context size")
    p.add_argument("--max-depth", type=int, default=5, help="maximum context depth")
    p.add_argument("--threads", type=int, help="accepted, for scripts that pass it, and ignored")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    _add_verbose(p)


def _add_verbose(p: argparse.ArgumentParser) -> None:
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="log progress on stderr: -v for info, -vv for debug")


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--schema", default=None,
                   help="sidecar JSON schema: {column: {kind, role, categories?}}")


def _add_investigation(p: argparse.ArgumentParser) -> None:
    _add_data(p)
    p.add_argument("--protected", default=None, help="comma-separated protected attributes")
    p.add_argument("--output", default=None, help="output attribute (comma-separated for discovery)")
    p.add_argument("--context", default=None, help="comma-separated contextual attributes")
    p.add_argument("--explanatory", default=None, help="explanatory attribute to condition on")
    p.add_argument("--metric", choices=("diff", "ratio", "nmi", "corr"), default=None,
                   help="metric override (default: auto-select by data types)")
    p.add_argument("--budget", type=int, default=1, help="number of adaptive investigations")
    p.add_argument("--train-fraction", type=float, default=0.5, help="training split fraction")
    p.add_argument("--state", default=None, help="state file for follow-up debug runs")
    p.add_argument("--conf", type=float, default=0.95, help="confidence level")
    p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    _add_common(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uatest",
        description="Audit application outputs for unwarranted associations "
                    "with protected user attributes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("testing", help="test a suspected association",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_investigation(p)
    p.set_defaults(run=lambda args: _run_investigation_cmd(args, TestingSpec))

    p = sub.add_parser("discovery", help="rank a label space and test the strongest labels",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_investigation(p)
    p.add_argument("--top-k", type=int, default=DiscoverySpec.top_k,
                   help="labels to test per protected attribute")
    p.set_defaults(run=lambda args: _run_investigation_cmd(args, DiscoverySpec, top_k=args.top_k))

    p = sub.add_parser("error-profile", help="test per-user prediction error for associations",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_investigation(p)
    p.add_argument("--ground-truth", required=True, help="ground-truth column for the output")
    p.add_argument("--error", choices=ERROR_KINDS, default=ErrorProfilingSpec.error_kind,
                   help="error function")
    p.set_defaults(run=lambda args: _run_investigation_cmd(
        args, ErrorProfilingSpec, ground_truth=args.ground_truth, error_kind=args.error))

    p = sub.add_parser("debug", help="re-validate a saved run's contexts with an explanatory attribute",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_data(p)
    p.add_argument("--state", required=True, help="state file written by a previous run")
    p.add_argument("--explanatory", required=True, help="explanatory attribute to condition on")
    p.add_argument("--threads", type=int, help="accepted, for scripts that pass it, and ignored")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    _add_verbose(p)
    p.set_defaults(run=_debug_cmd)

    p = sub.add_parser("bench", help="planted-disparity detection benchmark",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--n", type=int, default=100_000, help="population size")
    p.add_argument("--plants", type=int, default=10, help="number of planted contexts")
    p.add_argument("--delta", type=float, default=0.15, help="planted half-effect")
    p.add_argument("--size", type=int, default=2000, help="expected plant size in rows")
    p.add_argument("--dump-data", default=None,
                   help="also write the generated population as CSV")
    p.add_argument("--conf", type=float, default=0.95, help="confidence level")
    _add_common(p)
    p.set_defaults(run=_bench_cmd)

    p = sub.add_parser("tree-vs-itemsets", help="guided tree vs unguided itemset enumeration",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--n", type=int, default=10_000, help="population size")
    p.add_argument("--attrs", type=int, default=15, help="number of contextual attributes")
    _add_common(p)
    p.set_defaults(min_size=500, run=_tree_vs_itemsets_cmd)

    return parser


def _check_paths(args) -> None:
    """A DataError naming ``--out``, an investigation's ``--state`` or the
    benchmark's ``--dump-data``, when the run could not write it: it is a
    directory, or its directory does not exist. Checked before any data is
    read or generated."""
    for flag in ("out",) if args.command == "debug" else ("out", "state", "dump-data"):
        path = vars(args).get(flag.replace("-", "_"))
        if path is not None and os.path.isdir(path):
            raise DataError(f"--{flag} {path!r} is a directory")
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"--{flag} {path!r}: no directory {os.path.dirname(path)!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@contextlib.contextmanager
def _log_to_stderr(verbosity: int):
    """Show the package's log messages on stderr while the block runs: info
    messages from ``verbosity`` 1, debug messages from 2."""
    if not verbosity:
        yield
        return
    package = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    level = package.level
    package.addHandler(handler)
    package.setLevel(logging.INFO if verbosity == 1 else logging.DEBUG)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


def _read_json(path: str, what: str, parse):
    """``parse`` of the JSON document in ``path``. A document that is not
    JSON, or that ``parse`` rejects or cannot read (a missing field, a value
    of the wrong type), is a DataError naming the ``what`` file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{what} file {path} is not valid JSON: {exc}") from None
    try:
        return parse(obj)
    except KeyError as exc:
        raise DataError(f"{what} file {path} lacks the field {exc}") from None
    except (TypeError, AttributeError, ValueError, DataError, MetricError, StatsError) as exc:
        raise DataError(f"{what} file {path}: {exc}") from None


def _load_dataset(args):
    schema = _read_json(args.schema, "schema", schema_from_json) if args.schema else "infer"
    return load_csv(args.data, schema)


def _roles_from(args, data) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], str | None]:
    def named(flag, role):
        """The names listed in ``flag``, or else the schema's attributes of ``role``."""
        listed = tuple(s.strip() for s in flag.split(",") if s.strip()) if flag else ()
        return listed or tuple(a.name for a in data.schema if a.role == role)

    protected = named(args.protected, "protected")
    outputs = named(args.output, "output")
    context = named(args.context, "contextual")
    explanatory = args.explanatory or next(
        (a.name for a in data.schema if a.role == "explanatory"), None)
    if not protected:
        raise DataError("no protected attributes given (use --protected or a schema role)")
    if not outputs:
        raise DataError("no output attribute given (use --output or a schema role)")
    return protected, outputs, context, explanatory


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _reports_text(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"reports": [report_to_obj(r) for r in reports]}, indent=2) + "\n"
    return "\n".join(render_text(r) for r in reports)


# -- state persistence -------------------------------------------------------


def _bound_to_obj(b: BoundMetric) -> dict:
    return {"metric": b.kind.name, "explanatory": b.kind.explanatory,
            "protected": b.protected, "output": b.output,
            "target": b.target, "group_a": b.group_a, "group_b": b.group_b}


def _bound_from_obj(obj: dict) -> BoundMetric:
    return BoundMetric(MetricKind(obj["metric"], obj.get("explanatory")),
                       obj["protected"], obj["output"], obj.get("target"),
                       obj.get("group_a"), obj.get("group_b"))


_SOURCE_SETTINGS = ("budget", "train_fraction", "seed", "min_size")  # DataSource's arguments
_SPEC_TYPES = {t.kind: t for t in (TestingSpec, DiscoverySpec, ErrorProfilingSpec)}
# older state files store every kind's settings, at these values for the kinds that ignore them
_OLDER_SETTINGS = {"top_k": DiscoverySpec.top_k, "ground_truth": None,
                   "error_kind": ErrorProfilingSpec.error_kind}


def _spec_from_obj(obj: dict) -> InvestigationSpec:
    """The spec of the kind ``obj["kind"]`` names; a setting that kind does
    not take is a DataError naming it."""
    spec_type = _SPEC_TYPES.get(obj["kind"])
    if spec_type is None:
        raise DataError(f"unknown investigation kind {obj['kind']!r}")
    settings = {f.name: obj[f.name] for f in dataclasses.fields(spec_type) if f.name in obj}
    for name, value in obj.items():
        if name not in settings and name != "kind" and (name, value) not in _OLDER_SETTINGS.items():
            raise DataError(f"a spec of kind {obj['kind']!r} takes no setting {name!r}")
    return spec_type(**{**settings, "tree": TreeParams(**obj["tree"]),
                        "stats": StatConfig(**obj["stats"])})


def _save_state(path: str, data_sha256: str, spec: InvestigationSpec, source: DataSource,
                trained: TrainedInvestigation) -> None:
    """What a debug run reads: the spec, the data split and each unit's contexts."""
    state = {
        "version": STATE_VERSION,
        "data_sha256": data_sha256,
        "datasource": {name: getattr(source, name) for name in (*_SOURCE_SETTINGS, "consumed")},
        "spec": {"kind": spec.kind, **dataclasses.asdict(spec)},
        "train_size": trained.train_size,
        "dropped_train": trained.dropped_train,
        "units": [
            {
                "bound": _bound_to_obj(u.bound),
                "contexts": [
                    {"predicates": [predicate_to_obj(p) for p in c.predicates],
                     "n_train": c.n_train,
                     "train_metric": None if c.train_metric != c.train_metric
                     else c.train_metric}
                    for c in u.contexts
                ],
            }
            for u in trained.units
        ],
    }
    with open(path, "w") as fh:
        json.dump(state, fh, indent=2)


def _restore_state(state, data_path: str, data_sha256: str,
                   data) -> tuple[DataSource, TrainedInvestigation]:
    """The data split of ``data`` that a state document records, with the
    consumed test sets spent, and its trained investigation. ``data_path``,
    of digest ``data_sha256``, must be the data file it was saved for; keys
    that nothing reads, such as an older layout's reports, are ignored."""
    if not isinstance(state, dict):
        raise DataError("not a JSON object")
    if state.get("version") != STATE_VERSION:
        raise DataError(f"unsupported version {state.get('version')!r}")
    if state["data_sha256"] != data_sha256:
        raise DataError(f"it was saved for another data file than {data_path}")
    ds = state["datasource"]
    source = DataSource(data, **{name: ds[name] for name in _SOURCE_SETTINGS})
    for _ in range(ds["consumed"]):
        source.next_test_set()
    spec = _spec_from_obj(state["spec"])
    units = []
    for uo in state["units"]:
        contexts = []
        for co in uo["contexts"]:
            preds = tuple(predicate_from_obj(p) for p in co["predicates"])
            metric_value = co["train_metric"]
            contexts.append(ContextNode(preds, co["n_train"],
                                        float("nan") if metric_value is None else metric_value))
        units.append(TrainUnit(_bound_from_obj(uo["bound"]), contexts, TreeStats()))
    trained = TrainedInvestigation(spec, units, state["train_size"], state["dropped_train"])
    return source, trained


# -- subcommand implementations ------------------------------------------------


def _run_investigation_cmd(args, spec_type: type[InvestigationSpec], **settings) -> int:
    data = _load_dataset(args)
    protected, outputs, context, explanatory = _roles_from(args, data)
    spec = spec_type(
        protected=protected,
        output=outputs,
        contextual=context,
        explanatory=explanatory,
        metric=args.metric,
        tree=TreeParams(min_size=args.min_size, max_depth=args.max_depth),
        stats=StatConfig(conf=args.conf, seed=args.seed),
        **settings,
    )
    source = DataSource(data, budget=args.budget, train_fraction=args.train_fraction,
                        seed=args.seed, min_size=args.min_size)
    trained = train(spec, source.train)
    validated = validate(trained, source.next_test_set())
    reports = filter_and_rank(validated)
    _emit(_reports_text(reports, args.format), args.out)
    if args.state:
        _save_state(args.state, _file_sha256(args.data), spec, source, trained)
    return 0


def _debug_cmd(args) -> int:
    data = _load_dataset(args)
    digest = _file_sha256(args.data)
    source, trained = _read_json(args.state, "state",
                                 lambda obj: _restore_state(obj, args.data, digest, data))
    run = debug_with_explanatory(trained, args.explanatory, source.next_test_set())
    _emit(_reports_text(run.reports, args.format), args.out)
    _save_state(args.state, digest, trained.spec, source, trained)
    return 0


def _bench_cmd(args) -> int:
    result = run_detection_benchmark(
        n=args.n, n_plants=args.plants, delta=args.delta, plant_size=args.size,
        seed=args.seed, conf=args.conf, min_size=args.min_size, max_depth=args.max_depth,
    )
    lines = ["delta,size,recall,false_discoveries,seed",
             f"{result.delta},{result.plant_size},{result.recall},"
             f"{result.false_discoveries},{result.seed}"]
    _emit("\n".join(lines) + "\n", args.out)
    if args.dump_data:
        save_csv(result.data, args.dump_data)
    return 0


def _tree_vs_itemsets_cmd(args) -> int:
    rows = tree_vs_itemsets(n=args.n, n_attrs=args.attrs, seed=args.seed,
                            min_size=args.min_size, max_depth=args.max_depth)
    lines = ["strategy,candidates_considered,top3_mean_association"]
    lines += [f"{r.strategy},{r.candidates_considered},{r.top3_mean_association}" for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems
        return 0 if exc.code == 0 else USAGE_ERROR
    if vars(args).get("seed", 0) is None:  # a command that takes --seed, run without it
        env = os.environ.get("UATEST_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            sys.stderr.write(f"uatest: UATEST_SEED must be an integer, got {env!r}\n")
            return USAGE_ERROR
        if args.seed < 0:
            sys.stderr.write(f"uatest: UATEST_SEED must be non-negative, got {env!r}\n")
            return USAGE_ERROR
    with _log_to_stderr(args.verbose):
        try:
            if vars(args).get("seed", 0) < 0:
                raise DataError(f"--seed must be non-negative, got {args.seed}")
            _check_paths(args)
            return args.run(args)
        except BudgetError as exc:
            sys.stderr.write(f"uatest: {exc}\n")
            return BUDGET_ERROR
        except (OSError, DataError, MetricError, StatsError) as exc:
            sys.stderr.write(f"uatest: {exc}\n")
            return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
