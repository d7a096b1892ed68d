"""Guards the benchmark tracer's hooks into the program.

``bench/tracer.py`` wraps module attributes by name, reads
``find_contexts``' ``stats=`` keyword, and counts the contexts of a
``train``/``validate`` pair. The benchmark's own smoke test runs
outside the default test paths, so these checks keep a refactor from
silently breaking ``bench/run.py --trace 1``. The tracer is loaded from its
source file without writing anything next to it.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from tests.test_tree import DIFF, planted_dataset
from uatest import investigations
from uatest.dataset import make_datasource
from uatest.investigations import TestingSpec, train, validate
from uatest.tree import TreeParams, TreeStats

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    yield module
    sys.modules.pop(spec.name, None)


def test_every_traced_attribute_exists(tracer):
    for owner, attr, name, _info in tracer.TARGETS:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])


def test_find_contexts_takes_stats_by_keyword(tracer):
    param = inspect.signature(investigations.find_contexts).parameters["stats"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)

    stats = TreeStats()
    contexts = investigations.find_contexts(planted_dataset(1000, seed=2),
                                            TreeParams(min_size=100, max_depth=2), DIFF,
                                            stats=stats)
    info = tracer._find_contexts_info((), {"stats": stats}, contexts)
    assert info == {"evals": stats.n_metric_evals, "nodes": stats.n_nodes,
                    "contexts": len(contexts)}
    assert info["evals"] > 0


def test_validate_info_reads_a_real_train_validate_pair(tracer):
    source = make_datasource(planted_dataset(4000, seed=3), budget=1, train_fraction=0.5,
                             seed=3)
    spec = TestingSpec(protected=("s",), output="o",
                       contextual=tuple(f"x{i}" for i in range(4)),
                       tree=TreeParams(min_size=100, max_depth=2))
    trained = train(spec, source.train)
    test = source.next_test_set()
    result = validate(trained, test)
    info = tracer._validate_info((trained, test), {}, result)
    assert info == {"contexts": sum(len(u.contexts) for u in trained.units),
                    "kept": len(result.findings), "dropped": result.dropped_contexts}
    # every trained context is either tested or dropped
    assert info["contexts"] == info["kept"] + info["dropped"] > 1
