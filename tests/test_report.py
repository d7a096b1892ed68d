import json

import numpy as np

from uatest.dataset import ContextPredicate
from uatest.investigations import (
    DecileDisplay,
    DecileRow,
    Finding,
    ReportModel,
    StratumFinding,
    TableDisplay,
)
from uatest.metrics import MetricKind, MetricValue
from uatest.report import (
    _largest_remainder_percent,
    render_text,
    report_from_obj,
    report_to_obj,
)
from uatest.stats import TestedMetric


def as_json(rm):
    """The JSON document of ``rm`` that the CLI writes, parsed."""
    return json.loads(json.dumps(report_to_obj(rm), indent=2))


def json_round_trip(rm):
    """``rm`` written as JSON text and read back."""
    return report_from_obj(as_json(rm))


def make_tm(kind, est, ci, p, cp=None, cci=None, explanatory=None):
    return TestedMetric(value=MetricValue(MetricKind(kind, explanatory), est),
                        ci=ci, p=p, method="asymptotic",
                        corrected_p=cp if cp is not None else p,
                        corrected_ci=cci if cci is not None else ci)


STAPLES_TABLE = TableDisplay(
    row_attr="price", col_attr="income",
    row_labels=("High", "Low"), col_labels=("Income <$50K", "Income >=$50K"),
    counts=((15301, 13867), (234167, 231101)),
)


def staples_report():
    g = Finding(protected="income", output="price", label=None, predicates=(),
                size=494436,
                tested=make_tm("nmi", 0.00022, (0.0001, 0.0005), 3.34e-10),
                display=STAPLES_TABLE)
    sub = Finding(protected="income", output="price", label=None,
                  predicates=(ContextPredicate("state", "in", values=("CA",)),
                              ContextPredicate("race", "in", values=("White",))),
                  size=23532,
                  tested=make_tm("nmi", 0.012, (0.0051, 0.0203), 2.31e-24),
                  display=None, rank=1)
    return ReportModel(kind="testing", protected="income", output="price",
                       explanatory=None, metric="NMI", conf=0.95, family_size=100,
                       train_size=494436, test_size=494436, dropped_train=0,
                       dropped_test=0, global_finding=g, findings=(sub,))


def test_render_text_reference_shapes():
    text = render_text(staples_report())
    assert "Report of associations of O=price on S=income" in text
    assert "p-value = 3.34e-10 ; NMI = [0.0001, 0.0005]" in text
    assert "15301 (6%)" in text
    assert "Global Population of size 494436" in text
    assert "1. Subpopulation of size 23532" in text
    assert "Context = state: CA, race: White" in text


def test_render_text_without_subpopulations():
    rm = staples_report()
    rm.findings = ()
    text = render_text(rm)
    assert "Global Population" in text
    assert "Subpopulation" not in text


def test_render_text_explanatory_header_and_strata():
    stratum = StratumFinding(value="A", size=490,
                             tested=make_tm("diff", 0.2244, (0.0649, 0.3464), 4.34e-3))
    g = Finding(protected="gender", output="admitted", label=None, predicates=(),
                size=2213,
                tested=make_tm("diff", 0.034, (-0.0382, 0.1055), 0.798, explanatory="department"),
                strata=(stratum,))
    rm = ReportModel(kind="testing", protected="gender", output="admitted",
                     explanatory="department", metric="COND-DIFF", conf=0.95,
                     family_size=7, train_size=2212, test_size=2213, dropped_train=0,
                     dropped_test=0, global_finding=g, findings=())
    text = render_text(rm)
    assert "conditioned on explanatory attribute E=department" in text
    assert "p-value = 7.98e-01 ; COND-DIFF = [-0.0382, 0.1055]" in text
    assert "* department: A ; population of size 490" in text
    assert "p-value = 4.34e-03 ; DIFF = [0.0649, 0.3464]" in text


def test_percentages_sum_to_100():
    rng = np.random.default_rng(0)
    for _ in range(200):
        counts = rng.integers(0, 50, rng.integers(2, 6))
        if counts.sum() == 0:
            continue
        pct = _largest_remainder_percent(list(counts))
        assert sum(pct) == 100


def test_p_value_clamp():
    rm = staples_report()
    rm.global_finding.tested.corrected_p = 1e-320
    assert "p-value = <1e-300" in render_text(rm)


def test_global_significance_reads_the_corrected_p_value():
    rm = staples_report()
    tested = rm.global_finding.tested
    tested.p, tested.corrected_p = 0.5, 0.0  # a corrected p of 0.0 is not missing
    assert "(not significant)" not in render_text(rm)
    tested.p, tested.corrected_p = 0.01, 0.2
    assert "p-value = 2.00e-01 ; NMI = [0.0001, 0.0005] (not significant)" in render_text(rm)
    tested.corrected_p = None  # an uncorrected hypothesis shows its raw p
    assert "p-value = 1.00e-02 ; NMI" in render_text(rm)
    assert "(not significant)" not in render_text(rm)


def test_render_text_pure_function():
    a = render_text(staples_report())
    b = render_text(staples_report())
    assert a == b


def test_json_round_trip_equality():
    rm = staples_report()
    assert json_round_trip(rm) == rm


def test_json_round_trip_with_deciles_and_strata():
    deciles = DecileDisplay(protected="age", output="error", rows=(
        DecileRow(18.0, 25.5, 100, 0.0, 0.1, 0.2, 0.4, 1.5),
        DecileRow(25.5, 40.0, 100, 0.0, 0.2, 0.3, 0.5, 2.5),
    ))
    stratum = StratumFinding(value="low", size=50,
                             tested=make_tm("corr", 0.2, (0.1, 0.3), 0.01),
                             display=deciles)
    skipped = StratumFinding(value="tiny", size=3, tested=None,
                             note="below minimum stratum size")
    g = Finding(protected="age", output="error", label=None, predicates=(),
                size=200,
                tested=make_tm("corr", 0.15, (0.05, 0.25), 0.003, explanatory="conf"),
                display=deciles, strata=(stratum, skipped))
    rm = ReportModel(kind="error_profiling", protected="age", output="error",
                     explanatory="conf", metric="COND-CORR", conf=0.95, family_size=2,
                     train_size=200, test_size=200, dropped_train=1, dropped_test=2,
                     global_finding=g, findings=())
    assert json_round_trip(rm) == rm


def test_json_numbers_and_order():
    rm = staples_report()
    obj = as_json(rm)
    assert isinstance(obj["global"]["tested"]["p"], float)
    assert [f["rank"] for f in obj["findings"]] == [1]
    assert as_json(rm) == as_json(rm)


def test_threshold_predicates_render():
    f = Finding(protected="gender", output="income", label=None,
                predicates=(ContextPredicate("Age", "le", threshold=42.0),
                            ContextPredicate("Hours", "le", threshold=55.0)),
                size=14477,
                tested=make_tm("nmi", 0.012, (0.0070, 0.0187), 7.5e-31), rank=1)
    rm = ReportModel(kind="testing", protected="gender", output="income",
                     explanatory=None, metric="NMI", conf=0.95, family_size=10,
                     train_size=24421, test_size=24421, dropped_train=0, dropped_test=0,
                     global_finding=None, findings=(f,))
    text = render_text(rm)
    assert "Context = Age <= 42, Hours <= 55" in text
    assert json_round_trip(rm) == rm


def test_discovery_report_round_trip_and_rendering():
    table = TableDisplay(row_attr="cart", col_attr="race",
                         row_labels=("0", "1"), col_labels=("black", "white"),
                         counts=((640, 690), (25, 3)))
    root = Finding(protected="race", output="Labels", label="cart", predicates=(),
                   size=1358,
                   tested=make_tm("diff", 0.033, (0.0137, 0.0652), 3.31e-5),
                   display=table, rank=1)
    sub = Finding(protected="race", output="Labels", label="cart",
                  predicates=(ContextPredicate("setting", "in", values=("outdoor",)),),
                  size=400,
                  tested=make_tm("diff", 0.09, (0.05, 0.13), 1e-6),
                  display=table, rank=2)
    rm = ReportModel(kind="discovery", protected="race", output="Labels",
                     explanatory=None, metric="DIFF", conf=0.95, family_size=40,
                     train_size=1324, test_size=1324, dropped_train=0, dropped_test=0,
                     global_finding=None, findings=(root, sub))
    text = render_text(rm)
    assert "Labels associated with race=black" in text
    assert "cart" in text
    assert "Label = cart ; Subpopulation of size 400" in text
    assert "Label = cart ; Global Population" not in text  # a root label without strata
    assert json_round_trip(rm) == rm
