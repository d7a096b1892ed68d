"""uatest: discover, test, and rank unwarranted associations between
protected user attributes and application outputs."""

from .dataset import (
    AttributeSchema,
    BudgetError,
    ContextPredicate,
    DataError,
    DataSource,
    Dataset,
    load_csv,
    make_datasource,
    save_csv,
    schema_from_json,
)
from .metrics import (
    BoundMetric,
    MetricError,
    MetricKind,
    MetricValue,
    RegressionScores,
    logistic_label_scores,
)
from .stats import (
    StatConfig,
    StatsError,
    TestedMetric,
    apply_corrections,
    holm_bonferroni,
    test_metric,
)
from .tree import ContextNode, TreeParams, TreeStats, find_contexts
from .investigations import (
    DISCOVERY,
    ERROR_PROFILING,
    TESTING,
    DiscoverySpec,
    ErrorProfilingSpec,
    Finding,
    InvestigationRun,
    InvestigationSpec,
    ReportModel,
    TestingSpec,
    ValidationResult,
    compute_error,
    debug_with_explanatory,
    filter_and_rank,
    run_investigation,
    train,
    validate,
)
from .report import render_text
from .synth import (
    BenchResult,
    CategoricalSpec,
    DetectionScore,
    PlantSpec,
    PopulationSpec,
    generate,
    make_disjoint_plants,
    run_detection_benchmark,
    score_detection,
    tree_vs_itemsets,
)
from .data import berkeley_admissions

__version__ = "0.1.0"
