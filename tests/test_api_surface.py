"""API-surface hygiene: exports resolve, public items are documented.

These tests keep the package honest as it grows: every name in every
``__all__`` must be importable from its module, every public class and
function must carry a docstring, and the top-level package must expose
the documented entry points.
"""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.baselines",
    "repro.cli",
    "repro.cluster",
    "repro.cluster.hdfs",
    "repro.cluster.metrics",
    "repro.cluster.network",
    "repro.cluster.profiling",
    "repro.cluster.scheduler",
    "repro.cluster.tracing",
    "repro.cluster.twister",
    "repro.core",
    "repro.core.feature_selection",
    "repro.core.horizontal_kernel",
    "repro.core.horizontal_linear",
    "repro.core.horizontal_logistic",
    "repro.core.mapreduce_svm",
    "repro.core.partitioning",
    "repro.core.results",
    "repro.core.trainer",
    "repro.core.vertical_kernel",
    "repro.core.vertical_linear",
    "repro.crypto",
    "repro.crypto.fixed_point",
    "repro.crypto.paillier",
    "repro.crypto.secret_sharing",
    "repro.crypto.secure_sum",
    "repro.crypto.threshold_sum",
    "repro.data",
    "repro.data.dataset",
    "repro.data.loaders",
    "repro.data.scaling",
    "repro.data.splits",
    "repro.data.synthetic",
    "repro.experiments",
    "repro.experiments.ablation",
    "repro.experiments.config",
    "repro.experiments.datasets",
    "repro.experiments.figure4",
    "repro.experiments.report",
    "repro.experiments.tables",
    "repro.obs",
    "repro.obs.audit",
    "repro.obs.health",
    "repro.obs.ledger",
    "repro.obs.runs_cli",
    "repro.persistence",
    "repro.security",
    "repro.security.adversary",
    "repro.security.analysis",
    "repro.svm",
    "repro.svm.calibration",
    "repro.svm.grid_search",
    "repro.svm.kernels",
    "repro.svm.knapsack",
    "repro.svm.model",
    "repro.svm.multiclass",
    "repro.svm.qp",
    "repro.svm.smo",
    "repro.utils",
    "repro.utils.plotting",
    "repro.utils.rng",
    "repro.utils.validation",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    assert method.__doc__, (
                        f"{module_name}.{name}.{method_name} lacks a docstring"
                    )


def test_top_level_exports():
    import repro

    for name in (
        "PrivacyPreservingSVM",
        "HorizontalLinearSVM",
        "HorizontalKernelSVM",
        "VerticalLinearSVM",
        "VerticalKernelSVM",
        "horizontal_partition",
        "vertical_partition",
        "SVC",
        "LinearSVC",
    ):
        assert hasattr(repro, name)
    assert repro.__version__ == "1.0.0"


def test_quickstart_docstring_example_runs():
    # The package docstring's quickstart must actually work.
    from repro import PrivacyPreservingSVM, horizontal_partition
    from repro.data import make_cancer_like, train_test_split

    train, test = train_test_split(make_cancer_like(160, seed=0), seed=0)
    parts = horizontal_partition(train, n_learners=4, seed=0)
    model = PrivacyPreservingSVM(max_iter=10, seed=0).fit(parts)
    assert model.score(test.X, test.y) > 0.8
    assert model.raw_data_bytes_moved() == 0.0
