"""Per-iteration cost attribution from counter totals.

The tracer books a registry's change at each ``iteration()`` boundary
instead of recording every increment.  These tests pin that the cost
rows this yields are the rows the per-increment records gave
(``fixtures/cost_rows.json``, wall and simulated time left out), and
that setup work, nested iterations, resets, bare registries and
disabled recorders are all attributed correctly.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.metrics import MetricRegistry
from repro.cluster.network import Network
from repro.cluster.profiling import Profiler
from repro.cluster.tracing import TraceRecorder
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.data.synthetic import make_linear_task
from repro.svm.kernels import RBFKernel

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "cost_rows.json").read_text())


def _fit(variant: str) -> PrivacyPreservingSVM:
    """A small secure fit of ``variant`` = ``"{h|v}-{lin|ker}-{fresh|prg}"``."""
    partitioning, model, mask_mode = variant.split("-")
    split = horizontal_partition if partitioning == "h" else vertical_partition
    data = make_linear_task(90, 6, margin=0.5, seed=3)
    return PrivacyPreservingSVM(
        "horizontal" if partitioning == "h" else "vertical",
        kernel=RBFKernel(gamma=0.1) if model == "ker" else None,
        max_iter=3,
        mask_mode=mask_mode,
        n_landmarks=8,
        seed=0,
        on_health="ignore",
    ).fit(split(data, 3, seed=0))


@pytest.mark.parametrize("variant", sorted(FIXTURE))
def test_cost_rows_match_pinned_fixture(variant):
    model = _fit(variant)
    rows = [
        {key: value for key, value in row.items() if key not in ("wall_s", "sim_s")}
        for row in model.network_.tracer.iteration_costs()
    ]
    counters = {
        name: value
        for name, value in model.network_.metrics.as_dict().items()
        if not name.endswith("_s")
    }
    assert rows == FIXTURE[variant]["rows"]
    assert counters == FIXTURE[variant]["counters"]


def _profiled():
    profiler = Profiler()
    return profiler, profiler.tracer


def test_increments_outside_iterations_land_in_setup_row():
    profiler, tracer = _profiled()
    profiler.increment("crypto.mask_seeds_exchanged", 3)
    with tracer.iteration(0):
        profiler.increment("crypto.masks_generated", 2)
    profiler.increment("crypto.mask_seeds_exchanged", 1)
    rows = {row["iteration"]: row["crypto_ops"] for row in tracer.iteration_costs()}
    assert rows == {
        None: {"crypto.mask_seeds_exchanged": 4.0},
        0: {"crypto.masks_generated": 2.0},
    }


def test_nested_iterations_attribute_to_the_innermost():
    profiler, tracer = _profiled()
    with tracer.iteration(1):
        profiler.increment("crypto.masks_generated", 1)
        with tracer.iteration(2):
            profiler.increment("crypto.masks_generated", 10)
        profiler.increment("crypto.masks_generated", 100)
    assert tracer.counter_totals == {
        1: {"crypto.masks_generated": 101.0},
        2: {"crypto.masks_generated": 10.0},
    }


def test_read_inside_an_iteration_books_pending_changes_once():
    profiler, tracer = _profiled()
    with tracer.iteration(0):
        profiler.increment("crypto.masks_generated", 2)
        assert tracer.iteration_costs()[0]["crypto_ops"] == {"crypto.masks_generated": 2.0}
    assert tracer.counter_totals == {0: {"crypto.masks_generated": 2.0}}


def test_profiler_reset_mid_run_leaves_no_stale_totals():
    profiler, tracer = _profiled()
    with tracer.iteration(0):
        profiler.increment("crypto.masks_generated", 5)
        profiler.reset()
        profiler.increment("crypto.masks_generated", 2)
    with tracer.iteration(1):
        profiler.increment("crypto.masks_generated", 1)
    assert tracer.counter_totals == {
        None: {"crypto.masks_generated": 2.0},
        1: {"crypto.masks_generated": 1.0},
    }
    booked = sum(t["crypto.masks_generated"] for t in tracer.counter_totals.values())
    assert booked == profiler.get("crypto.masks_generated") == 3.0


def test_tracer_clear_mid_run_counts_only_later_increments():
    profiler, tracer = _profiled()
    with tracer.iteration(0):
        profiler.increment("crypto.masks_generated", 5)
    tracer.clear()
    with tracer.iteration(1):
        profiler.increment("crypto.masks_generated", 2)
    assert tracer.counter_totals == {1: {"crypto.masks_generated": 2.0}}


def test_registry_reset_alone_never_books_negative_totals():
    registry = MetricRegistry()
    tracer = TraceRecorder()
    tracer.registry = registry
    with tracer.iteration(0):
        registry.increment("crypto.masks_generated", 5)
    registry.reset()
    with tracer.iteration(1):
        registry.increment("crypto.masks_generated", 2)
    assert tracer.counter_totals == {
        0: {"crypto.masks_generated": 5.0},
        1: {"crypto.masks_generated": 2.0},
    }


def test_disabled_recorder_stores_no_totals():
    network = Network(tracer=TraceRecorder(enabled=False))
    for node in ("a", "b"):
        network.register(node)
    with network.tracer.iteration(0):
        network.send("a", "b", b"x", kind="mask")
    assert network.messages_sent() == 1.0
    assert network.tracer.counter_totals == {}
    assert network.tracer.iteration_costs() == []
