"""Per-round bookkeeping of tiny secure fits, against a pinned fixture.

``fixtures/round_accounting.json`` holds, for tiny secure fits of H-lin
and V-lin (fresh and prg masks, and a Shamir threshold fit):

* the registry's counter totals (wall-clock ``*_s`` counters left out);
* the tracer's counter totals per iteration (``"setup"`` for work
  outside any round);
* the names of the spans and events recorded in each iteration, in
  recording order;
* ``audit_log_.summary()``.

Cutting the cost of the round path (counter booking, span objects, the
audit feed, the broadcast's pickling) must leave every one of them as
it was: the instrumentation reports the same run, only cheaper.

Regenerate (only when a change is meant to move the bookkeeping) with
``PYTHONPATH=src python tests/test_round_accounting.py``.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.threshold_sum import ThresholdSumAggregator
from repro.data.synthetic import make_linear_task

PATH = Path(__file__).parent / "fixtures" / "round_accounting.json"
FITS = ["h-lin-fresh", "v-lin-fresh", "v-lin-prg", "h-lin-threshold"]


def _timeless(totals: dict) -> dict:
    return {name: totals[name] for name in sorted(totals) if not name.endswith("_s")}


def _label(iteration: int | None) -> str:
    return "setup" if iteration is None else str(iteration)


def _observe_fit(name: str) -> dict:
    partitioning, _, mode = name.split("-")
    data = make_linear_task(60, 5, margin=0.5, seed=3)
    split = horizontal_partition if partitioning == "h" else vertical_partition
    options = (
        {"aggregator": ThresholdSumAggregator(threshold=2, seed=0)}
        if mode == "threshold"
        else {"mask_mode": mode}
    )
    model = PrivacyPreservingSVM(
        "horizontal" if partitioning == "h" else "vertical",
        max_iter=3,
        seed=0,
        on_health="ignore",
        **options,
    ).fit(split(data, 3, seed=0))
    tracer = model.network_.tracer
    spans: dict[str, list[str]] = defaultdict(list)
    for span in tracer.spans:
        spans[_label(span.iteration)].append(span.name)
    events: dict[str, list[str]] = defaultdict(list)
    for event in tracer.events:
        events[_label(event.iteration)].append(event.name)
    tracer.iteration_costs()  # books whatever the last boundary left
    return {
        "counters": _timeless(model.network_.metrics.as_dict()),
        "counter_totals": {
            _label(iteration): _timeless(totals)
            for iteration, totals in tracer.counter_totals.items()
        },
        "spans": dict(spans),
        "events": dict(events),
        "audit": model.audit_log_.summary(),
    }


@pytest.mark.parametrize("name", FITS)
def test_round_bookkeeping_matches_pinned_fixture(name):
    observed = json.loads(json.dumps(_observe_fit(name)))
    expected = json.loads(PATH.read_text())[name]
    for key in ("counters", "counter_totals", "spans", "events", "audit"):
        assert observed[key] == expected[key], key


if __name__ == "__main__":
    PATH.write_text(json.dumps({name: _observe_fit(name) for name in FITS}, indent=1) + "\n")
    sys.exit(0)
