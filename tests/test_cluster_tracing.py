"""Tracing/profiling layer: recorder semantics, exporters, reconciliation.

Covers the observability subsystem end to end: span nesting and
iteration tagging in :class:`~repro.cluster.tracing.TraceRecorder`,
Chrome-trace/JSONL export validity, :class:`~repro.cluster.profiling.Profiler`
/ registry consistency, the counter-name validation added to
:class:`~repro.cluster.metrics.MetricRegistry`, and the system-level
invariants: one ``admm.local_step`` span per iteration per node, the
per-iteration cost table reconciling exactly with the counter totals,
and ``raw_data_bytes_moved() == 0`` being derivable from the trace
alone for a secure horizontal run.
"""

import json

import numpy as np
import pytest

from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.metrics import MetricRegistry
from repro.cluster.network import Network
from repro.cluster.profiling import Profiler
from repro.cluster.tracing import TraceRecorder, cost_table
from repro.core.partitioning import horizontal_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.data.splits import train_test_split
from repro.data.synthetic import make_blobs

RAW_DATA_KINDS = ("hdfs-replication", "hdfs-remote-read")


class TestTraceRecorder:
    def test_span_nesting_parent_ids(self):
        recorder = TraceRecorder()
        with recorder.span("outer") as outer:
            with recorder.span("middle") as middle:
                with recorder.span("inner") as inner:
                    pass
            with recorder.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert sibling.parent_id == outer.span_id
        # Stored innermost-first (appended at exit).
        assert [s.name for s in recorder.spans] == ["inner", "middle", "sibling", "outer"]

    def test_span_closes_when_its_body_raises(self):
        recorder = TraceRecorder(sim_clock=lambda: 2.0)
        with pytest.raises(KeyError):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    raise KeyError("boom")
        assert [s.name for s in recorder.spans] == ["inner", "outer"]
        assert all(s.duration_sim_s == 0.0 for s in recorder.spans)
        with recorder.span("after") as after:
            pass
        assert after.parent_id is None  # the stack unwound

    def test_iteration_tagging(self):
        recorder = TraceRecorder()
        with recorder.span("setup"):
            pass
        recorder.event("setup-event")
        with recorder.iteration(3):
            with recorder.span("work") as work:
                recorder.event("ping")
                recorder.counter("crypto.masks_generated", 2)
            assert recorder.current_iteration == 3
        assert recorder.current_iteration is None
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["setup"].iteration is None
        assert work.iteration == 3
        assert recorder.events[0].iteration is None
        assert recorder.events[1].iteration == 3
        assert recorder.counter_totals == {3: {"crypto.masks_generated": 2.0}}

    def test_iteration_nesting_restores_previous(self):
        recorder = TraceRecorder()
        with recorder.iteration(1):
            with recorder.iteration(2):
                assert recorder.current_iteration == 2
            assert recorder.current_iteration == 1

    def test_explicit_iteration_overrides_ambient(self):
        recorder = TraceRecorder()
        with recorder.iteration(5):
            with recorder.span("pinned", iteration=7) as span:
                pass
        assert span.iteration == 7

    def test_span_attrs_mutable_until_close(self):
        recorder = TraceRecorder()
        with recorder.span("check", z=1.0) as span:
            span.attrs["converged"] = True
        stored = recorder.spans[0]
        assert stored.attrs == {"z": 1.0, "converged": True}
        assert stored.duration_wall_s >= 0.0

    def test_disabled_recorder_yields_usable_handles(self):
        recorder = TraceRecorder(enabled=False)
        with recorder.span("ignored") as span:
            span.attrs["x"] = 1
        recorder.event("ignored")
        recorder.counter("crypto.masks_generated")
        assert recorder.spans == []
        assert recorder.events == []
        assert recorder.counter_totals == {}
        assert recorder.dropped == 0

    def test_max_records_drops_and_counts(self):
        recorder = TraceRecorder(max_records=3)
        for _ in range(5):
            recorder.event("e")
        assert len(recorder.events) == 3
        assert recorder.dropped == 2
        with recorder.span("late"):
            pass
        assert recorder.spans == []
        assert recorder.dropped == 3

    def test_clear_resets_records_but_keeps_config(self):
        recorder = TraceRecorder(max_records=10)
        with recorder.iteration(0):
            with recorder.span("s"):
                recorder.event("e")
        recorder.clear()
        assert recorder.spans == [] and recorder.events == []
        assert recorder.counter_totals == {} and recorder.dropped == 0
        assert recorder.max_records == 10

    def test_clear_resets_the_record_budget(self):
        # Counter totals are not records: only the span and the event
        # use up the budget of two.
        recorder = TraceRecorder(max_records=2)
        with recorder.span("s"):
            recorder.event("e")
            recorder.counter("c")
        recorder.event("over")
        assert recorder.dropped == 1
        recorder.clear()
        assert recorder.dropped == 0
        recorder.event("after")
        recorder.counter("c", 2.0)
        with recorder.span("s2"):
            pass
        assert [e.name for e in recorder.events] == ["after"]
        assert recorder.counter_totals == {None: {"c": 2.0}}
        assert [s.name for s in recorder.spans] == ["s2"]
        assert recorder.dropped == 0
        recorder.event("over")
        assert recorder.dropped == 1

    def test_sim_clock_durations(self):
        clock = {"t": 0.0}
        recorder = TraceRecorder(sim_clock=lambda: clock["t"])
        with recorder.span("transfer"):
            clock["t"] += 2.5
        span = recorder.spans[0]
        assert span.start_sim_s == 0.0
        assert span.duration_sim_s == pytest.approx(2.5)


class TestExporters:
    def _sample_recorder(self):
        recorder = TraceRecorder()
        with recorder.iteration(0):
            with recorder.span("twister.round", kind="round", node="reducer"):
                recorder.event(
                    "network.send",
                    kind="network",
                    node="a",
                    message_kind="mask",
                    size_bytes=64.0,
                )
            recorder.counter("crypto.masks_generated", 1)
        return recorder

    def test_jsonl_every_line_valid(self):
        recorder = self._sample_recorder()
        lines = recorder.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert {r["type"] for r in records} == {"span", "event", "counter"}

    def test_chrome_trace_roundtrips_through_json(self):
        recorder = self._sample_recorder()
        doc = json.loads(json.dumps(recorder.to_chrome_trace()))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["name"] == "twister.round"
        assert complete[0]["args"]["iteration"] == 0
        # process-name metadata names each simulated node
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"reducer", "a"}

    def test_chrome_trace_coerces_numpy_attrs(self):
        recorder = TraceRecorder()
        with recorder.span("s", value=np.float64(1.5), vec=np.array([1.0, 2.0])):
            pass
        doc = json.dumps(recorder.to_chrome_trace())
        args = json.loads(doc)["traceEvents"][-1]["args"]
        assert args["value"] == 1.5
        assert args["vec"] == [1.0, 2.0]

    def test_cost_table_setup_row_first(self):
        network = Network()
        network.register("a")
        network.register("b")
        seed = network.send("a", "b", 7, kind="mask-seed")
        with network.tracer.iteration(0):
            mask = network.send("a", "b", np.arange(8), kind="mask")
        headers, rows = cost_table(network.tracer.iteration_costs())
        assert headers[0] == "iteration"
        assert [row[0] for row in rows] == ["setup", "0"]
        assert rows[0][headers.index("bytes:mask-seed")] == seed.size_bytes
        assert rows[0][headers.index("bytes:mask")] == 0.0
        assert rows[1][headers.index("bytes:mask")] == mask.size_bytes
        assert [row[headers.index("messages")] for row in rows] == [1.0, 1.0]


class TestProfiler:
    def test_registry_interface_drop_in(self):
        profiler = Profiler()
        profiler.increment("crypto.masks_generated", 2)
        profiler.increment("crypto.masks_generated")
        assert profiler.get("crypto.masks_generated") == 3.0
        assert profiler.with_prefix("crypto.") == {"crypto.masks_generated": 3.0}
        assert profiler.as_dict() == {"crypto.masks_generated": 3.0}

    def test_snapshot_counters_match_samples(self):
        profiler = Profiler()
        with profiler.iteration(0):
            profiler.increment("crypto.masks_generated", 2)
        with profiler.iteration(1):
            profiler.increment("crypto.masks_generated", 5)
        snap = profiler.snapshot()
        booked = sum(
            totals.get("crypto.masks_generated", 0.0)
            for totals in profiler.tracer.counter_totals.values()
        )
        assert snap["counters"]["crypto.masks_generated"] == booked == 7.0
        per_iter = {
            row["iteration"]: row["crypto_ops"]["crypto.masks_generated"]
            for row in snap["iterations"]
        }
        assert per_iter == {0: 2.0, 1: 5.0}

    def test_reset_clears_both_stores(self):
        profiler = Profiler()
        profiler.increment("crypto.masks_generated")
        with profiler.span("s"):
            pass
        profiler.reset()
        assert profiler.as_dict() == {}
        assert profiler.tracer.spans == []
        assert profiler.tracer.counter_totals == {}

    def test_network_defaults_to_profiler_and_wires_tracer(self):
        network = Network()
        assert isinstance(network.metrics, Profiler)
        assert network.tracer is network.metrics.tracer
        assert network.tracer.registry is network.metrics
        network.register("a")
        network.register("b")
        with network.tracer.iteration(0), network.tracer.span("transfer") as span:
            network.send("a", "b", b"xxxx", kind="consensus")
        # sends record no per-message events; the iteration's totals
        # carry the bytes and the span the simulated transfer time
        assert network.tracer.events == []
        totals = network.tracer.counter_totals[0]
        assert totals["network.bytes.consensus"] == network.bytes_sent() > 0
        assert totals["network.messages.consensus"] == 1.0
        assert span.duration_sim_s == pytest.approx(network.simulated_time_s)

    def test_network_accepts_bare_registry(self):
        network = Network(metrics=MetricRegistry())
        network.register("a")
        network.register("b")
        with network.tracer.iteration(0):
            network.send("a", "b", b"xxxx", kind="consensus")
        # counters work, and the network's own tracer books them per iteration
        assert network.metrics.get("network.messages") == 1.0
        assert network.tracer.registry is network.metrics
        [row] = network.tracer.iteration_costs()
        assert row["iteration"] == 0
        assert row["bytes_by_kind"] == {"consensus": network.bytes_sent()}


class TestMetricRegistryValidation:
    @pytest.mark.parametrize("bad", [None, 3, 1.5, b"bytes", ["a"]])
    def test_non_string_names_rejected(self, bad):
        with pytest.raises(TypeError, match="must be str"):
            MetricRegistry().increment(bad)

    @pytest.mark.parametrize(
        "bad", ["", "a b", " a", "a\t", "a\nb", ".a", "a.", "a..b", "."]
    )
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(ValueError):
            MetricRegistry().increment(bad)

    def test_malformed_name_rejected_on_every_call(self):
        registry = MetricRegistry()
        registry.increment("a.b")
        registry.increment("a.b")
        for _ in range(3):
            with pytest.raises(ValueError):
                registry.increment("a..b")
            with pytest.raises(TypeError, match="must be str"):
                registry.increment(["a.b"])
        assert registry.as_dict() == {"a.b": 2.0}

    def test_single_segment_names_allowed(self):
        registry = MetricRegistry()
        registry.increment("a")
        assert registry.get("a") == 1.0

    def test_empty_prefix_matches_everything(self):
        registry = MetricRegistry()
        registry.increment("network.bytes", 4)
        registry.increment("crypto.paillier_ops", 2)
        assert registry.with_prefix("") == registry.as_dict()
        assert registry.with_prefix("network.") == {"network.bytes": 4.0}

    def test_profiler_rejects_bad_names_before_sampling(self):
        profiler = Profiler()
        with pytest.raises(ValueError):
            profiler.increment("")
        assert profiler.as_dict() == {}
        assert profiler.snapshot()["iterations"] == []
        assert profiler.tracer.counter_totals == {}


@pytest.fixture(scope="module")
def traced_run():
    """One secure horizontal training run, shared by the system tests."""
    train, _ = train_test_split(make_blobs(120, seed=0), seed=0)
    parts = horizontal_partition(train, 3, seed=0)
    model = PrivacyPreservingSVM(max_iter=5, seed=0).fit(parts)
    return model


class TestTracedTrainingRun:
    def test_one_local_step_span_per_iteration_per_node(self, traced_run):
        spans = [s for s in traced_run.network_.tracer.spans if s.name == "admm.local_step"]
        nodes = {f"learner-{m}" for m in range(3)}
        iterations = range(len(traced_run.history_))
        seen = {(s.iteration, s.node) for s in spans}
        assert seen == {(i, n) for i in iterations for n in nodes}

    def test_local_step_spans_carry_qp_diagnostics(self, traced_run):
        spans = [s for s in traced_run.network_.tracer.spans if s.name == "admm.local_step"]
        assert all(s.attrs["qp_iterations"] >= 0 for s in spans)
        assert max(s.attrs["qp_kkt_residual"] for s in spans) <= 1e-8
        assert traced_run.profiler_.get("admm.qp_unconverged") == 0.0

    def test_truncated_local_solves_are_counted(self):
        train, _ = train_test_split(make_blobs(120, seed=0), seed=0)
        parts = horizontal_partition(train, 3, seed=0)
        model = PrivacyPreservingSVM(
            C=1e4, rho=1e-3, max_iter=3, seed=0, qp_max_sweeps=1, on_health="ignore"
        ).fit(parts)
        spans = [s for s in model.network_.tracer.spans if s.name == "admm.local_step"]
        unconverged = [s for s in spans if s.attrs["qp_kkt_residual"] > 1e-8]
        assert unconverged and all(s.attrs["qp_iterations"] == 1 for s in unconverged)
        assert model.profiler_.get("admm.qp_unconverged") == len(unconverged)

    def test_round_spans_nest_driver_phases(self, traced_run):
        tracer = traced_run.network_.tracer
        rounds = {s.span_id: s for s in tracer.spans if s.name == "twister.round"}
        assert len(rounds) == len(traced_run.history_)
        phases = {"twister.broadcast", "twister.map_wave", "twister.aggregate", "twister.reduce"}
        for round_span in rounds.values():
            children = {
                s.name for s in tracer.spans if s.parent_id == round_span.span_id
            }
            assert phases <= children

    def test_local_steps_nest_under_map_wave(self, traced_run):
        tracer = traced_run.network_.tracer
        waves = {s.span_id: s for s in tracer.spans if s.name == "twister.map_wave"}
        steps = [s for s in tracer.spans if s.name == "admm.local_step"]
        assert steps
        for step in steps:
            assert step.parent_id in waves
            assert waves[step.parent_id].iteration == step.iteration
        assert all(set(w.attrs) == {"n_mappers"} for w in waves.values())

    def test_convergence_check_attrs(self, traced_run):
        checks = [
            s for s in traced_run.network_.tracer.spans if s.name == "admm.convergence_check"
        ]
        assert len(checks) == len(traced_run.history_)
        for span, record in zip(
            sorted(checks, key=lambda s: s.iteration), traced_run.history_.records
        ):
            assert span.attrs["z_change_sq"] == pytest.approx(record.z_change_sq)
            assert span.attrs["converged"] in (True, False)

    def test_chrome_trace_export_valid_json(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        payload = traced_run.export_trace(str(path), format="chrome")
        doc = json.loads(payload)
        assert json.loads(path.read_text()) == doc
        assert any(
            e.get("name") == "admm.local_step" for e in doc["traceEvents"]
        )

    def test_jsonl_export_valid(self, traced_run):
        for line in traced_run.export_trace(format="jsonl").splitlines():
            json.loads(line)

    def test_cost_table_reconciles_with_registry(self, traced_run):
        headers, rows = traced_run.iteration_cost_table()
        network = traced_run.network_
        assert sum(r[headers.index("total_bytes")] for r in rows) == network.bytes_sent()
        assert sum(r[headers.index("messages")] for r in rows) == network.messages_sent()
        registry_crypto = sum(
            amount
            for name, amount in network.metrics.as_dict().items()
            if name.startswith("crypto.")
        )
        assert sum(r[headers.index("crypto_ops")] for r in rows) == registry_crypto

    def test_per_kind_bytes_reconcile(self, traced_run):
        rows = traced_run.network_.tracer.iteration_costs()
        metrics = traced_run.network_.metrics
        by_kind = {}
        for row in rows:
            for kind, size in row["bytes_by_kind"].items():
                by_kind[kind] = by_kind.get(kind, 0.0) + size
        assert {"broadcast", "mask", "masked-share"} <= set(by_kind)
        for kind, total in by_kind.items():
            assert total == metrics.get(f"network.bytes.{kind}") > 0

    def test_raw_data_bytes_derivable_from_trace_alone(self, traced_run):
        """Regression: the privacy headline must be provable from the trace."""

        def raw_bytes(rows):
            return sum(
                size
                for row in rows
                for kind, size in row["bytes_by_kind"].items()
                if kind in RAW_DATA_KINDS
            )

        rows = traced_run.network_.tracer.iteration_costs()
        assert raw_bytes(rows) == traced_run.raw_data_bytes_moved() == 0.0
        # The same sum sees raw data when it does move: a replicated
        # public file sends its block over the network.
        network = Network()
        hdfs = SimulatedHdfs(network, replication=2)
        for node in ("n0", "n1"):
            hdfs.add_datanode(node)
        hdfs.put("public", [np.arange(16.0)], preferred_nodes=["n0"])
        replicated = network.bytes_sent("hdfs-replication")
        assert replicated > 0
        assert raw_bytes(network.tracer.iteration_costs()) == replicated

    def test_no_records_dropped(self, traced_run):
        assert traced_run.network_.tracer.dropped == 0

    def test_snapshot_schema(self, traced_run):
        snap = traced_run.profiler_.snapshot()
        assert set(snap) == {"counters", "spans", "events", "iterations", "dropped"}
        assert snap["counters"] == traced_run.network_.metrics.as_dict()
