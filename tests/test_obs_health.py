"""Convergence health monitors: detectors, verdicts, trainer policy.

Unit-level coverage of every :class:`~repro.obs.health.HealthMonitor`
detector on hand-built series, the verdict window/priority rules, the
counter/event emission contract, and the system-level behavior: a
deliberately divergent ADMM configuration (huge ``C``, tiny ``rho``)
must end with a ``diverging`` verdict in the fitted model *and* in its
persisted run record, and ``on_health`` must select between warning,
raising :class:`~repro.obs.health.HealthPolicyError`, and silence.
"""

import warnings

import pytest

from repro.cluster.profiling import Profiler
from repro.core.partitioning import horizontal_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.data.splits import train_test_split
from repro.data.synthetic import make_blobs
from repro.obs.health import HealthMonitor, HealthPolicyError, HealthSignal
from repro.obs.ledger import RunLedger


def feed(monitor, series, bytes_deltas=None):
    """Stream a plain series into the monitor; returns all fired signals."""
    fired = []
    for i, value in enumerate(series):
        delta = bytes_deltas[i] if bytes_deltas is not None else 0.0
        fired.extend(monitor.observe(i, z_change_sq=value, bytes_delta=delta))
    return fired


class TestDetectors:
    def test_divergence_fires_on_monotone_growth(self):
        monitor = HealthMonitor(divergence_window=3, divergence_factor=2.0)
        fired = feed(monitor, [0.1, 0.4, 1.9])
        assert [s.detector for s in fired] == ["divergence"]
        assert fired[0].iteration == 2
        assert monitor.verdict() == "diverging"

    def test_healthy_decay_fires_nothing(self):
        monitor = HealthMonitor()
        assert feed(monitor, [1.0 * 0.5**i for i in range(12)]) == []
        assert monitor.verdict() == "healthy"

    def test_divergence_ignores_converged_noise(self):
        # Strictly growing but far below the activity floor: converged.
        monitor = HealthMonitor(divergence_window=3, activity_floor=1e-12)
        assert feed(monitor, [1e-16, 2e-16, 5e-16]) == []

    def test_stall_fires_on_plateau(self):
        monitor = HealthMonitor(stall_window=5, stall_rel_band=0.05)
        fired = feed(monitor, [1.0, 0.99, 1.0, 0.98, 1.0])
        assert "stall" in {s.detector for s in fired}
        assert monitor.verdict() == "stalled"

    def test_converged_plateau_is_not_a_stall(self):
        # Flat, but below stall_floor — that's convergence, not a stall.
        monitor = HealthMonitor(stall_window=5, stall_floor=1e-10)
        assert feed(monitor, [1e-13] * 8) == []

    def test_oscillation_fires_on_alternation(self):
        monitor = HealthMonitor(
            oscillation_window=6, oscillation_flips=4, oscillation_amplitude=3.0,
            stall_window=50,  # keep the stall detector out of the way
        )
        fired = feed(monitor, [1.0, 4.0, 1.0, 4.0, 1.0, 4.0])
        assert "oscillation" in {s.detector for s in fired}
        assert monitor.verdict() == "oscillating"

    def test_byte_blowup_compares_against_median(self):
        monitor = HealthMonitor(byte_blowup_factor=4.0, stall_window=50)
        fired = feed(
            monitor,
            [1.0, 1.0, 1.0, 1.0],
            bytes_deltas=[1000.0, 1000.0, 1000.0, 8000.0],
        )
        blowups = [s for s in fired if s.detector == "byte_blowup"]
        assert len(blowups) == 1
        assert blowups[0].iteration == 3
        assert blowups[0].value == 8000.0
        assert monitor.verdict() == "byte-blowup"

    def test_non_finite_series_value_counts_as_divergence_evidence(self):
        monitor = HealthMonitor(divergence_window=3)
        fired = feed(monitor, [1.0, 10.0, float("inf")])
        assert "divergence" in {s.detector for s in fired}

    def test_primal_residual_preferred_when_available(self):
        monitor = HealthMonitor(divergence_window=3)
        # z_change says diverging, the (available) residual says fine.
        for i, (z, r) in enumerate(zip([0.1, 0.4, 1.9], [0.9, 0.5, 0.2])):
            monitor.observe(
                i, z_change_sq=z, primal_residual=r, residual_available=True
            )
        assert monitor.signals == []

    def test_nan_residual_falls_back_to_z_change(self):
        monitor = HealthMonitor(divergence_window=3)
        for i, z in enumerate([0.1, 0.4, 1.9]):
            monitor.observe(
                i,
                z_change_sq=z,
                primal_residual=float("nan"),
                residual_available=True,
            )
        assert [s.detector for s in monitor.signals] == ["divergence"]


class TestVerdict:
    def test_verdict_window_forgives_early_transients(self):
        monitor = HealthMonitor(divergence_window=3, verdict_window=8)
        series = [0.1, 0.4, 1.9] + [1.9 * 0.3**i for i in range(1, 20)]
        feed(monitor, series)
        assert any(s.detector == "divergence" for s in monitor.signals)
        assert monitor.verdict() == "healthy"

    def test_priority_divergence_beats_stall(self):
        monitor = HealthMonitor()
        monitor.signals.append(HealthSignal(0, "stall", 1.0, 1.0, "stall"))
        monitor.signals.append(HealthSignal(0, "divergence", 1.0, 1.0, "div"))
        monitor._series = [1.0]
        assert monitor.verdict() == "diverging"

    def test_finalize_freezes_and_emits_event(self):
        profiler = Profiler()
        monitor = HealthMonitor(
            divergence_window=3, metrics=profiler, tracer=profiler.tracer
        )
        feed(monitor, [0.1, 0.4, 1.9])
        assert profiler.get("health.signals") == 1.0
        assert monitor.finalize() == "diverging"
        # frozen: later healthy iterations no longer change it
        feed(monitor, [0.01] * 10)
        assert monitor.finalize() == "diverging"
        events = {e.name for e in profiler.tracer.events}
        assert {"health.divergence", "health.verdict"} <= events

    def test_summary_shape(self):
        monitor = HealthMonitor(divergence_window=3)
        feed(monitor, [0.1, 0.4, 1.9])
        summary = monitor.summary()
        assert summary["verdict"] == "diverging"
        assert summary["n_signals"] == 1
        assert summary["n_iterations"] == 3
        assert summary["signals"][0]["detector"] == "divergence"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"divergence_window": 1},
            {"stall_window": 1},
            {"oscillation_window": 2},
        ],
    )
    def test_window_validation(self, kwargs):
        with pytest.raises(ValueError):
            HealthMonitor(**kwargs)


@pytest.fixture()
def divergent_setup():
    """Partitions plus an ADMM config whose run the monitor flags diverging.

    Exact ADMM on a convex problem converges for any rho > 0 (with exact
    local solves this run is healthy), so the fault is injected
    explicitly: each local dual QP gets a single projected-Newton
    iteration (``qp_max_sweeps=1``).  When the learners' active sets
    shift, those truncated solves miss, and the consensus change grows
    by orders of magnitude over consecutive rounds (about 8.5e-6, 8.6e-4,
    0.77 in rounds 4-6), which the divergence detector flags.
    """
    train, _ = train_test_split(make_blobs(240, seed=0), seed=0)
    parts = horizontal_partition(train, 3, seed=0)
    config = dict(C=1e4, rho=1e-3, max_iter=8, seed=0, qp_max_sweeps=1)
    return parts, config


class TestTrainerPolicy:
    def test_divergent_run_gets_diverging_verdict(self, divergent_setup):
        parts, config = divergent_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = PrivacyPreservingSVM("horizontal", **config).fit(parts)
        assert model.health_monitor_.verdict() == "diverging"
        assert any(
            s.detector == "divergence" for s in model.health_monitor_.signals
        )

    def test_diverging_verdict_persisted_to_ledger(self, divergent_setup, tmp_path):
        parts, config = divergent_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = PrivacyPreservingSVM(
                "horizontal", on_health="ignore", **config
            ).fit(parts)
        run_id = model.save_run(str(tmp_path))
        record = RunLedger(tmp_path).load(run_id)
        assert record["health"]["verdict"] == "diverging"

    def test_on_health_warn_issues_runtime_warning(self, divergent_setup):
        parts, config = divergent_setup
        with pytest.warns(RuntimeWarning, match="divergence|grew"):
            PrivacyPreservingSVM("horizontal", on_health="warn", **config).fit(parts)

    def test_on_health_raise_aborts_but_stays_inspectable(self, divergent_setup):
        parts, config = divergent_setup
        model = PrivacyPreservingSVM("horizontal", on_health="raise", **config)
        with pytest.raises(HealthPolicyError):
            model.fit(parts)
        # The partial run is still attached for post-mortem.
        assert model.health_monitor_ is not None
        assert model.health_monitor_.signals
        assert len(model.history_) >= 1

    def test_on_health_ignore_is_silent(self, divergent_setup):
        parts, config = divergent_setup
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = PrivacyPreservingSVM(
                "horizontal", on_health="ignore", **config
            ).fit(parts)
        assert model.health_monitor_.signals  # recorded, not enforced

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_health"):
            PrivacyPreservingSVM("horizontal", on_health="explode")

    def test_healthy_run_verdict(self):
        train, _ = train_test_split(make_blobs(120, seed=0), seed=0)
        parts = horizontal_partition(train, 3, seed=0)
        model = PrivacyPreservingSVM(max_iter=5, seed=0).fit(parts)
        assert model.health_monitor_.verdict() == "healthy"
        assert model.profiler_.get("health.signals") == 0.0

    def test_custom_monitor_injection(self, divergent_setup):
        parts, config = divergent_setup
        monitor = HealthMonitor(divergence_window=2, divergence_factor=1.5)
        model = PrivacyPreservingSVM(
            "horizontal", on_health="ignore", health_monitor=monitor, **config
        ).fit(parts)
        assert model.health_monitor_ is monitor
        assert monitor.metrics is model.profiler_
