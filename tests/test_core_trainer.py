"""Tests for the full MapReduce-integrated PrivacyPreservingSVM.

The central claims: (1) the distributed secure run computes the *same*
numbers as the in-process trainer (up to fixed-point rounding);
(2) raw training data never crosses the network; (3) the Reducer's wire
view contains only masked shares.
"""

import numpy as np
import pytest

from repro.core.horizontal_kernel import HorizontalKernelSVM, HorizontalKernelWorker
from repro.core.horizontal_linear import HorizontalLinearSVM
from repro.core.horizontal_logistic import HorizontalLogisticRegression
from repro.core.mapreduce_svm import ADMMMapper
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_kernel import VerticalKernelSVM
from repro.core.vertical_linear import VerticalLinearSVM
from repro.crypto.fixed_point import FixedPointCodec, ring_bits
from repro.crypto.secure_sum import SecureSumAggregator
from repro.crypto.threshold_sum import ThresholdSumAggregator
from repro.data.synthetic import make_linear_task
from repro.svm.kernels import RBFKernel


@pytest.fixture
def cancer_parts(cancer_split):
    train, test = cancer_split
    return horizontal_partition(train, 4, seed=0), train, test


class TestHorizontalTrainer:
    @pytest.mark.parametrize("kernel", [None, RBFKernel(gamma=0.1)], ids=["h-lin", "h-ker"])
    def test_matches_in_process_reference(self, kernel, cancer_parts):
        parts, _, test = cancer_parts
        if kernel is None:
            reference = HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=25)
        else:
            reference = HorizontalKernelSVM(kernel, C=50.0, rho=100.0, n_landmarks=10, max_iter=25)
        reference.fit(parts)
        distributed = PrivacyPreservingSVM(
            "horizontal", kernel=kernel, C=50.0, rho=100.0, n_landmarks=10, max_iter=25, seed=0
        ).fit(parts)
        np.testing.assert_allclose(
            distributed._variant.reducer_.z, reference.reducer_.z, atol=1e-7
        )
        np.testing.assert_allclose(
            distributed.history_.z_changes, reference.history_.z_changes, atol=1e-6
        )
        np.testing.assert_allclose(
            distributed.decision_function(test.X), reference.decision_function(test.X), atol=1e-6
        )

    def test_accuracy_reasonable(self, cancer_parts):
        parts, _, test = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=40, seed=0).fit(parts)
        assert model.score(test.X, test.y) > 0.88

    def test_plaintext_and_secure_agree(self, cancer_parts):
        parts, _, _ = cancer_parts
        secure = PrivacyPreservingSVM("horizontal", max_iter=15, secure=True, seed=0).fit(parts)
        plain = PrivacyPreservingSVM("horizontal", max_iter=15, secure=False, seed=0).fit(parts)
        np.testing.assert_allclose(secure._variant.reducer_.z, plain._variant.reducer_.z, atol=1e-7)

    def test_prg_mode_agrees_with_fresh(self, cancer_parts):
        parts, _, _ = cancer_parts
        fresh = PrivacyPreservingSVM(
            "horizontal", max_iter=10, mask_mode="fresh", seed=0
        ).fit(parts)
        prg = PrivacyPreservingSVM("horizontal", max_iter=10, mask_mode="prg", seed=0).fit(parts)
        np.testing.assert_allclose(fresh._variant.reducer_.z, prg._variant.reducer_.z, atol=1e-7)

    def test_kernel_variant_runs(self, cancer_parts):
        parts, _, test = cancer_parts
        model = PrivacyPreservingSVM(
            "horizontal",
            kernel=RBFKernel(gamma=0.1),
            n_landmarks=10,
            max_iter=15,
            seed=0,
        ).fit(parts)
        assert model.score(test.X, test.y) > 0.8

    def test_wrong_input_type(self, cancer_split):
        train, _ = cancer_split
        partition = vertical_partition(train, 3, seed=0)
        with pytest.raises(TypeError, match="list of Dataset"):
            PrivacyPreservingSVM("horizontal").fit(partition)


class TestVerticalTrainer:
    @pytest.mark.parametrize("kernel", [None, RBFKernel(gamma=0.1)], ids=["v-lin", "v-ker"])
    def test_matches_in_process_reference(self, kernel, cancer_split):
        train, test = cancer_split
        partition = vertical_partition(train, 3, seed=0)
        if kernel is None:
            reference = VerticalLinearSVM(C=50.0, rho=100.0, max_iter=30)
        else:
            reference = VerticalKernelSVM(kernel, C=50.0, rho=100.0, max_iter=30)
        reference.fit(partition)
        distributed = PrivacyPreservingSVM(
            "vertical", kernel=kernel, C=50.0, rho=100.0, max_iter=30, seed=0
        ).fit(partition)
        np.testing.assert_allclose(
            distributed.history_.z_changes, reference.history_.z_changes, atol=1e-6
        )
        np.testing.assert_allclose(
            distributed._variant.reducer_.zbar, reference.reducer_.zbar, atol=1e-7
        )
        np.testing.assert_allclose(
            distributed.decision_function(test.X), reference.decision_function(test.X), atol=1e-6
        )

    def test_learners_keep_partition_order_past_ten(self):
        # Task keys "learner-10/10" sort before "learner-2/2"; the mappers
        # must still line up with the partition's column blocks.
        data = make_linear_task(200, 24, margin=0.3, seed=3)
        partition = vertical_partition(data, 12, seed=0)
        reference = VerticalLinearSVM(max_iter=5).fit(partition)
        model = PrivacyPreservingSVM("vertical", max_iter=5, seed=0, on_health="ignore")
        model.fit(partition)
        np.testing.assert_allclose(
            model.decision_function(data.X), reference.decision_function(data.X), atol=1e-6
        )

    def test_prediction_path(self, cancer_split):
        train, test = cancer_split
        partition = vertical_partition(train, 3, seed=0)
        model = PrivacyPreservingSVM("vertical", max_iter=60, seed=0).fit(partition)
        assert model.score(test.X, test.y) > 0.85

    def test_kernel_vertical(self, cancer_split):
        train, test = cancer_split
        partition = vertical_partition(train, 3, seed=0)
        model = PrivacyPreservingSVM(
            "vertical", kernel=RBFKernel(gamma=0.1), max_iter=40, seed=0
        ).fit(partition)
        assert model.score(test.X, test.y) > 0.8

    def test_wrong_input_type(self, cancer_parts):
        parts, _, _ = cancer_parts
        with pytest.raises(TypeError, match="VerticalPartition"):
            PrivacyPreservingSVM("vertical").fit(parts)


class TestPrivacyInvariants:
    def test_raw_data_never_moves(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=10, seed=0).fit(parts)
        assert model.raw_data_bytes_moved() == 0.0

    def test_reducer_inbox_is_masked_shares_only(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=5, seed=0).fit(parts)
        to_reducer = [m for m in model.network_.message_log if m.dst == "reducer"]
        assert to_reducer
        assert all(m.kind == "masked-share" for m in to_reducer)

    def test_plaintext_mode_leaks_by_design(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=5, secure=False, seed=0).fit(parts)
        kinds = {m.kind for m in model.network_.message_log if m.dst == "reducer"}
        assert "consensus" in kinds

    def test_tasks_all_data_local(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=5, seed=0).fit(parts)
        metrics = model.network_.metrics
        assert metrics.get("scheduler.local_tasks") == 4.0
        assert metrics.get("scheduler.remote_tasks") == 0.0


class TestAccounting:
    def test_communication_summary_keys(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=8, seed=0).fit(parts)
        summary = model.communication_summary()
        assert summary["iterations"] == 8.0
        assert summary["total_bytes"] > 0
        assert summary["mask_bytes"] > 0
        assert summary["masked_share_bytes"] > 0
        assert summary["plaintext_consensus_bytes"] == 0.0
        assert summary["secure_sum_rounds"] == 8.0

    def test_secure_costs_more_than_plaintext(self, cancer_parts):
        parts, _, _ = cancer_parts
        secure = PrivacyPreservingSVM("horizontal", max_iter=10, seed=0).fit(parts)
        plain = PrivacyPreservingSVM("horizontal", max_iter=10, secure=False, seed=0).fit(parts)
        assert (
            secure.communication_summary()["total_bytes"]
            > plain.communication_summary()["total_bytes"]
        )

    def test_prg_mode_cheaper_than_fresh(self, cancer_parts):
        parts, _, _ = cancer_parts
        fresh = PrivacyPreservingSVM("horizontal", max_iter=10, mask_mode="fresh", seed=0).fit(
            parts
        )
        prg = PrivacyPreservingSVM("horizontal", max_iter=10, mask_mode="prg", seed=0).fit(parts)
        assert (
            prg.communication_summary()["total_bytes"]
            < fresh.communication_summary()["total_bytes"]
        )

    def test_unfitted_accessors_raise(self):
        model = PrivacyPreservingSVM("horizontal")
        with pytest.raises(RuntimeError):
            model.communication_summary()
        with pytest.raises(RuntimeError):
            model.decision_function(np.ones((1, 2)))


class TestValidation:
    def test_bad_partitioning_string(self):
        with pytest.raises(ValueError, match="horizontal"):
            PrivacyPreservingSVM("diagonal")

    def test_early_stopping_tol(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=100, tol=1e-2, seed=0).fit(parts)
        assert len(model.history_) < 100


MAX_ITER_ENTRY_POINTS = {
    "h-lin": lambda n: HorizontalLinearSVM(max_iter=n),
    "h-ker": lambda n: HorizontalKernelSVM(max_iter=n),
    "v-lin": lambda n: VerticalLinearSVM(max_iter=n),
    "v-ker": lambda n: VerticalKernelSVM(max_iter=n),
    "logistic": lambda n: HorizontalLogisticRegression(max_iter=n),
    "cluster": lambda n: PrivacyPreservingSVM(max_iter=n),
}


class TestConstructionValidation:
    @pytest.mark.parametrize("max_iter", [0, -3])
    @pytest.mark.parametrize("entry", sorted(MAX_ITER_ENTRY_POINTS))
    def test_max_iter_below_one_rejected_at_construction(self, entry, max_iter):
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {max_iter}"):
            MAX_ITER_ENTRY_POINTS[entry](max_iter)

    def test_eval_learner_out_of_range_rejected_before_any_round(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM(kernel=RBFKernel(gamma=0.1), eval_learner=9, max_iter=3)
        with pytest.raises(ValueError, match="eval_learner 9 out of range for 4 learners"):
            model.fit(parts)
        assert model.driver_ is None and len(model.history_) == 0

    def test_in_process_eval_learner_checked_before_workers_are_built(
        self, cancer_parts, monkeypatch
    ):
        parts, _, _ = cancer_parts

        def never(*args, **kwargs):
            raise AssertionError("a worker was built")

        monkeypatch.setattr(HorizontalKernelWorker, "__init__", never)
        with pytest.raises(ValueError, match="eval_learner 4 out of range"):
            HorizontalKernelSVM(eval_learner=4, max_iter=3).fit(parts)


class TestDriverPlumbing:
    def test_mappers_accessor_sorted_and_used_by_trainer(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=5, seed=0).fit(parts)
        driver = model.driver_
        keys = [f"learner-{m}/{m}" for m in range(len(parts))]
        assert list(driver._mappers) == keys
        assert driver.mappers() == [driver._mappers[key] for key in keys]
        assert model._variant.workers_ == [m.worker for m in driver.mappers()]

    def test_serialize_counter_accumulates(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM("horizontal", max_iter=5, seed=0).fit(parts)
        assert model.network_.metrics.get("network.serialize_s") > 0.0


VARIANTS = {
    "h-lin": ("horizontal", None),
    "h-ker": ("horizontal", RBFKernel(gamma=0.1)),
    "v-lin": ("vertical", None),
    "v-ker": ("vertical", RBFKernel(gamma=0.1)),
}


class TestSecureSumRing:
    """The trainer's ring is one 64-bit word with wide headroom."""

    def test_width_rule(self):
        assert ring_bits(40, 8) == 64
        assert ring_bits(52, 8) == 128
        assert FixedPointCodec(modulus_bits=ring_bits(40, 8), max_terms=8).max_magnitude == 2.0**20

    @pytest.mark.parametrize("C", [50.0, 1e6], ids=["paper-C", "C-1e6"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_headroom_and_plaintext_agreement(self, variant, C, cancer_split, monkeypatch):
        train, test = cancer_split
        partitioning, kernel = VARIANTS[variant]
        if partitioning == "horizontal":
            data = horizontal_partition(train, 4, seed=0)
        else:
            data = vertical_partition(train, 4, seed=0)
        largest = [0.0]
        encode_array = FixedPointCodec.encode_array

        def recording_encode(codec, values):
            largest[0] = max(largest[0], float(np.max(np.abs(values))))
            return encode_array(codec, values)

        monkeypatch.setattr(FixedPointCodec, "encode_array", recording_encode)
        config = dict(kernel=kernel, C=C, rho=100.0, max_iter=20, seed=0, on_health="ignore")
        secure = PrivacyPreservingSVM(partitioning, **config).fit(data)
        plain = PrivacyPreservingSVM(partitioning, secure=False, **config).fit(data)

        codec = secure.driver_.transport.aggregator.codec
        assert codec.modulus == 2**64
        assert codec.zeros_array(1).limbs.shape == (1, 1)
        assert 0.0 < largest[0] < codec.max_magnitude / 1000
        np.testing.assert_allclose(
            secure.decision_function(test.X), plain.decision_function(test.X), atol=1e-6
        )

    def test_finer_scale_gets_two_words(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = PrivacyPreservingSVM(fractional_bits=52, max_iter=2, seed=0).fit(parts)
        codec = model.driver_.transport.aggregator.codec
        assert codec.modulus == 2**128
        assert codec.zeros_array(1).limbs.shape == (1, 2)

    def test_overflow_mid_fit_is_a_defined_error(self, cancer_parts, monkeypatch):
        parts, _, _ = cancer_parts
        map_step = ADMMMapper.map

        def blow_up_learner_1(mapper, broadcast, context):
            out = map_step(mapper, broadcast, context)
            if context.iteration == 3 and context.node_id == "learner-1":
                out = {key: value * 1e9 for key, value in out.items()}
            return out

        monkeypatch.setattr(ADMMMapper, "map", blow_up_learner_1)
        model = PrivacyPreservingSVM(max_iter=10, seed=0, on_health="ignore")
        with pytest.raises(OverflowError, match=r"bound 2\.09715e\+06 of the ring Z_q, q = 2\^64"):
            model.fit(parts)
        # The completed rounds stay inspectable; the overflowing one
        # never produced a sum.
        assert len(model.history_) == 3
        assert len(model.audit_log_.rounds) == 3
        assert model.audit_log_.ok


class TestAggregatorReuse:
    @pytest.mark.parametrize(
        "make_aggregator, kind, per_fit",
        [
            (lambda: SecureSumAggregator(seed=0), "mask", 18),
            (
                lambda: ThresholdSumAggregator(
                    threshold=2, seed=0, dropout_schedule={1: {"learner-1"}}
                ),
                "threshold-agg-share",
                8,
            ),
        ],
        ids=["fresh", "threshold"],
    )
    def test_each_fit_runs_on_its_own_network_and_audit_log(
        self, make_aggregator, kind, per_fit
    ):
        # One aggregator object given to two fits: the second fit's
        # traffic crosses its own network, its rounds land in its own
        # audit log, and the dropout schedule counts its rounds from 0.
        parts = horizontal_partition(make_linear_task(60, 5, margin=0.5, seed=3), 3, seed=0)
        model = PrivacyPreservingSVM(
            max_iter=3, seed=0, on_health="ignore", aggregator=make_aggregator()
        )
        runs = []
        for _ in range(2):
            model.fit(parts)
            runs.append((model.network_, model.audit_log_))
        assert runs[0][0] is not runs[1][0] and runs[0][1] is not runs[1][1]
        for network, audit in runs:
            assert network.messages_sent(kind) == per_fit
            assert len(audit.rounds) == 3 and audit.ok
