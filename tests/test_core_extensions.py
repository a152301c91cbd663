"""Tests for the future-work extensions: secure feature selection,
partial participation, and dropout-robust training."""

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.core.feature_selection import (
    correlation_scores,
    secure_feature_selection,
)
from repro.core.horizontal_linear import HorizontalLinearSVM
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.threshold_sum import ThresholdSumAggregator
from repro.data.dataset import Dataset
from repro.data import StandardScaler, train_test_split
from repro.data.synthetic import make_blobs, make_cancer_like, make_ocr_like
from repro.utils.rng import as_rng


def redundant_dataset(n=240, seed=0):
    """A dataset whose last 4 features are pure noise (irrelevant)."""
    rng = as_rng(seed)
    core = make_blobs(n, 5, delta=3.5, seed=seed)
    noise = rng.standard_normal((n, 4))
    return Dataset(np.hstack([core.X, noise]), core.y, "redundant")


class TestCorrelationScores:
    def test_informative_features_score_higher(self):
        ds = redundant_dataset()
        scores = correlation_scores(ds.X, ds.y)
        assert scores[:5].min() > scores[5:].max()

    def test_constant_feature_scores_zero(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        y = np.array([1.0, -1.0] * 10)
        scores = correlation_scores(X, y)
        assert scores[0] == 0.0

    def test_scores_in_unit_interval(self, rng):
        X = rng.normal(size=(50, 6))
        y = np.sign(X[:, 0] + 0.1 * rng.normal(size=50))
        y[y == 0] = 1.0
        scores = correlation_scores(X, y)
        assert np.all((scores >= 0.0) & (scores <= 1.0))


class TestSecureFeatureSelection:
    def test_matches_centralized_exactly(self):
        ds = redundant_dataset()
        parts = horizontal_partition(ds, 4, seed=0)
        result = secure_feature_selection(parts, 5, seed=0)
        pooled_scores = correlation_scores(ds.X, ds.y)
        np.testing.assert_allclose(result.scores, pooled_scores, atol=1e-8)
        expected = np.sort(np.argsort(pooled_scores)[::-1][:5])
        np.testing.assert_array_equal(result.selected, expected)

    def test_selects_the_informative_features(self):
        ds = redundant_dataset()
        parts = horizontal_partition(ds, 3, seed=0)
        result = secure_feature_selection(parts, 5, seed=0)
        assert set(result.selected.tolist()) == {0, 1, 2, 3, 4}

    def test_projection_applies_to_all_learners(self):
        ds = redundant_dataset()
        parts = horizontal_partition(ds, 3, seed=0)
        result = secure_feature_selection(parts, 5, seed=0)
        projected = result.project(parts)
        assert all(p.n_features == 5 for p in projected)
        assert sum(p.n_samples for p in projected) == ds.n_samples

    def test_wire_is_masked(self):
        ds = redundant_dataset()
        parts = horizontal_partition(ds, 3, seed=0)
        network = Network()
        secure_feature_selection(parts, 5, network=network, seed=0)
        to_reducer = [m for m in network.message_log if m.dst == "fs-reducer"]
        assert to_reducer
        assert all(m.kind == "masked-share" for m in to_reducer)

    def test_selection_improves_downstream_training(self):
        from repro.data.splits import train_test_split

        ds = redundant_dataset(n=480, seed=3)
        train, test = train_test_split(ds, 0.5, seed=0)
        parts = horizontal_partition(train, 4, seed=0)
        result = secure_feature_selection(parts, 5, seed=0)
        trimmed = result.project(parts)
        full_model = HorizontalLinearSVM(max_iter=30).fit(parts)
        trimmed_model = HorizontalLinearSVM(max_iter=30).fit(trimmed)
        full_acc = full_model.score(test.X, test.y)
        trimmed_acc = trimmed_model.score(test.X[:, result.selected], test.y)
        assert trimmed_acc >= full_acc - 0.03

    def test_k_bounds(self):
        ds = redundant_dataset()
        parts = horizontal_partition(ds, 2, seed=0)
        with pytest.raises(ValueError, match="n_features"):
            secure_feature_selection(parts, 0)
        with pytest.raises(ValueError, match="n_features"):
            secure_feature_selection(parts, 99)

    def test_needs_two_learners(self):
        ds = redundant_dataset()
        with pytest.raises(ValueError, match="at least 2"):
            secure_feature_selection([ds], 3)


class TestPartialParticipation:
    @pytest.fixture
    def parts_and_test(self, cancer_split):
        train, test = cancer_split
        return horizontal_partition(train, 4, seed=0), test

    def test_full_participation_unchanged(self, parts_and_test):
        parts, _ = parts_and_test
        default = HorizontalLinearSVM(max_iter=15).fit(parts)
        explicit = HorizontalLinearSVM(max_iter=15, participation=1.0).fit(parts)
        np.testing.assert_array_equal(
            default.consensus_weights_, explicit.consensus_weights_
        )

    def test_half_participation_still_accurate(self, parts_and_test):
        parts, test = parts_and_test
        model = HorizontalLinearSVM(max_iter=80, participation=0.5, seed=0).fit(parts)
        assert model.score(test.X, test.y) > 0.88

    def test_quarter_participation_converges(self, parts_and_test):
        parts, _ = parts_and_test
        model = HorizontalLinearSVM(max_iter=80, participation=0.25, seed=0).fit(parts)
        z = model.history_.z_changes
        assert z[-1] < z[0] * 1e-2

    def test_first_iteration_everyone_participates(self, parts_and_test):
        parts, _ = parts_and_test
        model = HorizontalLinearSVM(max_iter=1, participation=0.25, seed=0).fit(parts)
        assert all(w.last_qp is not None for w in model.workers_)

    def test_invalid_participation(self):
        with pytest.raises(ValueError, match="participation"):
            HorizontalLinearSVM(participation=0.0)
        with pytest.raises(ValueError, match="participation"):
            HorizontalLinearSVM(participation=1.5)


class TestThresholdAggregatorTraining:
    def test_matches_masking_aggregation(self, cancer_split):
        train, _ = cancer_split
        parts = horizontal_partition(train, 4, seed=0)
        masked = PrivacyPreservingSVM("horizontal", max_iter=8, seed=0).fit(parts)
        robust = PrivacyPreservingSVM(
            "horizontal",
            max_iter=8,
            seed=0,
            aggregator=ThresholdSumAggregator(threshold=3, seed=0),
        ).fit(parts)
        np.testing.assert_allclose(masked._variant.reducer_.z, robust._variant.reducer_.z, atol=1e-8)

    def test_training_survives_scheduled_dropout(self, cancer_split):
        # One mapper crashes (after sharing) on iterations 3 and 5 — the
        # consensus still forms from the surviving aggregated shares.
        train, test = cancer_split
        parts = horizontal_partition(train, 4, seed=0)
        schedule = {3: {"learner-1"}, 5: {"learner-2"}}
        model = PrivacyPreservingSVM(
            "horizontal",
            max_iter=10,
            seed=0,
            aggregator=ThresholdSumAggregator(threshold=3, seed=0, dropout_schedule=schedule),
        ).fit(parts)
        reference = PrivacyPreservingSVM("horizontal", max_iter=10, seed=0).fit(parts)
        np.testing.assert_allclose(model._variant.reducer_.z, reference._variant.reducer_.z, atol=1e-8)
        assert model.score(test.X, test.y) > 0.85

    @pytest.mark.parametrize(
        "partitioning, split",
        [("horizontal", horizontal_partition), ("vertical", vertical_partition)],
        ids=["h-lin", "v-lin"],
    )
    def test_scores_equal_the_fresh_fit_exactly(self, partitioning, split):
        # Both aggregators decode the same one-word fixed-point sum, so
        # a threshold fit with dropouts scores exactly like a fresh one
        # (160 standardized OCR-like rows split 50/50, 4 learners).
        train, test = train_test_split(make_ocr_like(160, seed=0), 0.5, seed=1)
        scaler = StandardScaler().fit(train.X)
        train, test = scaler.transform_dataset(train), scaler.transform_dataset(test)
        parts = split(train, 4, seed=1)
        config = dict(C=50.0, rho=100.0, max_iter=10, seed=1, on_health="ignore")
        fresh = PrivacyPreservingSVM(partitioning, **config).fit(parts)
        schedule = {3: {"learner-1"}, 5: {"learner-2"}}
        robust = PrivacyPreservingSVM(
            partitioning,
            aggregator=ThresholdSumAggregator(threshold=3, seed=1, dropout_schedule=schedule),
            **config,
        ).fit(parts)
        assert robust.network_.messages_sent("threshold-agg-share") == 10 * 4 - 2
        assert np.array_equal(
            robust.decision_function(test.X), fresh.decision_function(test.X)
        )

    def test_fractional_bits_reach_the_threshold_codec(self):
        # The trainer hands its codec to a threshold aggregator built
        # without one, so a 20-bit threshold fit decodes the same sums
        # as a 20-bit fresh fit and scores exactly like it.
        train, test = train_test_split(make_ocr_like(160, seed=0), 0.5, seed=1)
        scaler = StandardScaler().fit(train.X)
        train, test = scaler.transform_dataset(train), scaler.transform_dataset(test)
        parts = horizontal_partition(train, 4, seed=1)
        config = dict(C=50.0, rho=100.0, max_iter=10, seed=1, on_health="ignore", fractional_bits=20)
        fresh = PrivacyPreservingSVM("horizontal", **config).fit(parts)
        aggregator = ThresholdSumAggregator(threshold=3, seed=1)
        robust = PrivacyPreservingSVM("horizontal", aggregator=aggregator, **config).fit(parts)
        assert aggregator.codec.fractional_bits == 20
        assert np.array_equal(
            robust.decision_function(test.X), fresh.decision_function(test.X)
        )
        default = PrivacyPreservingSVM(
            "horizontal",
            aggregator=ThresholdSumAggregator(threshold=3, seed=1),
            **{**config, "fractional_bits": 40},
        ).fit(parts)
        assert not np.array_equal(
            default.decision_function(test.X), fresh.decision_function(test.X)
        )
