"""Tests for the Section V security analyses: adversary views, coalition
attacks, masked-share uniformity, and the kernel linear-system attack."""

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.core.partitioning import horizontal_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.secure_sum import SecureSummationProtocol
from repro.security.adversary import coalition_view, eavesdropper_view, reducer_view
from repro.security.analysis import (
    coalition_recovery_attempt,
    kernel_linear_system_attack,
    plaintext_leak_check,
    share_uniformity_statistic,
)


@pytest.fixture
def protocol_run(rng):
    """One secure-sum round with known inputs, plus its network."""
    network = Network()
    participants = [f"m{i}" for i in range(4)]
    protocol = SecureSummationProtocol(network, participants, "reducer", seed=3)
    values = {p: rng.normal(size=5) for p in participants}
    total = protocol.sum_vectors(values)
    return network, participants, protocol, values, total


class TestAdversaryViews:
    def test_reducer_view_only_incoming(self, protocol_run):
        network, *_ = protocol_run
        view = reducer_view(network)
        assert all(m.dst == "reducer" for m in view.messages)
        assert all(m.kind == "masked-share" for m in view.messages)

    def test_eavesdropper_sees_everything(self, protocol_run):
        network, *_ = protocol_run
        view = eavesdropper_view(network)
        assert len(view.messages) == len(network.message_log)

    def test_coalition_view_includes_member_traffic(self, protocol_run):
        network, participants, *_ = protocol_run
        view = coalition_view(network, ["m0"])
        assert any(m.src == "m0" and m.kind == "mask" for m in view.messages)
        assert any(m.dst == "m0" and m.kind == "mask" for m in view.messages)

    def test_view_helpers(self, protocol_run):
        network, *_ = protocol_run
        view = eavesdropper_view(network)
        assert len(view.of_kind("masked-share")) == 4
        assert len(view.sent_by("m0", "mask")) == 3
        assert len(view.received_by("reducer")) == 4

    def test_no_log_raises(self):
        network = Network(keep_log=False)
        with pytest.raises(ValueError, match="keep_log"):
            reducer_view(network)


class TestCoalitionRecovery:
    def test_full_coalition_recovers_exactly(self, protocol_run):
        # Reducer + every other mapper corrupted: recovery succeeds (and
        # is unavoidable — the sum minus their own inputs reveals it).
        network, participants, protocol, values, _ = protocol_run
        view = coalition_view(network, ["m1", "m2", "m3"])
        result = coalition_recovery_attempt(view, "m0", participants, protocol.codec)
        assert result.residual_masks_unknown == 0
        np.testing.assert_allclose(result.estimate, values["m0"], atol=1e-9)

    def test_partial_coalition_learns_nothing(self, protocol_run):
        # Two honest mappers remain: the m0<->m1 pads survive and the
        # estimate is one-time-padded garbage.
        network, participants, protocol, values, _ = protocol_run
        view = coalition_view(network, ["m2", "m3"])
        result = coalition_recovery_attempt(view, "m0", participants, protocol.codec)
        assert result.residual_masks_unknown == 2
        assert np.max(np.abs(result.estimate - values["m0"])) > 1e6

    def test_reducer_alone_learns_nothing(self, protocol_run):
        network, participants, protocol, values, _ = protocol_run
        view = reducer_view(network)
        result = coalition_recovery_attempt(view, "m0", participants, protocol.codec)
        assert result.residual_masks_unknown == 6
        assert np.max(np.abs(result.estimate - values["m0"])) > 1e6

    def test_target_must_be_honest(self, protocol_run):
        network, participants, protocol, *_ = protocol_run
        view = coalition_view(network, ["m0"])
        with pytest.raises(ValueError, match="honest"):
            coalition_recovery_attempt(view, "m0", participants, protocol.codec)

    def test_codec_of_another_ring_is_rejected(self, rng):
        # A 64-bit run attacked with the 128-bit default codec used to
        # decode to a wrong estimate (~1.7e7 for a value near 0.1); the
        # netting now checks the wire's ring and refuses.
        network = Network()
        participants = ["a", "b", "c"]
        codec = FixedPointCodec(modulus_bits=64, max_terms=3)
        protocol = SecureSummationProtocol(
            network, participants, "reducer", codec=codec, seed=5
        )
        values = {p: rng.normal(size=2) for p in participants}
        protocol.sum_vectors(values)
        view = coalition_view(network, ["b", "c"])
        with pytest.raises(ValueError, match="modulus"):
            coalition_recovery_attempt(view, "a", participants, FixedPointCodec())
        result = coalition_recovery_attempt(view, "a", participants, codec)
        np.testing.assert_allclose(result.estimate, values["a"], atol=1e-9)

    def test_multi_round_attack_targets_chosen_round(self, rng):
        network = Network()
        participants = ["a", "b", "c"]
        protocol = SecureSummationProtocol(network, participants, "reducer", seed=5)
        round_values = []
        for _ in range(3):
            values = {p: rng.normal(size=2) for p in participants}
            round_values.append(values)
            protocol.sum_vectors(values)
        view = coalition_view(network, ["b", "c"])
        for round_index in range(3):
            result = coalition_recovery_attempt(
                view, "a", participants, protocol.codec, round_index=round_index
            )
            np.testing.assert_allclose(
                result.estimate, round_values[round_index]["a"], atol=1e-9
            )


class TestUniformityAndLeak:
    def test_masked_shares_look_uniform(self, protocol_run):
        network, _, protocol, *_ = protocol_run
        stat = share_uniformity_statistic(reducer_view(network), protocol.codec)
        # Chi-squared per dof for 20 residues is noisy but should not be
        # wildly concentrated (a plaintext leak gives values >> 10).
        assert stat < 10.0

    @pytest.mark.parametrize(
        "codec",
        [
            FixedPointCodec(modulus_bits=128),
            FixedPointCodec(modulus_bits=64),
        ],
        ids=["modulus-bits", "one-word-64"],
    )
    def test_uniformity_of_20k_shares_near_one(self, codec, rng):
        # The statistic reads the top byte of log2(q)-bit residues; a
        # shift off by one halves the byte range and reads ~80 on
        # perfectly uniform shares.
        network = Network()
        participants = [f"m{i}" for i in range(4)]
        protocol = SecureSummationProtocol(
            network, participants, "reducer", codec=codec, seed=5
        )
        protocol.sum_vectors({p: rng.normal(size=5000) for p in participants})
        stat = share_uniformity_statistic(reducer_view(network), codec)
        assert 0.7 < stat < 1.4

    def test_plaintext_aggregation_flagged(self, cancer_split):
        train, _ = cancer_split
        parts = horizontal_partition(train, 4, seed=0)
        model = PrivacyPreservingSVM("horizontal", max_iter=3, secure=False, seed=0).fit(parts)
        workers = model._variant.workers_
        view = reducer_view(model.network_)
        true_values = {
            f"learner-{i}": np.concatenate([np.array([w.b + w.beta]), w.w + w.gamma])
            for i, w in enumerate(workers)
        }
        errors = plaintext_leak_check(view, true_values)
        # The final iteration's plaintext dict is in the reducer's view.
        assert min(errors.values()) < 1e-9

    def test_secure_aggregation_not_flagged(self, cancer_split):
        train, _ = cancer_split
        parts = horizontal_partition(train, 4, seed=0)
        model = PrivacyPreservingSVM("horizontal", max_iter=3, secure=True, seed=0).fit(parts)
        workers = model._variant.workers_
        view = reducer_view(model.network_)
        true_values = {
            f"learner-{i}": np.concatenate([np.array([w.b + w.beta]), w.w + w.gamma])
            for i, w in enumerate(workers)
        }
        errors = plaintext_leak_check(view, true_values)
        assert min(errors.values()) > 1.0

    def test_uniformity_requires_shares(self):
        network = Network()
        network.register("reducer")
        with pytest.raises(ValueError, match="no masked shares"):
            share_uniformity_statistic(reducer_view(network), FixedPointCodec())


class TestKernelAttack:
    def test_exact_recovery_with_enough_samples(self, rng):
        # The [8]/[29] attack: k independent kernel evaluations pin down
        # the secret point exactly.
        k = 6
        secret = rng.normal(size=k)
        known = rng.normal(size=(k + 3, k))
        kernel_row = known @ secret
        recovered = kernel_linear_system_attack(known, kernel_row)
        np.testing.assert_allclose(recovered, secret, atol=1e-8)

    def test_underdetermined_rejected(self, rng):
        with pytest.raises(ValueError, match="at least"):
            kernel_linear_system_attack(rng.normal(size=(3, 6)), rng.normal(size=3))

    def test_attack_does_not_apply_to_our_scheme(self, cancer_split):
        # Our trainers never materialize cross-learner kernel entries:
        # no message kind carrying kernel rows exists on the wire.
        train, _ = cancer_split
        parts = horizontal_partition(train, 4, seed=0)
        model = PrivacyPreservingSVM(
            "horizontal", max_iter=5, seed=0
        ).fit(parts)
        kinds = {m.kind for m in model.network_.message_log}
        assert kinds <= {"broadcast", "mask", "masked-share"}
