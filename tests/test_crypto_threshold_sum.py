"""Tests for the dropout-robust (Shamir-based) secure summation."""

import numpy as np
import pytest

from repro.cluster.network import Network, NetworkError
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.crypto.secret_sharing import MERSENNE_PRIME_127
from repro.crypto.secure_sum import SecureSummationProtocol
from repro.crypto.threshold_sum import ThresholdSummationProtocol
from repro.obs.audit import ProtocolAuditLog


def make_protocol(n=5, threshold=3, seed=0):
    network = Network()
    participants = [f"m{i}" for i in range(n)]
    protocol = ThresholdSummationProtocol(
        network, participants, "red", threshold=threshold, seed=seed
    )
    return network, participants, protocol


class TestCorrectness:
    def test_sum_without_dropouts(self, rng):
        _, participants, protocol = make_protocol()
        values = {p: rng.normal(size=6) for p in participants}
        result = protocol.sum_vectors(values)
        np.testing.assert_allclose(result, sum(values.values()), atol=1e-8)

    def test_sum_survives_dropouts(self, rng):
        _, participants, protocol = make_protocol(n=5, threshold=3)
        values = {p: rng.normal(size=4) for p in participants}
        result = protocol.sum_vectors(values, dropouts={"m0", "m4"})
        # Dropped mappers' inputs are STILL included (they shared first).
        np.testing.assert_allclose(result, sum(values.values()), atol=1e-8)

    def test_masking_protocol_cannot_survive_dropout(self, rng):
        # The contrast motivating this extension: simulate the paper's
        # protocol losing one masked share — the pads no longer cancel.
        network = Network()
        participants = [f"m{i}" for i in range(3)]
        protocol = SecureSummationProtocol(network, participants, "red", seed=0)
        values = {p: rng.normal(size=3) for p in participants}
        protocol.sum_vectors(values)
        shares = [m.payload for m in network.message_log if m.kind == "masked-share"]
        partial = protocol.codec.sum_arrays(shares[:-1])  # one mapper crashed
        decoded = protocol.codec.decode(partial)
        assert np.max(np.abs(decoded - sum(values.values()))) > 1e6

    def test_repeated_rounds(self, rng):
        _, participants, protocol = make_protocol()
        for round_idx in range(3):
            values = {p: rng.normal(size=3) for p in participants}
            result = protocol.sum_vectors(values)
            np.testing.assert_allclose(result, sum(values.values()), atol=1e-8)

    def test_default_threshold_majority(self):
        _, _, protocol = make_protocol(n=6, threshold=None)
        assert protocol.threshold == 4


class TestRobustnessLimits:
    def test_needs_two_participants(self):
        with pytest.raises(ValueError, match="at least 2 participants"):
            ThresholdSummationProtocol(Network(), ["only"], "red")
        with pytest.raises(ValueError, match="at least 2 participants"):
            ThresholdSummationProtocol(Network(), [], "red")

    def test_failed_round_leaves_no_audit_round_open(self, rng):
        # Only the last participant overflows: no share of the failed
        # round may reach a peer, and the audit starts the next round
        # clean instead of raising "never closed".
        audit = ProtocolAuditLog()
        network = Network()
        participants = [f"m{i}" for i in range(4)]
        protocol = ThresholdSummationProtocol(
            network, participants, "red", threshold=3, seed=0, audit=audit
        )
        values = {p: rng.normal(size=3) for p in participants}
        values["m3"] = np.full(3, 2.0 * protocol.codec.max_magnitude)
        with pytest.raises(OverflowError, match="overflow-safe bound"):
            protocol.sum_vectors(values)
        assert network.messages_sent() == 0
        values["m3"] = rng.normal(size=3)
        result = protocol.sum_vectors(values, dropouts={"m1"})
        np.testing.assert_allclose(result, sum(values.values()), atol=1e-8)
        assert audit.ok
        assert [r.protocol for r in audit.rounds] == ["threshold-sum"]

    def test_round_with_a_failed_node_leaves_no_share_behind(self, rng):
        # m0's share to m1 is already queued when the send to the failed
        # m2 raises; the next round must not add that stale share.
        audit = ProtocolAuditLog()
        network = Network()
        participants = [f"m{i}" for i in range(4)]
        protocol = ThresholdSummationProtocol(
            network, participants, "red", threshold=3, seed=0, audit=audit
        )
        values = {p: rng.normal(size=3) for p in participants}
        network.fail_node("m2")
        with pytest.raises(NetworkError, match="m2"):
            protocol.sum_vectors(values)
        network.recover_node("m2")
        for node in [*participants, "red"]:
            for kind in ("threshold-share", "threshold-agg-share"):
                assert network.pending(node, kind) == 0
        np.testing.assert_allclose(
            protocol.sum_vectors(values), sum(values.values()), atol=1e-8
        )
        assert audit.ok
        assert [r.protocol for r in audit.rounds] == ["threshold-sum"]

    def test_too_many_dropouts_rejected(self, rng):
        _, participants, protocol = make_protocol(n=5, threshold=4)
        values = {p: rng.normal(size=2) for p in participants}
        with pytest.raises(ValueError, match="threshold"):
            protocol.sum_vectors(values, dropouts={"m0", "m1"})

    def test_unknown_dropout_rejected(self, rng):
        _, participants, protocol = make_protocol()
        values = {p: rng.normal(size=2) for p in participants}
        with pytest.raises(ValueError, match="unknown dropout"):
            protocol.sum_vectors(values, dropouts={"ghost"})

    def test_invalid_threshold(self):
        network = Network()
        with pytest.raises(ValueError, match="threshold"):
            ThresholdSummationProtocol(network, ["a", "b", "c"], "r", threshold=5)

    def test_reducer_not_participant(self):
        with pytest.raises(ValueError, match="reducer"):
            ThresholdSummationProtocol(Network(), ["a", "r"], "r", threshold=2)

    def test_codec_field_mismatch(self):
        codec = FixedPointCodec()  # power-of-two modulus, not the prime
        with pytest.raises(ValueError, match="field"):
            ThresholdSummationProtocol(
                Network(), ["a", "b"], "r", threshold=2, codec=codec
            )


class TestPrivacyShape:
    def test_reducer_sees_only_aggregated_shares(self, rng):
        network, participants, protocol = make_protocol()
        values = {p: rng.normal(size=3) for p in participants}
        protocol.sum_vectors(values)
        to_reducer = [m for m in network.message_log if m.dst == "red"]
        assert all(m.kind == "threshold-agg-share" for m in to_reducer)

    def test_individual_shares_look_uniform(self, rng):
        network, participants, protocol = make_protocol()
        values = {p: np.full(3, 5.0) for p in participants}
        protocol.sum_vectors(values)
        # A single peer-to-peer share decodes to garbage.
        peer_shares = [m for m in network.message_log if m.kind == "threshold-share"]
        share = ResidueVector(np.array(peer_shares[0].payload, dtype=object), protocol.prime)
        decoded = protocol.codec.decode(share)
        assert np.max(np.abs(decoded - 5.0)) > 1e6

    def test_below_threshold_shares_insufficient(self, rng):
        # threshold-1 aggregated shares interpolate the wrong value.
        network, participants, protocol = make_protocol(n=4, threshold=3)
        values = {p: rng.normal(size=1) for p in participants}
        expected = float(sum(values.values())[0])
        protocol.sum_vectors(values)
        agg = [m.payload for m in network.message_log if m.kind == "threshold-agg-share"]
        from repro.crypto.secret_sharing import shamir_reconstruct

        points = [(x, shares[0]) for x, shares in agg[:2]]  # only 2 of 3
        secret = shamir_reconstruct(points, prime=protocol.prime)
        wrong = protocol.codec.decode(
            ResidueVector(np.array([secret], dtype=object), protocol.prime)
        )
        assert abs(float(wrong[0]) - expected) > 1e-6


class TestCost:
    def test_share_traffic_quadratic_in_m(self, rng):
        costs = {}
        for n in (3, 6):
            network, participants, protocol = make_protocol(n=n, threshold=2)
            values = {p: rng.normal(size=2) for p in participants}
            protocol.sum_vectors(values)
            costs[n] = network.messages_sent("threshold-share")
        assert costs[3] == 3 * 2
        assert costs[6] == 6 * 5
