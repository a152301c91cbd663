"""Tests for the dropout-robust (Shamir-based) secure summation.

The round engine's own checks (participants, values, overflow, failed
rounds) are tested for every scheme in ``test_crypto_secure_sum.py``.
"""

import itertools

import numpy as np
import pytest

from repro.cluster.network import Network, NetworkError
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.crypto.secret_sharing import (
    SHARE_PRIMES,
    planes_to_words,
    shamir_reconstruct,
)
from repro.crypto.secure_sum import SecureSumAggregator, SecureSummationProtocol
from repro.crypto.threshold_sum import (
    RingWidthError,
    ThresholdSumAggregator,
    ThresholdSummationProtocol,
)
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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_survivor_set_returns_the_codec_sum_exactly(self, n):
        # Values up to 0.99 of the bound: the sum of all n inputs nears
        # 2^63 in the 64-bit word, where the CRT lift must stay exact.
        rng = np.random.default_rng(n)
        participants = [f"m{i}" for i in range(n)]
        for threshold in range(2, n + 1):
            protocol = ThresholdSummationProtocol(
                Network(keep_log=False), participants, "red", threshold=threshold, seed=n
            )
            codec = protocol.codec
            bound = 0.99 * codec.max_magnitude
            values = {p: rng.uniform(-bound, bound, size=8) for p in participants}
            values[participants[0]][:2] = [bound, -bound]
            expected = codec.decode(
                codec.sum_arrays([codec.encode_array(v) for v in values.values()])
            )
            for k in range(threshold, n + 1):
                for alive in itertools.combinations(participants, k):
                    dropouts = set(participants) - set(alive)
                    result = protocol.sum_vectors(values, dropouts=dropouts)
                    assert np.array_equal(result, expected), (threshold, alive)

    def test_codec_is_the_trainers_one_word_ring(self):
        _, _, protocol = make_protocol(n=8, threshold=5)
        codec = protocol.codec
        assert (codec.fractional_bits, codec.modulus_bits, codec.max_terms) == (40, 64, 8)
        assert codec.max_magnitude == 2.0**23 / 8


class TestRobustnessLimits:
    def test_needs_two_participants(self):
        with pytest.raises(ValueError, match="at least 2 participants"):
            ThresholdSummationProtocol(Network(), ["only"], "red")
        with pytest.raises(ValueError, match="at least 2 participants"):
            ThresholdSummationProtocol(Network(), [], "red")

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

    @pytest.mark.parametrize("bits", [128, 48])
    def test_codec_off_one_word_rejected_at_construction(self, bits):
        # The residue planes lift back to one 64-bit word, so any other
        # ring is refused before a node is registered.
        network = Network()
        codec = FixedPointCodec(20, bits, max_terms=3)
        with pytest.raises(RingWidthError, match=f"ring is {bits} bits"):
            ThresholdSummationProtocol(network, ["a", "b", "c"], "r", codec=codec)
        assert network.node_ids == []

    def test_given_codec_is_used(self, rng):
        codec = FixedPointCodec(20, 64, max_terms=3)
        protocol = ThresholdSummationProtocol(Network(), ["a", "b", "c"], "r", codec=codec)
        assert protocol.codec is codec
        values = {p: rng.normal(size=4) for p in ("a", "b", "c")}
        total = sum(codec.decode(codec.encode_array(v)) for v in values.values())
        assert np.array_equal(protocol.sum_vectors(values), total)

    @pytest.mark.parametrize("keys", [("s",), ("s", "t", "u")], ids=["missing", "extra"])
    @pytest.mark.parametrize(
        "make_aggregator",
        [lambda: ThresholdSumAggregator(threshold=2, seed=0), lambda: SecureSumAggregator(seed=0)],
        ids=["threshold", "fresh"],
    )
    def test_mapper_with_other_keys_rejected(self, make_aggregator, keys):
        # Both aggregators refuse map outputs whose names differ, naming
        # the mapper, before any message is sent.
        network = Network()
        outputs = {f"m{i}": {"s": np.ones(2), "t": np.ones(1)} for i in range(3)}
        outputs["m1"] = {key: np.ones(2) for key in keys}
        with pytest.raises(ValueError, match="mapper 'm1' produced keys"):
            make_aggregator().aggregate(outputs, "red", network)
        assert network.messages_sent() == 0

    def test_value_past_the_bound_sends_nothing(self):
        network, participants, protocol = make_protocol(n=4, threshold=3)
        values = {p: np.zeros(3) for p in participants}
        values["m2"][1] = -protocol.codec.max_magnitude
        with pytest.raises(OverflowError, match="overflow-safe bound"):
            protocol.sum_vectors(values)
        assert network.messages_sent() == 0


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
        # A single peer-to-peer share lifts and decodes to garbage.
        peer_shares = [m for m in network.message_log if m.kind == "threshold-share"]
        words = planes_to_words(peer_shares[0].payload.astype(np.uint64))
        decoded = protocol.codec.decode(ResidueVector(words.reshape(-1, 1), 2**64))
        assert np.max(np.abs(decoded - 5.0)) > 1e6

    def test_share_planes_are_uniform_per_prime(self):
        # Like share_uniformity_statistic: the top byte of each residue
        # (its value scaled to [0, 256) by its prime), chi-squared per
        # degree of freedom, ~1 for uniform planes.  Every input is the
        # same constant, so any leak of the secret would concentrate mass.
        network, participants, protocol = make_protocol(n=5, threshold=3)
        protocol.sum_vectors({p: np.full(1000, 5.0) for p in participants})
        planes = np.concatenate(
            [m.payload for m in network.message_log if m.kind == "threshold-share"]
        )
        assert planes.shape == (20 * 1000, 3)
        for column, prime in enumerate(SHARE_PRIMES):
            top = planes[:, column].astype(np.uint64) * np.uint64(256) // np.uint64(prime)
            counts = np.bincount(top.astype(np.int64), minlength=256)
            expected = len(top) / 256.0
            stat = float(np.sum((counts - expected) ** 2 / expected)) / 255.0
            assert 0.7 < stat < 1.4, (prime, stat)

    def test_below_threshold_shares_insufficient(self, rng):
        # threshold-1 aggregated shares interpolate the wrong value.
        network, participants, protocol = make_protocol(n=4, threshold=3)
        values = {p: rng.normal(size=1) for p in participants}
        expected = float(sum(values.values())[0])
        protocol.sum_vectors(values)
        agg = [m.payload for m in network.message_log if m.kind == "threshold-agg-share"]

        def interpolate(chosen):
            planes = shamir_reconstruct(
                [x for x, _ in chosen], np.stack([share for _, share in chosen])
            )
            words = planes_to_words(planes).reshape(-1, 1)
            return float(protocol.codec.decode(ResidueVector(words, 2**64))[0])

        assert interpolate(agg[:3]) == pytest.approx(expected, abs=1e-9)
        assert abs(interpolate(agg[:2]) - expected) > 1e-6  # only 2 of 3


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

    def test_wire_form_is_uint32_planes(self, rng):
        # M(M-1) peer shares and one aggregated share per survivor, each
        # a (n, 3) uint32 plane; 600 elements cost ~7.3 kB a share.
        network, participants, protocol = make_protocol(n=8, threshold=5)
        values = {p: rng.normal(size=600) for p in participants}
        protocol.sum_vectors(values, dropouts={"m1", "m6"})
        shares = [m for m in network.message_log if m.kind == "threshold-share"]
        agg = [m for m in network.message_log if m.kind == "threshold-agg-share"]
        assert len(shares) == 8 * 7
        assert [m.src for m in agg] == [p for p in participants if p not in {"m1", "m6"}]
        for message in shares:
            assert message.payload.dtype == np.uint32
            assert message.payload.shape == (600, 3)
            assert 600 * 3 * 4 < message.size_bytes <= 7400
        for message in agg:
            assert message.payload[1].dtype == np.uint32
            assert message.payload[1].shape == (600, 3)
        assert network.metrics.get("crypto.shamir_shares_generated") == 8 * 8 * 600
