"""Tests for the paper's coalition-resistant secure summation protocol.

What the round engine owns (participant and value checks, the overflow
check before any message, the drain and audit discard of a failed
round) is tested here once for every scheme of :data:`SCHEMES`.
"""

import pickle

import numpy as np
import pytest

from repro.cluster.network import Network, NetworkError
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto import threshold_sum
from repro.crypto.secure_sum import SecureSumAggregator, SecureSummationProtocol
from repro.crypto.threshold_sum import ThresholdSummationProtocol
from repro.obs.audit import ProtocolAuditLog

#: Every scheme on the round engine: ``make(network, participant_ids,
#: **kwargs)`` builds one with reducer ``"red"``.
SCHEMES = {
    "fresh": lambda network, ids, **kw: SecureSummationProtocol(
        network, ids, "red", mode="fresh", **kw
    ),
    "prg": lambda network, ids, **kw: SecureSummationProtocol(
        network, ids, "red", mode="prg", **kw
    ),
    "threshold": lambda network, ids, **kw: ThresholdSummationProtocol(
        network, ids, "red", threshold=2, **kw
    ),
}


def make_protocol(n=4, mode="fresh", seed=0):
    network = Network()
    participants = [f"m{i}" for i in range(n)]
    protocol = SecureSummationProtocol(network, participants, "red", mode=mode, seed=seed)
    return network, participants, protocol


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["fresh", "prg"])
    def test_sum_is_exact_up_to_fixed_point(self, mode, rng):
        network, participants, protocol = make_protocol(mode=mode)
        values = {p: rng.normal(size=6) for p in participants}
        result = protocol.sum_vectors(values)
        np.testing.assert_allclose(result, sum(values.values()), atol=1e-9)

    def test_repeated_rounds(self, rng):
        _, participants, protocol = make_protocol()
        for _ in range(5):
            values = {p: rng.normal(size=3) for p in participants}
            result = protocol.sum_vectors(values)
            np.testing.assert_allclose(result, sum(values.values()), atol=1e-9)

    def test_two_participants_minimum(self, rng):
        _, participants, protocol = make_protocol(n=2)
        values = {p: rng.normal(size=4) for p in participants}
        np.testing.assert_allclose(
            protocol.sum_vectors(values), sum(values.values()), atol=1e-9
        )

    def test_negative_and_large_values(self):
        _, participants, protocol = make_protocol()
        values = {p: np.array([-1e6, 1e6, -0.001]) for p in participants}
        np.testing.assert_allclose(
            protocol.sum_vectors(values), 4 * values["m0"], atol=1e-6
        )


class TestBatchedNetting:
    """Each participant nets its pads in one batched modular sum."""

    # "packed": the codec's default 128-bit ring (two uint64 limbs);
    # "one-word": the trainer's 64-bit ring (native one-word kernels).
    @pytest.mark.parametrize(
        "ring",
        [{"modulus_bits": 128}, {"modulus_bits": 64}],
        ids=["packed", "one-word"],
    )
    @pytest.mark.parametrize("n_participants", [2, 3, 8])
    @pytest.mark.parametrize("mode", ["fresh", "prg"])
    def test_equals_plaintext_sum(self, mode, n_participants, ring, rng):
        participants = [f"m{i}" for i in range(n_participants)]
        codec = FixedPointCodec(max_terms=n_participants, **ring)
        protocol = SecureSummationProtocol(
            Network(), participants, "red", codec=codec, mode=mode, seed=1
        )
        for _ in range(2):
            values = {p: rng.normal(size=65) * 10.0 for p in participants}
            result = protocol.sum_vectors(values)
            # Each term rounds by at most 2^-41; the sum is exact mod q.
            np.testing.assert_allclose(
                result, sum(values.values()), rtol=0, atol=n_participants * 2.0**-40
            )

    def test_one_draw_send_and_audit_per_mask(self, rng):
        m = 8
        audit = ProtocolAuditLog()
        network = Network()
        participants = [f"m{i}" for i in range(m)]
        protocol = SecureSummationProtocol(network, participants, "red", seed=2, audit=audit)
        protocol.sum_vectors({p: rng.normal(size=5) for p in participants})
        assert network.messages_sent("mask") == m * (m - 1)
        assert network.metrics.get("crypto.masks_generated") == m * (m - 1)
        (record,) = audit.rounds
        assert sum(record.masks_applied.values()) == m * (m - 1)
        assert sum(record.masks_removed.values()) == m * (m - 1)
        assert record.ok

    # "odd-width-96": a ring that is not a whole number of words, whose
    # top limb the masks and the netting cut to 32 bits.
    @pytest.mark.parametrize(
        "codec_kwargs",
        [{"modulus_bits": 64}, {"modulus_bits": 96}],
        ids=["one-word-64", "odd-width-96"],
    )
    @pytest.mark.parametrize("mode", ["fresh", "prg"])
    def test_one_word_and_odd_rings_equal_plaintext(self, mode, codec_kwargs, rng):
        participants = [f"m{i}" for i in range(5)]
        codec = FixedPointCodec(max_terms=5, **codec_kwargs)
        protocol = SecureSummationProtocol(
            Network(), participants, "red", codec=codec, mode=mode, seed=3
        )
        values = {p: rng.normal(size=65) * 10.0 for p in participants}
        np.testing.assert_allclose(
            protocol.sum_vectors(values), sum(values.values()), rtol=0, atol=5 * 2.0**-40
        )

    def test_one_encode_per_round_and_one_call_per_mask(self, rng, monkeypatch):
        m = 6
        calls = {"encode_array": 0, "random_vector_array": 0, "send": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(FixedPointCodec, "encode_array")
        counting(FixedPointCodec, "random_vector_array")
        counting(Network, "send")
        participants = [f"m{i}" for i in range(m)]
        codec = FixedPointCodec(modulus_bits=64, max_terms=m)
        protocol = SecureSummationProtocol(Network(), participants, "red", codec=codec, seed=6)
        protocol.sum_vectors({p: rng.normal(size=9) for p in participants})
        assert calls == {
            "encode_array": 1,
            "random_vector_array": m * (m - 1),
            "send": m * (m - 1) + m,
        }

    def test_overflow_raises_before_any_mask_is_drawn(self, monkeypatch):
        # The engine encodes every input before the scheme draws a mask
        # or a share coefficient, so nothing reaches the wire.
        def no_draws(*args, **kwargs):
            raise AssertionError("randomness was drawn before the overflow check")

        monkeypatch.setattr(FixedPointCodec, "random_vector_array", no_draws)
        monkeypatch.setattr(threshold_sum, "shamir_share", no_draws)
        participants = [f"m{i}" for i in range(4)]
        for name, make in SCHEMES.items():
            network = Network()
            codec = FixedPointCodec(modulus_bits=64, max_terms=4)
            protocol = make(network, participants, codec=codec, seed=7)
            sent_at_setup = len(network.message_log)  # prg: the seed exchange
            values = {p: np.zeros(3) for p in participants}
            values["m3"] = np.array([0.0, 2.0 * codec.max_magnitude, 0.0])
            with pytest.raises(OverflowError, match="overflow-safe bound"):
                protocol.sum_vectors(values)
            assert len(network.message_log) == sent_at_setup, name

    def test_dropped_mask_still_flagged_by_audit(self, rng):
        audit = ProtocolAuditLog()
        participants = [f"m{i}" for i in range(8)]
        protocol = SecureSummationProtocol(
            Network(), participants, "red", seed=4, audit=audit
        )
        values = {p: rng.normal(size=7) for p in participants}
        protocol._audit_fault = ("m5", "m2")
        corrupted = protocol.sum_vectors(values)
        assert not np.allclose(corrupted, sum(values.values()), atol=1e-6)
        (record,) = audit.rounds
        assert not record.ok
        assert {v.rule for v in record.violations} == {"mask-balance"}
        assert record.masks_removed[("m2", "m5")] == 0  # (receiver, src)


class TestProtocolShape:
    def test_fresh_mode_mask_traffic(self):
        network, participants, protocol = make_protocol(n=4)
        values = {p: np.ones(2) for p in participants}
        protocol.sum_vectors(values)
        # M(M-1) mask messages + M shares.
        assert network.messages_sent("mask") == 12
        assert network.messages_sent("masked-share") == 4

    def test_prg_mode_no_mask_traffic_after_setup(self):
        network, participants, protocol = make_protocol(n=4, mode="prg")
        seed_msgs = network.messages_sent("mask-seed")
        assert seed_msgs == 6  # C(4,2) one-time seed exchanges
        for _ in range(3):
            protocol.sum_vectors({p: np.ones(2) for p in participants})
        assert network.messages_sent("mask") == 0
        assert network.messages_sent("mask-seed") == seed_msgs

    def test_reducer_sees_only_shares(self):
        network, participants, protocol = make_protocol()
        protocol.sum_vectors({p: np.ones(2) for p in participants})
        to_reducer = [m for m in network.message_log if m.dst == "red"]
        assert all(m.kind == "masked-share" for m in to_reducer)

    def test_crypto_counters(self):
        network, participants, protocol = make_protocol(n=3)
        protocol.sum_vectors({p: np.ones(2) for p in participants})
        assert network.metrics.get("crypto.masks_generated") == 6
        assert network.metrics.get("crypto.masked_shares_sent") == 3
        assert network.metrics.get("crypto.secure_sum_rounds") == 1


    @pytest.mark.parametrize(
        "ring",
        [{"modulus_bits": 64}, {"modulus_bits": 128}],
        ids=["one-word-64", "packed-128"],
    )
    def test_masks_and_shares_keep_their_pickled_wire_size(self, ring, rng):
        m = 4
        participants = [f"m{i}" for i in range(m)]
        network = Network()
        codec = FixedPointCodec(max_terms=m, **ring)
        protocol = SecureSummationProtocol(network, participants, "red", codec=codec, seed=4)
        values = {p: rng.normal(size=600) for p in participants}
        np.testing.assert_allclose(
            protocol.sum_vectors(values), sum(values.values()), rtol=0, atol=m * 2.0**-40
        )
        wire = [msg for msg in network.message_log if msg.kind in ("mask", "masked-share")]
        assert len(wire) == m * (m - 1) + m
        for msg in wire:
            assert msg.size_bytes == len(pickle.dumps(msg.payload, pickle.HIGHEST_PROTOCOL))
            # Limb payloads arrive as read-only copies.
            assert not msg.payload.limbs.flags.writeable
        assert network.bytes_sent() == sum(msg.size_bytes for msg in network.message_log)


class TestMaskingHidesValues:
    def test_shares_decode_to_garbage(self):
        network, participants, protocol = make_protocol()
        secret = {p: np.full(3, 7.0) for p in participants}
        protocol.sum_vectors(secret)
        codec = protocol.codec
        for message in network.message_log:
            if message.kind == "masked-share":
                decoded = codec.decode(message.payload)
                # A masked share should decode to astronomically large
                # junk, never to anything near the true value 7.
                assert np.all(np.abs(decoded - 7.0) > 1e6)

    def test_same_input_different_shares_across_rounds(self):
        network, participants, protocol = make_protocol()
        values = {p: np.ones(2) for p in participants}
        protocol.sum_vectors(values)
        protocol.sum_vectors(values)
        shares = [m.payload for m in network.message_log if m.kind == "masked-share"]
        assert shares[0] != shares[4]  # fresh masks each round

    @pytest.mark.parametrize("mode", ["fresh", "prg"])
    def test_protocol_is_reproducible_from_seed(self, mode):
        # Regression: prg-mode pair RNGs were built with
        # np.random.default_rng directly; routing them through
        # repro.utils.rng.as_rng must leave the seeded pad streams (and
        # therefore the exact wire view) byte-for-byte reproducible.
        def wire_view():
            network, participants, protocol = make_protocol(n=3, mode=mode)
            values = {p: np.arange(2, dtype=float) for p in participants}
            total = protocol.sum_vectors(values)
            shares = [
                m.payload for m in network.message_log if m.kind == "masked-share"
            ]
            return total, shares

        total_a, shares_a = wire_view()
        total_b, shares_b = wire_view()
        np.testing.assert_allclose(total_a, total_b)
        assert shares_a == shares_b


class TestFailedRound:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_overflowing_round_leaves_no_audit_round_open(self, scheme, rng):
        # The overflow propagates unchanged, and the next round runs
        # with a clean audit instead of raising "never closed".
        audit = ProtocolAuditLog()
        participants = [f"m{i}" for i in range(3)]
        codec = FixedPointCodec(modulus_bits=64, max_terms=3)
        protocol = SCHEMES[scheme](Network(), participants, codec=codec, seed=0, audit=audit)
        values = {p: rng.normal(size=4) for p in participants}
        values["m2"] = np.full(4, 2.0 * codec.max_magnitude)
        with pytest.raises(OverflowError, match="overflow-safe bound"):
            protocol.sum_vectors(values)
        values["m2"] = rng.normal(size=4)
        np.testing.assert_allclose(
            protocol.sum_vectors(values), sum(values.values()), atol=1e-9
        )
        assert audit.ok
        assert [r.protocol for r in audit.rounds] == [protocol.audit_name]

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_round_with_a_failed_node_leaves_no_message_behind(self, scheme, rng):
        # m0's first message to m1 is already queued when the send to
        # the failed m2 raises; the next round must not consume it.
        audit = ProtocolAuditLog()
        network = Network()
        participants = [f"m{i}" for i in range(3)]
        protocol = SCHEMES[scheme](network, participants, seed=0, audit=audit)
        values = {p: rng.normal(size=4) for p in participants}
        network.fail_node("m2")
        with pytest.raises(NetworkError, match="m2"):
            protocol.sum_vectors(values)
        network.recover_node("m2")
        for node in [*participants, "red"]:
            for kind in protocol.message_kinds:
                assert network.pending(node, kind) == 0
        np.testing.assert_allclose(
            protocol.sum_vectors(values), sum(values.values()), atol=1e-9
        )
        assert audit.ok
        assert [r.protocol for r in audit.rounds] == [protocol.audit_name]


class TestValidation:
    def test_needs_two_participants(self):
        for name, make in SCHEMES.items():
            with pytest.raises(ValueError, match="at least 2 participants"):
                make(Network(), ["only"])
            with pytest.raises(ValueError, match="at least 2 participants"):
                make(Network(), [])

    def test_duplicate_participants(self):
        for make in SCHEMES.values():
            with pytest.raises(ValueError, match="unique"):
                make(Network(), ["a", "a"])

    def test_reducer_cannot_participate(self):
        for make in SCHEMES.values():
            with pytest.raises(ValueError, match="reducer"):
                make(Network(), ["a", "red"])

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SecureSummationProtocol(Network(), ["a", "b"], "red", mode="magic")

    def test_wrong_participant_set(self):
        for make in SCHEMES.values():
            protocol = make(Network(), ["m0", "m1", "m2"])
            with pytest.raises(ValueError, match="cover exactly"):
                protocol.sum_vectors({"m0": np.ones(2)})

    def test_mismatched_lengths(self):
        for make in SCHEMES.values():
            protocol = make(Network(), ["m0", "m1"])
            with pytest.raises(ValueError, match="length"):
                protocol.sum_vectors({"m0": np.ones(2), "m1": np.ones(3)})


class TestAggregator:
    def test_sums_named_outputs(self, rng):
        network = Network()
        network.register("red")
        outputs = {
            f"m{i}": {"w": rng.normal(size=4), "b": np.array([float(i)])} for i in range(3)
        }
        for node in outputs:
            network.register(node)
        aggregator = SecureSumAggregator(seed=0)
        sums = aggregator.aggregate(outputs, "red", network)
        np.testing.assert_allclose(
            sums["w"], sum(o["w"] for o in outputs.values()), atol=1e-9
        )
        assert sums["b"][0] == pytest.approx(3.0, abs=1e-9)

    def test_preserves_shapes(self, rng):
        network = Network()
        outputs = {f"m{i}": {"mat": rng.normal(size=(2, 3))} for i in range(2)}
        aggregator = SecureSumAggregator(seed=0)
        sums = aggregator.aggregate(outputs, "red", network)
        assert sums["mat"].shape == (2, 3)

    def test_rejects_inconsistent_keys(self, rng):
        network = Network()
        outputs = {"m0": {"a": np.ones(2)}, "m1": {"b": np.ones(2)}}
        aggregator = SecureSumAggregator(seed=0)
        with pytest.raises(ValueError, match="keys"):
            aggregator.aggregate(outputs, "red", network)

    def test_custom_codec_used(self, rng):
        network = Network()
        codec = FixedPointCodec(fractional_bits=20, max_terms=8)
        outputs = {f"m{i}": {"v": rng.normal(size=3)} for i in range(2)}
        aggregator = SecureSumAggregator(codec=codec, seed=0)
        sums = aggregator.aggregate(outputs, "red", network)
        expected = sum(o["v"] for o in outputs.values())
        np.testing.assert_allclose(sums["v"], expected, atol=2 * 2.0**-20)
