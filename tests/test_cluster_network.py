"""Unit tests for the simulated network and metric registry."""

import pickle
import time

import numpy as np
import pytest

import repro.cluster.network as network_module
from repro.cluster.metrics import MetricRegistry
from repro.cluster.network import LatencyModel, Message, Network, NetworkError
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from tests.test_crypto_fixed_point_vectorized import CODEC_CONFIGS


class TestMetricRegistry:
    def test_missing_counter_is_zero(self):
        assert MetricRegistry().get("nope") == 0.0

    def test_increment_accumulates(self):
        m = MetricRegistry()
        m.increment("a", 2)
        m.increment("a", 3)
        assert m.get("a") == 5.0

    def test_default_increment_is_one(self):
        m = MetricRegistry()
        m.increment("x")
        assert m.get("x") == 1.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="monotonic"):
            MetricRegistry().increment("a", -1)

    def test_prefix_filter(self):
        m = MetricRegistry()
        m.increment("net.bytes", 10)
        m.increment("net.msgs", 2)
        m.increment("other", 1)
        assert set(m.with_prefix("net.")) == {"net.bytes", "net.msgs"}

    def test_reset(self):
        m = MetricRegistry()
        m.increment("a", 5)
        m.reset()
        assert m.get("a") == 0.0

    def test_items_is_a_live_view(self):
        m = MetricRegistry()
        m.increment("a.b", 2)
        view = m.items()
        m.increment("a.b", 3)
        m.increment("c.d", 1.5)
        assert dict(view) == {"a.b": 5, "c.d": 1.5}
        assert dict(view) == m.as_dict()


class TestNetworkBasics:
    def test_send_receive_roundtrip(self, network):
        network.register("a")
        network.register("b")
        network.send("a", "b", {"v": 1})
        assert network.receive("b") == {"v": 1}

    def test_fifo_order_per_kind(self, network):
        network.register("a")
        network.register("b")
        for i in range(3):
            network.send("a", "b", i, kind="k")
        assert [network.receive("b", "k") for _ in range(3)] == [0, 1, 2]

    def test_kinds_are_separate_queues(self, network):
        network.register("a")
        network.register("b")
        network.send("a", "b", "first", kind="x")
        network.send("a", "b", "second", kind="y")
        assert network.receive("b", "y") == "second"
        assert network.receive("b", "x") == "first"

    def test_unknown_sender_rejected(self, network):
        network.register("b")
        with pytest.raises(NetworkError, match="unknown node"):
            network.send("ghost", "b", 1)

    def test_unknown_receiver_rejected(self, network):
        network.register("a")
        with pytest.raises(NetworkError, match="unknown node"):
            network.send("a", "ghost", 1)

    def test_self_send_rejected(self, network):
        network.register("a")
        with pytest.raises(NetworkError, match="itself"):
            network.send("a", "a", 1)

    def test_empty_inbox_raises(self, network):
        network.register("a")
        with pytest.raises(NetworkError, match="no pending"):
            network.receive("a")

    def test_pending_counts(self, network):
        network.register("a")
        network.register("b")
        network.send("a", "b", 1)
        network.send("a", "b", 2)
        assert network.pending("b") == 2
        network.receive("b")
        assert network.pending("b") == 1

    def test_payload_isolation_deep_copy(self, network):
        network.register("a")
        network.register("b")
        payload = {"arr": np.zeros(3)}
        network.send("a", "b", payload)
        payload["arr"][0] = 99.0  # sender mutates after send
        received = network.receive("b")
        assert received["arr"][0] == 0.0

    def test_broadcast_excludes_sender(self, network):
        for n in ("a", "b", "c"):
            network.register(n)
        network.broadcast("a", ["a", "b", "c"], "hi", kind="bc")
        assert network.pending("a", "bc") == 0
        assert network.pending("b", "bc") == 1
        assert network.pending("c", "bc") == 1


class TestBroadcast:
    """A payload with no ``wire_copy`` is pickled once per broadcast."""

    NODES = ("src", "d0", "d1", "d2")

    def broadcast(self, payload):
        network = Network()
        for node in self.NODES:
            network.register(node)
        network.broadcast("src", list(self.NODES), payload, kind="broadcast")
        messages = [network.receive_message(node, "broadcast") for node in self.NODES[1:]]
        return network, messages

    @staticmethod
    def state():
        return {"correction": np.arange(5.0), "bias": 0.25, "tags": ["a", "b"]}

    def test_each_destination_gets_its_own_equal_copy(self):
        payload = self.state()
        _, messages = self.broadcast(payload)
        copies = [message.payload for message in messages]
        for copy in copies:
            assert copy is not payload
            assert np.array_equal(copy["correction"], payload["correction"])
            assert (copy["bias"], copy["tags"]) == (payload["bias"], payload["tags"])
        assert len({id(copy) for copy in copies}) == len(copies)
        assert len({id(copy["correction"]) for copy in copies}) == len(copies)
        copies[0]["correction"][:] = -1.0
        copies[0]["tags"].append("mutated")
        for copy in copies[1:]:
            assert np.array_equal(copy["correction"], np.arange(5.0))
            assert copy["tags"] == ["a", "b"]
        assert np.array_equal(payload["correction"], np.arange(5.0))

    def test_every_message_has_the_payloads_pickled_size(self):
        payload = self.state()
        network, messages = self.broadcast(payload)
        size = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        assert [message.size_bytes for message in messages] == [size] * 3
        assert network.bytes_sent("broadcast") == 3 * size
        assert network.messages_sent("broadcast") == 3
        assert [m.payload["bias"] for m in network.message_log] == [0.25] * 3

    def test_one_dumps_timed_in_serialize_s(self, monkeypatch):
        calls = {"dumps": 0, "loads": 0}

        class SlowPickle:
            HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

            def dumps(self, obj, protocol=None):
                calls["dumps"] += 1
                time.sleep(0.05)
                return pickle.dumps(obj, protocol=protocol)

            def loads(self, blob):
                calls["loads"] += 1
                return pickle.loads(blob)

        monkeypatch.setattr(network_module, "pickle", SlowPickle())
        network, messages = self.broadcast(self.state())
        assert calls == {"dumps": 1, "loads": 3}
        assert network.metrics.get("network.serialize_s") >= 0.05

    def test_residue_vector_keeps_its_wire_copy(self, monkeypatch):
        vec = FixedPointCodec(modulus_bits=64).random_vector_array(10, np.random.default_rng(6))
        pair().send("a", "b", vec, kind="mask")  # sizes this shape once

        class NoPickle:
            def dumps(self, *args, **kwargs):
                raise AssertionError("a limb vector was pickled on broadcast")

        monkeypatch.setattr(network_module, "pickle", NoPickle())
        _, messages = self.broadcast(vec)
        for message in messages:
            assert isinstance(message.payload, ResidueVector)
            assert not message.payload.limbs.flags.writeable
            assert message.payload.to_ints() == vec.to_ints()
            assert message.size_bytes == pickled_size(vec)

    def test_send_errors_are_unchanged(self):
        network = Network()
        for node in self.NODES:
            network.register(node)
        network.fail_node("d1")
        with pytest.raises(NetworkError, match="'d1' has failed"):
            network.broadcast("src", list(self.NODES), self.state(), kind="broadcast")
        assert network.pending("d0", "broadcast") == 1
        with pytest.raises(NetworkError, match="unknown node 'ghost'"):
            network.broadcast("src", ["ghost"], self.state())


class TestNetworkAccounting:
    def test_byte_counters_by_kind(self, network):
        network.register("a")
        network.register("b")
        msg = network.send("a", "b", list(range(100)), kind="big")
        assert msg.size_bytes > 100
        assert network.bytes_sent("big") == msg.size_bytes
        assert network.bytes_sent() == msg.size_bytes
        assert network.bytes_sent("other") == 0.0

    def test_message_counters(self, network):
        network.register("a")
        network.register("b")
        network.send("a", "b", 1, kind="x")
        network.send("a", "b", 2, kind="x")
        network.send("a", "b", 3, kind="y")
        assert network.messages_sent() == 3
        assert network.messages_sent("x") == 2

    def test_message_log_records_everything(self, network):
        network.register("a")
        network.register("b")
        network.send("a", "b", "secret", kind="k")
        assert len(network.message_log) == 1
        logged = network.message_log[0]
        assert (logged.src, logged.dst, logged.kind, logged.payload) == ("a", "b", "k", "secret")

    def test_keep_log_false_disables_log(self):
        net = Network(keep_log=False)
        net.register("a")
        net.register("b")
        net.send("a", "b", 1)
        assert net.message_log == []
        assert net.bytes_sent() > 0  # accounting still works

    def test_simulated_clock_advances(self, network):
        network.register("a")
        network.register("b")
        before = network.simulated_time_s
        network.send("a", "b", list(range(1000)))
        assert network.simulated_time_s > before

    def test_sequence_numbers_monotone(self, network):
        network.register("a")
        network.register("b")
        m1 = network.send("a", "b", 1)
        m2 = network.send("a", "b", 2)
        assert m2.seq == m1.seq + 1


def pair() -> Network:
    network = Network()
    network.register("a")
    network.register("b")
    return network


def pickled_size(payload) -> int:
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class TestResiduePayloads:
    """Limb ``ResidueVector`` payloads cross ``send`` without pickling."""

    # 8,200 words are past pickle's 64 KiB frame, so the limb bytes are
    # written outside it.
    @pytest.mark.parametrize("n", [0, 1, 600, 8200])
    @pytest.mark.parametrize("config", CODEC_CONFIGS)
    def test_size_bytes_is_the_pickled_length(self, config, n):
        codec = FixedPointCodec(**config)
        network = pair()
        # The zero vector first: a size kept per shape must not depend
        # on the values.
        sizes = []
        for vec in (codec.zeros_array(n), codec.random_vector_array(n, np.random.default_rng(n))):
            message = network.send("a", "b", vec, kind="mask")
            sizes.append(pickled_size(vec))
            assert message.size_bytes == sizes[-1]
            received = network.receive("b", kind="mask")
            assert received.modulus == vec.modulus
            assert received.limbs.shape == vec.limbs.shape
            assert received.to_ints() == vec.to_ints()
        assert network.bytes_sent("mask") == sum(sizes)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_limb_vectors_are_not_pickled(self, bits, monkeypatch):
        class NoPickle:
            def dumps(self, *args, **kwargs):
                raise AssertionError("a limb vector was pickled on send")

        vec = FixedPointCodec(modulus_bits=bits).random_vector_array(600, np.random.default_rng(1))
        network = pair()
        network.send("a", "b", vec, kind="mask")  # sizes this shape once
        monkeypatch.setattr(network_module, "pickle", NoPickle())
        serialize_s = network.metrics.get("network.serialize_s")
        message = network.send("a", "b", vec, kind="mask")
        assert message.size_bytes == pickled_size(vec)
        # network.serialize_s times the copy in place of the round trip.
        assert network.metrics.get("network.serialize_s") > serialize_s

    @pytest.mark.parametrize("bits", [64, 128])
    def test_sender_write_after_send_does_not_reach_receiver(self, bits):
        mask = FixedPointCodec(modulus_bits=bits).random_vector_array(65, np.random.default_rng(2))
        sent = mask.to_ints()
        network = pair()
        network.send("a", "b", mask, kind="mask")
        mask.limbs[:] = 0
        received = network.receive("b", kind="mask")
        assert received.to_ints() == sent
        assert not np.shares_memory(received.limbs, mask.limbs)

    def test_received_limbs_are_read_only(self):
        mask = FixedPointCodec(modulus_bits=64).random_vector_array(8, np.random.default_rng(3))
        network = pair()
        network.send("a", "b", mask, kind="mask")
        received = network.receive("b", kind="mask")
        assert not received.limbs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            received.limbs[0, 0] = 1
        assert mask.limbs.flags.writeable  # the sender's vector is untouched

    @pytest.mark.parametrize("rows", [slice(2, 5), slice(None, None, 3), slice(7, 7)])
    @pytest.mark.parametrize("bits", [64, 128])
    def test_row_slice_view_delivers_only_its_rows(self, bits, rows):
        vec = FixedPointCodec(modulus_bits=bits).random_vector_array(20, np.random.default_rng(4))
        view = vec[rows]
        network = pair()
        message = network.send("a", "b", view, kind="mask")
        received = network.receive("b", kind="mask")
        assert received.to_ints() == vec.to_ints()[rows]
        assert received.limbs.shape == view.limbs.shape
        assert received.limbs.flags.c_contiguous
        assert message.size_bytes == pickled_size(view) == pickled_size(received)

    def test_share_plane_takes_the_pickle_round_trip(self):
        # The threshold sum's uint32 share planes are plain arrays: one
        # pickle buffer gives the receiver's copy and the wire size.
        plane = np.random.default_rng(5).integers(0, 2**32, size=(600, 3), dtype=np.uint32)
        network = pair()
        message = network.send("a", "b", plane, kind="threshold-share")
        received = network.receive("b", kind="threshold-share")
        assert received.dtype == np.uint32
        assert np.array_equal(received, plane)
        assert not np.shares_memory(received, plane)
        assert message.size_bytes == pickled_size(plane)


class TestLatencyModel:
    def _msg(self, size):
        return Message(seq=0, src="a", dst="b", kind="k", payload=None, size_bytes=size)

    def test_latency_floor(self):
        model = LatencyModel(latency_s=1e-3, bandwidth_bytes_per_s=1e9)
        assert model.transfer_time(self._msg(0)) == pytest.approx(1e-3)

    def test_bandwidth_term(self):
        model = LatencyModel(latency_s=0.0, bandwidth_bytes_per_s=100.0)
        assert model.transfer_time(self._msg(200)) == pytest.approx(2.0)

    def test_straggler_multiplier(self):
        model = LatencyModel(
            latency_s=1.0,
            bandwidth_bytes_per_s=1e9,
            straggler_factor=10.0,
            stragglers=frozenset({"a"}),
        )
        assert model.transfer_time(self._msg(0)) == pytest.approx(10.0)


class TestFaultInjection:
    def test_failed_node_cannot_send(self, network):
        network.register("a")
        network.register("b")
        network.fail_node("a")
        with pytest.raises(NetworkError, match="failed"):
            network.send("a", "b", 1)

    def test_failed_node_cannot_receive_new_messages(self, network):
        network.register("a")
        network.register("b")
        network.fail_node("b")
        with pytest.raises(NetworkError, match="failed"):
            network.send("a", "b", 1)

    def test_recovery(self, network):
        network.register("a")
        network.register("b")
        network.fail_node("a")
        network.recover_node("a")
        network.send("a", "b", 1)
        assert network.receive("b") == 1
