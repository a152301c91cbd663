"""Equivalence tests: the packed residue codec vs a Python-int reference.

The codec (packed ``uint64`` limb arrays, one-block mask draws, batched
modular sums) must give *identical* results to the per-element
Python-int arithmetic of the codec's former list API, which this file
keeps as its reference (``reference_*`` below): same residues, same
decoded floats, same masks from the same generator, for one-word and
multi-limb rings.  A regression here means
protocol transcripts or training trajectories have changed.
"""

import pickle
import re

import numpy as np
import pytest
from numpy.random import default_rng

from repro.cluster.network import Network
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector

CODEC_CONFIGS = [
    pytest.param({}, id="pow2-128-default"),
    pytest.param({"modulus_bits": 64, "fractional_bits": 20}, id="pow2-64"),
    pytest.param({"modulus_bits": 96, "fractional_bits": 30}, id="pow2-96"),
    pytest.param({"modulus_bits": 192}, id="pow2-192"),
]


def mask_words(codec: FixedPointCodec) -> int:
    """64-bit words per mask element: ceil(log2 q / 64)."""
    return (codec.modulus_bits + 63) // 64


def reference_random_vector(codec: FixedPointCodec, n: int, rng) -> list[int]:
    """The mask contract element by element: little-endian words, mod q."""
    out = []
    for _ in range(n):
        words = rng.integers(0, 2**64, size=mask_words(codec), dtype=np.uint64)
        value = sum(int(w) << (64 * i) for i, w in enumerate(words))
        out.append(value % codec.modulus)
    return out


def reference_encode(codec: FixedPointCodec, values) -> list[int]:
    """``round(x * 2^f) mod q`` element by element (the legacy list encode)."""
    return [int(round(float(x) * codec.scale)) % codec.modulus for x in values]


def reference_decode(codec: FixedPointCodec, residues: list[int]) -> np.ndarray:
    """Centered lift, then unscale, element by element (the legacy decode)."""
    half = codec.modulus >> 1
    return np.array(
        [(r - codec.modulus if r >= half else r) / codec.scale for r in residues],
        dtype=float,
    )


def pack(codec: FixedPointCodec, residues: list[int]) -> ResidueVector:
    """Reduced Python-int residues in the codec's packed uint64 limbs."""
    n_limbs = (codec.modulus_bits + 63) // 64
    limbs = np.array(
        [[(r >> (64 * i)) & (2**64 - 1) for i in range(n_limbs)] for r in residues],
        dtype=np.uint64,
    ).reshape(-1, n_limbs)
    return ResidueVector(limbs, codec.modulus)


# The first four emit full 64-bit raw words (the ``random_raw`` path);
# MT19937 emits 32-bit ones and takes the ``integers`` fallback.
BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.SFC64,
    np.random.MT19937,
]


@pytest.fixture(params=BIT_GENERATORS, ids=lambda bg: bg.__name__)
def make_rng(request):
    """Seed -> Generator over each bit generator the mask draw handles."""
    return lambda seed: np.random.Generator(request.param(seed))


def same_state(a, b) -> bool:
    """Bit-generator states equal, including their array entries."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


@pytest.fixture(params=CODEC_CONFIGS)
def codec(request):
    return FixedPointCodec(**request.param)


class TestEncodeDecodeEquivalence:
    def test_encode_array_matches_legacy_list(self, codec, rng):
        values = rng.normal(size=257) * min(1.0, codec.max_magnitude / 10)
        values[0] = 0.0
        assert codec.encode_array(values).to_ints() == reference_encode(codec, values)

    def test_decode_matches_legacy_on_small_residues(self, codec, rng):
        values = rng.normal(size=129) * min(1.0, codec.max_magnitude / 10)
        expected = reference_decode(codec, reference_encode(codec, values))
        assert np.array_equal(codec.decode(codec.encode_array(values)), expected)

    def test_decode_matches_legacy_on_full_range_residues(self, codec):
        # Masked shares are uniform over [0, q): the packed decode must
        # take its exact big-int path, not the single-limb float path.
        residues = reference_random_vector(codec, 64, default_rng(5))
        packed = pack(codec, residues)
        assert np.array_equal(codec.decode(packed), reference_decode(codec, residues))

    def test_roundtrip_is_exact_for_dyadic_values(self, codec):
        values = np.array([0.0, 1.0, -1.0, 0.5, -0.25, 3.75, -100.0])
        assert np.array_equal(codec.decode(codec.encode_array(values)), values)


class TestArithmeticEquivalence:
    def test_add_subtract_match_legacy(self, codec):
        a = reference_random_vector(codec, 257, default_rng(1))
        b = reference_random_vector(codec, 257, default_rng(2))
        va, vb = pack(codec, a), pack(codec, b)
        q = codec.modulus
        assert codec.add(va, vb).to_ints() == [(x + y) % q for x, y in zip(a, b)]
        assert codec.subtract(va, vb).to_ints() == [(x - y) % q for x, y in zip(a, b)]

    def test_mask_roundtrip_cancels(self, codec, rng):
        values = rng.normal(size=40) * min(1.0, codec.max_magnitude / 10)
        encoded = codec.encode_array(values)
        mask = codec.random_vector_array(40, default_rng(3))
        masked = codec.add(encoded, mask)
        unmasked = codec.subtract(masked, mask)
        assert unmasked == encoded
        assert np.array_equal(codec.decode(unmasked), codec.decode(encoded))

    def test_mixed_operand_types(self, codec):
        # Operands are residue vectors only; a plain int list is a
        # TypeError in either position, never a silent repack.
        ints = reference_random_vector(codec, 9, default_rng(4))
        packed = pack(codec, ints)
        with pytest.raises(TypeError, match="ResidueVector"):
            codec.add(packed, ints)
        with pytest.raises(TypeError, match="ResidueVector"):
            codec.subtract(ints, packed)
        assert codec.subtract(packed, packed).to_ints() == [0] * 9

    def test_length_mismatch_rejected(self, codec):
        with pytest.raises(ValueError, match="length"):
            codec.add(codec.zeros_array(1), codec.zeros_array(2))


class TestRandomVectorStream:
    def test_blocked_draw_matches_scalar_stream(self, codec, make_rng):
        reference, blocked = make_rng(7), make_rng(7)
        for _ in range(3):
            expected = reference_random_vector(codec, 33, reference)
            assert codec.random_vector_array(33, blocked).to_ints() == expected
        # The generators must leave the stream in the identical state.
        assert int(blocked.integers(0, 2**63)) == int(reference.integers(0, 2**63))

    def test_blocked_draw_after_interleaved_scalar_draws(self, codec, make_rng):
        # A pending buffered 32-bit half-word (left by a small-range
        # draw) must not shift the mask words.
        reference, blocked = make_rng(11), make_rng(11)
        assert int(reference.integers(0, 2)) == int(blocked.integers(0, 2))
        expected = reference_random_vector(codec, 10, reference)
        assert codec.random_vector_array(10, blocked).to_ints() == expected
        assert int(reference.integers(0, 2)) == int(blocked.integers(0, 2))

    def test_legacy_list_api_unchanged(self, codec):
        # The residues the former list-API ``random_vector(17, rng)``
        # drew are the ones the packed draw gives.
        assert codec.random_vector_array(17, default_rng(13)).to_ints() == (
            reference_random_vector(codec, 17, default_rng(13))
        )

    def test_backends_draw_identical_residues(self, codec, make_rng):
        # The packed uint64 limbs draw the reference residues.
        packed = codec.random_vector_array(65, make_rng(19))
        assert packed.to_ints() == reference_random_vector(codec, 65, make_rng(19))
        assert packed.limbs.dtype == np.uint64

    def test_draw_advances_generator_by_n_times_words(self, codec, make_rng):
        n = 21
        drawn, reference = make_rng(37), make_rng(37)
        codec.random_vector_array(n, drawn)
        reference.integers(0, 2**64, size=n * mask_words(codec), dtype=np.uint64)
        assert same_state(drawn.bit_generator.state, reference.bit_generator.state)

    def test_values_in_range(self, codec):
        vec = codec.random_vector_array(100, default_rng(17))
        assert all(0 <= v < codec.modulus for v in vec)

    def test_empty_and_negative(self, codec):
        assert codec.random_vector_array(0, default_rng(0)).to_ints() == []
        with pytest.raises(ValueError, match="non-negative"):
            codec.random_vector_array(-1, default_rng(0))

    def test_bits_above_modulus_are_zero_for_q_2_96(self):
        codec = FixedPointCodec(modulus_bits=96, fractional_bits=30)
        vec = codec.random_vector_array(500, default_rng(41))
        assert vec.limbs.shape == (500, 2)
        assert not np.any(vec.limbs[:, 1] >> np.uint64(32))
        # ...while the 32 bits below the cut are all in use.
        assert np.bitwise_or.reduce(vec.limbs[:, 1]) == np.uint64(2**32 - 1)


def reference_sum(plus: list[list[int]], minus: list[list[int]], modulus: int) -> list[int]:
    """``sum(plus) - sum(minus) mod q`` elementwise, in Python ints."""
    n = len((plus + minus)[0])
    return [(sum(v[i] for v in plus) - sum(v[i] for v in minus)) % modulus for i in range(n)]


class TestSumArrays:
    @pytest.mark.parametrize("bits", [50, 60, 64, 96, 128])
    @pytest.mark.parametrize("k", [1, 2, 7, 15])
    @pytest.mark.parametrize("with_minus", [False, True], ids=["plus-only", "plus-minus"])
    def test_matches_python_int_reference(self, bits, k, with_minus):
        codec = FixedPointCodec(modulus_bits=bits, fractional_bits=20)
        rng = default_rng(1000 + 10 * k + bits)
        plus = [codec.random_vector_array(31, rng) for _ in range(k)]
        minus = [codec.random_vector_array(31, rng) for _ in range(k)] if with_minus else []
        # Extremes exercise the carry and borrow chains end to end.
        plus.append(pack(codec, [codec.modulus - 1] * 31))
        if with_minus:
            minus.append(pack(codec, [codec.modulus - 1] * 30 + [1]))
        expected = reference_sum(
            [v.to_ints() for v in plus], [v.to_ints() for v in minus], codec.modulus
        )
        assert codec.sum_arrays(plus, minus).to_ints() == expected

    def test_only_minus_operands_negate(self):
        codec = FixedPointCodec()
        v = codec.random_vector_array(9, default_rng(5))
        assert codec.sum_arrays([], [v]).to_ints() == [(-x) % codec.modulus for x in v]

    def test_rejects_no_operands_and_length_mismatch(self):
        codec = FixedPointCodec()
        with pytest.raises(ValueError, match="at least one operand"):
            codec.sum_arrays([])
        with pytest.raises(ValueError, match="length"):
            codec.sum_arrays([codec.zeros_array(2)], [codec.zeros_array(3)])


class TestSumArraysContract:
    """``sum_arrays`` vs a Python-int reference on every codec config."""

    def vectors(self, codec, count, n=11, seed=0):
        rng = default_rng(seed)
        return [codec.random_vector_array(n, rng) for _ in range(count)]

    def test_single_operand_and_empty_minus(self, codec):
        (v,) = self.vectors(codec, 1)
        assert codec.sum_arrays([v]).to_ints() == v.to_ints()
        assert codec.sum_arrays([v], []).to_ints() == v.to_ints()
        assert codec.sum_arrays([v], ()).to_ints() == v.to_ints()

    def test_eight_plus_seven_minus(self, codec):
        vecs = self.vectors(codec, 15, n=600, seed=1)
        plus, minus = vecs[:8], vecs[8:]
        expected = reference_sum(
            [v.to_ints() for v in plus], [v.to_ints() for v in minus], codec.modulus
        )
        assert codec.sum_arrays(plus, minus).to_ints() == expected

    def test_plain_int_list_operands(self, codec):
        # Plain int lists are rejected in either operand list; packed
        # vectors rebuilt from the same ints sum like the originals.
        a, b, c = self.vectors(codec, 3, seed=2)
        expected = reference_sum([a.to_ints(), b.to_ints()], [c.to_ints()], codec.modulus)
        with pytest.raises(TypeError, match="ResidueVector"):
            codec.sum_arrays([a.to_ints(), b], [c])
        with pytest.raises(TypeError, match="ResidueVector"):
            codec.sum_arrays([a, b], [c.to_ints()])
        repacked = [pack(codec, v.to_ints()) for v in (a, b, c)]
        assert codec.sum_arrays(repacked[:2], repacked[2:]).to_ints() == expected

    def test_length_and_modulus_mismatch_raise(self, codec):
        a, b = self.vectors(codec, 2)
        with pytest.raises(ValueError, match="length mismatch"):
            codec.sum_arrays([a], [b[:10]])
        with pytest.raises(ValueError, match="length mismatch"):
            codec.sum_arrays([a, b[:3]])
        foreign = FixedPointCodec(modulus_bits=codec.modulus_bits + 1).random_vector_array(
            11, default_rng(3)
        )
        with pytest.raises(ValueError, match="modulus"):
            codec.sum_arrays([a], [foreign])
        with pytest.raises(ValueError, match="modulus"):
            codec.sum_arrays([foreign, a])

    def test_operands_are_left_unmodified(self, codec):
        vecs = self.vectors(codec, 6, seed=4)
        # Read-only limbs from the wire form, and row-slice views of one
        # stacked vector, as the protocol passes them.
        wire = [pickle.loads(pickle.dumps(v)) for v in vecs[:3]]
        stacked = pack(codec, [x for v in vecs[3:] for x in v.to_ints()])
        views = [stacked[i * 11 : (i + 1) * 11] for i in range(3)]
        before = [v.limbs.copy() for v in wire + views]
        assert not any(v.limbs.flags.writeable for v in wire)
        for plus, minus in [(wire, views), (views, wire), (views[:1], []), ([], wire)]:
            total = codec.sum_arrays(plus, minus)
            expected = reference_sum(
                [v.to_ints() for v in plus], [v.to_ints() for v in minus], codec.modulus
            )
            assert total.to_ints() == expected
            assert not any(np.shares_memory(total.limbs, v.limbs) for v in wire + views)
        for vec, limbs in zip(wire + views, before):
            assert np.array_equal(vec.limbs, limbs)


class TestOneWordKernels:
    """Rings of at most 64 bits: native int64/uint64 encode, decode, sum."""

    @pytest.fixture(params=[64, 60, 50], ids=lambda bits: f"q=2^{bits}")
    def one_word(self, request):
        return FixedPointCodec(modulus_bits=request.param, max_terms=8)

    def test_encode_decode_match_legacy_bit_for_bit(self, one_word):
        codec = one_word
        bound, ulp = codec.max_magnitude * 0.99, 2.0**-codec.fractional_bits
        values = np.array(
            [0.0, -0.0, bound, -bound, 3.7, -3.7]
            + [ulp, -ulp, 2 * ulp, -2 * ulp, 0.5 * ulp, -1.5 * ulp]
        )
        packed = codec.encode_array(values)
        assert packed.limbs.shape == (len(values), 1)
        assert packed.to_ints() == reference_encode(codec, values)
        decoded = codec.decode(packed)
        expected = reference_decode(codec, packed.to_ints())
        assert np.array_equal(decoded, expected)
        assert np.array_equal(np.signbit(decoded), np.signbit(expected))

    def test_decode_across_the_sign_boundary(self, one_word):
        codec = one_word
        q, half = codec.modulus, codec.modulus // 2
        residues = [0, 1, half - 2, half - 1, half, half + 1, q - 2, q - 1]
        packed = pack(codec, residues)
        assert np.array_equal(codec.decode(packed), reference_decode(codec, residues))

    def test_overflow_names_the_ring_and_bound(self, one_word):
        codec = one_word
        message = f"bound {codec.max_magnitude:g} of the ring Z_q, q = 2^{codec.modulus_bits}"
        with pytest.raises(OverflowError, match=re.escape(message)):
            codec.encode_array([0.0, -codec.max_magnitude])


class TestResidueVectorContainer:
    def test_iter_getitem_len_eq(self, codec):
        ints = reference_random_vector(codec, 12, default_rng(29))
        packed = pack(codec, ints)
        other = ResidueVector(np.asfortranarray(packed.limbs.copy()), codec.modulus)
        assert len(packed) == 12
        assert [int(v) for v in packed] == ints
        assert [packed[i] for i in range(12)] == ints
        # Equality is value-based, independent of the memory layout.
        assert packed == other
        assert packed != pack(codec, [(v + 1) % codec.modulus for v in ints])

    def test_slice_is_a_residue_vector_view(self, codec):
        ints = reference_random_vector(codec, 12, default_rng(30))
        packed = pack(codec, ints)
        head = packed[:2]
        assert isinstance(head, ResidueVector)
        assert head.modulus == packed.modulus
        assert [int(v) for v in head] == ints[:2]
        assert packed[3:9:2].to_ints() == ints[3:9:2]
        assert packed[-1:].to_ints() == ints[-1:]
        assert len(packed[5:5]) == 0
        assert np.shares_memory(packed[4:8].limbs, packed.limbs)
        # A slice is a full operand: sums and decodes like any vector.
        assert codec.sum_arrays([packed[:6]], [packed[6:]]).to_ints() == [
            (x - y) % codec.modulus for x, y in zip(ints[:6], ints[6:])
        ]

    def test_pickle_roundtrip(self, codec):
        vec = codec.random_vector_array(20, default_rng(31))
        restored = pickle.loads(pickle.dumps(vec))
        assert isinstance(restored, ResidueVector)
        assert restored == vec
        assert codec.subtract(restored, vec).to_ints() == [0] * 20


WIRE_CODECS = [
    pytest.param({"modulus_bits": 64, "fractional_bits": 20}, id="pow2-64"),
    pytest.param({"modulus_bits": 96, "fractional_bits": 30}, id="pow2-96"),
    pytest.param({}, id="pow2-128"),
]


class TestWireForm:
    """``ResidueVector`` pickles compactly and round-trips exactly."""

    @pytest.mark.parametrize("n", [0, 1, 65, 600])
    @pytest.mark.parametrize("config", WIRE_CODECS)
    def test_roundtrip_is_exact(self, config, n):
        codec = FixedPointCodec(**config)
        vec = codec.random_vector_array(n, default_rng(37))
        restored = pickle.loads(pickle.dumps(vec, protocol=pickle.HIGHEST_PROTOCOL))
        assert isinstance(restored, ResidueVector)
        assert restored.modulus == vec.modulus
        assert restored.limbs.dtype == vec.limbs.dtype
        assert restored.limbs.shape == vec.limbs.shape
        assert restored.to_ints() == vec.to_ints()
        # The codec accepts the restored vector like any other operand.
        assert codec.sum_arrays([restored], [vec]).to_ints() == [0] * n

    @pytest.mark.parametrize("n", [1, 65, 600])
    @pytest.mark.parametrize("config", WIRE_CODECS)
    def test_limb_vector_size_is_payload_plus_small_header(self, config, n):
        vec = FixedPointCodec(**config).random_vector_array(n, default_rng(41))
        blob = pickle.dumps(vec, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < vec.limbs.nbytes + 128

    def test_encoded_values_decode_after_transport(self):
        codec = FixedPointCodec()
        values = np.array([-3.25, 0.0, 1e-9, 7.5])
        restored = pickle.loads(pickle.dumps(codec.encode_array(values)))
        np.testing.assert_array_equal(
            codec.decode(restored), codec.decode(codec.encode_array(values))
        )

    def test_sender_mutation_after_send_does_not_reach_receiver(self):
        network = Network()
        network.register("a")
        network.register("b")
        codec = FixedPointCodec()
        mask = codec.random_vector_array(65, default_rng(43))
        sent = mask.to_ints()
        network.send("a", "b", mask, kind="mask")
        mask.limbs[:] = 0
        received = network.receive("b", kind="mask")
        assert received.to_ints() == sent
        assert not np.shares_memory(received.limbs, mask.limbs)
