"""Fixed-point encoding of real vectors into the additive group Z_q.

The masking-based secure summation protocol (and the Shamir threshold
sum, and Paillier plaintexts) operate on integers modulo ``q``;
training produces real vectors.  :class:`FixedPointCodec` provides the
bridge:

* ``encode(x) = round(x * 2^fractional_bits) mod q`` (centered signed
  representation);
* ``decode`` lifts back to the centered range and divides the scale out.

Sums of up to ``max_terms`` encoded values decode exactly to the sum of
the rounded inputs as long as the magnitudes stay below
``max_magnitude`` — the codec checks this at encode time instead of
silently wrapping, because a wrapped consensus average would corrupt
training in ways that are very hard to debug.

**Ring width.**  The codec's own default is a 128-bit ring.  The
trainer sizes its secure-sum ring with :func:`ring_bits`: the smallest
whole number of 64-bit words with
``fractional_bits + ceil(log2 max_terms) + 1 + HEADROOM_BITS <= bits``,
so every value keeps a magnitude bound of at least ``2^HEADROOM_BITS``.
At 40 fractional bits and up to 128 learners that is one word
(q = 2^64, ``max_magnitude`` = 2^20 at M = 8); a finer scale or more
learners gets a second word.  A value past the bound is an
``OverflowError`` at encode, never a wrapped sum.

Every operation works on :class:`ResidueVector`, a packed residue
array: the modulus is always a power of two ``q = 2^k``, and residues
are fixed-width little-endian multi-limb ``uint64`` numpy arrays of
shape ``(n, L)`` (``L = 2`` for the default 128-bit group) with batched
``encode_array``/``decode`` and one multi-operand modular sum
(:meth:`FixedPointCodec.sum_arrays`, which also backs
``add``/``subtract``).  A ring of at most 64 bits stores one word per
residue and uses native kernels: encode is a signed ``int64`` cast,
decode a sign extension, and the sum plain ``uint64`` wraparound
arithmetic.  The Shamir threshold sum shares these one-word residues on
word-sized prime planes (:mod:`repro.crypto.secret_sharing`) and lifts
its result back to a word, so it needs no second backend.

Masks are drawn as one ``rng.integers(0, 2**64, size=(n, L),
dtype=uint64)`` block per vector (see ``docs/PERFORMANCE.md``, *Mask
sampling*).  The codec's tests pin every operation against a
per-element Python-int reference.

A limb :class:`ResidueVector` pickles as its raw limb bytes, so a
mask or share costs little more than its payload on the simulated wire,
and the network delivers it as a read-only limb copy without pickling
(:meth:`ResidueVector.wire_copy`; ``docs/PERFORMANCE.md``,
*Serialization*).
"""

from __future__ import annotations

import pickle
from typing import Iterator, Sequence, overload

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["HEADROOM_BITS", "FixedPointCodec", "ResidueVector", "ring_bits"]

_WORD_BITS = 64
_WORD_MOD = 1 << _WORD_BITS
_FULL_MASK = np.uint64(2**64 - 1)
_HALF_BITS = 32
_HALF_MASK = (1 << _HALF_BITS) - 1
# Bit generators whose raw output is one full 64-bit word, so that
# ``random_raw`` yields the same words as ``integers(0, 2**64)``.
_RAW_WORD_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.SFC64,
)

#: log2 of the smallest per-value magnitude bound :func:`ring_bits` allows.
HEADROOM_BITS = 16

# Pickled length of a limb vector per ``(limbs.shape, modulus)``: the
# compact ``__reduce__`` form's length does not depend on the values.
_WIRE_SIZES: dict[tuple[tuple[int, ...], int], int] = {}


def ring_bits(fractional_bits: int, max_terms: int) -> int:
    """Bits of the smallest whole-word ring ``2^bits`` for these values.

    The smallest multiple of 64 with
    ``fractional_bits + ceil(log2 max_terms) + 1 + HEADROOM_BITS <= bits``:
    a sum of ``max_terms`` values, each below ``2^HEADROOM_BITS`` in
    magnitude at ``2^-fractional_bits`` resolution, then stays inside the
    centered range of ``Z_{2^bits}``.  The codec's ``max_magnitude`` for
    that ring is at least ``2^HEADROOM_BITS``.
    """
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    needed = fractional_bits + (max_terms - 1).bit_length() + 1 + HEADROOM_BITS
    return _WORD_BITS * -(-needed // _WORD_BITS)


class ResidueVector:
    """A vector of residues modulo ``q`` in packed array form.

    Attributes
    ----------
    limbs:
        A ``uint64`` array of shape ``(n, L)`` holding each residue as
        ``L`` little-endian 64-bit limbs.
    modulus:
        The group order ``q``; every stored residue is in ``[0, q)``.

    The vector iterates and compares as its Python-int residues, so
    wire payloads stay inspectable (``[int(v) for v in payload]``) and
    transcript-equality tests are representation-independent.
    """

    def __init__(self, limbs: np.ndarray, modulus: int) -> None:
        self.limbs = limbs
        self.modulus = modulus

    def __len__(self) -> int:
        return int(self.limbs.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_ints())

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> "ResidueVector": ...

    def __getitem__(self, index: int | slice) -> "int | ResidueVector":
        """One residue as a Python int, or a slice as a residue-vector view.

        A slice shares the limbs of this vector (numpy basic slicing), so
        it costs no copy; codec operations never write into operands.
        """
        if isinstance(index, slice):
            return ResidueVector(self.limbs[index], self.modulus)
        value = 0
        for i in range(self.limbs.shape[1] - 1, -1, -1):
            value = (value << _WORD_BITS) | int(self.limbs[index, i])
        return value

    def to_ints(self) -> list[int]:
        """The residues as arbitrary-precision Python ints."""
        return _limbs_to_ints(self.limbs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueVector):
            return NotImplemented
        return self.modulus == other.modulus and self.to_ints() == other.to_ints()

    def __reduce__(self) -> tuple:
        """Compact wire form: raw limb bytes, limb count and modulus.

        A limb vector pickles as its ``L·8·n`` raw bytes instead of a
        generic ``ndarray`` reconstruct, which is 3–4× cheaper to
        dump and load and drops numpy's per-array header.
        """
        return (
            _rebuild_limbs,
            (self.limbs.tobytes(), int(self.limbs.shape[1]), self.modulus),
        )

    def wire_copy(self) -> "tuple[ResidueVector, int]":
        """The receiver's copy of this vector and its wire size, unpickled.

        :meth:`repro.cluster.network.Network.send` delivers a limb vector
        this way: the copy holds its own read-only limbs (only the rows
        a slice view covers), and the size equals
        ``len(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))``, pickled once
        per shape and modulus.
        """
        limbs = self.limbs
        key = (limbs.shape, self.modulus)
        size = _WIRE_SIZES.get(key)
        if size is None:
            size = _WIRE_SIZES[key] = len(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))
        copy = limbs.copy()
        copy.flags.writeable = False
        return ResidueVector(copy, self.modulus), size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResidueVector(n={len(self)}, "
            f"modulus_bits={self.modulus.bit_length()}, "
            f"dtype={self.limbs.dtype})"
        )


class FixedPointCodec:
    """Encode/decode float vectors as packed residues for modular arithmetic.

    Parameters
    ----------
    fractional_bits:
        Precision: values are represented as multiples of
        ``2^-fractional_bits``.
    modulus_bits:
        Group size ``q = 2^modulus_bits``.
    max_terms:
        The largest number of encoded values that will ever be summed
        before decoding (the number of learners ``M`` for secure
        summation).  Determines the overflow-safe magnitude bound.
    """

    def __init__(
        self,
        fractional_bits: int = 40,
        modulus_bits: int = 128,
        *,
        max_terms: int = 1024,
    ) -> None:
        if fractional_bits < 1:
            raise ValueError(f"fractional_bits must be >= 1, got {fractional_bits}")
        if max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {max_terms}")
        self.fractional_bits = int(fractional_bits)
        self.max_terms = int(max_terms)
        self.modulus_bits = int(modulus_bits)
        self.modulus = 1 << self.modulus_bits
        if self.modulus_bits <= fractional_bits + 2:
            raise ValueError("modulus must comfortably exceed the fixed-point scale")
        self.scale: int = 1 << fractional_bits
        # Any single value must satisfy |x| * scale * max_terms < q / 2.
        self.max_magnitude: float = self.modulus / (2.0 * self.scale * self.max_terms)
        # Limb geometry; a mask is ``_n_limbs`` uniform words with the top
        # limb cut to size.
        self._n_limbs = (self.modulus_bits + _WORD_BITS - 1) // _WORD_BITS
        top_bits = self.modulus_bits - _WORD_BITS * (self._n_limbs - 1)
        self._top_mask = (
            _FULL_MASK if top_bits == _WORD_BITS else np.uint64((1 << top_bits) - 1)
        )
        self._sign_shift = np.uint64(top_bits - 1)
        # Whether the top limb needs cutting at all (not when q = 2^64k).
        self._cut_top = bool(self._top_mask != _FULL_MASK)
        # One word per residue: the native int64/uint64 kernels apply.
        self._one_word = self._n_limbs == 1

    def decode(self, residues: ResidueVector) -> np.ndarray:
        """Decode residues back to floats (centered lift, then unscale).

        Fast path: when every centered magnitude fits one limb, the
        ``uint64 -> float64`` conversion and the power-of-two unscale
        are each correctly rounded, which composes to exactly the
        correctly-rounded ``int / int`` division of the exact path.
        Multi-limb magnitudes (astronomical masked shares, sums beyond
        2^64 ulps) take the exact per-element path instead — composing
        floats limb-by-limb could double-round.
        A one-word residue is sign-extended to its centered ``int64``
        value, whose ``int64 -> float64`` conversion is correctly
        rounded the same way.
        """
        if residues.modulus != self.modulus:
            raise ValueError(
                f"residue vector modulus {residues.modulus} does not match "
                f"codec modulus {self.modulus}"
            )
        limbs = residues.limbs
        if self._one_word:
            # Sign-extend the k-bit residue to its centered int64 value.
            shift = _WORD_BITS - self.modulus_bits
            signed = (limbs[:, 0] << np.uint64(shift)).view(np.int64) >> shift
            return signed.astype(np.float64) / float(self.scale)
        negative = ((limbs[:, -1] >> self._sign_shift) & np.uint64(1)) == 1
        magnitude = limbs
        if np.any(negative):
            magnitude = np.where(
                negative[:, None], self._negate_limbs(limbs), limbs
            )
        if magnitude.shape[1] > 1 and np.any(magnitude[:, 1:]):
            return self._decode_exact(residues.to_ints())
        values = magnitude[:, 0].astype(np.float64) / float(self.scale)
        return np.where(negative, -values, values)

    def add(self, a: ResidueVector, b: ResidueVector) -> ResidueVector:
        """Elementwise modular addition of two residue vectors."""
        return self.sum_arrays([a, b])

    def subtract(self, a: ResidueVector, b: ResidueVector) -> ResidueVector:
        """Elementwise modular subtraction of two residue vectors."""
        return self.sum_arrays([a], [b])

    def zeros_array(self, n: int) -> ResidueVector:
        """The all-zero residue vector of length ``n`` in packed form."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return ResidueVector(np.zeros((n, self._n_limbs), dtype=np.uint64), self.modulus)

    def encode_array(self, values: ArrayLike) -> ResidueVector:
        """Encode a float vector as a packed :class:`ResidueVector`.

        Each residue is ``round(x * scale) mod q``, rounding half to
        even.  Exact: the scale is a power of two, so ``x * scale`` and
        the rounding are exact float operations, and the limb
        decomposition slices the (at most 53-significant-bit) integral
        float exactly.
        """
        arr = self._check_encodable(values)
        scaled = np.rint(arr * float(self.scale))
        if self._one_word:
            # Exact: the bound check keeps |scaled| below 2^63, and the
            # two's-complement word reduced mod 2^k is the residue.
            words = scaled.astype(np.int64).view(np.uint64) & self._top_mask
            return ResidueVector(words.reshape(-1, 1), self.modulus)
        negative = scaled < 0.0
        magnitude = np.abs(scaled)
        limbs = np.empty((arr.shape[0], self._n_limbs), dtype=np.uint64)
        remainder = magnitude
        for i in range(self._n_limbs):
            remainder, low = np.divmod(remainder, 2.0**_WORD_BITS)
            limbs[:, i] = _float_to_uint64(low)
        if np.any(negative):
            limbs = np.where(
                negative[:, None], self._negate_limbs(limbs), limbs
            )
        return ResidueVector(limbs, self.modulus)

    def random_vector_array(self, n: int, rng: np.random.Generator) -> ResidueVector:
        """A uniformly random packed residue vector (a one-time pad mask).

        All ``n × L`` 64-bit words come from one
        ``rng.integers(0, 2**64, size=(n, L), dtype=uint64)`` draw,
        which advances the generator by exactly that many raw words.
        When the bit generator's raw output is a full 64-bit word the
        words are taken from ``random_raw`` instead: the same words and
        end state, without the bounded-integer machinery.  The top limb
        is cut to the ring's ``k`` bits, which is exactly uniform.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        shape = (n, self._n_limbs)
        if isinstance(rng.bit_generator, _RAW_WORD_GENERATORS):
            words = rng.bit_generator.random_raw(shape)
        else:
            words = rng.integers(0, _WORD_MOD, size=shape, dtype=np.uint64)
        if self._cut_top:
            words[:, -1] &= self._top_mask
        return ResidueVector(words, self.modulus)

    def sum_arrays(
        self, plus: Sequence[ResidueVector], minus: Sequence[ResidueVector] = ()
    ) -> ResidueVector:
        """``sum(plus) - sum(minus) mod q`` as one batched operation.

        With one word per residue the operands are added and subtracted
        in place into one copy of the first, in native ``uint64``
        arithmetic, whose wraparound is reduction mod ``2^64`` and so
        mod any ``q = 2^k`` with ``k <= 64`` after the top mask.  With
        more limbs each 64-bit limb is split into two 32-bit halves,
        every half-limb column is summed over all operands in ``int64``
        (no overflow below 2^31 operands), and one signed carry pass
        folds the column sums back into limbs.
        """
        k = len(plus)
        arrays = self._operand_limbs([*plus, *minus])
        if self._one_word:
            if k:
                total = arrays[0].copy()
                for words in arrays[1:k]:
                    np.add(total, words, out=total)
            else:
                total = np.zeros_like(arrays[0])
            for words in arrays[k:]:
                np.subtract(total, words, out=total)
            if self._cut_top:
                total &= self._top_mask
            return ResidueVector(total, self.modulus)
        # The explicit little-endian view orders each limb's halves low,
        # high; an empty slice sums to zeros.
        stacked = np.stack(arrays).astype("<u8", copy=False)
        split = stacked.view("<u4")
        net = split[:k].sum(axis=0, dtype=np.int64) - split[k:].sum(axis=0, dtype=np.int64)
        halves = np.empty(net.shape, dtype="<u4")
        carry: np.ndarray | int = 0
        for j in range(net.shape[1]):
            column = net[:, j] + carry
            halves[:, j] = column & _HALF_MASK
            carry = column >> _HALF_BITS  # arithmetic: borrows are negative
        limbs = halves.view("<u8").astype(np.uint64, copy=False)
        limbs[:, -1] &= self._top_mask
        return ResidueVector(limbs, self.modulus)

    # -- internals -------------------------------------------------------

    def _check_encodable(self, values: ArrayLike) -> np.ndarray:
        arr = np.asarray(values, dtype=float).ravel()
        if not np.all(np.isfinite(arr)):
            raise ValueError("cannot encode non-finite values")
        too_big = np.abs(arr) >= self.max_magnitude
        if too_big.any():
            worst = float(np.max(np.abs(arr)))
            raise OverflowError(
                f"value magnitude {worst:g} exceeds the overflow-safe bound "
                f"{self.max_magnitude:g} of the ring Z_q, q = 2^{self.modulus_bits}, with "
                f"fractional_bits={self.fractional_bits} and "
                f"max_terms={self.max_terms}"
            )
        return arr

    def _operand_limbs(self, operands: Sequence[ResidueVector]) -> list[np.ndarray]:
        """Each operand's limb array, checked: a foreign modulus or a
        length mismatch is a ``ValueError``, anything but a
        :class:`ResidueVector` a ``TypeError``."""
        if not operands:
            raise ValueError("sum_arrays needs at least one operand")
        n = len(operands[0])
        arrays = []
        for value in operands:
            if not isinstance(value, ResidueVector):
                raise TypeError(
                    f"codec operands must be ResidueVector, got {type(value).__name__}"
                )
            if value.modulus != self.modulus:
                raise ValueError(
                    f"residue vector modulus {value.modulus} does not match "
                    f"codec modulus {self.modulus}"
                )
            if len(value.limbs) != n:
                lengths = sorted({len(v) for v in operands})
                raise ValueError(f"length mismatch: {lengths}")
            arrays.append(value.limbs)
        return arrays

    def _negate_limbs(self, limbs: np.ndarray) -> np.ndarray:
        """Two's-complement negation modulo ``2^modulus_bits``."""
        out = ~limbs
        carry = np.ones(limbs.shape[0], dtype=np.uint64)
        for i in range(limbs.shape[1]):
            total = out[:, i] + carry
            carry = (total < carry).astype(np.uint64)
            out[:, i] = total
        out[:, -1] &= self._top_mask
        return out

    def _decode_exact(self, residues: list[int]) -> np.ndarray:
        """Centered lift and unscale of Python-int residues, one by one."""
        half = self.modulus >> 1
        out = np.empty(len(residues), dtype=float)
        for i, r in enumerate(residues):
            out[i] = (r - self.modulus if r >= half else r) / self.scale
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FixedPointCodec(fractional_bits={self.fractional_bits}, "
            f"modulus_bits={self.modulus_bits}, max_terms={self.max_terms})"
        )


def _rebuild_limbs(data: bytes, n_limbs: int, modulus: int) -> ResidueVector:
    """Unpickle a limb :class:`ResidueVector` (see ``__reduce__``).

    The limbs view the pickled bytes, so the array is read-only; every
    codec operation builds new arrays rather than writing into its
    operands.
    """
    limbs = np.frombuffer(data, dtype=np.uint64).reshape(-1, n_limbs)
    return ResidueVector(limbs, modulus)


def _limbs_to_ints(limbs: np.ndarray) -> list[int]:
    """Compose little-endian ``uint64`` limb rows ``(n, L)`` into ints."""
    acc = [0] * limbs.shape[0]
    for i in range(limbs.shape[1] - 1, -1, -1):
        acc = [(a << _WORD_BITS) | int(v) for a, v in zip(acc, limbs[:, i])]
    return acc


def _float_to_uint64(values: np.ndarray) -> np.ndarray:
    """Exact cast of integral floats in ``[0, 2^64)`` to ``uint64``.

    Split at ``2^63`` so the conversion never relies on the C behavior
    of casting an out-of-``int64``-range float to an unsigned type.
    """
    high = values >= 2.0**63
    if not np.any(high):
        return values.astype(np.uint64)
    shifted = np.where(high, values - 2.0**63, values).astype(np.uint64)
    return shifted + np.where(high, np.uint64(1) << np.uint64(63), np.uint64(0))
