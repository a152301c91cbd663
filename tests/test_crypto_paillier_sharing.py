"""Tests for Paillier and secret sharing."""

import numpy as np
import pytest

from repro.crypto.paillier import PaillierKeyPair, is_probable_prime
from repro.crypto.secret_sharing import (
    SHARE_PRIMES,
    planes_to_words,
    shamir_reconstruct,
    shamir_share,
    word_planes,
)


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeyPair.generate(bits=256, seed=99)


class TestPrimality:
    def test_known_primes(self, rng):
        for p in (2, 3, 101, 7919, 104729, (1 << 61) - 1):
            assert is_probable_prime(p, rng)

    def test_known_composites(self, rng):
        for c in (1, 4, 100, 7917, 561, 341550071728321 * 3):
            assert not is_probable_prime(c, rng)

    def test_carmichael_numbers_rejected(self, rng):
        for c in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(c, rng)


class TestPaillier:
    def test_encrypt_decrypt_roundtrip(self, keypair, rng):
        for m in (0, 1, -1, 123456789, -987654321):
            assert keypair.decrypt(keypair.public_key.encrypt(m, rng=rng)) == m

    def test_homomorphic_addition(self, keypair, rng):
        pk = keypair.public_key
        c = pk.encrypt(1234, rng=rng) + pk.encrypt(-234, rng=rng)
        assert keypair.decrypt(c) == 1000

    def test_plaintext_constant_addition(self, keypair, rng):
        c = keypair.public_key.encrypt(10, rng=rng) + 32
        assert keypair.decrypt(c) == 42

    def test_scalar_multiplication(self, keypair, rng):
        c = keypair.public_key.encrypt(-7, rng=rng) * 6
        assert keypair.decrypt(c) == -42

    def test_linear_combination(self, keypair, rng):
        pk = keypair.public_key
        c = pk.encrypt(3, rng=rng) * 5 + pk.encrypt(4, rng=rng) * -2
        assert keypair.decrypt(c) == 7

    def test_randomized_ciphertexts_differ(self, keypair, rng):
        pk = keypair.public_key
        assert pk.encrypt(5, rng=rng).value != pk.encrypt(5, rng=rng).value

    def test_vector_helpers(self, keypair, rng):
        values = [1, -2, 3]
        encrypted = keypair.public_key.encrypt_vector(values, rng=rng)
        assert keypair.decrypt_vector(encrypted) == values

    def test_cross_key_addition_rejected(self, keypair, rng):
        other = PaillierKeyPair.generate(bits=128, seed=1)
        with pytest.raises(ValueError, match="different keys"):
            _ = keypair.public_key.encrypt(1, rng=rng) + other.public_key.encrypt(1, rng=rng)

    def test_cross_key_decryption_rejected(self, keypair, rng):
        other = PaillierKeyPair.generate(bits=128, seed=2)
        with pytest.raises(ValueError, match="different key"):
            keypair.decrypt(other.public_key.encrypt(1, rng=rng))

    def test_plaintext_magnitude_guard(self, keypair):
        with pytest.raises(OverflowError):
            keypair.public_key.encode_signed(keypair.public_key.n)

    def test_key_generation_rejects_tiny_keys(self):
        with pytest.raises(ValueError):
            PaillierKeyPair.generate(bits=32)


def planes_of(*secrets):
    """Signed 64-bit secrets as (n, 3) residue planes."""
    return word_planes(np.array(secrets, dtype=np.int64).view(np.uint64))


def secrets_of(planes):
    return planes_to_words(planes).view(np.int64).tolist()


class TestShamir:
    def test_exact_threshold_reconstructs(self, rng):
        secret = planes_of(42424242, -7)
        shares = shamir_share(secret, 5, 3, rng)
        assert shares.shape == (5, 2, 3)
        assert secrets_of(shamir_reconstruct([1, 2, 3], shares[:3])) == [42424242, -7]

    def test_any_subset_of_threshold_size(self, rng):
        secret = planes_of(777)
        shares = shamir_share(secret, 6, 3, rng)
        for subset in ([0, 2, 4], [1, 3, 5], [0, 4, 5]):
            xs = [i + 1 for i in subset]
            assert secrets_of(shamir_reconstruct(xs, shares[subset])) == [777]

    def test_below_threshold_gives_wrong_answer(self, rng):
        secret = planes_of(999)
        shares = shamir_share(secret, 5, 3, rng)
        # 2 shares interpolate a line — almost surely not the secret.
        assert not np.array_equal(shamir_reconstruct([1, 2], shares[:2]), secret)

    def test_threshold_one_is_replication(self, rng):
        secret = planes_of(31337)
        shares = shamir_share(secret, 4, 1, rng)
        assert all(np.array_equal(share, secret) for share in shares)

    def test_large_secret_in_field(self, rng):
        # The extremes of the signed 64-bit word lift back exactly.
        extremes = [2**63 - 1, -(2**63) + 1, -1, 0]
        secret = planes_of(*extremes)
        assert (secret < np.array(SHARE_PRIMES, dtype=np.uint64)).all()
        shares = shamir_share(secret, 3, 2, rng)
        assert secrets_of(shamir_reconstruct([2, 3], shares[1:])) == extremes

    def test_duplicate_indices_rejected(self, rng):
        shares = shamir_share(planes_of(5), 3, 2, rng)
        with pytest.raises(ValueError, match="duplicate"):
            shamir_reconstruct([1, 1], shares[[0, 0]])

    @pytest.mark.parametrize(
        "n_shares, threshold", [(8, 5), (8, 8), (64, 33), (200, 150)]
    )
    def test_shares_equal_horner_reduced_at_every_step(self, n_shares, threshold):
        # The reference reduces mod p after every Horner step, from the
        # same coefficient draw.  At (64, 33) and (200, 150) the running
        # bound forces reductions part-way through the pass.
        words = np.random.default_rng(threshold).integers(-(2**62), 2**62, size=40)
        secret = planes_of(*words)
        shares = shamir_share(secret, n_shares, threshold, np.random.default_rng(n_shares))
        primes = np.array(SHARE_PRIMES, dtype=np.uint64)
        coeffs = np.random.default_rng(n_shares).integers(
            0, primes, size=(threshold - 1, *secret.shape), dtype=np.uint64
        )
        xs = np.arange(1, n_shares + 1, dtype=np.uint64)[:, None, None]
        expected = np.zeros((n_shares, *secret.shape), dtype=np.uint64)
        for c in (*coeffs[::-1], secret):
            expected = (expected * xs + c) % primes
        assert np.array_equal(shares, expected)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            shamir_share(planes_of(1), 2, 3, rng)
        with pytest.raises(ValueError):
            shamir_share(planes_of(1), 3, 0, rng)
