"""Tests for Paillier and secret sharing."""

import numpy as np
import pytest

from repro.crypto.paillier import PaillierKeyPair, is_probable_prime
from repro.crypto.secret_sharing import (
    MERSENNE_PRIME_127,
    additive_reconstruct,
    additive_share,
    shamir_reconstruct,
    shamir_share,
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


class TestAdditiveSharing:
    def test_reconstruction(self, rng):
        secret = 123456789
        shares = additive_share(secret, 5, rng=rng)
        assert additive_reconstruct(shares) == secret

    def test_negative_secret_mod_group(self, rng):
        modulus = 1 << 64
        shares = additive_share(-5, 3, modulus=modulus, rng=rng)
        assert additive_reconstruct(shares, modulus=modulus) == (-5) % modulus

    def test_single_share_uninformative_shape(self, rng):
        # All proper subsets are uniform: different secrets can yield the
        # same first n-1 shares under suitable last shares.
        shares_a = additive_share(1, 3, rng=np.random.default_rng(0))
        shares_b = additive_share(10**18, 3, rng=np.random.default_rng(0))
        assert shares_a[:2] == shares_b[:2]  # same rng -> same masks
        assert shares_a[2] != shares_b[2]

    def test_needs_two_shares(self):
        with pytest.raises(ValueError):
            additive_share(1, 1)

    def test_empty_reconstruct_rejected(self):
        with pytest.raises(ValueError):
            additive_reconstruct([])


class TestShamir:
    def test_exact_threshold_reconstructs(self, rng):
        secret = 42424242
        shares = shamir_share(secret, 5, 3, rng=rng)
        assert shamir_reconstruct(shares[:3]) == secret

    def test_any_subset_of_threshold_size(self, rng):
        secret = 777
        shares = shamir_share(secret, 6, 3, rng=rng)
        for subset in ([0, 2, 4], [1, 3, 5], [0, 4, 5]):
            assert shamir_reconstruct([shares[i] for i in subset]) == secret

    def test_below_threshold_gives_wrong_answer(self, rng):
        secret = 999
        shares = shamir_share(secret, 5, 3, rng=rng)
        # 2 shares interpolate a line — almost surely not the secret.
        assert shamir_reconstruct(shares[:2]) != secret

    def test_threshold_one_is_replication(self, rng):
        shares = shamir_share(31337, 4, 1, rng=rng)
        assert all(value == 31337 for _, value in shares)

    def test_large_secret_in_field(self, rng):
        secret = MERSENNE_PRIME_127 - 2
        shares = shamir_share(secret, 3, 2, rng=rng)
        assert shamir_reconstruct(shares[:2]) == secret

    def test_duplicate_indices_rejected(self, rng):
        shares = shamir_share(5, 3, 2, rng=rng)
        with pytest.raises(ValueError, match="duplicate"):
            shamir_reconstruct([shares[0], shares[0]])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            shamir_share(1, 2, 3)
        with pytest.raises(ValueError):
            shamir_share(1, 3, 0)

