"""Shamir secret sharing of fixed-point words on word-sized residue planes.

Secret sharing is the third classic way (besides pairwise masking and
homomorphic encryption) to realize the secure aggregation the paper
needs at the Reducer.  Shamir's t-of-n threshold scheme tolerates
dropouts (up to n - t), which pairwise masking does not; the
dropout-robust :mod:`repro.crypto.threshold_sum` runs on it.

The secret is a signed 64-bit fixed-point word (the trainer's one-word
:class:`~repro.crypto.fixed_point.FixedPointCodec`), held in
residue-number form: one *plane* per prime of :data:`SHARE_PRIMES`, so
an ``n``-vector is a ``uint64`` array of shape ``(n, 3)`` with entries
below 2^32.  Each prime is below 2^32, so every product of two residues
fits a ``uint64``, and their product ``Q`` exceeds 2^64, so the
Chinese-remainder lift of a sum recovers any word below 2^63 in
magnitude exactly (:func:`planes_to_words`).  Shamir sharing is linear,
so every plane is shared, summed and interpolated independently, all
in numpy:

* :func:`word_planes` reduces signed words mod each prime;
* :func:`shamir_share` evaluates random polynomials at ``x = 1..n`` by
  vectorized Horner, with every coefficient drawn in one call and a
  reduction mod p only when a partial value could pass 2^64;
* :func:`add_shares` sums share planes (a share of the summed secret);
* :func:`shamir_reconstruct` applies Lagrange-at-zero weights per prime;
* :func:`planes_to_words` lifts back to the 64-bit word by Garner's CRT.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "SHARE_PRIMES",
    "add_shares",
    "planes_to_words",
    "shamir_reconstruct",
    "shamir_share",
    "word_planes",
]

#: The three primes below 2^32 of the share planes; their product
#: exceeds 2^64.
SHARE_PRIMES: tuple[int, int, int] = (4294967291, 4294967279, 4294967231)

_P = np.array(SHARE_PRIMES, dtype=np.uint64)
_P0, _P1, _P2 = (np.uint64(p) for p in SHARE_PRIMES)
# Garner's constants: the digit inverses, and p0·p1 and Q = p0·p1·p2
# reduced mod 2^64 for the wraparound lift.
_INV_P0_MOD_P1 = np.uint64(pow(SHARE_PRIMES[0], -1, SHARE_PRIMES[1]))
_INV_P0P1_MOD_P2 = np.uint64(
    pow(SHARE_PRIMES[0] * SHARE_PRIMES[1], -1, SHARE_PRIMES[2])
)
_P0_MOD_P2 = np.uint64(SHARE_PRIMES[0] % SHARE_PRIMES[2])
_P0P1_WORD = np.uint64(SHARE_PRIMES[0] * SHARE_PRIMES[1] % 2**64)
_Q_WORD = np.uint64(SHARE_PRIMES[0] * SHARE_PRIMES[1] * SHARE_PRIMES[2] % 2**64)


def word_planes(words: np.ndarray) -> np.ndarray:
    """Signed 64-bit words (``uint64`` two's complement) as residue planes.

    ``words`` has shape ``(n,)`` or ``(n, 1)``; the result has shape
    ``(n, 3)``, column ``i`` holding each word's signed value mod
    ``SHARE_PRIMES[i]``.
    """
    signed = words.reshape(-1, 1).view(np.int64)
    return (signed % _P.astype(np.int64)).astype(np.uint64)


def shamir_share(
    planes: np.ndarray, n_shares: int, threshold: int, rng: np.random.Generator
) -> np.ndarray:
    """Shamir shares of every element of ``planes``, shape ``(n_shares, n, 3)``.

    Share ``j`` holds ``f(j + 1)`` for an independent random polynomial
    ``f`` of degree ``threshold - 1`` per element and prime with
    ``f(0)`` the secret residue.  All ``(threshold - 1)·n·3``
    coefficients come from one unbiased
    ``rng.integers(0, p, dtype=uint64)`` call.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if n_shares < threshold:
        raise ValueError(f"n_shares ({n_shares}) must be >= threshold ({threshold})")
    coeffs = rng.integers(0, _P, size=(threshold - 1, *planes.shape), dtype=np.uint64)
    xs = np.arange(1, n_shares + 1, dtype=np.uint64)[:, None, None]
    # Horner from the top coefficient down to the secret.  A step
    # ``acc * x + c`` (x <= n_shares, c < 2^32) raises the bound on
    # ``acc`` to ``bound * n_shares + 2^32``; reduce only if it could pass 2^64.
    acc = np.zeros((n_shares, *planes.shape), dtype=np.uint64)
    bound = 0
    for c in (*coeffs[::-1], planes):
        if bound * n_shares + 2**32 > 2**64:
            acc %= _P
            bound = 2**32
        acc *= xs
        acc += c
        bound = bound * n_shares + 2**32
    return acc % _P


def add_shares(shares: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of share planes mod each prime.

    Shamir sharing is linear, so the sum of shares held at one ``x`` is
    that ``x``'s share of the summed secrets.
    """
    return np.sum(shares, axis=0, dtype=np.uint64) % _P


@lru_cache(maxsize=256)
def _lagrange_weights(xs: tuple[int, ...]) -> np.ndarray:
    """Lagrange-at-zero weights for share x-coordinates, shape ``(k, 3)``.

    ``sum_i w[i, k] * f(x_i) == f(0)`` mod ``SHARE_PRIMES[k]`` for every
    polynomial ``f`` of degree below ``len(xs)``.  They depend only on
    the survivor set, so they are computed once per set.
    """
    weights = np.empty((len(xs), len(SHARE_PRIMES)), dtype=np.uint64)
    for k, p in enumerate(SHARE_PRIMES):
        for i, x_i in enumerate(xs):
            num, den = 1, 1
            for j, x_j in enumerate(xs):
                if i != j:
                    num = num * -x_j % p
                    den = den * (x_i - x_j) % p
            weights[i, k] = num * pow(den, -1, p) % p
    weights.flags.writeable = False
    return weights


def shamir_reconstruct(xs: Sequence[int], shares: np.ndarray) -> np.ndarray:
    """Interpolate the secret planes at zero from ``shares[i]`` at ``xs[i]``.

    ``shares`` has shape ``(k, n, 3)``; the result ``(n, 3)``.  With
    fewer than ``threshold`` shares the result is a wrong value.
    """
    xs = tuple(int(x) for x in xs)
    if not xs or len(xs) != len(shares):
        raise ValueError(f"{len(xs)} share indices for {len(shares)} shares")
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share indices")
    weights = _lagrange_weights(xs)
    total = np.zeros(shares.shape[1:], dtype=np.uint64)
    for weight, share in zip(weights, shares):
        total += share.astype(np.uint64) * weight % _P
    return total % _P


def planes_to_words(planes: np.ndarray) -> np.ndarray:
    """Garner's CRT lift of ``(n, 3)`` residue planes to signed 64-bit words.

    Returns ``uint64`` two's-complement words, shape ``(n,)``, exact for
    values below 2^63 in magnitude.  The mixed-radix digits are
    ``v0 + v1·p0 + v2·p0·p1 = value mod Q``.  A non-negative value is
    below ``p0·p1``, so its top digit ``v2`` is 0; a negative one lies
    within 2^63 of ``Q`` and has ``v2 = p2 - 1``.  The word is the digit
    sum in wraparound ``uint64`` arithmetic, minus ``Q`` for a negative
    value.
    """
    r0, r1, r2 = planes[:, 0], planes[:, 1], planes[:, 2]
    v1 = (r1 + _P1 - r0 % _P1) % _P1 * _INV_P0_MOD_P1 % _P1
    low = (r0 + v1 * _P0_MOD_P2) % _P2
    v2 = (r2 + _P2 - low) % _P2 * _INV_P0P1_MOD_P2 % _P2
    words = r0 + v1 * _P0 + v2 * _P0P1_WORD
    words[v2 != 0] -= _Q_WORD
    return words
