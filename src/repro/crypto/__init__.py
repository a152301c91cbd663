"""Cryptographic substrate for the privacy-preserving trainers.

The paper's scheme needs exactly one cryptographic primitive at run time:
a **coalition-resistant secure summation** executed by the Reducer every
iteration (Section V).  This package implements that protocol over the
simulated cluster network, plus the supporting and comparison machinery:

* :mod:`repro.crypto.fixed_point` — float vectors ↔ the integer group
  Z_q the masking protocol operates in;
* :mod:`repro.crypto.secure_sum` — the round engine every secure sum
  runs on, with its :class:`~repro.cluster.twister.Aggregator`
  adapter, and on it the paper's protocol (Protocol 1);
* :mod:`repro.crypto.paillier` — an additively homomorphic cryptosystem,
  used by the SMC-style baselines the paper compares against in related
  work (e.g. secure kernel computation [28], BP training [30]);
* :mod:`repro.crypto.secret_sharing` — Shamir sharing on word-sized
  residue planes, behind the dropout-robust threshold sum
  (:mod:`repro.crypto.threshold_sum`, the engine's second scheme), a
  different trust model.
"""

from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.paillier import PaillierCiphertext, PaillierKeyPair, PaillierPublicKey
from repro.crypto.secret_sharing import shamir_reconstruct, shamir_share
from repro.crypto.secure_sum import SecureSumAggregator, SecureSummationProtocol
from repro.crypto.threshold_sum import (
    RingWidthError,
    ThresholdSumAggregator,
    ThresholdSummationProtocol,
)

__all__ = [
    "FixedPointCodec",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "PaillierPublicKey",
    "RingWidthError",
    "SecureSumAggregator",
    "SecureSummationProtocol",
    "ThresholdSumAggregator",
    "ThresholdSummationProtocol",
    "shamir_reconstruct",
    "shamir_share",
]
