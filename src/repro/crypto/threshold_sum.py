"""Dropout-robust secure summation via Shamir sharing (extension).

The paper's masking protocol (Section V) has an availability weakness:
if any single Mapper crashes between exchanging masks and sending its
masked share, the Reducer's sum is garbage — the crashed Mapper's
pairwise pads never cancel.  Production secure-aggregation systems fix
this with threshold secret sharing; this module implements that
extension on the same simulated substrate so the trade-off can be
measured (see the fault-injection tests):

1. each Mapper fixed-point-encodes its vector as signed 64-bit words,
   reduces them onto three word-sized prime planes
   (:mod:`repro.crypto.secret_sharing`) and **Shamir-shares** every
   element of every plane among all M Mappers with threshold ``t``
   (Mapper *j* holds the evaluations at x = j+1);
2. each Mapper sums, elementwise, all the shares it holds — Shamir
   sharing is linear, so these are shares *of the sum*;
3. alive Mappers send their aggregated share to the Reducer;
4. the Reducer Lagrange-interpolates from any ``t`` aggregated shares
   and lifts the planes back to the 64-bit word by the Chinese
   remainder theorem.

Shares travel as ``uint32`` planes of shape ``(n, 3)``.  The codec is
the trainer's, which must be a one-word (64-bit) ring
(:class:`RingWidthError` otherwise); by default it is
``FixedPointCodec(40, 64, max_terms=M)``, so a value's magnitude bound
is ``2^23 / M``, as on the fresh path.  A codec whose ``max_terms``
covers the M inputs keeps their sum below 2^63, where the lift is exact.

The round around the sharing (checks, span, audit round, drain on
failure, decode, named-output layout) is the engine of
:mod:`repro.crypto.secure_sum`; this module supplies only steps 1-4.

Privacy: any coalition of fewer than ``t`` Mappers (plus the Reducer,
who only ever sees shares of the *sum*) learns nothing about an
individual input.  Robustness: up to ``M - t`` Mappers may crash after
step 1 and the sum — still including their contributions — survives.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import Network
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.crypto.secret_sharing import (
    add_shares, planes_to_words, shamir_reconstruct, shamir_share, word_planes,
)  # fmt: skip
from repro.crypto.secure_sum import SecureAggregationProtocol, SecureAggregator
from repro.obs.audit import ProtocolAuditLog

__all__ = ["RingWidthError", "ThresholdSumAggregator", "ThresholdSummationProtocol"]

#: The one ring the residue planes lift back to: a 64-bit word.
_RING_BITS = 64


class RingWidthError(ValueError):
    """The threshold sum was given a codec whose ring is not one 64-bit
    word (``fixed_point.ring_bits`` gives more than one word above 128
    learners at 40 fractional bits)."""


class ThresholdSummationProtocol(SecureAggregationProtocol):
    """t-of-M dropout-robust secure summation.

    Takes the engine's parameters
    (:class:`~repro.crypto.secure_sum.SecureAggregationProtocol`) and
    ``threshold``, the minimum number of surviving Mappers needed to
    reconstruct (default a majority).  Participant order fixes the
    Shamir x-coordinates.  The codec must be on a 64-bit ring
    (:class:`RingWidthError` otherwise); it defaults to
    ``FixedPointCodec(40, 64, max_terms=M)``.
    """

    span_name = "crypto.threshold_sum"
    audit_name = "threshold-sum"
    message_kinds = ("threshold-share", "threshold-agg-share")

    def __init__(
        self,
        network: Network,
        participant_ids: list[str],
        reducer_id: str,
        *,
        threshold: int | None = None,
        codec: FixedPointCodec | None = None,
        seed: int | np.random.Generator | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        self.threshold = threshold if threshold is not None else len(participant_ids) // 2 + 1
        super().__init__(network, participant_ids, reducer_id, codec=codec, seed=seed, audit=audit)

    def _configure(self, codec: FixedPointCodec | None) -> FixedPointCodec:
        n = len(self.participants)
        if not 2 <= self.threshold <= n:
            raise ValueError(f"threshold must be in [2, {n}], got {self.threshold}")
        codec = codec if codec is not None else FixedPointCodec(40, _RING_BITS, max_terms=n)
        if codec.modulus_bits != _RING_BITS:
            raise RingWidthError(
                f"the threshold sum runs on a {_RING_BITS}-bit ring; the codec's "
                f"ring is {codec.modulus_bits} bits"
            )
        return codec

    def sum_vectors(
        self, values: dict[str, np.ndarray], *, dropouts: set[str] | frozenset[str] = frozenset()
    ) -> np.ndarray:
        """Run one aggregation round.

        ``dropouts`` simulates Mappers that crash *after* distributing
        their input shares but *before* sending their aggregated share —
        the failure mode that breaks the masking protocol.  Their inputs
        are still included in the reconstructed sum.
        """
        unknown = set(dropouts) - set(self.participants)
        if unknown:
            raise ValueError(f"unknown dropout ids {sorted(unknown)}")
        alive = [p for p in self.participants if p not in dropouts]
        n, t = len(self.participants), self.threshold
        if len(alive) < t:
            raise ValueError(f"only {len(alive)} participants alive; threshold is {t}")
        attrs = {"n_participants": n, "threshold": t, "n_dropouts": n - len(alive)}
        return self._sum(values, alive, attrs, {"threshold": t, "expected_senders": alive})

    def _run_round(self, stacked: ResidueVector, n: int, senders: list[str]) -> ResidueVector:
        """Steps 1-4 of one round; ``senders`` are the survivors."""
        network, audit = self.network, self.audit
        participants, reducer_id, threshold = self.participants, self.reducer_id, self.threshold
        metrics, tracer = network.metrics, network.tracer
        send, receive_message = network.send, network.receive_message
        m = len(participants)
        planes = word_planes(stacked.limbs)
        # Step 1: share each element among all participants.
        # incoming[dst] = one share plane from each participant.
        incoming: dict[str, list[np.ndarray]] = {p: [] for p in participants}
        with tracer.span("crypto.share_distribution", kind="crypto"):
            for i, src in enumerate(participants):
                shares = shamir_share(planes[i * n : (i + 1) * n], m, threshold, self._rngs[src])
                metrics.increment("crypto.shamir_shares_generated", m * n)
                for dst, share in zip(participants, shares.astype(np.uint32)):
                    if dst == src:
                        incoming[dst].append(share)
                    else:
                        send(src, dst, share, kind="threshold-share")
            for dst in participants:
                held = incoming[dst]
                for _ in range(m - 1):
                    held.append(receive_message(dst, kind="threshold-share").payload)

        # Step 2/3: survivors aggregate their shares and forward.
        # Shamir sharing is linear, so the elementwise sum of held
        # share planes is a share of the summed secret.
        with tracer.span("crypto.share_aggregation", kind="crypto"):
            for p in senders:
                aggregated = add_shares(incoming[p]).astype(np.uint32)
                x_coord = participants.index(p) + 1
                send(p, reducer_id, (x_coord, aggregated), kind="threshold-agg-share")
                if audit is not None:
                    audit.share_sent(p)

        # Step 4: reconstruct from the first `threshold` aggregated
        # shares with Lagrange-at-zero weights per prime, then lift the
        # planes back to the codec's 64-bit word.
        with tracer.span("crypto.shamir_reconstruct", kind="crypto", node=reducer_id):
            received: list[tuple[int, np.ndarray]] = []
            for _ in senders:
                message = receive_message(reducer_id, kind="threshold-agg-share")
                received.append(message.payload)
                if audit is not None:
                    audit.share_received(message.src)
            chosen = received[:threshold]
            planes = shamir_reconstruct(
                [x for x, _ in chosen], np.stack([share for _, share in chosen])
            )
            words = planes_to_words(planes)
        metrics.increment("crypto.threshold_sum_rounds", 1)
        if audit is not None:
            audit.reconstruction(threshold, ok=True)
        return ResidueVector(words.reshape(-1, 1), self.codec.modulus)


class ThresholdSumAggregator(SecureAggregator[ThresholdSummationProtocol]):
    """The Shamir threshold sum as a Twister aggregator.

    Drop-in alternative to
    :class:`~repro.crypto.secure_sum.SecureSumAggregator` with the
    t-of-M robustness profile: pass ``dropout_schedule`` (round index on
    the current binding -> set of crashing mapper ids) to
    fault-injection experiments; the consensus still forms as long as
    >= ``threshold`` mappers survive each round.  ``codec`` (``None``
    for the protocol's default) must be on a 64-bit ring;
    ``PrivacyPreservingSVM`` supplies its own when it is ``None``.
    """

    def __init__(
        self,
        *,
        threshold: int | None = None,
        codec: FixedPointCodec | None = None,
        seed: int | np.random.Generator | None = None,
        dropout_schedule: dict[int, set[str]] | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        super().__init__(codec=codec, seed=seed, audit=audit)
        self.threshold = threshold
        self.dropout_schedule = dropout_schedule or {}

    def _make_protocol(
        self, network: Network, ids: list[str], reducer_id: str
    ) -> ThresholdSummationProtocol:
        return ThresholdSummationProtocol(
            network, ids, reducer_id,
            threshold=self.threshold, codec=self.codec, seed=self.seed, audit=self.audit,
        )  # fmt: skip

    def _sum_round(
        self, protocol: ThresholdSummationProtocol, flat: dict, index: int
    ) -> np.ndarray:
        return protocol.sum_vectors(flat, dropouts=self.dropout_schedule.get(index, set()))
