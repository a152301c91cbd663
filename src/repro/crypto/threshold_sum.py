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
    add_shares,
    planes_to_words,
    shamir_reconstruct,
    shamir_share,
    word_planes,
)
from repro.obs.audit import ProtocolAuditLog
from repro.utils.rng import as_rng, spawn_rngs

__all__ = ["RingWidthError", "ThresholdSumAggregator", "ThresholdSummationProtocol"]

#: The one ring the residue planes lift back to: a 64-bit word.
_RING_BITS = 64


class RingWidthError(ValueError):
    """The threshold sum was given a codec whose ring is not one 64-bit
    word (``fixed_point.ring_bits`` gives more than one word above 128
    learners at 40 fractional bits)."""


class ThresholdSummationProtocol:
    """t-of-M dropout-robust secure summation.

    Parameters
    ----------
    network:
        The cluster fabric.
    participant_ids:
        Mapper node ids; their order fixes the Shamir x-coordinates.
    reducer_id:
        The Reducer node id.
    threshold:
        Minimum number of surviving Mappers needed to reconstruct.
    codec:
        Fixed-point codec on a 64-bit ring; defaults to
        ``FixedPointCodec(40, 64, max_terms=M)``.  Any other ring width
        raises :class:`RingWidthError`.
    audit:
        Optional :class:`~repro.obs.audit.ProtocolAuditLog`; when given,
        each round's share distribution and reconstruction are recorded
        and the threshold/share-count invariants are checked live.
    """

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
        if len(participant_ids) < 2:
            raise ValueError("threshold summation needs at least 2 participants")
        if len(set(participant_ids)) != len(participant_ids):
            raise ValueError("participant ids must be unique")
        if reducer_id in participant_ids:
            raise ValueError("the reducer cannot be a participant")
        n = len(participant_ids)
        self.threshold = threshold if threshold is not None else (n // 2 + 1)
        if not 2 <= self.threshold <= n:
            raise ValueError(f"threshold must be in [2, {n}], got {self.threshold}")
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.codec = (
            codec if codec is not None else FixedPointCodec(40, _RING_BITS, max_terms=n)
        )
        if self.codec.modulus_bits != _RING_BITS:
            raise RingWidthError(
                f"the threshold sum runs on a {_RING_BITS}-bit ring; the codec's "
                f"ring is {self.codec.modulus_bits} bits"
            )
        self.audit = audit
        for node in [*self.participants, reducer_id]:
            network.register(node)
        self._rngs = dict(zip(self.participants, spawn_rngs(as_rng(seed), n)))

    def sum_vectors(
        self,
        values: dict[str, np.ndarray],
        *,
        dropouts: set[str] | frozenset[str] = frozenset(),
    ) -> np.ndarray:
        """Run one aggregation round.

        ``dropouts`` simulates Mappers that crash *after* distributing
        their input shares but *before* sending their aggregated share —
        the failure mode that breaks the masking protocol.  Their inputs
        are still included in the reconstructed sum.
        """
        if set(values) != set(self.participants):
            raise ValueError("values must cover exactly the participants")
        dropouts = set(dropouts)
        unknown = dropouts - set(self.participants)
        if unknown:
            raise ValueError(f"unknown dropout ids {sorted(unknown)}")
        alive = [p for p in self.participants if p not in dropouts]
        if len(alive) < self.threshold:
            raise ValueError(
                f"only {len(alive)} participants alive; threshold is {self.threshold}"
            )
        lengths = {len(np.asarray(v, dtype=float).ravel()) for v in values.values()}
        if len(lengths) != 1:
            raise ValueError(f"all vectors must share one length, got {sorted(lengths)}")
        (dim,) = lengths
        metrics = self.network.metrics
        tracer = self.network.tracer
        n = len(self.participants)

        with tracer.span(
            "crypto.threshold_sum",
            kind="crypto",
            n_participants=n,
            threshold=self.threshold,
            n_dropouts=len(dropouts),
            vector_length=dim,
        ):
            if self.audit is not None:
                self.audit.begin_round(
                    "threshold-sum",
                    self.participants,
                    threshold=self.threshold,
                    expected_senders=alive,
                )
            try:
                totals = self._run_round(values, alive)
            except BaseException:
                # A failed round (an overflow at encode, a failed node)
                # must leave neither an open audit round nor a queued
                # message for the next one.
                for node in (*self.participants, self.reducer_id):
                    for kind in ("threshold-share", "threshold-agg-share"):
                        while self.network.pending(node, kind):
                            self.network.receive_message(node, kind)
                if self.audit is not None:
                    self.audit.discard_round()
                raise
            metrics.increment("crypto.threshold_sum_rounds", 1)
            if self.audit is not None:
                self.audit.reconstruction(self.threshold, ok=True)
                self.audit.end_round()
            return self.codec.decode(totals)

    def _run_round(self, values: dict[str, np.ndarray], alive: list[str]) -> ResidueVector:
        """Steps 1-4 of one round; returns the reconstructed words."""
        metrics = self.network.metrics
        tracer = self.network.tracer
        n = len(self.participants)
        # Step 1: share each element among all participants.
        # incoming[dst] = one share plane from each participant.
        incoming: dict[str, list[np.ndarray]] = {p: [] for p in self.participants}
        with tracer.span("crypto.share_distribution", kind="crypto"):
            # Every input is encoded before any share is sent, so an
            # overflow leaves no message in flight.
            encoded = {
                p: word_planes(self.codec.encode_array(values[p]).limbs)
                for p in self.participants
            }
            for src in self.participants:
                shares = shamir_share(encoded[src], n, self.threshold, self._rngs[src])
                metrics.increment("crypto.shamir_shares_generated", n * len(encoded[src]))
                for dst, share in zip(self.participants, shares.astype(np.uint32)):
                    if dst == src:
                        incoming[dst].append(share)
                    else:
                        self.network.send(src, dst, share, kind="threshold-share")
            for dst in self.participants:
                for _ in range(n - 1):
                    incoming[dst].append(
                        self.network.receive(dst, kind="threshold-share")
                    )

        # Step 2/3: alive participants aggregate their shares and
        # forward.  Shamir sharing is linear, so the elementwise sum
        # of held share planes is a share of the summed secret.
        with tracer.span("crypto.share_aggregation", kind="crypto"):
            for p in alive:
                aggregated = add_shares(incoming[p]).astype(np.uint32)
                x_coord = self.participants.index(p) + 1
                self.network.send(
                    p, self.reducer_id, (x_coord, aggregated), kind="threshold-agg-share"
                )
                if self.audit is not None:
                    self.audit.share_sent(p)

        # Step 4: reconstruct from the first `threshold` aggregated
        # shares with Lagrange-at-zero weights per prime, then lift the
        # planes back to the codec's 64-bit word.
        with tracer.span(
            "crypto.shamir_reconstruct", kind="crypto", node=self.reducer_id
        ):
            received: list[tuple[int, np.ndarray]] = []
            for _ in alive:
                message = self.network.receive_message(
                    self.reducer_id, kind="threshold-agg-share"
                )
                received.append(message.payload)
                if self.audit is not None:
                    self.audit.share_received(message.src)
            chosen = received[: self.threshold]
            planes = shamir_reconstruct(
                [x for x, _ in chosen], np.stack([share for _, share in chosen])
            )
            words = planes_to_words(planes)
        return ResidueVector(words.reshape(-1, 1), self.codec.modulus)


class ThresholdSumAggregator:
    """Twister :class:`~repro.cluster.twister.Aggregator` using Shamir shares.

    Drop-in alternative to
    :class:`~repro.crypto.secure_sum.SecureSumAggregator` with the
    t-of-M robustness profile: pass ``dropout_schedule`` (iteration
    index -> set of crashing mapper ids) to fault-injection experiments;
    the consensus still forms as long as >= ``threshold`` mappers
    survive each round.  ``codec`` (``None`` for the protocol's default)
    must be on a 64-bit ring; ``PrivacyPreservingSVM`` supplies its own
    when it is ``None``.
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
        self.threshold = threshold
        self.codec = codec
        self.seed = as_rng(seed)
        self.dropout_schedule = dropout_schedule or {}
        self.audit = audit
        self._protocol: ThresholdSummationProtocol | None = None
        self._round = 0

    def aggregate(
        self,
        outputs: dict[str, dict[str, np.ndarray]],
        reducer_id: str,
        network: Network,
    ) -> dict[str, np.ndarray]:
        """Shamir-aggregate mapper outputs, tolerating scheduled dropouts."""
        participants = sorted(outputs)
        if self._protocol is None or self._protocol.participants != participants:
            self._protocol = ThresholdSummationProtocol(
                network,
                participants,
                reducer_id,
                threshold=self.threshold,
                codec=self.codec,
                seed=self.seed,
                audit=self.audit,
            )
        keys = sorted(outputs[participants[0]])
        for p in participants:
            if sorted(outputs[p]) != keys:
                raise ValueError(f"mapper {p!r} produced keys {sorted(outputs[p])}, expected {keys}")
        layout = [
            (k, np.asarray(outputs[participants[0]][k], dtype=float).shape) for k in keys
        ]
        flat = {
            p: np.concatenate(
                [np.asarray(outputs[p][k], dtype=float).ravel() for k in keys]
            )
            for p in participants
        }
        dropouts = self.dropout_schedule.get(self._round, set())
        self._round += 1
        summed = self._protocol.sum_vectors(flat, dropouts=dropouts)
        result: dict[str, np.ndarray] = {}
        offset = 0
        for key, shape in layout:
            size = int(np.prod(shape)) if shape else 1
            result[key] = summed[offset : offset + size].reshape(shape)
            offset += size
        return result
