"""The paper's coalition-resistant secure summation protocol (Section V).

Protocol (verbatim from the paper, for ``M`` Mappers and one Reducer):

1. each Mapper generates ``M-1`` random numbers;
2. each Mapper sends its ``M-1`` numbers to the other ``M-1`` Mappers,
   one each;
3. Mapper *i* sums its generated numbers as ``Sed_i`` and its received
   numbers as ``Rev_i``;
4. Mapper *i* sends ``w_i + Sed_i - Rev_i`` to the Reducer;
5. the Reducer sums the received values: every random number was added
   once (by its generator) and subtracted once (by its receiver), so the
   masks cancel and the Reducer obtains ``sum_i w_i`` — and nothing else.

Each individual share is hidden by ``Sed_i - Rev_i``; because masks are
exchanged pairwise, the share of Mapper *i* stays uniformly distributed
even if the Reducer colludes with all Mappers except one (the mask
shared with the remaining honest Mapper still acts as a one-time pad) —
that is the coalition resistance.

Arithmetic happens in Z_q via :class:`~repro.crypto.fixed_point.FixedPointCodec`
so the pad is information-theoretically uniform; every message travels
through the simulated :class:`~repro.cluster.network.Network`, so the
protocol's cost and the adversary's wire view are both measurable.

Two mask modes are provided:

* ``"fresh"`` (paper-faithful): new random numbers are exchanged over
  the network on every invocation — O(M²) mask messages per iteration;
* ``"prg"`` (an optimization the paper hints at by citing efficiency,
  standard in later secure-aggregation literature): each unordered pair
  of Mappers agrees on a seed once, then derives that round's pad from a
  pairwise PRG stream — zero mask traffic after setup, same privacy
  against a semi-honest Reducer.

Observability: each invocation emits a ``crypto.secure_sum`` span whose
children time the protocol phases (``crypto.mask_exchange`` or
``crypto.pad_derivation``, ``crypto.masked_shares``,
``crypto.reduce_sum``); per-op costs are counted by the ``crypto.*``
counters listed in ``docs/OBSERVABILITY.md``, which a
:class:`~repro.cluster.profiling.Profiler` attributes to iterations.

One round engine: :class:`SecureAggregationProtocol` is the round every
secure-aggregation scheme shares, and :class:`SecureAggregator` its
Twister adapter.  The masked sum here and the Shamir threshold sum of
:mod:`repro.crypto.threshold_sum` differ only in their ``_run_round``;
the checks, the overflow check before any message, the span, the audit
round, the drain of a failed round, the decode, the mapper-key check
and the named-output layout are written once, here.
"""

from __future__ import annotations

from typing import Generic, TypeVar

import numpy as np

from repro.cluster.network import Network
from repro.cluster.twister import Aggregator
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.obs.audit import ProtocolAuditLog
from repro.utils.rng import as_rng, spawn_rngs

__all__ = [
    "SecureAggregationProtocol", "SecureAggregator",
    "SecureSumAggregator", "SecureSummationProtocol",
]  # fmt: skip


class SecureAggregationProtocol:
    """The round engine: one secure-aggregation round around a scheme.

    It owns the participant checks, node registration, one RNG stream
    per participant (``_rngs``), the ``values`` checks, one
    ``encode_array`` of all inputs, the span, the audit round, the
    drain of a failed round and the ``decode``.  A scheme supplies the
    class attributes below, ``_configure`` and ``_run_round`` (which
    books the scheme's rounds counter when the round completes).

    Parameters shared by every scheme
    ---------------------------------
    network:
        The cluster fabric; every message of the round goes through it.
    participant_ids:
        The Mapper node ids; their order fixes each scheme's pairing or
        share coordinates.
    reducer_id:
        The Reducer node id.
    codec:
        Fixed-point codec, or ``None`` for the scheme's default.
    seed:
        Seed of the per-participant random streams.
    audit:
        Optional :class:`~repro.obs.audit.ProtocolAuditLog`; every
        protocol step is recorded and checked at the end of each round.
    """

    span_name: str
    audit_name: str
    message_kinds: tuple[str, ...]

    def __init__(
        self,
        network: Network,
        participant_ids: list[str],
        reducer_id: str,
        *,
        codec: FixedPointCodec | None,
        seed: int | np.random.Generator | None,
        audit: ProtocolAuditLog | None,
    ) -> None:
        if len(participant_ids) < 2:
            raise ValueError("secure aggregation needs at least 2 participants")
        if len(set(participant_ids)) != len(participant_ids):
            raise ValueError("participant ids must be unique")
        if reducer_id in participant_ids:
            raise ValueError("the reducer cannot be a participant")
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.audit = audit
        # The scheme's checks run before any node is registered.
        self.codec = self._configure(codec)
        for node in [*self.participants, reducer_id]:
            network.register(node)
        self._rngs = dict(zip(self.participants, spawn_rngs(as_rng(seed), len(self.participants))))

    def _configure(self, codec: FixedPointCodec | None) -> FixedPointCodec:
        """Check the scheme's own arguments; return the codec to use."""
        raise NotImplementedError

    def sum_vectors(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Run one round, returning the elementwise sum of ``values``."""
        raise NotImplementedError

    def _run_round(self, stacked: ResidueVector, n: int, senders: list[str]) -> ResidueVector:
        """The Reducer's residue sum from ``stacked`` (each participant's
        encoded ``n``-vector, in order); ``senders`` reach the Reducer."""
        raise NotImplementedError

    def _sum(
        self, values: dict[str, np.ndarray], senders: list[str], span_attrs: dict, audit_args: dict
    ) -> np.ndarray:
        """The round skeleton around :meth:`_run_round`."""
        participants = self.participants
        if set(values) != set(participants):
            raise ValueError(
                f"values must cover exactly the participants; got {sorted(values)} "
                f"vs {sorted(participants)}"
            )
        flat = [np.asarray(values[p], dtype=float).ravel() for p in participants]
        lengths = {len(v) for v in flat}
        if len(lengths) != 1:
            raise ValueError(f"all vectors must share one length, got {sorted(lengths)}")
        (n,) = lengths
        network, audit = self.network, self.audit

        with network.tracer.span(self.span_name, kind="crypto", **span_attrs, vector_length=n):
            if audit is not None:
                audit.begin_round(self.audit_name, participants, **audit_args)
            try:
                # One encode for all participants: the overflow check
                # runs before any message is sent.
                stacked = self.codec.encode_array(np.concatenate(flat))
                total = self._run_round(stacked, n, senders)
            except BaseException:
                # A failed round (an overflow at encode, a failed node)
                # must leave neither an open audit round nor a queued
                # message for the next one.
                for node in (*participants, self.reducer_id):
                    for kind in self.message_kinds:
                        while network.pending(node, kind):
                            network.receive_message(node, kind)
                if audit is not None:
                    audit.discard_round()
                raise
            if audit is not None:
                audit.end_round()
            return self.codec.decode(total)


class SecureSummationProtocol(SecureAggregationProtocol):
    """Executable instance of the paper's Protocol 1.

    Takes the engine's parameters (:class:`SecureAggregationProtocol`),
    with ``mode`` ``"fresh"`` or ``"prg"`` (see module docstring); the
    default codec has 40 fractional bits in a 128-bit group.  The audit
    records every mask application/removal, pad derivation, seed
    agreement and share transfer.
    """

    span_name = "crypto.secure_sum"
    audit_name = "secure-sum"
    message_kinds = ("mask", "masked-share")

    def __init__(
        self,
        network: Network,
        participant_ids: list[str],
        reducer_id: str,
        *,
        codec: FixedPointCodec | None = None,
        mode: str = "fresh",
        seed: int | np.random.Generator | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        self.mode = mode
        super().__init__(network, participant_ids, reducer_id, codec=codec, seed=seed, audit=audit)
        # Fault-injection hook for the auditor's own tests: when set to a
        # ``(generator, receiver)`` pair, the receiver silently fails to
        # net off that one mask each round — the classic imbalance the
        # runtime audit must catch (and the sum becomes garbage).
        self._audit_fault: tuple[str, str] | None = None
        # Each participant's mask targets, in participant order.
        self._others = {
            p: tuple(q for q in self.participants if q != p) for p in self.participants
        }
        self._pair_rngs: dict[tuple[str, str], np.random.Generator] = {}
        if mode == "prg":
            self._exchange_pairwise_seeds()

    def _configure(self, codec: FixedPointCodec | None) -> FixedPointCodec:
        if self.mode not in ("fresh", "prg"):
            raise ValueError(f"mode must be 'fresh' or 'prg', got {self.mode!r}")
        return codec if codec is not None else FixedPointCodec()

    def _exchange_pairwise_seeds(self) -> None:
        """One-time pairwise seed agreement for ``"prg"`` mode.

        The lower-indexed participant of each pair draws a seed and sends
        it to its partner; both then derive identical pad streams.

        Emits one ``crypto.seed_exchange`` span and the
        ``crypto.mask_seeds_exchanged`` counter per pair.
        """
        with self.network.tracer.span(
            "crypto.seed_exchange", kind="crypto", n_participants=len(self.participants)
        ):
            for i, a in enumerate(self.participants):
                for b in self.participants[i + 1 :]:
                    pair_seed = int(self._rngs[a].integers(0, 2**63 - 1))
                    self.network.send(a, b, pair_seed, kind="mask-seed")
                    received = self.network.receive(b, kind="mask-seed")
                    self._pair_rngs[(a, b)] = as_rng(received)
                    self.network.metrics.increment("crypto.mask_seeds_exchanged", 1)
                    if self.audit is not None:
                        self.audit.seed_agreed(a, b)

    def sum_vectors(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Run the protocol once, returning the elementwise sum.

        ``values`` maps each participant id to its private real vector;
        all vectors must have the same length.  The return value equals
        the true sum up to fixed-point rounding (about
        ``2^-fractional_bits`` per term).  In ``"fresh"`` mode
        ``crypto.masks_generated`` is booked once per sender (``M - 1``
        at a time) rather than once per mask; the totals are the same.
        """
        attrs = {"mode": self.mode, "n_participants": len(self.participants)}
        return self._sum(values, self.participants, attrs, {})

    def _run_round(self, stacked: ResidueVector, n: int, senders: list[str]) -> ResidueVector:
        """Steps 1-5 of one round; the ``senders`` are all participants."""
        network, codec, audit = self.network, self.codec, self.audit
        participants, reducer_id = self.participants, self.reducer_id
        metrics, tracer = network.metrics, network.tracer
        # The per-message callables, looked up once per round.
        send, receive_message = network.send, network.receive_message
        # Each share starts from its participant's row slice.
        encoded = {p: stacked[i * n : (i + 1) * n] for i, p in enumerate(participants)}
        # Each participant's pads: ``added`` enter its share with +,
        # ``removed`` with -.
        added: dict[str, list[ResidueVector]] = {p: [] for p in participants}
        removed: dict[str, list[ResidueVector]] = {p: [] for p in participants}
        random_vector_array = codec.random_vector_array

        if self.mode == "fresh":
            # Steps 1-3: generate and exchange the pairwise masks;
            # each joins its generator's Sed and its receiver's Rev.
            # The audit is fed once per participant: each sender's
            # targets, then each receiver's netted sources.
            n_others = len(participants) - 1
            with tracer.span("crypto.mask_exchange", kind="crypto"):
                for sender in participants:
                    sender_rng = self._rngs[sender]
                    sed = added[sender]
                    targets = self._others[sender]
                    for receiver in targets:
                        mask = random_vector_array(n, sender_rng)
                        send(sender, receiver, mask, kind="mask")
                        sed.append(mask)
                    if audit is not None:
                        audit.mask_applied(sender, targets)
                    metrics.increment("crypto.masks_generated", n_others)
                for receiver in participants:
                    rev = removed[receiver]
                    sources: list[str] = []
                    for _ in range(n_others):
                        mask_message = receive_message(receiver, kind="mask")
                        if self._audit_fault == (mask_message.src, receiver):
                            continue  # injected fault: mask never netted
                        rev.append(mask_message.payload)
                        sources.append(mask_message.src)
                    if audit is not None:
                        audit.mask_removed(receiver, sources)
        else:
            # PRG mode: pads come from the shared pairwise streams; the
            # lower-indexed partner adds, the higher-indexed one
            # subtracts.
            with tracer.span("crypto.pad_derivation", kind="crypto"):
                for (a, b), pair_rng in self._pair_rngs.items():
                    pad = random_vector_array(n, pair_rng)
                    metrics.increment("crypto.masks_generated", 1)
                    added[a].append(pad)
                    removed[b].append(pad)
                    if audit is not None:
                        audit.pad_derived(a, b)

        # Step 4: masked shares w_i + Sed_i - Rev_i, each one batched
        # modular sum, to the Reducer.
        with tracer.span("crypto.masked_shares", kind="crypto"):
            for p in senders:
                share = codec.sum_arrays([encoded[p], *added[p]], removed[p])
                send(p, reducer_id, share, kind="masked-share")
                metrics.increment("crypto.masked_shares_sent", 1)
                if audit is not None:
                    audit.share_sent(p)

        # Step 5: the Reducer sums; the pads cancel telescopically.
        with tracer.span("crypto.reduce_sum", kind="crypto", node=reducer_id):
            shares: list[ResidueVector] = []
            for _ in senders:
                message = receive_message(reducer_id, kind="masked-share")
                shares.append(message.payload)
                if audit is not None:
                    audit.share_received(message.src)
            total = codec.sum_arrays(shares)
        metrics.increment("crypto.secure_sum_rounds", 1)
        return total


ProtocolT = TypeVar("ProtocolT", bound=SecureAggregationProtocol)


class SecureAggregator(Aggregator, Generic[ProtocolT]):
    """A round-engine protocol run as a Twister :class:`Aggregator`.

    Map outputs are dicts of named vectors; the aggregator checks that
    every mapper sent the same names, flattens each mapper's outputs
    into one vector (fixing a canonical key order), runs one protocol
    round, and splits the summed vector back into named parts.  The
    Reducer therefore learns only the *sums* the algorithm needs.

    The protocol is bound to one ``(network, participants, reducer_id)``
    and rebuilt, with the aggregator's ``codec`` and ``audit`` of the
    time, when any of them changes, so a second fit reusing the
    aggregator runs on its own network; the round index passed to
    ``_sum_round`` starts again at 0 on each binding.  A scheme supplies
    ``_make_protocol`` and, if its round takes more than the values,
    ``_sum_round``.
    """

    def __init__(
        self,
        *,
        codec: FixedPointCodec | None,
        seed: int | np.random.Generator | None,
        audit: ProtocolAuditLog | None,
    ) -> None:
        self.codec = codec
        self.seed = as_rng(seed)
        self.audit = audit
        self._protocol: ProtocolT | None = None
        self._rounds = 0  # rounds started on the current binding

    def _make_protocol(self, network: Network, ids: list[str], reducer_id: str) -> ProtocolT:
        raise NotImplementedError

    def _sum_round(self, protocol: ProtocolT, flat: dict, index: int) -> np.ndarray:
        """Round ``index`` of the current binding."""
        return protocol.sum_vectors(flat)

    def aggregate(
        self, outputs: dict[str, dict[str, np.ndarray]], reducer_id: str, network: Network
    ) -> dict[str, np.ndarray]:
        """Securely sum mapper outputs; the reducer sees protected shares only."""
        participants = sorted(outputs)
        protocol, binding = self._protocol, (network, participants, reducer_id)
        if protocol is None or binding != (
            protocol.network, protocol.participants, protocol.reducer_id
        ):
            protocol = self._protocol = self._make_protocol(*binding)
            self._rounds = 0

        keys = sorted(outputs[participants[0]])
        for p in participants:
            if sorted(outputs[p]) != keys:
                raise ValueError(f"mapper {p!r} produced keys {sorted(outputs[p])}, expected {keys}")
        layout = [(k, np.asarray(outputs[participants[0]][k], dtype=float).shape) for k in keys]
        flat = {
            p: np.concatenate([np.asarray(outputs[p][k], dtype=float).ravel() for k in keys])
            for p in participants
        }
        self._rounds += 1
        summed = self._sum_round(protocol, flat, self._rounds - 1)

        result: dict[str, np.ndarray] = {}
        offset = 0
        for key, shape in layout:
            size = int(np.prod(shape)) if shape else 1
            result[key] = summed[offset : offset + size].reshape(shape)
            offset += size
        return result


class SecureSumAggregator(SecureAggregator[SecureSummationProtocol]):
    """Protocol 1 (:class:`SecureSummationProtocol`) as a Twister aggregator."""

    def __init__(
        self,
        *,
        codec: FixedPointCodec | None = None,
        mode: str = "fresh",
        seed: int | np.random.Generator | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        super().__init__(codec=codec, seed=seed, audit=audit)
        self.mode = mode

    def _make_protocol(
        self, network: Network, ids: list[str], reducer_id: str
    ) -> SecureSummationProtocol:
        return SecureSummationProtocol(
            network, ids, reducer_id,
            codec=self.codec, mode=self.mode, seed=self.seed, audit=self.audit,
        )  # fmt: skip

    # Bound here too, so ``perfbench/layers.py`` can wrap it by name.
    aggregate = SecureAggregator.aggregate
