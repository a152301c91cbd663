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
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import Network
from repro.cluster.twister import Aggregator
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.obs.audit import ProtocolAuditLog
from repro.utils.rng import as_rng, spawn_rngs

__all__ = ["SecureSumAggregator", "SecureSummationProtocol"]


class SecureSummationProtocol:
    """Executable instance of the paper's Protocol 1.

    Parameters
    ----------
    network:
        The cluster fabric; all mask and share messages go through it.
    participant_ids:
        The Mapper node ids (order fixes pairwise-seed assignment).
    reducer_id:
        The Reducer node id.
    codec:
        Fixed-point codec; defaults to 40 fractional bits in a 128-bit
        group.
    mode:
        ``"fresh"`` or ``"prg"`` (see module docstring).
    seed:
        Seed for all mask randomness (per-participant streams are split
        off deterministically).
    audit:
        Optional :class:`~repro.obs.audit.ProtocolAuditLog`; when given,
        every mask application/removal, pad derivation, seed agreement,
        and share transfer is recorded and the protocol's invariants are
        checked at the end of every round.
    """

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
        if len(participant_ids) < 2:
            raise ValueError("secure summation needs at least 2 participants")
        if len(set(participant_ids)) != len(participant_ids):
            raise ValueError("participant ids must be unique")
        if reducer_id in participant_ids:
            raise ValueError("the reducer cannot be a participant")
        if mode not in ("fresh", "prg"):
            raise ValueError(f"mode must be 'fresh' or 'prg', got {mode!r}")
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.codec = codec if codec is not None else FixedPointCodec()
        self.mode = mode
        self.audit = audit
        # Fault-injection hook for the auditor's own tests: when set to a
        # ``(generator, receiver)`` pair, the receiver silently fails to
        # net off that one mask each round — the classic imbalance the
        # runtime audit must catch (and the sum becomes garbage).
        self._audit_fault: tuple[str, str] | None = None

        for node in [*self.participants, reducer_id]:
            network.register(node)

        self._rngs = dict(zip(self.participants, spawn_rngs(as_rng(seed), len(self.participants))))
        # Each participant's mask targets, in participant order.
        self._others = {
            p: tuple(q for q in self.participants if q != p) for p in self.participants
        }
        self._pair_rngs: dict[tuple[str, str], np.random.Generator] = {}
        if mode == "prg":
            self._exchange_pairwise_seeds()

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
        ``2^-fractional_bits`` per term).

        Emits a ``crypto.secure_sum`` span with per-phase child spans,
        plus the ``crypto.masks_generated`` /
        ``crypto.masked_shares_sent`` / ``crypto.secure_sum_rounds``
        counters, all inside the span, so a
        :class:`~repro.cluster.profiling.Profiler` attributes them to
        the enclosing iteration.  In ``"fresh"`` mode
        ``crypto.masks_generated`` is booked once per sender (``M - 1``
        at a time) rather than once per mask; the totals are the same.
        """
        if set(values) != set(self.participants):
            raise ValueError(
                f"values must cover exactly the participants; got {sorted(values)} "
                f"vs {sorted(self.participants)}"
            )
        flat = [np.asarray(values[p], dtype=float).ravel() for p in self.participants]
        lengths = {len(v) for v in flat}
        if len(lengths) != 1:
            raise ValueError(f"all vectors must share one length, got {sorted(lengths)}")
        (n,) = lengths
        metrics = self.network.metrics
        tracer = self.network.tracer

        with tracer.span(
            "crypto.secure_sum",
            kind="crypto",
            mode=self.mode,
            n_participants=len(self.participants),
            vector_length=n,
        ):
            if self.audit is not None:
                self.audit.begin_round("secure-sum", self.participants)
            try:
                total = self._run_round(flat, n)
            except BaseException:
                # A failed round (an overflow at encode, a failed node)
                # must leave neither an open audit round nor a queued
                # message for the next one.
                for node in (*self.participants, self.reducer_id):
                    for kind in ("mask", "masked-share"):
                        while self.network.pending(node, kind):
                            self.network.receive_message(node, kind)
                if self.audit is not None:
                    self.audit.discard_round()
                raise
            metrics.increment("crypto.secure_sum_rounds", 1)
            if self.audit is not None:
                self.audit.end_round()
            return self.codec.decode(total)

    def _run_round(self, flat: list[np.ndarray], n: int) -> ResidueVector:
        """Steps 1-5 of one round; returns the Reducer's residue sum."""
        network, codec, audit = self.network, self.codec, self.audit
        participants, reducer_id = self.participants, self.reducer_id
        metrics, tracer = network.metrics, network.tracer
        # The per-message callables, looked up once per round.
        send, receive_message = network.send, network.receive_message
        # One encode for all participants (the overflow check runs
        # before any mask is drawn); each share starts from its
        # row slice of the result.
        stacked = codec.encode_array(np.concatenate(flat))
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
            for p in participants:
                share = codec.sum_arrays([encoded[p], *added[p]], removed[p])
                send(p, reducer_id, share, kind="masked-share")
                metrics.increment("crypto.masked_shares_sent", 1)
                if audit is not None:
                    audit.share_sent(p)

        # Step 5: the Reducer sums; the pads cancel telescopically.
        with tracer.span("crypto.reduce_sum", kind="crypto", node=reducer_id):
            shares: list[ResidueVector] = []
            for _ in participants:
                message = receive_message(reducer_id, kind="masked-share")
                shares.append(message.payload)
                if audit is not None:
                    audit.share_received(message.src)
            total = codec.sum_arrays(shares)
        return total


class SecureSumAggregator(Aggregator):
    """Adapter running Protocol 1 as a Twister :class:`Aggregator`.

    Map outputs are dicts of named vectors; the aggregator flattens them
    into one vector per mapper (fixing a canonical key order), runs one
    secure summation, and splits the summed vector back into named
    parts.  The Reducer therefore learns only the *sums* the algorithm
    needs — never an individual Mapper's local result.
    """

    def __init__(
        self,
        *,
        codec: FixedPointCodec | None = None,
        mode: str = "fresh",
        seed: int | np.random.Generator | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        self.codec = codec
        self.mode = mode
        self.seed = as_rng(seed)
        self.audit = audit
        self._protocol: SecureSummationProtocol | None = None

    def aggregate(
        self,
        outputs: dict[str, dict[str, np.ndarray]],
        reducer_id: str,
        network: Network,
    ) -> dict[str, np.ndarray]:
        """Securely sum mapper outputs; the reducer sees masked shares only."""
        participants = sorted(outputs)
        if self._protocol is None or self._protocol.participants != participants:
            self._protocol = SecureSummationProtocol(
                network,
                participants,
                reducer_id,
                codec=self.codec,
                mode=self.mode,
                seed=self.seed,
                audit=self.audit,
            )

        keys = sorted(outputs[participants[0]])
        for p in participants:
            if sorted(outputs[p]) != keys:
                raise ValueError(f"mapper {p!r} produced keys {sorted(outputs[p])}, expected {keys}")
        layout = [(k, np.asarray(outputs[participants[0]][k], dtype=float).shape) for k in keys]

        flat = {
            p: np.concatenate(
                [np.asarray(outputs[p][k], dtype=float).ravel() for k in keys]
            )
            for p in participants
        }
        summed = self._protocol.sum_vectors(flat)

        result: dict[str, np.ndarray] = {}
        offset = 0
        for key, shape in layout:
            size = int(np.prod(shape)) if shape else 1
            result[key] = summed[offset : offset + size].reshape(shape)
            offset += size
        return result
