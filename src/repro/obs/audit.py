"""Runtime auditor for the secure aggregation protocols.

This module asserts the secure aggregation invariants over a *live
execution*; it is the one place they are checked.  The crypto paths
(:mod:`repro.crypto.secure_sum`, :mod:`repro.crypto.threshold_sum`)
feed a :class:`ProtocolAuditLog` as the protocol runs — every mask
applied and removed, every pairwise pad derivation, every share sent,
received, and reconstructed — and :meth:`ProtocolAuditLog.end_round`
checks, per aggregation round:

* **mask balance** — every pairwise mask added by its generator was
  netted off exactly once by its receiver (the telescoping cancellation
  of the paper's Protocol 1, step 5);
* **pair-seed discipline** — in ``"prg"`` mode each agreed pairwise
  seed derives exactly one pad per round, and no pad comes from an
  unagreed pair;
* **share accounting** — every expected sender contributed exactly one
  (masked or Shamir-aggregated) share and the reducer consumed them
  all;
* **reconstruction** — threshold reconstruction used at least
  ``threshold`` shares and reported success;
* **participant floor** — at least ``participant_floor`` participants
  took part (below two, "secure" summation is a plaintext transfer).

Violations become :class:`AuditViolation` records, an
``audit.violation`` trace event, and an ``audit.violations`` counter
increment; clean or not, each round closes with an ``audit.round``
event and an ``audit.rounds`` increment.  The per-round summaries are
what the run ledger persists (:meth:`ProtocolAuditLog.summary`).

The log never sees payload bytes — only *who* masked/shared with
*whom* — so auditing adds no privacy surface.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable

__all__ = [
    "AuditViolation",
    "ProtocolAuditError",
    "ProtocolAuditLog",
    "RoundAudit",
]


_NO_OPEN_ROUND = "no audit round is open; call begin_round first"


@lru_cache(maxsize=16)
def _complete_exchange(participants: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """Each participant's peers, in participant order: one round's feed
    when every participant masks toward and nets from all the others."""
    return {p: tuple(q for q in participants if q != p) for p in participants}


def _pair(a: str, b: str) -> tuple[str, str]:
    """The unordered pair ``{a, b}`` as a sorted tuple."""
    return (a, b) if a <= b else (b, a)


@lru_cache(maxsize=16)
def _all_pairs(participants: tuple[str, ...]) -> frozenset[tuple[str, str]]:
    """Every unordered pair of participants, as sorted tuples."""
    return frozenset(
        _pair(a, b) for i, a in enumerate(participants) for b in participants[i + 1 :]
    )


class ProtocolAuditError(RuntimeError):
    """Raised at ``end_round`` when ``on_violation="raise"`` and an
    invariant failed."""


@dataclass(frozen=True)
class AuditViolation:
    """One invariant failure in one aggregation round.

    Attributes
    ----------
    round_index:
        0-based aggregation-round index (matches the driver iteration
        when one aggregation runs per iteration).
    protocol:
        ``"secure-sum"`` or ``"threshold-sum"``.
    rule:
        ``"mask-balance"``, ``"pair-seed"``, ``"share-count"``,
        ``"reconstruction"``, or ``"participant-floor"``.
    message:
        Human-readable description naming the offending pair/node.
    """

    round_index: int
    protocol: str
    rule: str
    message: str


@dataclass
class RoundAudit:
    """Raw observations and verdict for one aggregation round.

    The feeds are kept as plain lists, in feed order: ``applied`` holds
    one ``(generator, targets)`` entry per ``mask_applied`` call and
    ``removed`` one ``(receiver, sources)`` entry per ``mask_removed``
    call, ``pads`` one sorted node pair per derived pad, ``sent`` and
    ``received`` one node id per share.  The ``Counter`` views
    (:attr:`masks_applied` and the rest), one count per mask, pad or
    share, are built from them when read.
    """

    round_index: int
    protocol: str
    participants: tuple[str, ...]
    threshold: int | None = None
    expected_senders: tuple[str, ...] | None = None
    applied: list[tuple[str, tuple[str, ...]]] = field(default_factory=list, repr=False)
    removed: list[tuple[str, tuple[str, ...]]] = field(default_factory=list, repr=False)
    pads: list[tuple[str, str]] = field(default_factory=list, repr=False)
    sent: list[str] = field(default_factory=list, repr=False)
    received: list[str] = field(default_factory=list, repr=False)
    reconstruction_shares: int | None = None
    reconstruction_ok: bool | None = None
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def masks_applied(self) -> Counter[tuple[str, str]]:
        """Masks added, counted by ``(generator, target)``."""
        return Counter((node, peer) for node, peers in self.applied for peer in peers)

    @property
    def masks_removed(self) -> Counter[tuple[str, str]]:
        """Masks netted off, counted by ``(receiver, src)``."""
        return Counter((node, peer) for node, peers in self.removed for peer in peers)

    @property
    def pads_derived(self) -> Counter[tuple[str, str]]:
        """PRG pads derived, counted by sorted node pair."""
        return Counter(self.pads)

    @property
    def shares_sent(self) -> Counter[str]:
        """Shares sent to the reducer, counted by sender."""
        return Counter(self.sent)

    @property
    def shares_received(self) -> Counter[str]:
        """Shares the reducer consumed, counted by originating node."""
        return Counter(self.received)

    @property
    def ok(self) -> bool:
        """True when the round closed with no invariant violations."""
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly per-round summary for the run ledger."""
        return {
            "round": self.round_index,
            "protocol": self.protocol,
            "n_participants": len(self.participants),
            "masks_applied": sum(len(peers) for _, peers in self.applied),
            "masks_removed": sum(len(peers) for _, peers in self.removed),
            "pads_derived": len(self.pads),
            "shares_sent": len(self.sent),
            "shares_received": len(self.received),
            "reconstruction_shares": self.reconstruction_shares,
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "message": v.message} for v in self.violations
            ],
        }


class ProtocolAuditLog:
    """Live invariant checker fed by the secure aggregation paths.

    Parameters
    ----------
    participant_floor:
        Minimum participants per round before the protocol degenerates
        (defaults to the paper's implicit M >= 2).
    on_violation:
        ``"record"`` (default) keeps violations queryable;
        ``"raise"`` turns the first violating ``end_round`` into a
        :class:`ProtocolAuditError`.
    metrics, tracer:
        Optional counter sink / trace recorder; when present the log
        emits ``audit.rounds`` / ``audit.violations`` counters and
        ``audit.round`` / ``audit.violation`` events.
    """

    def __init__(
        self,
        *,
        participant_floor: int = 2,
        on_violation: str = "record",
        metrics: Any | None = None,
        tracer: Any | None = None,
    ) -> None:
        if on_violation not in ("record", "raise"):
            raise ValueError(
                f"on_violation must be 'record' or 'raise', got {on_violation!r}"
            )
        self.participant_floor = int(participant_floor)
        self.on_violation = on_violation
        self.metrics = metrics
        self.tracer = tracer
        self.rounds: list[RoundAudit] = []
        self._current: RoundAudit | None = None
        self._agreed_seeds: set[tuple[str, str]] = set()

    # -- protocol feed --------------------------------------------------

    def seed_agreed(self, a: str, b: str) -> None:
        """Record one-time pairwise seed agreement (``"prg"`` setup)."""
        self._agreed_seeds.add(_pair(a, b))

    def begin_round(
        self,
        protocol: str,
        participants: list[str],
        *,
        threshold: int | None = None,
        expected_senders: list[str] | None = None,
    ) -> None:
        """Open an aggregation round; one must be open to record ops."""
        if self._current is not None:
            raise RuntimeError("previous audit round was never closed")
        self._current = RoundAudit(
            round_index=len(self.rounds),
            protocol=protocol,
            participants=tuple(participants),
            threshold=threshold,
            expected_senders=(
                tuple(expected_senders) if expected_senders is not None else None
            ),
        )

    def mask_applied(self, generator: str, targets: Iterable[str]) -> None:
        """``generator`` added one mask for each of ``targets`` to its share.

        One call per generator and round; ``targets`` is any iterable of
        node ids, not a bare ``str``.
        """
        record = self._round()
        if isinstance(targets, str):
            raise TypeError("targets must be an iterable of node ids, not a str")
        record.applied.append((generator, tuple(targets)))

    def mask_removed(self, receiver: str, sources: Iterable[str]) -> None:
        """``receiver`` netted off one mask from each of ``sources``.

        One call per receiver and round; ``sources`` is any iterable of
        node ids, not a bare ``str``.
        """
        record = self._round()
        if isinstance(sources, str):
            raise TypeError("sources must be an iterable of node ids, not a str")
        record.removed.append((receiver, tuple(sources)))

    def pad_derived(self, a: str, b: str) -> None:
        """A pairwise PRG pad was derived (+ for one partner, − for the other)."""
        self._round().pads.append(_pair(a, b))

    def share_sent(self, sender: str) -> None:
        """``sender`` sent its (masked/aggregated) share to the reducer."""
        self._round().sent.append(sender)

    def share_received(self, src: str) -> None:
        """The reducer consumed the share originating from ``src``."""
        self._round().received.append(src)

    def reconstruction(self, n_shares: int, ok: bool) -> None:
        """Threshold reconstruction finished from ``n_shares`` shares."""
        record = self._round()
        record.reconstruction_shares = int(n_shares)
        record.reconstruction_ok = bool(ok)

    def discard_round(self) -> None:
        """Drop the open round, if any, without checking or recording it.

        A protocol calls this when its round raises part-way, so the
        next ``begin_round`` starts clean.
        """
        self._current = None

    # -- invariant checks -----------------------------------------------

    def end_round(self) -> RoundAudit:
        """Close the round, check every invariant, and emit audit events."""
        record = self._round()
        self._current = None
        self._check_participant_floor(record)
        self._check_mask_balance(record)
        self._check_pair_seeds(record)
        self._check_share_counts(record)
        self._check_reconstruction(record)
        self.rounds.append(record)

        if self.metrics is not None:
            self.metrics.increment("audit.rounds", 1)
            if record.violations:
                self.metrics.increment("audit.violations", len(record.violations))
        if self.tracer is not None:
            for violation in record.violations:
                self.tracer.event(
                    "audit.violation",
                    kind="audit",
                    round=record.round_index,
                    protocol=record.protocol,
                    rule=violation.rule,
                    message=violation.message,
                )
            self.tracer.event(
                "audit.round",
                kind="audit",
                round=record.round_index,
                protocol=record.protocol,
                ok=record.ok,
                n_violations=len(record.violations),
            )
        if record.violations and self.on_violation == "raise":
            raise ProtocolAuditError(
                f"round {record.round_index}: " + "; ".join(
                    v.message for v in record.violations
                )
            )
        return record

    def _check_participant_floor(self, record: RoundAudit) -> None:
        if len(record.participants) < self.participant_floor:
            self._flag(
                record,
                "participant-floor",
                f"{len(record.participants)} participants; floor is "
                f"{self.participant_floor}",
            )

    def _check_mask_balance(self, record: RoundAudit) -> None:
        # Every mask a generator added toward a target must be netted off
        # by that target exactly as many times — the +/− telescoping that
        # makes the reducer's sum correct and each share uniform.  A
        # fresh round's usual feed is the complete exchange: each node
        # applies a mask to, and nets one from, every peer, in
        # participant order.  That is one comparison per node; any other
        # feed has its masks counted pair by pair, and the pairs whose
        # counts differ are named.
        if not record.applied and not record.removed:
            return
        exchange = _complete_exchange(record.participants)
        n_nodes = len(record.participants)
        if (
            len(exchange) == n_nodes
            and len(record.applied) == n_nodes == len(record.removed)
            and dict(record.applied) == exchange == dict(record.removed)
        ):
            return
        applied = record.masks_applied
        netted = Counter((src, node) for node, sources in record.removed for src in sources)
        for generator, target in sorted(applied.keys() | netted.keys()):
            n_applied = applied[(generator, target)]
            n_removed = netted[(generator, target)]
            if n_applied != n_removed:
                self._flag(
                    record,
                    "mask-balance",
                    f"mask {generator}->{target}: applied {n_applied} times but "
                    f"removed {n_removed} times",
                )

    def _check_pair_seeds(self, record: RoundAudit) -> None:
        if not record.pads:
            return
        expected = _all_pairs(record.participants)
        # A clean round derives each expected pair's pad once, from an
        # agreed seed, and nothing else.
        if (
            len(record.pads) == len(expected)
            and expected == set(record.pads)
            and expected <= self._agreed_seeds
        ):
            return
        pads = record.pads_derived
        for pair, count in sorted(pads.items()):
            if pair not in self._agreed_seeds:
                self._flag(
                    record,
                    "pair-seed",
                    f"pad derived for pair {pair[0]}/{pair[1]} without an "
                    f"agreed seed",
                )
            elif count != 1:
                self._flag(
                    record,
                    "pair-seed",
                    f"pair seed {pair[0]}/{pair[1]} used {count} times this "
                    f"round (must be exactly once)",
                )
        for pair in sorted(expected - pads.keys()):
            self._flag(
                record,
                "pair-seed",
                f"no pad derived for pair {pair[0]}/{pair[1]} this round",
            )

    def _check_share_counts(self, record: RoundAudit) -> None:
        senders = (
            record.expected_senders
            if record.expected_senders is not None
            else record.participants
        )
        # A clean round has one share from each expected sender, none
        # from anyone else, and all of them consumed.
        if len(record.received) == len(senders) and sorted(record.sent) == sorted(
            set(senders)
        ):
            return
        sent = record.shares_sent
        for sender in senders:
            if sent[sender] != 1:
                self._flag(
                    record,
                    "share-count",
                    f"participant {sender} sent {sent[sender]} shares (expected 1)",
                )
        for sender in sorted(sent.keys() - set(senders)):
            self._flag(
                record,
                "share-count",
                f"unexpected share from {sender}",
            )
        if len(record.received) != len(senders):
            self._flag(
                record,
                "share-count",
                f"reducer consumed {len(record.received)} shares, expected {len(senders)}",
            )

    def _check_reconstruction(self, record: RoundAudit) -> None:
        if record.threshold is None:
            return
        if record.reconstruction_shares is None:
            self._flag(record, "reconstruction", "round ended without reconstruction")
            return
        if record.reconstruction_shares < record.threshold:
            self._flag(
                record,
                "reconstruction",
                f"reconstructed from {record.reconstruction_shares} shares; "
                f"threshold is {record.threshold}",
            )
        if not record.reconstruction_ok:
            self._flag(record, "reconstruction", "reconstruction reported failure")

    # -- reporting ------------------------------------------------------

    @property
    def violations(self) -> list[AuditViolation]:
        """All violations across all closed rounds."""
        return [v for r in self.rounds for v in r.violations]

    @property
    def ok(self) -> bool:
        """True when every closed round passed every invariant."""
        return all(r.ok for r in self.rounds)

    def summary(self) -> dict[str, Any]:
        """Machine-readable summary for the run ledger."""
        return {
            "n_rounds": len(self.rounds),
            "n_violations": len(self.violations),
            "ok": self.ok,
            "rounds": [r.as_dict() for r in self.rounds],
        }

    # -- internals ------------------------------------------------------

    def _round(self) -> RoundAudit:
        if self._current is None:
            raise RuntimeError(_NO_OPEN_ROUND)
        return self._current

    def _flag(self, record: RoundAudit, rule: str, message: str) -> None:
        record.violations.append(
            AuditViolation(
                round_index=record.round_index,
                protocol=record.protocol,
                rule=rule,
                message=f"round {record.round_index}: {message}",
            )
        )
