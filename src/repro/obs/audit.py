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
from typing import Any

__all__ = [
    "AuditViolation",
    "ProtocolAuditError",
    "ProtocolAuditLog",
    "RoundAudit",
]


_NO_OPEN_ROUND = "no audit round is open; call begin_round first"


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
    """Raw observations and verdict for one aggregation round."""

    round_index: int
    protocol: str
    participants: tuple[str, ...]
    threshold: int | None = None
    expected_senders: tuple[str, ...] | None = None
    masks_applied: Counter[tuple[str, str]] = field(default_factory=Counter)
    masks_removed: Counter[tuple[str, str]] = field(default_factory=Counter)
    pads_derived: Counter[tuple[str, str]] = field(default_factory=Counter)
    shares_sent: Counter[str] = field(default_factory=Counter)
    shares_received: Counter[str] = field(default_factory=Counter)
    reconstruction_shares: int | None = None
    reconstruction_ok: bool | None = None
    violations: list[AuditViolation] = field(default_factory=list)

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
            "masks_applied": int(sum(self.masks_applied.values())),
            "masks_removed": int(sum(self.masks_removed.values())),
            "pads_derived": int(sum(self.pads_derived.values())),
            "shares_sent": int(sum(self.shares_sent.values())),
            "shares_received": int(sum(self.shares_received.values())),
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
        # The open round's mask pairs, in feed order; ``end_round``
        # counts them into the round's Counters before checking.
        self._masks_applied: list[tuple[str, str]] = []
        self._masks_removed: list[tuple[str, str]] = []

    # -- protocol feed --------------------------------------------------

    def seed_agreed(self, a: str, b: str) -> None:
        """Record one-time pairwise seed agreement (``"prg"`` setup)."""
        self._agreed_seeds.add(self._pair(a, b))

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

    def mask_applied(self, generator: str, target: str) -> None:
        """``generator`` added a mask destined for ``target`` to its share."""
        if self._current is None:
            raise RuntimeError(_NO_OPEN_ROUND)
        self._masks_applied.append((generator, target))

    def mask_removed(self, receiver: str, src: str) -> None:
        """``receiver`` netted off a mask it received from ``src``."""
        if self._current is None:
            raise RuntimeError(_NO_OPEN_ROUND)
        self._masks_removed.append((receiver, src))

    def pad_derived(self, a: str, b: str) -> None:
        """A pairwise PRG pad was derived (+ for one partner, − for the other)."""
        self._round().pads_derived[self._pair(a, b)] += 1

    def share_sent(self, sender: str) -> None:
        """``sender`` sent its (masked/aggregated) share to the reducer."""
        self._round().shares_sent[sender] += 1

    def share_received(self, src: str) -> None:
        """The reducer consumed the share originating from ``src``."""
        self._round().shares_received[src] += 1

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
        self._masks_applied.clear()
        self._masks_removed.clear()

    # -- invariant checks -----------------------------------------------

    def end_round(self) -> RoundAudit:
        """Close the round, check every invariant, and emit audit events."""
        record = self._round()
        self._current = None
        record.masks_applied.update(self._masks_applied)
        record.masks_removed.update(self._masks_removed)
        self._masks_applied.clear()
        self._masks_removed.clear()
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
        # balanced round (the usual case) is one dict comparison; the
        # pairs are walked only to name the ones that differ.
        applied = dict(record.masks_applied)
        removed = {
            (src, receiver): count for (receiver, src), count in record.masks_removed.items()
        }
        if applied == removed:
            return
        for generator, target in sorted(applied.keys() | removed.keys()):
            n_applied = applied.get((generator, target), 0)
            n_removed = removed.get((generator, target), 0)
            if n_applied != n_removed:
                self._flag(
                    record,
                    "mask-balance",
                    f"mask {generator}->{target}: applied {n_applied} times but "
                    f"removed {n_removed} times",
                )

    def _check_pair_seeds(self, record: RoundAudit) -> None:
        for pair, count in sorted(record.pads_derived.items()):
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
        if record.pads_derived:
            expected = {
                self._pair(a, b)
                for i, a in enumerate(record.participants)
                for b in record.participants[i + 1 :]
            }
            for pair in sorted(expected - set(record.pads_derived)):
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
        for sender in senders:
            sent = record.shares_sent[sender]
            if sent != 1:
                self._flag(
                    record,
                    "share-count",
                    f"participant {sender} sent {sent} shares (expected 1)",
                )
        extra = set(record.shares_sent) - set(senders)
        for sender in sorted(extra):
            self._flag(
                record,
                "share-count",
                f"unexpected share from {sender}",
            )
        received = sum(record.shares_received.values())
        if received != len(senders):
            self._flag(
                record,
                "share-count",
                f"reducer consumed {received} shares, expected {len(senders)}",
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

    @staticmethod
    def _pair(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _flag(self, record: RoundAudit, rule: str, message: str) -> None:
        record.violations.append(
            AuditViolation(
                round_index=record.round_index,
                protocol=record.protocol,
                rule=rule,
                message=f"round {record.round_index}: {message}",
            )
        )
