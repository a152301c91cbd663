"""Runtime protocol auditor: invariant checks over live executions.

Unit tests drive :class:`~repro.obs.audit.ProtocolAuditLog` directly
with hand-crafted round feeds; integration tests attach it to the real
secure-summation and threshold-summation protocols — including the
fault-injection hook (``_audit_fault``) that makes a receiver silently
skip netting one pairwise mask, which must corrupt the sum *and* be
pinned by the auditor to the exact offending round.
"""

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.cluster.profiling import Profiler
from repro.core.partitioning import horizontal_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.secure_sum import SecureSummationProtocol
from repro.crypto.threshold_sum import ThresholdSummationProtocol
from repro.data.splits import train_test_split
from repro.data.synthetic import make_blobs
from repro.obs.audit import AuditViolation, ProtocolAuditError, ProtocolAuditLog


PARTICIPANTS = ("m0", "m1", "m2")


def _feed_round(
    log,
    *,
    participants=PARTICIPANTS,
    applied=None,
    removed=None,
    pads=(),
    sent=PARTICIPANTS,
    received=PARTICIPANTS,
    **round_kwargs,
):
    """Feed one round and close it.  ``applied`` maps each generator to
    its targets and ``removed`` each receiver to its sources (by default
    a balanced fresh-mode exchange among ``participants``)."""
    everyone = {p: [q for q in participants if q != p] for p in participants}
    log.begin_round(round_kwargs.pop("protocol", "secure-sum"), list(participants), **round_kwargs)
    for generator, targets in (everyone if applied is None else applied).items():
        log.mask_applied(generator, targets)
    for receiver, sources in (everyone if removed is None else removed).items():
        log.mask_removed(receiver, sources)
    for a, b in pads:
        log.pad_derived(a, b)
    for p in sent:
        log.share_sent(p)
    for p in received:
        log.share_received(p)
    return log.end_round()


def _messages(record):
    return [(v.rule, v.message) for v in record.violations]


class TestRoundFeed:
    def test_clean_round_is_ok(self):
        log = ProtocolAuditLog()
        record = _feed_round(log)
        assert record.ok
        assert log.ok
        assert record.round_index == 0

    def test_mask_imbalance_detected(self):
        log = ProtocolAuditLog()
        log.begin_round("secure-sum", ["m0", "m1"])
        log.mask_applied("m0", ["m1"])
        # m1 never nets the mask off.
        log.share_sent("m0")
        log.share_sent("m1")
        log.share_received("m0")
        log.share_received("m1")
        record = log.end_round()
        rules = {v.rule for v in record.violations}
        assert "mask-balance" in rules

    def test_pair_seed_requires_agreement(self):
        log = ProtocolAuditLog()
        log.seed_agreed("m0", "m1")
        log.begin_round("secure-sum", ["m0", "m1", "m2"])
        log.pad_derived("m0", "m1")
        log.pad_derived("m1", "m2")  # never agreed
        for p in ("m0", "m1", "m2"):
            log.share_sent(p)
            log.share_received(p)
        record = log.end_round()
        assert any(
            v.rule == "pair-seed" and "m2" in v.message for v in record.violations
        )

    def test_share_count_missing_sender(self):
        log = ProtocolAuditLog()
        log.begin_round("secure-sum", ["m0", "m1", "m2"])
        for p in ("m0", "m1"):  # m2 never sends
            log.share_sent(p)
            log.share_received(p)
        record = log.end_round()
        assert any(v.rule == "share-count" for v in record.violations)

    def test_participant_floor(self):
        log = ProtocolAuditLog(participant_floor=2)
        log.begin_round("secure-sum", ["only"])
        log.share_sent("only")
        log.share_received("only")
        record = log.end_round()
        assert any(v.rule == "participant-floor" for v in record.violations)

    def test_reconstruction_below_threshold(self):
        log = ProtocolAuditLog()
        log.begin_round(
            "threshold-sum",
            ["m0", "m1", "m2"],
            threshold=3,
            expected_senders=["m0", "m1"],
        )
        for p in ("m0", "m1"):
            log.share_sent(p)
            log.share_received(p)
        log.reconstruction(2, ok=True)
        record = log.end_round()
        assert any(v.rule == "reconstruction" for v in record.violations)

    def test_on_violation_raise(self):
        log = ProtocolAuditLog(on_violation="raise")
        log.begin_round("secure-sum", ["only"])
        log.share_sent("only")
        log.share_received("only")
        with pytest.raises(ProtocolAuditError, match="participant-floor|participant"):
            log.end_round()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_violation"):
            ProtocolAuditLog(on_violation="shrug")

    def test_unclosed_round_rejected(self):
        log = ProtocolAuditLog()
        log.begin_round("secure-sum", ["m0", "m1"])
        with pytest.raises(RuntimeError, match="never closed"):
            log.begin_round("secure-sum", ["m0", "m1"])

    def test_discarded_round_is_neither_checked_nor_recorded(self):
        log = ProtocolAuditLog()
        log.begin_round("secure-sum", ["m0", "m1"])
        log.mask_applied("m0", ["m1"])  # half a round: unbalanced
        log.discard_round()
        log.discard_round()  # no open round: a no-op
        record = _feed_round(log)
        assert log.rounds == [record]
        assert record.round_index == 0
        assert log.ok

    def test_counters_and_events_emitted(self):
        profiler = Profiler()
        log = ProtocolAuditLog(metrics=profiler, tracer=profiler.tracer)
        _feed_round(log)
        log.begin_round("secure-sum", ["solo"])
        log.share_sent("solo")
        log.share_received("solo")
        log.end_round()
        assert profiler.get("audit.rounds") == 2.0
        assert profiler.get("audit.violations") == 1.0
        names = [e.name for e in profiler.tracer.events]
        assert names.count("audit.round") == 2
        assert names.count("audit.violation") == 1

    def test_summary_is_ledger_ready(self):
        log = ProtocolAuditLog()
        _feed_round(log)
        summary = log.summary()
        assert summary["ok"] is True
        assert summary["n_rounds"] == 1
        assert summary["n_violations"] == 0
        round_summary = summary["rounds"][0]
        assert round_summary["protocol"] == "secure-sum"
        assert round_summary["masks_applied"] == round_summary["masks_removed"] == 6

    def test_violation_record_shape(self):
        violation = AuditViolation(3, "secure-sum", "mask-balance", "m0->m1")
        assert violation.round_index == 3
        with pytest.raises(AttributeError):
            violation.rule = "other"  # frozen


def _protocol(mode, audit, n=3, seed=0):
    network = Network(keep_log=False)
    participants = [f"m{i}" for i in range(n)]
    protocol = SecureSummationProtocol(
        network, participants, "reducer", mode=mode, seed=seed, audit=audit
    )
    rng = np.random.default_rng(seed)
    values = {p: rng.normal(size=8) for p in participants}
    return protocol, values


class TestSecureSumIntegration:
    @pytest.mark.parametrize("mode", ["fresh", "prg"])
    def test_clean_rounds_audit_clean(self, mode):
        audit = ProtocolAuditLog()
        protocol, values = _protocol(mode, audit)
        expected = sum(values.values())
        for _ in range(3):
            out = protocol.sum_vectors(values)
            np.testing.assert_allclose(out, expected, atol=1e-8)
        assert len(audit.rounds) == 3
        assert audit.ok
        assert all(r.ok for r in audit.rounds)

    def test_injected_mask_fault_caught_at_offending_round(self):
        audit = ProtocolAuditLog()
        protocol, values = _protocol("fresh", audit)
        expected = sum(values.values())

        out = protocol.sum_vectors(values)  # round 0: clean
        np.testing.assert_allclose(out, expected, atol=1e-8)

        protocol._audit_fault = ("m0", "m1")  # m1 drops m0's mask
        corrupted = protocol.sum_vectors(values)  # round 1: corrupted
        protocol._audit_fault = None
        assert not np.allclose(corrupted, expected, atol=1e-6)

        out = protocol.sum_vectors(values)  # round 2: clean again
        np.testing.assert_allclose(out, expected, atol=1e-8)

        assert [r.ok for r in audit.rounds] == [True, False, True]
        bad = audit.rounds[1]
        assert bad.round_index == 1
        assert _messages(bad) == [
            ("mask-balance", "round 1: mask m0->m1: applied 1 times but removed 0 times"),
        ]

    def test_prg_pad_discipline_holds_across_rounds(self):
        audit = ProtocolAuditLog()
        protocol, values = _protocol("prg", audit)
        for _ in range(2):
            protocol.sum_vectors(values)
        n_pairs = 3 * 2 // 2
        for record in audit.rounds:
            assert record.ok
            assert sum(record.pads_derived.values()) == n_pairs
            assert all(count == 1 for count in record.pads_derived.values())


class TestThresholdSumIntegration:
    def test_reconstruction_audited_with_dropouts(self):
        network = Network(keep_log=False)
        participants = [f"m{i}" for i in range(4)]
        audit = ProtocolAuditLog()
        protocol = ThresholdSummationProtocol(
            network, participants, "reducer", threshold=2, seed=0, audit=audit
        )
        rng = np.random.default_rng(0)
        values = {p: rng.normal(size=6) for p in participants}
        out = protocol.sum_vectors(values, dropouts={"m3"})
        np.testing.assert_allclose(out, sum(values.values()), atol=1e-8)
        record = audit.rounds[0]
        assert record.ok
        assert record.protocol == "threshold-sum"
        assert record.expected_senders == ("m0", "m1", "m2")
        assert record.reconstruction_shares == 2
        assert record.reconstruction_ok is True


class TestTrainerIntegration:
    def test_secure_fit_audits_every_aggregation_round(self):
        train, _ = train_test_split(make_blobs(120, seed=0), seed=0)
        parts = horizontal_partition(train, 3, seed=0)
        model = PrivacyPreservingSVM(max_iter=5, seed=0).fit(parts)
        audit = model.audit_log_
        assert audit is not None
        assert audit.ok
        assert len(audit.rounds) == len(model.history_)
        assert all(r.protocol == "secure-sum" for r in audit.rounds)
        assert model.profiler_.get("audit.rounds") == len(audit.rounds)
        assert model.profiler_.get("audit.violations") == 0.0

    def test_insecure_fit_has_no_audit_rounds(self):
        train, _ = train_test_split(make_blobs(120, seed=0), seed=0)
        parts = horizontal_partition(train, 3, seed=0)
        model = PrivacyPreservingSVM(max_iter=3, seed=0, secure=False).fit(parts)
        assert model.audit_log_ is not None
        assert model.audit_log_.rounds == []



class TestViolationMessages:
    """Every violation message, pinned word for word, including the
    order in which one round reports several."""

    def test_missing_mask(self):
        record = _feed_round(
            ProtocolAuditLog(), removed={"m0": ["m1", "m2"], "m1": ["m2"], "m2": ["m0", "m1"]}
        )
        assert _messages(record) == [
            ("mask-balance", "round 0: mask m0->m1: applied 1 times but removed 0 times"),
        ]

    def test_duplicated_mask(self):
        record = _feed_round(
            ProtocolAuditLog(),
            applied={"m0": ["m1", "m2", "m2"], "m1": ["m0", "m2"], "m2": ["m0", "m1"]},
            removed={"m0": ["m1", "m2"], "m1": ["m0", "m2", "m0"], "m2": ["m0", "m1"]},
        )
        assert _messages(record) == [
            ("mask-balance", "round 0: mask m0->m1: applied 1 times but removed 2 times"),
            ("mask-balance", "round 0: mask m0->m2: applied 2 times but removed 1 times"),
        ]

    def test_foreign_mask(self):
        record = _feed_round(
            ProtocolAuditLog(),
            removed={"m0": ["m1", "m2"], "m1": ["m0", "m2", "mx"], "m2": ["m0", "m1"]},
        )
        assert _messages(record) == [
            ("mask-balance", "round 0: mask mx->m1: applied 0 times but removed 1 times"),
        ]

    def test_missing_share(self):
        record = _feed_round(ProtocolAuditLog(), sent=("m0", "m2"), received=("m0", "m2"))
        assert _messages(record) == [
            ("share-count", "round 0: participant m1 sent 0 shares (expected 1)"),
            ("share-count", "round 0: reducer consumed 2 shares, expected 3"),
        ]

    def test_duplicate_share(self):
        record = _feed_round(ProtocolAuditLog(), sent=("m0", "m1", "m2", "m1"))
        assert _messages(record) == [
            ("share-count", "round 0: participant m1 sent 2 shares (expected 1)"),
        ]

    def test_unexpected_share(self):
        record = _feed_round(
            ProtocolAuditLog(),
            sent=("mz", "m0", "m1", "m2", "my"),
            received=("m0", "m1", "m2", "my"),
        )
        assert _messages(record) == [
            ("share-count", "round 0: unexpected share from my"),
            ("share-count", "round 0: unexpected share from mz"),
            ("share-count", "round 0: reducer consumed 4 shares, expected 3"),
        ]

    def test_wrong_reducer_count(self):
        record = _feed_round(ProtocolAuditLog(), received=("m0", "m1"))
        assert _messages(record) == [
            ("share-count", "round 0: reducer consumed 2 shares, expected 3"),
        ]

    def test_expected_senders_replace_participants(self):
        record = _feed_round(
            ProtocolAuditLog(),
            protocol="threshold-sum",
            applied={},
            removed={},
            sent=("m0", "m2"),
            received=("m0", "m2"),
            threshold=2,
            expected_senders=["m0", "m1"],
        )
        assert _messages(record) == [
            ("share-count", "round 0: participant m1 sent 0 shares (expected 1)"),
            ("share-count", "round 0: unexpected share from m2"),
            ("reconstruction", "round 0: round ended without reconstruction"),
        ]

    def _prg_log(self):
        log = ProtocolAuditLog()
        for a, b in (("m0", "m1"), ("m0", "m2")):
            log.seed_agreed(b, a)  # stored as the sorted pair
        return log

    def test_unagreed_pad(self):
        record = _feed_round(
            self._prg_log(),
            applied={},
            removed={},
            pads=[("m1", "m0"), ("m0", "m2"), ("m2", "m1")],
        )
        assert _messages(record) == [
            ("pair-seed", "round 0: pad derived for pair m1/m2 without an agreed seed"),
        ]

    def test_reused_and_missing_pads(self):
        record = _feed_round(
            self._prg_log(), applied={}, removed={}, pads=[("m0", "m1"), ("m1", "m0")]
        )
        assert _messages(record) == [
            (
                "pair-seed",
                "round 0: pair seed m0/m1 used 2 times this round (must be exactly once)",
            ),
            ("pair-seed", "round 0: no pad derived for pair m0/m2 this round"),
            ("pair-seed", "round 0: no pad derived for pair m1/m2 this round"),
        ]

    def test_reused_pad_among_all_pairs(self):
        log = self._prg_log()
        log.seed_agreed("m1", "m2")
        record = _feed_round(
            log,
            applied={},
            removed={},
            pads=[("m0", "m1"), ("m0", "m2"), ("m1", "m2"), ("m2", "m0")],
        )
        assert _messages(record) == [
            (
                "pair-seed",
                "round 0: pair seed m0/m2 used 2 times this round (must be exactly once)",
            ),
        ]

    def test_short_and_failed_reconstruction(self):
        log = ProtocolAuditLog()
        log.begin_round("threshold-sum", list(PARTICIPANTS), threshold=3)
        for p in PARTICIPANTS:
            log.share_sent(p)
            log.share_received(p)
        log.reconstruction(2, ok=False)
        record = log.end_round()
        assert _messages(record) == [
            ("reconstruction", "round 0: reconstructed from 2 shares; threshold is 3"),
            ("reconstruction", "round 0: reconstruction reported failure"),
        ]

    def test_participant_floor(self):
        record = _feed_round(
            ProtocolAuditLog(participant_floor=4), participants=PARTICIPANTS
        )
        assert _messages(record) == [
            ("participant-floor", "round 0: 3 participants; floor is 4"),
        ]

    def test_rules_report_in_check_order(self):
        log = ProtocolAuditLog(participant_floor=4)
        _feed_round(log)
        record = _feed_round(
            log,
            protocol="threshold-sum",
            removed={"m0": ["m1", "m2"], "m1": ["m0", "m2"], "m2": ["m0"]},
            pads=[("m0", "m1")],
            sent=("m0",),
            received=("m0",),
            threshold=2,
        )
        assert _messages(record) == [
            ("participant-floor", "round 1: 3 participants; floor is 4"),
            ("mask-balance", "round 1: mask m1->m2: applied 1 times but removed 0 times"),
            ("pair-seed", "round 1: pad derived for pair m0/m1 without an agreed seed"),
            ("pair-seed", "round 1: no pad derived for pair m0/m2 this round"),
            ("pair-seed", "round 1: no pad derived for pair m1/m2 this round"),
            ("share-count", "round 1: participant m1 sent 0 shares (expected 1)"),
            ("share-count", "round 1: participant m2 sent 0 shares (expected 1)"),
            ("share-count", "round 1: reducer consumed 1 shares, expected 3"),
            ("reconstruction", "round 1: round ended without reconstruction"),
        ]


class TestCounterViews:
    def test_views_count_every_feed(self):
        log = ProtocolAuditLog()
        log.seed_agreed("m0", "m1")
        record = _feed_round(
            log,
            applied={"m0": ["m1", "m2", "m1"], "m2": ["m0"]},
            removed={"m1": ["m0"], "m0": ["m2", "m2"]},
            pads=[("m1", "m0"), ("m0", "m1")],
            sent=("m0", "m1", "m0"),
            received=("m2",),
        )
        assert record.masks_applied == {("m0", "m1"): 2, ("m0", "m2"): 1, ("m2", "m0"): 1}
        assert record.masks_removed == {("m1", "m0"): 1, ("m0", "m2"): 2}
        assert record.pads_derived == {("m0", "m1"): 2}
        assert record.shares_sent == {"m0": 2, "m1": 1}
        assert record.shares_received == {"m2": 1}
        summary = record.as_dict()
        assert [summary[key] for key in ("masks_applied", "masks_removed", "pads_derived")] == [4, 3, 2]
        assert [summary["shares_sent"], summary["shares_received"]] == [3, 1]

    def test_views_of_a_protocol_round_count_each_mask_once(self):
        audit = ProtocolAuditLog()
        protocol, values = _protocol("fresh", audit, n=4)
        protocol.sum_vectors(values)
        (record,) = audit.rounds
        pairs = {(a, b) for a in protocol.participants for b in protocol.participants if a != b}
        assert record.masks_applied == dict.fromkeys(pairs, 1)
        assert record.masks_removed == dict.fromkeys(pairs, 1)
        assert record.shares_sent == record.shares_received == dict.fromkeys(protocol.participants, 1)

    @pytest.mark.parametrize("feed", ["mask_applied", "mask_removed"])
    def test_a_bare_str_is_refused(self, feed):
        log = ProtocolAuditLog()
        log.begin_round("secure-sum", ["m0", "m1"])
        with pytest.raises(TypeError, match="not a str"):
            getattr(log, feed)("m0", "m1")
        log.discard_round()
        with pytest.raises(RuntimeError, match="no audit round is open"):
            getattr(log, feed)("m0", ["m1"])
