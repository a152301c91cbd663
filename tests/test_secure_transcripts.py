"""Secure-sum wire transcripts replayed against a pinned fixture.

``fixtures/secure_transcripts.json`` holds, for tiny fresh-mode secure
fits of H-lin and V-lin, a tiny V-lin Shamir threshold fit (t = 3 of 4
learners, one learner dropping in round 1) and single
``SecureSummationProtocol`` rounds in a 128-bit ring (fresh and prg):

* every message on the wire as ``(seq, src, dst, kind, size_bytes,
  digest)``, the digest a SHA-256 of the payload's residues (or of its
  float arrays, for non-residue payloads);
* the counter totals (wall-clock ``*_s`` counters left out) and the
  simulated transfer time;
* the decoded sums, as a SHA-256 of their ``float64`` bytes per round
  for the fits and as the values themselves for the single rounds.

A change to the secure-sum path must reproduce all of it exactly: the
protocol's wire form, byte costs and arithmetic are not allowed to move.

Regenerate (only when a change is meant to move the transcript) with
``PYTHONPATH=src python tests/test_secure_transcripts.py``.
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.crypto.secure_sum import SecureSummationProtocol
from repro.crypto.threshold_sum import ThresholdSumAggregator, ThresholdSummationProtocol
from repro.data.synthetic import make_linear_task

PATH = Path(__file__).parent / "fixtures" / "secure_transcripts.json"
FITS = ["h-lin-fresh", "v-lin-fresh", "v-lin-threshold"]
ROUNDS = {
    "ring128-fresh": ({}, "fresh"),
    "ring128-prg": ({}, "prg"),
}


def _digest(payload: Any) -> str:
    """SHA-256 of a payload's value, independent of its memory layout."""
    h = hashlib.sha256()

    def feed(value: Any) -> None:
        if isinstance(value, ResidueVector):
            h.update(f"residues:{value.modulus}:".encode())
            h.update(",".join(map(str, value.to_ints())).encode())
        elif isinstance(value, np.ndarray):
            h.update(f"array:{value.shape}:".encode())
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        elif isinstance(value, tuple):
            for item in value:
                feed(item)
        elif isinstance(value, dict):
            for key in sorted(value):
                h.update(f"key:{key}:".encode())
                feed(value[key])
        else:
            h.update(f"repr:{value!r}".encode())

    feed(payload)
    return h.hexdigest()


def _transcript(network: Network) -> dict:
    return {
        "messages": [
            [m.seq, m.src, m.dst, m.kind, m.size_bytes, _digest(m.payload)]
            for m in network.message_log
        ],
        "counters": {
            name: value
            for name, value in sorted(network.metrics.as_dict().items())
            if not name.endswith("_s")
        },
        "simulated_time_s": network.simulated_time_s,
    }


def _observe_fit(name: str) -> dict:
    """A tiny secure fit, recording each round's decoded sum."""
    partitioning, _, mode = name.split("-")
    data = make_linear_task(60, 5, margin=0.5, seed=3)
    split = horizontal_partition if partitioning == "h" else vertical_partition
    if mode == "threshold":
        protocol_class: type = ThresholdSummationProtocol
        n_learners = 4
        aggregator = ThresholdSumAggregator(
            threshold=3, seed=0, dropout_schedule={1: {"learner-2"}}
        )
        options: dict[str, Any] = {"aggregator": aggregator}
    else:
        protocol_class, n_learners, options = SecureSummationProtocol, 3, {"mask_mode": mode}
    sums: list[str] = []
    original = protocol_class.sum_vectors

    def recording(self: Any, values: dict, **kwargs: Any) -> np.ndarray:
        total = original(self, values, **kwargs)
        sums.append(_digest(np.asarray(total)))
        return total

    protocol_class.sum_vectors = recording
    try:
        model = PrivacyPreservingSVM(
            "horizontal" if partitioning == "h" else "vertical",
            max_iter=3,
            seed=0,
            on_health="ignore",
            **options,
        ).fit(split(data, n_learners, seed=0))
    finally:
        protocol_class.sum_vectors = original
    return {**_transcript(model.network_), "decoded_sums": sums}


def _observe_round(name: str) -> dict:
    """One protocol round over four participants."""
    codec_kwargs, mode = ROUNDS[name]
    network = Network()
    participants = [f"p{i}" for i in range(4)]
    protocol = SecureSummationProtocol(
        network,
        participants,
        "red",
        codec=FixedPointCodec(max_terms=4, **codec_kwargs),
        mode=mode,
        seed=17,
    )
    rng = np.random.default_rng(23)
    values = {p: rng.normal(scale=5.0, size=13) for p in participants}
    total = protocol.sum_vectors(values)
    return {**_transcript(network), "decoded_sum": total.tolist()}


@pytest.mark.parametrize("name", [*FITS, *ROUNDS])
def test_transcript_matches_pinned_fixture(name):
    observe = _observe_fit if name in FITS else _observe_round
    observed = json.loads(json.dumps(observe(name)))
    assert observed == json.loads(PATH.read_text())[name]


if __name__ == "__main__":
    fixture = {name: _observe_fit(name) for name in FITS}
    fixture.update({name: _observe_round(name) for name in ROUNDS})
    PATH.write_text(json.dumps(fixture, indent=1) + "\n")
    sys.exit(0)
