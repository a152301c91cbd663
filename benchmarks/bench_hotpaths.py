"""Perf-regression harness for the secure-sum hot paths.

Times the codec kernels, secure-sum rounds, solvers, network sends and
whole fits, and writes ``BENCH_hotpaths.json`` (one record per
measurement, see ``docs/PERFORMANCE.md`` for the schema).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke --check

``--check`` exits non-zero if any secure-sum round on the trainer's
one-word ring (64 bits) is slower than the same configuration at 128
bits in the same run: the native one-word kernels must keep beating the
multi-limb carry path.  It also fails if a Shamir threshold round is
more than ``THRESHOLD_MAX_RATIO`` times slower than a fresh 64-bit
round of the same size in the same run, so the dropout-robust sum stays
on the vectorized residue planes, and if a fresh round fed to a
``ProtocolAuditLog`` is more than ``AUDIT_MAX_RATIO`` times the same
round without one, so the runtime audit stays a small share of a round.
The CI ``perf-smoke`` job runs exactly that, so a change that silently
loses any of these fails the build.

Each record's ``wall_s`` is the best of its repeats (the median, for the
``inprocess.*`` rows); ``wall_s_p50``, ``wall_s_q1`` and ``wall_s_q3``
are the median and quartiles of the same repeats, so a row's spread
within one run is on file beside its headline figure.

The secure-sum and codec rows run at two ring widths: 64 bits, the
one-word ring the trainer uses at its defaults
(``fixed_point.ring_bits``), and 128 bits, the codec default and the
multi-limb path.

The ``inprocess.*`` rows time one whole fit of each in-process trainer
(M = 8 learners, 600 standardized OCR-like rows, 64 features, 30
rounds; smaller under ``--smoke``).  Their ``cpu_s`` is the median
process CPU time of several fits, ``wall_s`` the median wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster.network import Network
from repro.cluster.tracing import TraceRecorder
from repro.core import (
    HorizontalKernelSVM,
    HorizontalLinearSVM,
    HorizontalLogisticRegression,
    VerticalKernelSVM,
    VerticalLinearSVM,
    horizontal_partition,
    vertical_partition,
)
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.fixed_point import FixedPointCodec, ring_bits
from repro.crypto.secure_sum import SecureSumAggregator, SecureSummationProtocol
from repro.crypto.threshold_sum import ThresholdSummationProtocol
from repro.data import StandardScaler, train_test_split
from repro.data.synthetic import make_linear_task, make_ocr_like
from repro.obs.audit import ProtocolAuditLog
from repro.svm.knapsack import QuadraticKnapsack, solve_quadratic_knapsack
from repro.svm.qp import solve_box_qp

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_hotpaths.json"
#: One-word (trainer) and two-limb (codec default) ring widths.
RING_BITS = (64, 128)
#: Largest threshold-round time, as a multiple of a fresh 64-bit round
#: of the same size, that ``--check`` accepts.
THRESHOLD_MAX_RATIO = 10.0
#: Largest audited fresh round, as a multiple of the same round without
#: an audit log in the same run, that ``--check`` accepts.
AUDIT_MAX_RATIO = 1.2


def _timeit(fn, *, repeats: int) -> list[float]:
    """Wall seconds of each of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _record(
    results: list[dict],
    op: str,
    params: dict,
    samples: list[float],
    per_iter_bytes: float = 0.0,
    *,
    headline=min,
):
    """Append one record: ``wall_s`` is ``headline(samples)``, beside the
    median and quartiles of ``samples``."""
    if len(samples) > 1:
        q1, p50, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = p50 = q3 = samples[0]
    wall_s = headline(samples)
    entry = {
        "op": op,
        "params": params,
        "wall_s": wall_s,
        "wall_s_p50": p50,
        "wall_s_q1": q1,
        "wall_s_q3": q3,
        "per_iter_bytes": per_iter_bytes,
    }
    results.append(entry)
    print(
        f"  {op:<28} {json.dumps(params):<60} {wall_s * 1e3:9.3f} ms"
        f"  (p50 {p50 * 1e3:.3f}, q1-q3 {q1 * 1e3:.3f}-{q3 * 1e3:.3f})"
    )
    return entry


def bench_secure_sum(results: list[dict], *, smoke: bool) -> list[tuple[dict, dict]]:
    """Fresh/prg secure-sum rounds at each ring width.

    Returns (64-bit, 128-bit) record pairs of one configuration for the
    --check gate.
    """
    print("secure summation rounds:")
    configs = [("fresh", 8, 512)]
    if not smoke:
        configs += [("fresh", 8, 2048), ("prg", 8, 512), ("fresh", 16, 512)]
    else:
        configs += [("prg", 8, 512)]
    repeats = 2 if smoke else 5
    pairs = []
    for mode, n_participants, dim in configs:
        pair = []
        for bits in RING_BITS:
            codec = FixedPointCodec(modulus_bits=bits, max_terms=n_participants)
            network = Network(keep_log=False)
            participants = [f"m{i}" for i in range(n_participants)]
            protocol = SecureSummationProtocol(
                network, participants, "reducer", codec=codec, mode=mode, seed=0
            )
            rng = np.random.default_rng(0)
            values = {p: rng.normal(size=dim) for p in participants}
            expected = sum(values.values())
            out = protocol.sum_vectors(values)
            np.testing.assert_allclose(out, expected, atol=1e-8)
            bytes_before = network.bytes_sent()
            wall = _timeit(lambda: protocol.sum_vectors(values), repeats=repeats)
            per_round_bytes = (network.bytes_sent() - bytes_before) / repeats
            entry = _record(
                results,
                "secure_sum.round",
                {
                    "mode": mode,
                    "participants": n_participants,
                    "dim": dim,
                    "modulus_bits": bits,
                },
                wall,
                per_round_bytes,
            )
            pair.append(entry)
        pairs.append((pair[0], pair[1]))
    return pairs


def bench_threshold_sum(results: list[dict], *, smoke: bool) -> list[tuple[dict, dict]]:
    """Shamir threshold rounds, each beside a fresh 64-bit round of the
    same size (M participants, one ``dim``-vector each).

    Returns (threshold, fresh) record pairs for the --check gate.
    """
    print("threshold summation rounds:")
    configs = [(4, 3, 128)] if smoke else [(4, 3, 128), (8, 5, 600)]
    repeats = 3 if smoke else 7
    pairs = []
    for n_participants, threshold, dim in configs:
        participants = [f"m{i}" for i in range(n_participants)]
        rng = np.random.default_rng(9)
        values = {p: rng.normal(size=dim) for p in participants}
        expected = sum(values.values())
        fresh = SecureSummationProtocol(
            Network(keep_log=False),
            participants,
            "reducer",
            codec=FixedPointCodec(modulus_bits=64, max_terms=n_participants),
            seed=0,
        )
        network = Network(keep_log=False)
        robust = ThresholdSummationProtocol(
            network, participants, "reducer", threshold=threshold, seed=0
        )
        np.testing.assert_allclose(robust.sum_vectors(values), expected, atol=1e-8)
        bytes_before = network.bytes_sent()
        wall = _timeit(lambda: robust.sum_vectors(values), repeats=repeats)
        per_round_bytes = (network.bytes_sent() - bytes_before) / repeats
        threshold_entry = _record(
            results,
            "threshold_sum.round",
            {"participants": n_participants, "threshold": threshold, "dim": dim},
            wall,
            per_round_bytes,
        )
        fresh_entry = _record(
            results,
            "secure_sum.round",
            {"mode": "fresh", "participants": n_participants, "dim": dim, "modulus_bits": 64},
            _timeit(lambda: fresh.sum_vectors(values), repeats=repeats),
        )
        pairs.append((threshold_entry, fresh_entry))
    return pairs


def bench_audited_round(results: list[dict], *, smoke: bool) -> tuple[dict, dict]:
    """A fresh M = 8 round of 600-vectors on the trainer's one-word ring,
    fed to a ``ProtocolAuditLog`` as a secure fit feeds it, and the same
    round without one.  The two are timed alternately.

    Returns the (audited, unaudited) records for the --check gate.
    """
    print("audited secure-sum round:")
    n_participants, dim = 8, 600
    participants = [f"m{i}" for i in range(n_participants)]
    rng = np.random.default_rng(12)
    values = {p: rng.normal(size=dim) for p in participants}
    protocols = []
    for audited in (True, False):
        network = Network(keep_log=False)
        audit = ProtocolAuditLog(metrics=network.metrics, tracer=network.tracer) if audited else None
        protocol = SecureSummationProtocol(
            network,
            participants,
            "reducer",
            codec=FixedPointCodec(modulus_bits=ring_bits(40, n_participants), max_terms=n_participants),
            seed=0,
            audit=audit,
        )
        protocol.sum_vectors(values)
        protocols.append(protocol)
    samples: list[list[float]] = [[], []]
    for _ in range(30 if smoke else 60):
        for protocol, timed in zip(protocols, samples):
            timed.extend(_timeit(lambda: protocol.sum_vectors(values), repeats=1))
    params = {"mode": "fresh", "participants": n_participants, "dim": dim}
    audited = _record(results, "secure_sum.audited_round", params, samples[0])
    unaudited = _record(results, "secure_sum.unaudited_round", params, samples[1])
    return audited, unaudited


def bench_span(results: list[dict], *, smoke: bool) -> None:
    """One span opened and closed on an enabled ``TraceRecorder``."""
    print("trace span:")
    batch = 200 if smoke else 2000

    def span_batch():
        span = TraceRecorder().span
        for _ in range(batch):
            with span("crypto.mask_exchange", kind="crypto"):
                pass

    wall = [t / batch for t in _timeit(span_batch, repeats=3 if smoke else 7)]
    _record(results, "tracing.span_open_close", {}, wall)


def bench_codec_kernels(results: list[dict], *, smoke: bool) -> None:
    print("codec kernels:")
    dim = 1024 if smoke else 8192
    repeats = 3 if smoke else 7
    rng = np.random.default_rng(1)
    values = rng.normal(size=dim)
    for bits in RING_BITS:
        codec = FixedPointCodec(modulus_bits=bits)
        params = {"dim": dim, "modulus_bits": bits}
        a = codec.random_vector_array(dim, np.random.default_rng(2))
        b = codec.random_vector_array(dim, np.random.default_rng(3))
        _record(
            results,
            "codec.encode",
            params,
            _timeit(lambda: codec.encode_array(values), repeats=repeats),
        )
        _record(
            results,
            "codec.random_vector",
            params,
            _timeit(
                lambda: codec.random_vector_array(dim, np.random.default_rng(4)),
                repeats=repeats,
            ),
        )
        _record(
            results,
            "codec.add",
            params,
            _timeit(lambda: codec.add(a, b), repeats=repeats),
        )
        _record(
            results,
            "codec.decode",
            params,
            _timeit(lambda: codec.decode(codec.encode_array(values)), repeats=repeats),
        )


def bench_sum_arrays(results: list[dict], *, smoke: bool) -> None:
    """One learner's netting in a fresh M = 8 round: ``w_i + Sed_i`` (8
    operands) minus ``Rev_i`` (7), 600 words each, per call."""
    print("codec netting:")
    batch = 20 if smoke else 500
    for bits in RING_BITS:
        codec = FixedPointCodec(modulus_bits=bits, max_terms=8)
        rng = np.random.default_rng(8)
        plus = [codec.random_vector_array(600, rng) for _ in range(8)]
        minus = [codec.random_vector_array(600, rng) for _ in range(7)]

        def net_batch():
            for _ in range(batch):
                codec.sum_arrays(plus, minus)

        wall = [t / batch for t in _timeit(net_batch, repeats=3 if smoke else 7)]
        params = {"plus": 8, "minus": 7, "words": 600, "modulus_bits": bits}
        _record(results, "codec.sum_arrays", params, wall)


def bench_box_qp(results: list[dict], *, smoke: bool) -> None:
    print("box QP:")
    n = 200 if smoke else 600
    repeats = 3 if smoke else 5
    rng = np.random.default_rng(5)
    A = rng.normal(size=(n, n))
    H = A @ A.T / n + 1e-3 * np.eye(n)
    d = rng.normal(size=n)
    _record(
        results,
        "qp.solve_box_qp",
        {"n": n, "upper": 50.0},
        _timeit(lambda: solve_box_qp(H, d, 0.0, 50.0), repeats=repeats),
    )
    # Warm-started resolve — the dominant shape inside ADMM iterations.
    x0 = solve_box_qp(H, d, 0.0, 50.0).x
    d2 = d + 0.01 * rng.normal(size=n)
    _record(
        results,
        "qp.solve_box_qp_warm",
        {"n": n, "upper": 50.0},
        _timeit(lambda: solve_box_qp(H, d2, 0.0, 50.0, x0=x0), repeats=repeats),
    )


def bench_reducer_knapsack(results: list[dict], *, smoke: bool) -> None:
    """The V-lin Reducer's eq. (29) knapsack: n = 600, c = +-1, box [0, 50].

    Timed both one-shot (set-up and solve per call) and prepared once
    and solved for one round's ``d``, as the Reducer does.
    """
    print("reducer knapsack:")
    n, learners, rho = 600, 3, 100.0
    rng = np.random.default_rng(6)
    y = rng.choice([-1.0, 1.0], size=n)
    d = learners * y * rng.normal(size=n) - 1.0
    a = np.full(n, learners / rho)
    repeats = 20 if smoke else 200
    wall = _timeit(lambda: solve_quadratic_knapsack(a, d, y, 0.0, 0.0, 50.0), repeats=repeats)
    _record(results, "knapsack.solve_quadratic_knapsack", {"n": n, "upper": 50.0}, wall)
    knapsack = QuadraticKnapsack(a, y, 0.0, 0.0, 50.0)
    wall = _timeit(lambda: knapsack.solve(d), repeats=repeats)
    _record(results, "knapsack.prepared_solve", {"n": n, "upper": 50.0}, wall)


def bench_network_send(results: list[dict], *, smoke: bool) -> None:
    """One ``Network.send`` + ``receive_message`` of a 600-word one-limb
    mask, on the trainer's default network (a ``Profiler`` registry;
    the message log is off to bound memory)."""
    print("network send:")
    network = Network(keep_log=False)
    network.register("a")
    network.register("b")
    mask = FixedPointCodec(modulus_bits=64).random_vector_array(600, np.random.default_rng(7))
    batch = 200 if smoke else 2000

    def send_batch():
        for _ in range(batch):
            network.send("a", "b", mask, kind="mask")
            network.receive_message("b", kind="mask")

    wall = [t / batch for t in _timeit(send_batch, repeats=3 if smoke else 7)]
    size = network.bytes_sent("mask") / network.messages_sent("mask")
    _record(results, "network.send_receive", {"words": 600, "modulus_bits": 64}, wall, size)


def bench_network_broadcast(results: list[dict], *, smoke: bool) -> None:
    """One ``Network.broadcast`` of the V-lin Reducer's state (a 600-float
    correction and the bias) to 8 mapper nodes, and their receives."""
    print("network broadcast:")
    network = Network(keep_log=False)
    nodes = [f"m{i}" for i in range(8)]
    for node in ["reducer", *nodes]:
        network.register(node)
    state = {"correction": np.random.default_rng(10).normal(size=600), "bias": 0.5}
    batch = 20 if smoke else 200

    def broadcast_batch():
        for _ in range(batch):
            network.broadcast("reducer", nodes, state, kind="broadcast")
            for node in nodes:
                network.receive_message(node, kind="broadcast")

    wall = [t / batch for t in _timeit(broadcast_batch, repeats=3 if smoke else 7)]
    size = network.bytes_sent("broadcast") / network.messages_sent("broadcast")
    _record(results, "network.broadcast", {"nodes": 8, "words": 600}, wall, size * len(nodes))


def bench_inprocess_fits(results: list[dict], *, smoke: bool) -> None:
    """One whole fit per in-process trainer, at ``perfbench``'s full size."""
    print("in-process fits:")
    rows, learners, rounds = (120, 4, 5) if smoke else (600, 8, 30)
    train, _ = train_test_split(make_ocr_like(2 * rows, seed=11), 0.5, seed=1)
    train = StandardScaler().fit(train.X).transform_dataset(train)
    parts = horizontal_partition(train, learners, seed=1)
    partition = vertical_partition(train, learners, seed=1)
    trainers = [
        (HorizontalLinearSVM, parts),
        (HorizontalKernelSVM, parts),
        (VerticalLinearSVM, partition),
        (VerticalKernelSVM, partition),
        (HorizontalLogisticRegression, parts),
    ]
    repeats = 3 if smoke else 11
    params = {"learners": learners, "rows": rows, "features": train.n_features, "rounds": rounds}
    for trainer, data in trainers:
        walls, cpus = [], []
        for _ in range(repeats):
            model = trainer(max_iter=rounds)
            start, start_cpu = time.perf_counter(), time.process_time()
            model.fit(data)
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - start_cpu)
        entry = _record(
            results, f"inprocess.{trainer.__name__}", params, walls, headline=statistics.median
        )
        entry["cpu_s"] = statistics.median(cpus)


def bench_end_to_end(
    results: list[dict], *, smoke: bool, ledger_dir: Path | None = None
) -> None:
    """Full horizontal-linear secure fit on the trainer's ring.

    Uses a high-dimensional task (the regime the paper's big-data
    setting targets) so the secure-summation rounds — not the tiny
    per-learner QPs — carry the iteration cost.  When ``ledger_dir`` is
    given, the last fitted model is persisted to the run ledger
    (``kind="bench"``) so perf runs are queryable alongside training
    runs via ``repro runs``.
    """
    print("end-to-end horizontal linear fit:")
    n_features = 256 if smoke else 512
    dataset = make_linear_task(240, n_features, noise=0.05, seed=7)
    parts = horizontal_partition(dataset, 4, seed=0)
    max_iter = 5 if smoke else 15
    bits = ring_bits(40, 4)  # the trainer's ring for 4 learners
    last_model: list[PrivacyPreservingSVM] = []

    def fit():
        # Fresh aggregator per fit: the adapter caches a protocol bound
        # to one Network, and each fit builds a new one.
        aggregator = SecureSumAggregator(
            codec=FixedPointCodec(modulus_bits=bits, max_terms=4),
            mode="fresh",
            seed=0,
        )
        model = PrivacyPreservingSVM(
            "horizontal",
            C=50.0,
            rho=100.0,
            max_iter=max_iter,
            seed=0,
            aggregator=aggregator,
        ).fit(parts)
        last_model[:] = [model]

    _record(
        results,
        "trainer.horizontal_linear_fit",
        {
            "learners": 4,
            "n_features": n_features,
            "max_iter": max_iter,
            "modulus_bits": bits,
        },
        _timeit(fit, repeats=1 if smoke else 2),
    )
    if ledger_dir is not None and last_model:
        run_id = last_model[0].save_run(str(ledger_dir), kind="bench", label="hotpaths")
        print(f"  bench run recorded: {run_id} ({ledger_dir}/)")


def check_regressions(
    pairs: list[tuple[dict, dict]],
    threshold_pairs: list[tuple[dict, dict]],
    audit_pair: tuple[dict, dict],
) -> list[str]:
    """A one-word (64-bit) secure-sum round must never be slower than
    the same configuration on the two-limb (128-bit) ring, a threshold
    round no more than ``THRESHOLD_MAX_RATIO`` times slower than a fresh
    64-bit round of the same size, and an audited fresh round no more
    than ``AUDIT_MAX_RATIO`` times the same round without an audit."""
    failures = []
    for one_word, two_limb in pairs:
        if one_word["wall_s"] > two_limb["wall_s"]:
            failures.append(
                f"secure_sum {one_word['params']}: one-word {one_word['wall_s']:.4f}s "
                f"slower than 128-bit {two_limb['wall_s']:.4f}s"
            )
        else:
            speedup = two_limb["wall_s"] / max(one_word["wall_s"], 1e-12)
            print(f"  ok: {json.dumps(one_word['params'])} {speedup:.1f}x faster than 128-bit")
    for threshold, fresh in threshold_pairs:
        ratio = threshold["wall_s"] / max(fresh["wall_s"], 1e-12)
        if ratio > THRESHOLD_MAX_RATIO:
            failures.append(
                f"threshold_sum {threshold['params']}: {threshold['wall_s']:.4f}s is "
                f"{ratio:.1f}x a fresh 64-bit round ({fresh['wall_s']:.4f}s), "
                f"over {THRESHOLD_MAX_RATIO:g}x"
            )
        else:
            print(f"  ok: {json.dumps(threshold['params'])} {ratio:.1f}x a fresh 64-bit round")
    audited, unaudited = audit_pair
    ratio = audited["wall_s"] / max(unaudited["wall_s"], 1e-12)
    if ratio > AUDIT_MAX_RATIO:
        failures.append(
            f"audited round {audited['params']}: {audited['wall_s']:.4f}s is {ratio:.3f}x "
            f"the unaudited round ({unaudited['wall_s']:.4f}s), over {AUDIT_MAX_RATIO:g}x"
        )
    else:
        print(f"  ok: {json.dumps(audited['params'])} audited {ratio:.3f}x unaudited")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized problem set (seconds, not minutes)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if a 64-bit secure-sum round is slower than the same round at "
        f"128 bits, a threshold round over {THRESHOLD_MAX_RATIO:g}x a fresh 64-bit round, "
        f"or an audited fresh round over {AUDIT_MAX_RATIO:g}x an unaudited one",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const=REPO_ROOT / ".repro-runs",
        default=None,
        type=Path,
        metavar="DIR",
        help="persist end-to-end bench fits to the run ledger "
        "(default directory: .repro-runs/)",
    )
    args = parser.parse_args(argv)

    results: list[dict] = []
    pairs = bench_secure_sum(results, smoke=args.smoke)
    threshold_pairs = bench_threshold_sum(results, smoke=args.smoke)
    audit_pair = bench_audited_round(results, smoke=args.smoke)
    bench_span(results, smoke=args.smoke)
    bench_codec_kernels(results, smoke=args.smoke)
    bench_sum_arrays(results, smoke=args.smoke)
    bench_box_qp(results, smoke=args.smoke)
    bench_reducer_knapsack(results, smoke=args.smoke)
    bench_network_send(results, smoke=args.smoke)
    bench_network_broadcast(results, smoke=args.smoke)
    bench_inprocess_fits(results, smoke=args.smoke)
    bench_end_to_end(results, smoke=args.smoke, ledger_dir=args.ledger)

    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} records to {args.out}")

    if args.check:
        failures = check_regressions(pairs, threshold_pairs, audit_pair)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
