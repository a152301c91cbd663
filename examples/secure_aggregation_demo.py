"""Protocol deep-dive: the coalition-resistant secure summation (Section V).

Shows, on raw protocol runs (no SVM), exactly what the paper's security
argument rests on:

1. the Reducer computes the correct sum while each incoming share is a
   uniformly-masked group element;
2. a coalition of the Reducer + M-2 corrupted Mappers still cannot
   recover the remaining honest Mapper's input;
3. if *every* other Mapper colludes, recovery succeeds — but that much
   is implied by the sum itself (no protocol can prevent it);
4. the cost comparison against the heavyweight alternative: Paillier
   homomorphic aggregation.

Run:  python examples/secure_aggregation_demo.py
"""

import time

import numpy as np

from repro.cluster.network import Network
from repro.crypto import PaillierKeyPair, SecureSummationProtocol
from repro.security import coalition_view, coalition_recovery_attempt, reducer_view
from repro.security.analysis import share_uniformity_statistic

M = 4
DIM = 8


def main() -> None:
    rng = np.random.default_rng(0)
    network = Network()
    mappers = [f"mapper-{i}" for i in range(M)]
    protocol = SecureSummationProtocol(network, mappers, "reducer", seed=42)

    secrets = {m: rng.normal(size=DIM) for m in mappers}
    total = protocol.sum_vectors(secrets)

    print("=== 1. correctness ===")
    print(f"true sum        : {np.round(sum(secrets.values()), 6)}")
    print(f"protocol output : {np.round(total, 6)}")

    print("\n=== 2. what the Reducer saw ===")
    view = reducer_view(network)
    share = view.payloads("masked-share")[0]
    print(f"messages: {len(view.messages)} (all masked shares)")
    print(f"one share's residues (mod 2^128): {share.to_ints()[:2]} ...")
    print(f"share decodes to: {np.round(protocol.codec.decode(share)[:3], 3)} ... "
          f"(garbage — nothing like mapper-0's {np.round(secrets['mapper-0'][:3], 3)})")
    print(f"top-byte uniformity statistic: "
          f"{share_uniformity_statistic(view, protocol.codec):.2f} (~1 means uniform)")

    print("\n=== 3. coalition attacks ===")
    partial = coalition_view(network, ["mapper-2", "mapper-3"])
    attempt = coalition_recovery_attempt(partial, "mapper-0", mappers, protocol.codec)
    err = float(np.max(np.abs(attempt.estimate - secrets["mapper-0"])))
    print(f"Reducer + 2 of 4 mappers vs mapper-0: "
          f"{attempt.residual_masks_unknown} pads uncancelled, "
          f"estimate error {err:.2e}  -> SAFE")

    full = coalition_view(network, ["mapper-1", "mapper-2", "mapper-3"])
    attempt = coalition_recovery_attempt(full, "mapper-0", mappers, protocol.codec)
    err = float(np.max(np.abs(attempt.estimate - secrets["mapper-0"])))
    print(f"Reducer + all other mappers vs mapper-0: "
          f"{attempt.residual_masks_unknown} pads uncancelled, "
          f"estimate error {err:.2e}  -> broken (inherent: sum minus "
          f"their inputs already reveals it)")

    print("\n=== 4. cost vs Paillier aggregation ===")
    start = time.perf_counter()
    for _ in range(10):
        protocol.sum_vectors(secrets)
    masking_time = (time.perf_counter() - start) / 10

    keypair = PaillierKeyPair.generate(bits=512, seed=1)
    pk = keypair.public_key
    ints = {m: [int(v * 2**20) for v in secrets[m]] for m in mappers}
    start = time.perf_counter()
    encrypted = [pk.encrypt_vector(ints[m], rng=rng) for m in mappers]
    acc = encrypted[0]
    for enc in encrypted[1:]:
        acc = [a + b for a, b in zip(acc, enc)]
    keypair.decrypt_vector(acc)
    paillier_time = time.perf_counter() - start

    print(f"masking protocol : {masking_time * 1e3:8.2f} ms per round (M={M}, dim={DIM})")
    print(f"paillier (512b)  : {paillier_time * 1e3:8.2f} ms per round")
    print(f"speedup          : {paillier_time / masking_time:8.1f}x")
    print("\n(the paper's design point: a handful of modular additions at "
          "the Reducer replaces per-element public-key crypto)")


if __name__ == "__main__":
    main()
