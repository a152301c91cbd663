"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``
    Train a privacy-preserving SVM on a built-in synthetic dataset or a
    user-supplied CSV, print the accuracy and the communication/privacy
    ledger, and optionally save the consensus model.
``figure4``
    Regenerate Fig. 4 panels and print the numeric series.
``report``
    Run the full evaluation and write a Markdown report.
``protocol-demo``
    One round of the secure summation protocol with a visible ledger.
``trace``
    Train a small model, print its per-iteration cost table derived
    from the structured trace, verify it reconciles with the counter
    registry, and optionally export Chrome-trace or JSONL files (see
    ``docs/OBSERVABILITY.md``).
``lint``
    Run the privacy/determinism static-analysis suite over the source
    tree (see ``docs/STATIC_ANALYSIS.md``).
``runs``
    Query the persistent run ledger under ``.repro-runs/`` — ``list``,
    ``show``, ``diff``, and ``compare`` (see ``docs/OBSERVABILITY.md``,
    "Querying past runs").  ``train`` and ``trace`` gain ``--ledger``
    to record their runs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.data.loaders import load_csv
from repro.data.scaling import StandardScaler
from repro.data.splits import train_test_split
from repro.data.synthetic import make_cancer_like, make_higgs_like, make_ocr_like
from repro.experiments.config import ExperimentConfig, PAPER_SIZES
from repro.experiments.figure4 import format_panel, run_panel
from repro.experiments.report import generate_report
from repro.svm.kernels import kernel_by_name

__all__ = ["main"]

_MAKERS = {"cancer": make_cancer_like, "higgs": make_higgs_like, "ocr": make_ocr_like}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving distributed SVM (ICDCS'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a privacy-preserving SVM")
    source = train.add_mutually_exclusive_group()
    source.add_argument("--dataset", choices=sorted(_MAKERS), default="cancer")
    source.add_argument("--csv", help="path to a numeric CSV with labels")
    train.add_argument("--label-column", type=int, default=-1)
    train.add_argument("--samples", type=int, default=569)
    train.add_argument("--mode", choices=["horizontal", "vertical"], default="horizontal")
    train.add_argument("--kernel", default=None, help="e.g. rbf; omit for linear")
    train.add_argument("--gamma", type=float, default=0.02, help="RBF bandwidth")
    train.add_argument("--learners", type=int, default=4)
    train.add_argument("--C", type=float, default=50.0)
    train.add_argument("--rho", type=float, default=100.0)
    train.add_argument("--iters", type=int, default=60)
    train.add_argument("--insecure", action="store_true", help="plaintext aggregation")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", help="write the consensus model to this .npz path")
    train.add_argument("--ledger", action="store_true",
                       help="record this run into the run ledger")
    train.add_argument("--ledger-dir", default=None,
                       help="ledger directory (default: .repro-runs)")
    train.add_argument("--on-health", choices=["warn", "raise", "ignore"],
                       default="warn", help="policy when a convergence-health "
                       "detector fires")

    fig = sub.add_parser("figure4", help="regenerate Fig. 4 panels")
    fig.add_argument("--panels", default="abcdefgh")
    fig.add_argument("--paper", action="store_true", help="paper-scale sizes")
    fig.add_argument("--max-iter", type=int, default=100)
    fig.add_argument("--seed", type=int, default=0)

    report = sub.add_parser("report", help="write the full Markdown evaluation report")
    report.add_argument("--out", default="report.md")
    report.add_argument("--panels", default="abcdefgh")
    report.add_argument("--paper", action="store_true")
    report.add_argument("--max-iter", type=int, default=60)
    report.add_argument("--seed", type=int, default=0)

    sub.add_parser("protocol-demo", help="one secure-summation round, annotated")

    trace = sub.add_parser("trace", help="trace a training run and print its cost table")
    trace.add_argument("--dataset", choices=sorted(_MAKERS), default="cancer")
    trace.add_argument("--samples", type=int, default=200)
    trace.add_argument("--mode", choices=["horizontal", "vertical"], default="horizontal")
    trace.add_argument("--learners", type=int, default=4)
    trace.add_argument("--iters", type=int, default=10)
    trace.add_argument("--insecure", action="store_true", help="plaintext aggregation")
    trace.add_argument("--mask-mode", choices=["fresh", "prg"], default="fresh")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="write Chrome-trace JSON here (chrome://tracing)")
    trace.add_argument("--jsonl", help="write the span/event/counter records here")
    trace.add_argument("--ledger", action="store_true",
                       help="record this run into the run ledger")
    trace.add_argument("--ledger-dir", default=None,
                       help="ledger directory (default: .repro-runs)")

    lint = sub.add_parser("lint", help="run the privacy/determinism static analysis")
    lint.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    lint.add_argument("--root", default=".", help="repo root for relative paths "
                      "and the default allowlist")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the run (CI mode)")
    lint.add_argument("--format", choices=["text", "json", "github", "sarif"],
                      default="text")
    lint.add_argument("--allowlist", help="allowlist TOML (default: "
                      "<root>/.repro-lint.toml if present)")
    lint.add_argument("--no-allowlist", action="store_true",
                      help="ignore any allowlist file")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print pragma/allowlist-suppressed findings")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule registry and exit")
    lint.add_argument("--baseline", metavar="PATH",
                      help="suppress findings recorded in this baseline "
                      "snapshot; only new findings are reported")
    lint.add_argument("--write-baseline", metavar="PATH",
                      help="snapshot the run's active findings to PATH "
                      "and exit 0")

    from repro.obs.runs_cli import add_runs_parser

    add_runs_parser(sub)
    return parser


def _record_run(model: "PrivacyPreservingSVM", args: argparse.Namespace,
                kind: str) -> None:
    """Persist a CLI run into the ledger and print its id."""
    from repro.obs.ledger import DEFAULT_LEDGER_DIR

    ledger_dir = args.ledger_dir or DEFAULT_LEDGER_DIR
    run_id = model.save_run(ledger_dir, kind=kind,
                            label=f"{args.dataset}/{args.mode}")
    print(f"run recorded: {run_id} ({ledger_dir}/)")


def _cmd_train(args: argparse.Namespace) -> int:
    if args.csv:
        dataset = load_csv(args.csv, label_column=args.label_column)
    else:
        dataset = _MAKERS[args.dataset](args.samples, seed=args.seed)
    train_set, test_set = train_test_split(dataset, 0.5, seed=args.seed)
    scaler = StandardScaler().fit(train_set.X)
    train_set = scaler.transform_dataset(train_set)
    test_set = scaler.transform_dataset(test_set)

    kernel = kernel_by_name(args.kernel, gamma=args.gamma) if args.kernel == "rbf" else (
        kernel_by_name(args.kernel) if args.kernel else None
    )
    model = PrivacyPreservingSVM(
        args.mode,
        kernel=kernel,
        C=args.C,
        rho=args.rho,
        max_iter=args.iters,
        secure=not args.insecure,
        seed=args.seed,
        on_health=args.on_health,
    )
    if args.mode == "horizontal":
        data = horizontal_partition(train_set, args.learners, seed=args.seed)
    else:
        data = vertical_partition(train_set, args.learners, seed=args.seed)
    model.fit(data)

    print(f"dataset            : {dataset.name} ({dataset.n_samples} x {dataset.n_features})")
    print(f"mode               : {args.mode}, {args.learners} learners, "
          f"{'secure' if not args.insecure else 'PLAINTEXT'}")
    print(f"test accuracy      : {model.score(test_set.X, test_set.y):.4f}")
    print(f"iterations         : {len(model.history_)}")
    print(f"final z-change     : {model.history_.z_changes[-1]:.3e}")
    summary = model.communication_summary()
    print(f"bytes on the wire  : {summary['total_bytes']:.0f} "
          f"({summary['bytes_per_iteration']:.0f}/iter)")
    print(f"raw data moved     : {summary['raw_data_bytes_moved']:.0f} bytes")
    print(f"secure sum rounds  : {summary['secure_sum_rounds']:.0f}")
    print(f"health verdict     : {model.health_monitor_.verdict()}")
    audit = model.audit_log_.summary()
    print(f"protocol audit     : {audit['n_rounds']} round(s), "
          f"{'clean' if audit['ok'] else str(audit['n_violations']) + ' violation(s)'}")
    if args.ledger:
        _record_run(model, args, "train")

    if args.save:
        if args.mode != "horizontal" or kernel is not None:
            print("--save supports the horizontal linear consensus model only",
                  file=sys.stderr)
            return 2
        from repro.persistence import save_model

        # The cluster fit publishes its consensus on an in-process
        # HorizontalLinearSVM, which is what gets saved.
        save_model(model._variant, args.save)
        print(f"consensus model written to {args.save}")
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    config = ExperimentConfig(max_iter=args.max_iter, seed=args.seed)
    if args.paper:
        config = config.with_sizes(PAPER_SIZES)
    for panel in args.panels:
        result = run_panel(panel, config)
        print(format_panel(result, every=10))
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = ExperimentConfig(max_iter=args.max_iter, seed=args.seed)
    if args.paper:
        config = config.with_sizes(PAPER_SIZES)
    text = generate_report(config, panels=args.panels)
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"report written to {args.out}")
    return 0


def _cmd_protocol_demo(_: argparse.Namespace) -> int:
    from repro.cluster.network import Network
    from repro.crypto.secure_sum import SecureSummationProtocol

    rng = np.random.default_rng(0)
    network = Network()
    mappers = [f"mapper-{i}" for i in range(4)]
    protocol = SecureSummationProtocol(network, mappers, "reducer", seed=0)
    values = {m: rng.normal(size=4) for m in mappers}
    total = protocol.sum_vectors(values)
    print(f"inputs (private)  : {[np.round(v, 3).tolist() for v in values.values()]}")
    print(f"reducer obtains   : {np.round(total, 3).tolist()}")
    print(f"true sum          : {np.round(sum(values.values()), 3).tolist()}")
    print(f"mask messages     : {network.messages_sent('mask'):.0f}")
    print(f"masked shares     : {network.messages_sent('masked-share'):.0f}")
    print(f"bytes on the wire : {network.bytes_sent():.0f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table

    dataset = _MAKERS[args.dataset](args.samples, seed=args.seed)
    train_set, _ = train_test_split(dataset, 0.5, seed=args.seed)
    scaler = StandardScaler().fit(train_set.X)
    train_set = scaler.transform_dataset(train_set)

    model = PrivacyPreservingSVM(
        args.mode,
        max_iter=args.iters,
        secure=not args.insecure,
        mask_mode=args.mask_mode,
        seed=args.seed,
    )
    if args.mode == "horizontal":
        data = horizontal_partition(train_set, args.learners, seed=args.seed)
    else:
        data = vertical_partition(train_set, args.learners, seed=args.seed)
    model.fit(data)

    headers, rows = model.iteration_cost_table()
    print(f"per-iteration cost, {args.mode} "
          f"{'secure' if not args.insecure else 'PLAINTEXT'} run "
          f"({args.learners} learners, {len(model.history_)} iterations):")
    print()
    print(format_table(headers, rows))
    print()

    # Reconcile the trace-derived table against the counter registry —
    # the two views of the same run must agree exactly.
    metrics = model.network_.metrics
    table_bytes = sum(row[headers.index("total_bytes")] for row in rows)
    table_messages = sum(row[headers.index("messages")] for row in rows)
    table_crypto = sum(row[headers.index("crypto_ops")] for row in rows)
    registry_crypto = sum(
        amount for name, amount in metrics.as_dict().items() if name.startswith("crypto.")
    )
    checks = [
        ("bytes", table_bytes, model.network_.bytes_sent()),
        ("messages", table_messages, model.network_.messages_sent()),
        ("crypto ops", table_crypto, registry_crypto),
    ]
    ok = True
    for label, from_trace, from_registry in checks:
        match = from_trace == from_registry
        ok = ok and match
        print(f"{label:>10}: trace {from_trace:.0f} == registry {from_registry:.0f} "
              f"{'OK' if match else 'MISMATCH'}")
    print(f"{'raw bytes':>10}: {model.raw_data_bytes_moved():.0f} "
          f"(dropped trace records: {model.network_.tracer.dropped})")
    if model.network_.tracer.dropped:
        print(f"warning: {model.network_.tracer.dropped} trace record(s) were "
              f"dropped at the recorder's cap — the cost table above and any "
              f"exported trace are incomplete; raise TraceRecorder(max_records=...)",
              file=sys.stderr)

    if args.ledger:
        _record_run(model, args, "trace")
    if args.out:
        model.export_trace(args.out, format="chrome")
        print(f"Chrome trace written to {args.out} (load at chrome://tracing)")
    if args.jsonl:
        model.export_trace(args.jsonl, format="jsonl")
        print(f"JSONL trace written to {args.jsonl}")
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        Allowlist,
        AllowlistError,
        Baseline,
        BaselineError,
        all_rules,
        run_lint,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<35} {rule.severity.value:<8} {rule.summary}")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"repro lint: root is not a directory: {root}", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] if args.paths else None
    allowlist = None
    if args.allowlist:
        try:
            allowlist = Allowlist.load(Path(args.allowlist))
        except (AllowlistError, OSError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(Path(args.baseline))
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_lint(
            root,
            paths,
            allowlist=allowlist,
            use_default_allowlist=not args.no_allowlist,
            baseline=baseline,
        )
    except (AllowlistError, FileNotFoundError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(report.findings).write(Path(args.write_baseline))
        print(
            f"baseline with {len(report.findings)} finding(s) written to "
            f"{args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(report.format_json())
    elif args.format == "github":
        output = report.format_github()
        if output:
            print(output)
    elif args.format == "sarif":
        print(report.format_sarif())
    else:
        print(report.format_text(show_suppressed=args.show_suppressed))
    return report.exit_code(strict=args.strict)


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.runs_cli import cmd_runs

    return cmd_runs(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "figure4": _cmd_figure4,
        "report": _cmd_report,
        "protocol-demo": _cmd_protocol_demo,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
        "runs": _cmd_runs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
