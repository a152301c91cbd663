"""Tests for the static-analysis suite (``repro.analysis`` / ``repro lint``).

The fixtures under ``tests/fixtures/lint/`` are known-leaky and
known-clean files; the tests pin the *exact* rule ids and line numbers
the checkers must report, so any change to checker behavior is visible
here.  The crypto fixtures live under ``fixtures/lint/crypto/`` because
crypto scope is keyed on a ``crypto`` path segment.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Allowlist,
    AllowlistError,
    Severity,
    all_rules,
    run_lint,
)
from repro.analysis.source import parse_pragmas
from repro.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"


def lint_fixture(name, **kwargs):
    kwargs.setdefault("use_default_allowlist", False)
    return run_lint(ROOT, [FIXTURES / name], **kwargs)


def rule_lines(report):
    return [(f.rule, f.line) for f in report.findings]


# -- privacy taint-flow ---------------------------------------------------


def test_leaky_privacy_fixture_exact_findings():
    report = lint_fixture("leaky_privacy.py")
    assert rule_lines(report) == [
        ("privacy.raw-data-to-network", 6),   # data.X straight into send
        ("privacy.raw-data-to-network", 13),  # alias + container mutation chain
        ("privacy.raw-data-in-storage", 18),  # put without private=True
        ("privacy.raw-data-serialized", 22),  # pickle.dumps(block.payload)
    ]
    assert all(f.severity is Severity.ERROR for f in report.findings)
    assert report.exit_code() == 1


def test_clean_privacy_fixture_has_no_findings():
    report = lint_fixture("clean_privacy.py")
    assert report.findings == []
    assert report.exit_code(strict=True) == 0


# -- crypto misuse --------------------------------------------------------


def test_leaky_crypto_fixture_exact_findings():
    report = lint_fixture("crypto/leaky_crypto.py")
    assert rule_lines(report) == [
        ("crypto.stdlib-random", 2),
        ("crypto.direct-rng-construction", 8),
        ("crypto.float-on-ciphertext", 13),
        ("crypto.mask-reuse", 20),
    ]


def test_clean_crypto_fixture_has_no_findings():
    report = lint_fixture("crypto/clean_crypto.py")
    assert report.findings == []


def test_crypto_rules_only_apply_in_crypto_scope(tmp_path):
    # The same code outside a crypto path: stdlib random is still flagged,
    # but by the determinism checker, and a *seeded* direct construction
    # is allowed (it is only a provenance concern inside crypto code).
    src = tmp_path / "notcrypto.py"
    src.write_text("import random\nimport numpy as np\nr = np.random.default_rng(7)\n")
    report = run_lint(tmp_path, [src], use_default_allowlist=False)
    assert [f.rule for f in report.findings] == ["determinism.stdlib-random"]


# -- determinism ----------------------------------------------------------


def test_nondeterminism_fixture_exact_findings():
    report = lint_fixture("nondeterminism.py")
    assert rule_lines(report) == [
        ("determinism.wall-clock", 8),
        ("determinism.unseeded-rng", 12),
        ("determinism.unseeded-rng", 16),
        ("determinism.set-iteration", 20),
        ("determinism.unsorted-walk", 24),
        ("determinism.salted-hash", 28),
    ]
    warnings = {f.rule for f in report.findings if f.severity is Severity.WARNING}
    assert warnings == {"determinism.set-iteration", "determinism.unsorted-walk"}


def test_warnings_fail_only_under_strict(tmp_path):
    src = tmp_path / "warn.py"
    src.write_text("for x in {1, 2, 3}:\n    pass\n")
    report = run_lint(tmp_path, [src], use_default_allowlist=False)
    assert [f.rule for f in report.findings] == ["determinism.set-iteration"]
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1


def test_hash_inside_dunder_hash_is_allowed(tmp_path):
    src = tmp_path / "hashable.py"
    src.write_text(
        "class K:\n"
        "    def __hash__(self):\n"
        "        return hash(('K', 1))\n"
    )
    report = run_lint(tmp_path, [src], use_default_allowlist=False)
    assert report.findings == []


# -- pragmas --------------------------------------------------------------


def test_pragma_fixture_suppresses_everything():
    report = lint_fixture("pragma_clean.py")
    assert report.findings == []
    assert [(f.rule, f.line, f.suppressed_by) for f in report.suppressed] == [
        ("privacy.raw-data-to-network", 5, "pragma"),
        ("determinism.salted-hash", 10, "pragma"),
        ("privacy.raw-data-to-network", 14, "pragma"),
    ]
    assert report.exit_code(strict=True) == 0


def test_parse_pragmas_comment_only_covers_next_line():
    pragmas = parse_pragmas(
        [
            "x = risky()  # repro-lint: disable=a.b, c.d",
            "# repro-lint: disable=e.f -- reason",
            "y = also_risky()",
        ]
    )
    assert pragmas[1] == frozenset({"a.b", "c.d"})
    assert pragmas[2] == frozenset({"e.f"})
    assert pragmas[3] == frozenset({"e.f"})


# -- allowlist ------------------------------------------------------------


def _write_allowlist(tmp_path, body):
    path = tmp_path / ".repro-lint.toml"
    path.write_text(body)
    return path


def test_allowlist_suppresses_and_reports_unused(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "leak.py").write_text(
        "def f(network, node, data):\n"
        "    network.send(node, 'r', data.X)\n"
    )
    _write_allowlist(
        tmp_path,
        '[[allow]]\n'
        'rule = "privacy.raw-data-to-network"\n'
        'path = "src/leak.py"\n'
        'reason = "test fixture"\n'
        '\n'
        '[[allow]]\n'
        'rule = "determinism.wall-clock"\n'
        'path = "src/never.py"\n'
        'reason = "stale entry"\n',
    )
    report = run_lint(tmp_path)
    assert [f.suppressed_by for f in report.suppressed] == ["allowlist"]
    assert [f.rule for f in report.findings] == ["lint.unused-allowlist-entry"]
    assert report.exit_code() == 0          # unused entry is a warning
    assert report.exit_code(strict=True) == 1


def test_same_tree_lints_identically_from_two_roots(tmp_path):
    reports = []
    for name in ("a", "b"):
        root = tmp_path / name / "checkout"
        (root / "src").mkdir(parents=True)
        (root / "src" / "clock.py").write_text("import time\nstamp = time.time()\n")
        _write_allowlist(
            root,
            '[[allow]]\n'
            'rule = "determinism.wall-clock"\n'
            'path = "src/never.py"\n'
            'reason = "stale entry"\n',
        )
        reports.append(run_lint(root))
    first, second = reports
    assert [(f.rule, f.path) for f in first.findings] == [
        ("lint.unused-allowlist-entry", ".repro-lint.toml"),
        ("determinism.wall-clock", "src/clock.py"),
    ]
    assert first.format_json() == second.format_json()
    assert first.format_sarif() == second.format_sarif()


def test_allowlist_contains_pins_the_entry(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "leak.py").write_text(
        "def f(network, node, data):\n"
        "    network.send(node, 'r', data.X, kind='other')\n"
    )
    _write_allowlist(
        tmp_path,
        '[[allow]]\n'
        'rule = "privacy.raw-data-to-network"\n'
        'path = "src/leak.py"\n'
        'contains = "kind=\'shuffle\'"\n'
        'reason = "only the shuffle send is audited"\n',
    )
    report = run_lint(tmp_path)
    # The entry does not match this line, so the finding stays active
    # and the entry is reported unused.
    assert sorted(f.rule for f in report.findings) == [
        "lint.unused-allowlist-entry",
        "privacy.raw-data-to-network",
    ]


def test_allowlist_requires_reason(tmp_path):
    path = _write_allowlist(
        tmp_path,
        '[[allow]]\nrule = "a.b"\npath = "src/x.py"\n',
    )
    with pytest.raises(AllowlistError):
        Allowlist.load(path)


def test_allowlist_rejects_unknown_keys(tmp_path):
    path = _write_allowlist(
        tmp_path,
        '[[allow]]\nrule = "a.b"\npath = "x.py"\nreason = "r"\ntypo = 1\n',
    )
    with pytest.raises(AllowlistError):
        Allowlist.load(path)


# -- engine behavior ------------------------------------------------------


def test_syntax_error_becomes_finding(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def broken(:\n")
    report = run_lint(tmp_path, [src], use_default_allowlist=False)
    assert rule_lines(report) == [("lint.syntax-error", 1)]


def test_findings_sorted_by_path_line_rule():
    report = run_lint(ROOT, [FIXTURES], use_default_allowlist=False)
    keys = [f.sort_key() for f in report.findings]
    assert keys == sorted(keys)
    assert report.files_checked == 10


def test_all_rules_registry_is_complete():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    for expected in [
        "crypto.mask-reuse",
        "determinism.salted-hash",
        "docs.undocumented-counter",
        "lint.syntax-error",
        "privacy.raw-data-to-network",
    ]:
        assert expected in ids


# -- the repository itself ------------------------------------------------


def test_src_tree_is_lint_clean_under_strict():
    report = run_lint(ROOT)
    failing = [f for f in report.findings]
    assert report.exit_code(strict=True) == 0, "\n" + report.format_text()
    assert failing == []
    # The audited exceptions are visible, not silently dropped.
    assert len(report.suppressed) >= 3


def test_deliberate_leak_in_mapper_is_caught(tmp_path):
    # The acceptance scenario from the issue: adding a raw-data send to a
    # mapper must fail the lint with the privacy rule at the right line.
    src = tmp_path / "mapper.py"
    src.write_text(
        "def run_map(self, network, node, data):\n"
        "    stats = data.shape\n"
        "    network.send(node, 'reducer', data.X)\n"
    )
    report = run_lint(tmp_path, [src], use_default_allowlist=False)
    assert rule_lines(report) == [("privacy.raw-data-to-network", 3)]
    assert report.exit_code() == 1


# -- CLI ------------------------------------------------------------------


def test_cli_lint_text_and_exit_code(capsys):
    code = cli_main(
        ["lint", "--root", str(ROOT), str(FIXTURES / "leaky_privacy.py"),
         "--no-allowlist"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "privacy.raw-data-to-network" in out
    assert "leaky_privacy.py:6" in out


def test_cli_lint_json_format(capsys):
    code = cli_main(
        ["lint", "--root", str(ROOT), str(FIXTURES / "nondeterminism.py"),
         "--no-allowlist", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["errors"] == 4
    assert payload["warnings"] == 2
    rules = [f["rule"] for f in payload["findings"]]
    assert rules[0] == "determinism.wall-clock"


def test_cli_lint_github_format(capsys):
    code = cli_main(
        ["lint", "--root", str(ROOT), str(FIXTURES / "leaky_privacy.py"),
         "--no-allowlist", "--format", "github"]
    )
    out = capsys.readouterr().out
    assert code == 1
    first = out.splitlines()[0]
    assert first.startswith("::error file=")
    assert "line=6" in first and "title=privacy.raw-data-to-network" in first


def test_cli_lint_clean_run_exits_zero(capsys):
    code = cli_main(
        ["lint", "--root", str(ROOT), str(FIXTURES / "clean_privacy.py"),
         "--no-allowlist", "--strict"]
    )
    assert code == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "privacy.raw-data-to-network" in out
    assert "determinism.set-iteration" in out


def test_cli_lint_bad_root_is_usage_error(tmp_path, capsys):
    assert cli_main(["lint", "--root", str(tmp_path / "missing")]) == 2
