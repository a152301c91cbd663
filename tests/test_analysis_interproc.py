"""Tests for the interprocedural engine and CI infra.

Covers the whole-program half of the static-analysis suite added on top
of the per-module checkers:

* call-graph resolution (``repro.analysis.callgraph``);
* interprocedural taint summaries and source→sink traces
  (``repro.analysis.interproc``);
* the CI-grade outputs — SARIF and baselines (``--baseline``) — at the
  API and CLI levels.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineError,
    Severity,
    run_lint,
)
from repro.analysis.baseline import fingerprint
from repro.analysis.callgraph import MAX_DISPATCH_CANDIDATES, CallGraph
from repro.analysis.base import Project
from repro.analysis.checkers.privacy import PrivacyTaintChecker
from repro.analysis.interproc import InterproceduralTaintChecker
from repro.analysis.source import ModuleSource
from repro.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"
LEAK_FIXTURE = "tests/fixtures/lint/interproc_leak.py"
DEEP_FIXTURE = "tests/fixtures/lint/interproc_deep_chain.py"


def lint_fixture(name, **kwargs):
    kwargs.setdefault("use_default_allowlist", False)
    return run_lint(ROOT, [FIXTURES / name], **kwargs)


def project_for(paths):
    project = Project(root=ROOT)
    for path in paths:
        project.modules.append(ModuleSource.load(path, ROOT))
    return project


# -- call graph -----------------------------------------------------------


def build_graph(source, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(source)
    project = Project(root=tmp_path)
    project.modules.append(ModuleSource.load(path, tmp_path))
    return CallGraph.build(project), project


def first_call(project, name):
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                attr = getattr(func, "attr", getattr(func, "id", None))
                if attr == name:
                    return node
    raise AssertionError(f"no call to {name} in fixture")


def test_callgraph_resolves_module_functions_by_name(tmp_path):
    graph, project = build_graph(
        "def helper(x):\n    return x\n\ndef caller(x):\n    return helper(x)\n",
        tmp_path,
    )
    call = first_call(project, "helper")
    (info,) = graph.resolve(call)
    assert info.display == "helper"
    assert info.qualname == "mod.py::helper"


def test_callgraph_dispatches_self_attr_on_known_class(tmp_path):
    graph, project = build_graph(
        "class Logic:\n"
        "    def step(self):\n"
        "        return 1\n"
        "\n"
        "class Other:\n"
        "    def step(self):\n"
        "        return 2\n"
        "\n"
        "class Driver:\n"
        "    def __init__(self):\n"
        "        self.logic = Logic()\n"
        "    def run(self):\n"
        "        return self.logic.step()\n",
        tmp_path,
    )
    call = first_call(project, "step")
    caller = next(f for f in graph.functions if f.display == "Driver.run")
    candidates = graph.resolve(call, caller)
    assert [c.display for c in candidates] == ["Logic.step"]


def test_callgraph_caps_unbounded_fanout(tmp_path):
    classes = "\n".join(
        f"class C{i}:\n    def work(self):\n        return {i}\n"
        for i in range(MAX_DISPATCH_CANDIDATES + 1)
    )
    graph, project = build_graph(
        classes + "\ndef go(obj):\n    return obj.work()\n", tmp_path
    )
    call = first_call(project, "work")
    assert graph.resolve(call) == []


def test_callgraph_never_resolves_sink_names(tmp_path):
    graph, project = build_graph(
        "def send(x):\n    return x\n\ndef go(network, x):\n"
        "    network.send(x)\n",
        tmp_path,
    )
    call = first_call(project, "send")
    assert graph.resolve(call) == []


# -- interprocedural taint ------------------------------------------------


def test_intraprocedural_checker_misses_the_multi_hop_leak():
    report = lint_fixture("interproc_leak.py", checkers=[PrivacyTaintChecker()])
    assert report.findings == []


def test_interproc_reports_two_hop_leak_with_full_call_path():
    report = lint_fixture("interproc_leak.py")
    leaks = [f for f in report.findings if f.rule == "privacy.interproc-leak"]
    assert [(f.rule, f.line) for f in leaks] == [
        ("privacy.interproc-leak", 13),
        ("privacy.interproc-leak", 21),
    ]
    assert all(f.severity is Severity.ERROR for f in leaks)

    return_leak = leaks[0]
    assert return_leak.trace == (
        f"{LEAK_FIXTURE}:13 publish() passes a tainted value to network.send()",
        f"{LEAK_FIXTURE}:13 call to collect()",
        f"{LEAK_FIXTURE}:9 collect() returns fetch_rows()",
        f"{LEAK_FIXTURE}:5 fetch_rows() returns raw dataset.X",
    )

    forward_leak = leaks[1]
    assert forward_leak.trace == (
        f"{LEAK_FIXTURE}:21 relay() passes a tainted argument to ship()",
        f"{LEAK_FIXTURE}:17 ship() forwards parameter 'payload' into network.send()",
        f"{LEAK_FIXTURE}:21 raw source dataset.y",
    )

    # The JSON report carries every hop of both traces.
    payload = json.loads(report.format_json())
    assert [f["trace"] for f in payload["findings"] if f["trace"]] == [
        list(return_leak.trace),
        list(forward_leak.trace),
    ]


def test_interproc_flags_the_raw_returning_helper():
    report = lint_fixture("interproc_leak.py")
    raw = [f for f in report.findings if f.rule == "privacy.return-raw"]
    assert [(f.rule, f.line) for f in raw] == [("privacy.return-raw", 5)]
    assert "fetch_rows() returns raw training data" in raw[0].message
    assert f"{LEAK_FIXTURE}:13" in raw[0].message


def test_interproc_follows_a_chain_longer_than_any_fixed_pass_count():
    report = lint_fixture("interproc_deep_chain.py")
    assert [(f.rule, f.line) for f in report.findings] == [
        ("privacy.interproc-leak", 10),
        ("privacy.return-raw", 46),
    ]
    leak, raw = report.findings
    assert leak.trace == (
        f"{DEEP_FIXTURE}:10 leak() passes a tainted value to network.send()",
        f"{DEEP_FIXTURE}:10 call to f0()",
        *(
            f"{DEEP_FIXTURE}:{14 + 4 * i} f{i}() returns f{i + 1}()"
            for i in range(8)
        ),
        f"{DEEP_FIXTURE}:46 f8() returns raw d.X",
    )
    assert "f8() returns raw training data" in raw.message
    assert f"{DEEP_FIXTURE}:10" in raw.message


def test_interproc_summaries_are_a_fixpoint_per_definition():
    checker = InterproceduralTaintChecker()
    findings = list(
        checker.check(project_for([FIXTURES / "interproc_overload.py"]))
    )
    # The @overload stubs are not indexed; the getter and setter are.
    functions = checker.graph.functions
    assert [(info.display, info.node.lineno) for info in functions] == [
        ("Table.__init__", 12),
        ("Table.rows", 22),
        ("Table.labels", 26),
        ("Table.labels", 30),
        ("publish", 34),
    ]
    getter, setter = functions[2], functions[3]
    assert checker.summaries[getter].returns_tainted
    assert not checker.summaries[setter].returns_tainted
    # A fixpoint: one more recomputation of any summary changes nothing.
    for info in functions:
        recomputed = checker._compute_summary(info)
        assert recomputed.state_key() == checker.summaries[info].state_key()
    assert sorted((f.rule, f.line) for f in findings) == [
        ("privacy.interproc-leak", 35),
        ("privacy.return-raw", 23),
    ]


def test_interproc_keeps_declassified_calls_clean(tmp_path):
    # len() of raw data is metadata to the intraprocedural checker, and
    # summary-aware taint must agree.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "sizes.py").write_text(
        "def publish(network, node, dataset):\n"
        "    network.send(node, 'reducer', len(dataset.X), kind='grad')\n"
    )
    assert run_lint(tmp_path, use_default_allowlist=False).findings == []


def test_interproc_clean_fixture_is_silent():
    report = lint_fixture("interproc_clean.py")
    assert report.findings == []


def test_interproc_does_not_duplicate_intraprocedural_findings():
    # Direct leaks are the intraprocedural checker's job; the engine
    # reports only flows that need call-graph context.
    report = lint_fixture("leaky_privacy.py")
    interproc_rules = {"privacy.interproc-leak", "privacy.return-raw"}
    direct_lines = {
        f.line for f in report.findings if f.rule.startswith("privacy.raw-data")
    }
    overlap = [
        f
        for f in report.findings
        if f.rule in interproc_rules and f.line in direct_lines
    ]
    assert overlap == []


# -- baselines ------------------------------------------------------------


def _leaky_tree(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    leak = src_dir / "leak.py"
    leak.write_text(
        "def publish(network, node, data):\n"
        "    network.send(node, 'reducer', data.X)\n"
    )
    return leak


def test_baseline_suppresses_known_findings(tmp_path):
    _leaky_tree(tmp_path)
    before = run_lint(tmp_path, use_default_allowlist=False)
    assert len(before.findings) == 1
    baseline = Baseline.from_findings(before.findings)
    after = run_lint(tmp_path, use_default_allowlist=False, baseline=baseline)
    assert after.findings == []
    assert [f.suppressed_by for f in after.suppressed] == ["baseline"]
    assert after.exit_code(strict=True) == 0


def test_baseline_survives_line_shifts_but_catches_new_findings(tmp_path):
    leak = _leaky_tree(tmp_path)
    baseline = Baseline.from_findings(
        run_lint(tmp_path, use_default_allowlist=False).findings
    )
    # Edit the file above the finding: lines shift, the leak stays known.
    leak.write_text("# a new leading comment\n# and another\n" + leak.read_text())
    shifted = run_lint(tmp_path, use_default_allowlist=False, baseline=baseline)
    assert shifted.findings == []
    # A genuinely new leak is not absorbed by the baseline.
    leak.write_text(
        leak.read_text() + "    network.send(node, 'reducer', data.y)\n"
    )
    grown = run_lint(tmp_path, use_default_allowlist=False, baseline=baseline)
    assert [f.rule for f in grown.findings] == ["privacy.raw-data-to-network"]
    assert "data.y" in grown.findings[0].source
    assert grown.exit_code() == 1


def test_baseline_counts_duplicate_lines(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    leak = src_dir / "leak.py"
    line = "    network.send(node, 'reducer', data.X)\n"
    leak.write_text("def publish(network, node, data):\n" + line)
    baseline = Baseline.from_findings(
        run_lint(tmp_path, use_default_allowlist=False).findings
    )
    # A second copy of the same offending line exceeds the recorded count.
    leak.write_text(leak.read_text() + line)
    report = run_lint(tmp_path, use_default_allowlist=False, baseline=baseline)
    assert len(report.findings) == 1
    assert len([f for f in report.suppressed if f.suppressed_by == "baseline"]) == 1


def test_baseline_file_roundtrip_and_validation(tmp_path):
    _leaky_tree(tmp_path)
    report = run_lint(tmp_path, use_default_allowlist=False)
    path = tmp_path / "baseline.json"
    Baseline.from_findings(report.findings).write(path)
    loaded = Baseline.load(path)
    assert loaded.counts == {fingerprint(report.findings[0]): 1}
    (tmp_path / "bad.json").write_text('{"version": 99}')
    with pytest.raises(BaselineError):
        Baseline.load(tmp_path / "bad.json")
    (tmp_path / "junk.json").write_text("not json")
    with pytest.raises(BaselineError):
        Baseline.load(tmp_path / "junk.json")


# -- SARIF ----------------------------------------------------------------


def test_sarif_document_shape_is_valid():
    report = run_lint(ROOT, [FIXTURES], use_default_allowlist=False)
    document = json.loads(report.format_sarif())
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert len(rule_ids) == report.rules_run
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in ("error", "warning")
    known = set(rule_ids)
    for result in run["results"]:
        assert result["ruleId"] in known
        assert result["level"] in ("error", "warning")
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"]
        assert physical["region"]["startLine"] >= 1
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]


def test_sarif_traces_become_code_flows():
    report = lint_fixture("interproc_leak.py")
    document = json.loads(report.format_sarif())
    flows = [r for r in document["runs"][0]["results"] if "codeFlows" in r]
    assert [r["ruleId"] for r in flows] == [
        "privacy.interproc-leak",
        "privacy.interproc-leak",
    ]
    locations = flows[0]["codeFlows"][0]["threadFlows"][0]["locations"]
    assert len(locations) == 4
    sink = locations[0]["location"]
    assert sink["physicalLocation"]["artifactLocation"]["uri"] == LEAK_FIXTURE
    assert sink["physicalLocation"]["region"]["startLine"] == 13
    origin = locations[-1]["location"]
    assert origin["message"]["text"] == "fetch_rows() returns raw dataset.X"


def test_sarif_marks_suppressed_findings():
    report = lint_fixture("pragma_clean.py")
    document = json.loads(report.format_sarif())
    results = document["runs"][0]["results"]
    suppressions = [r["suppressions"] for r in results if "suppressions" in r]
    assert len(suppressions) == len(report.suppressed) == 3
    assert all(s == [{"kind": "inSource", "justification": "pragma"}]
               for s in suppressions)


# -- CLI ------------------------------------------------------------------


def test_cli_lint_sarif_format(capsys):
    code = cli_main(
        ["lint", "--root", str(ROOT), str(FIXTURES / "interproc_leak.py"),
         "--no-allowlist", "--format", "sarif"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    results = document["runs"][0]["results"]
    assert any(r["ruleId"] == "privacy.interproc-leak" for r in results)


def test_cli_lint_baseline_workflow_with_an_edited_file(tmp_path, capsys):
    leak = _leaky_tree(tmp_path)
    baseline_path = tmp_path / "lint-baseline.json"
    code = cli_main(
        ["lint", "--root", str(tmp_path), "--no-allowlist",
         "--write-baseline", str(baseline_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 finding(s)" in out
    assert baseline_path.is_file()

    # Edit the file (shift lines); the baselined finding stays quiet.
    leak.write_text("# refactor note\n" + leak.read_text())
    code = cli_main(
        ["lint", "--root", str(tmp_path), "--no-allowlist", "--strict",
         "--baseline", str(baseline_path)]
    )
    capsys.readouterr()
    assert code == 0

    # A new leak in the edited file still fails the run.
    leak.write_text(
        leak.read_text() + "    network.send(node, 'reducer', data.y)\n"
    )
    code = cli_main(
        ["lint", "--root", str(tmp_path), "--no-allowlist",
         "--baseline", str(baseline_path)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "data.y" in out and "1 error(s)" in out


def test_cli_lint_stale_allowlist_strict_vs_not(tmp_path, capsys):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "ok.py").write_text("def f():\n    return 1\n")
    (tmp_path / ".repro-lint.toml").write_text(
        '[[allow]]\n'
        'rule = "privacy.raw-data-to-network"\n'
        'path = "src/gone.py"\n'
        'reason = "code was deleted"\n'
    )
    args = ["lint", "--root", str(tmp_path)]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert "lint.unused-allowlist-entry" in out
    assert cli_main(args + ["--strict"]) == 1
    capsys.readouterr()


def test_cli_lint_bad_baseline_is_usage_error(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    bad = tmp_path / "baseline.json"
    bad.write_text("nope")
    code = cli_main(
        ["lint", "--root", str(tmp_path), "--baseline", str(bad)]
    )
    assert code == 2
    assert "baseline" in capsys.readouterr().err
