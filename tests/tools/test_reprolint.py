"""reprolint test suite.

Three layers:

* **Golden fixtures** — one file per rule with seeded violations
  (asserted by rule id + line) plus a clean twin that must produce
  nothing, so every rule's true-positive *and* false-positive behavior
  is pinned.
* **Suppressions** — line, line-above, ``all``, and file-wide forms.
* **Meta** — ``reprolint src`` must be clean at HEAD: the tree itself
  is the biggest fixture, and this test is what keeps it that way.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.reprolint import (
    DEFAULT_CONFIG,
    LintConfig,
    Severity,
    lint_file,
    lint_paths,
    lint_source,
    registered_rules,
)
from repro.tools.reprolint.base import checker_for
from repro.tools.reprolint.config import module_name_for
from repro.tools.reprolint.program.symbols import exempt_rules_for_line
from repro.tools.reprolint.report import render_human, render_json

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

UNSCOPED = LintConfig(unscoped=True)

#: rule → (bad fixture, {(line, rule), ...}, clean fixture)
GOLDEN = {
    "RL001": (
        "rl001_bad.py",
        {(11, "RL001"), (12, "RL001"), (19, "RL001"), (20, "RL001")},
        "rl001_clean.py",
    ),
    "RL002": (
        "rl002_bad.py",
        {(7, "RL002"), (15, "RL002")},
        "rl002_clean.py",
    ),
    "RL003": (
        "rl003_bad.py",
        {
            (22, "RL003"),  # unguarded registry read
            (27, "RL003"),  # blocking call under the lock
            (32, "RL003"),  # unguarded registry write
            (33, "RL003"),  # unlocked publish of the active snapshot
            (37, "RL003"),  # lock context on the query path
            (46, "RL003"),  # .acquire() on the query path
        },
        "rl003_clean.py",
    ),
    "RL004": ("rl004_bad.py", {(8, "RL004"), (14, "RL004")}, "rl004_clean.py"),
    "RL005": (
        "rl005_bad.py",
        {(9, "RL005"), (10, "RL005"), (11, "RL005")},
        "rl005_clean.py",
    ),
    "RL006": ("rl006_bad.py", {(10, "RL006"), (16, "RL006")}, "rl006_clean.py"),
    "RL007": (
        "rl007_bad.py",
        {(11, "RL007"), (12, "RL007"), (13, "RL007")},
        "rl007_clean.py",
    ),
    "RL008": (
        "rl008_bad.py",
        {
            (7, "RL008"),  # foreign swap call
            (12, "RL008"),  # direct dataset retarget
            (13, "RL008"),  # direct engine retarget
            (14, "RL008"),  # direct active-snapshot retarget
            (22, "RL008"),  # mid-stage deadline check
        },
        "rl008_clean.py",
    ),
}


#: program rule → (bad package dir, {(file, line), ...}, clean package dir)
PROGRAM_GOLDEN = {
    "RL009": (
        "prog_rl009_bad",
        {("svc.py", 11)},
        "prog_rl009_clean",
    ),
    "RL010": (
        "prog_rl010_bad",
        {("query.py", 8)},
        "prog_rl010_clean",
    ),
    "RL011": (
        "prog_rl011_bad",
        {("engine.py", 21), ("engine.py", 25)},
        "prog_rl011_clean",
    ),
}


def _lint(name: str):
    return lint_file(FIXTURES / name, UNSCOPED)


def _lint_program(package: str, rule: str):
    config = LintConfig(unscoped=True, enabled=(rule,))
    return lint_paths([FIXTURES / package], config, program=True)


# Golden fixtures ------------------------------------------------------------

@pytest.mark.parametrize("rule", sorted(GOLDEN))
def test_seeded_violations_found(rule):
    bad, expected, _clean = GOLDEN[rule]
    report = _lint(bad)
    got = {(f.line, f.rule) for f in report.findings}
    assert got == expected, f"{bad}: expected {sorted(expected)}, got {sorted(got)}"


@pytest.mark.parametrize("rule", sorted(GOLDEN))
def test_clean_twin_is_clean(rule):
    _bad, _expected, clean = GOLDEN[rule]
    report = _lint(clean)
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.parse_error is None


def test_all_rules_covered_by_fixtures():
    per_file = {
        r for r in registered_rules() if not checker_for(r).program_scope
    }
    program = {r for r in registered_rules() if checker_for(r).program_scope}
    assert set(GOLDEN) == per_file
    assert set(PROGRAM_GOLDEN) == program
    assert program == {"RL009", "RL010", "RL011"}


def test_alias_regressions():
    """`from X import y as z` / `import a.b as c` cannot evade the
    symbol-table-resolved rules (the pre-program-analysis blind spot)."""
    report = _lint("rl_alias_bad.py")
    got = {(f.line, f.rule) for f in report.findings}
    assert got == {
        (14, "RL002"),  # aliased create_block, created and dropped
        (19, "RL002"),  # attach via module alias, then unlink
        (27, "RL003"),  # aliased RLock attr entered on the lock-free path
    }, sorted(got)

    clean = _lint("rl_alias_clean.py")
    assert clean.findings == [], [f.render() for f in clean.findings]


# Program rules (RL009–RL011) ------------------------------------------------

@pytest.mark.parametrize("rule", sorted(PROGRAM_GOLDEN))
def test_program_seeded_violations_found(rule):
    bad, expected, _clean = PROGRAM_GOLDEN[rule]
    result = _lint_program(bad, rule)
    got = {(Path(f.path).name, f.line) for f in result.findings}
    assert got == expected, "\n".join(f.render() for f in result.findings)
    assert all(f.rule == rule for f in result.findings)


@pytest.mark.parametrize("rule", sorted(PROGRAM_GOLDEN))
def test_program_clean_twin_is_clean(rule):
    _bad, _expected, clean = PROGRAM_GOLDEN[rule]
    result = _lint_program(clean, rule)
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    assert result.parse_errors == []


def test_rl009_chain_renders_cross_file_hops():
    """The finding walks the whole call chain, file:line per hop, ending
    at the blocking op in the *other* file."""
    result = _lint_program("prog_rl009_bad", "RL009")
    (finding,) = result.findings
    assert finding.chain, "program finding must carry a chain"
    hops = [(Path(h.path).name, h.line) for h in finding.chain]
    assert hops == [
        ("svc.py", 11),      # declared lock-free root
        ("svc.py", 13),      # calls SessionView._log
        ("svc.py", 17),      # calls Journal.append
        ("journal.py", 13),  # os.fsync
    ]
    rendered = finding.render()
    assert rendered.count("    via ") == 4
    assert "journal.py:13: makes a blocking call: os.fsync()" in rendered
    assert "declared lock-free" in rendered


def test_rl010_chain_names_both_pin_sites():
    result = _lint_program("prog_rl010_bad", "RL010")
    (finding,) = result.findings
    notes = [h.note for h in finding.chain]
    assert sum("snapshot pinned via" in n for n in notes) == 2
    assert any("mixed here" in n for n in notes)
    pin_lines = sorted(h.line for h in finding.chain if "pinned" in h.note)
    assert pin_lines == [6, 7]


def test_rl011_chain_and_messages():
    result = _lint_program("prog_rl011_bad", "RL011")
    by_line = {f.line: f for f in result.findings}
    # drop site: the caller holds the budget and fails to pass it on
    assert "without threading it" in by_line[21].message
    assert any("without passing" in h.note for h in by_line[21].chain)
    # missing parameter: flagged at the def, chain ends at the loop
    assert "accepts no deadline/budget parameter" in by_line[25].message
    assert by_line[25].chain[-1].note == "loops over segments"
    assert by_line[25].chain[-1].line == 27
    # the annotated kernel is exempt, not flagged
    assert not any("exempt_kernel" in f.message for f in result.findings)


def test_exempt_marker_parsing():
    lines = [
        "# reprolint: exempt=RL011 — boundary-atomic kernel: the",
        "# caller checks the deadline at the stage boundary",
        "def kernel(tiles):",
        "    pass",
    ]
    assert exempt_rules_for_line(lines, 3) == frozenset({"RL011"})
    # marker on the def line itself
    assert exempt_rules_for_line(
        ["def f():  # reprolint: exempt=RL009,RL011 — reviewed"], 1
    ) == frozenset({"RL009", "RL011"})
    # non-comment line breaks the upward scan
    assert exempt_rules_for_line(
        ["# reprolint: exempt=RL011", "x = 1", "def f():"], 3
    ) == frozenset()


def test_callgraph_snapshot_for_seeded_package():
    """Golden call-graph snapshot over the RL009 mini-package: every
    call site resolves to the expected project edge, none heuristic."""
    config = LintConfig(unscoped=True, enabled=("RL009",))
    result = lint_paths(
        [FIXTURES / "prog_rl009_bad"], config, program=True, with_callgraph=True
    )
    assert result.callgraph is not None
    edges = {
        (e["caller"], e["callee"], e["line"], e["heuristic"])
        for e in result.callgraph["edges"]
    }
    assert edges == {
        ("svc.SessionView.__init__", "journal.Journal.__init__", 9, False),
        ("svc.SessionView.run_query", "svc.SessionView._log", 13, False),
        ("svc.SessionView._log", "journal.Journal.append", 17, False),
    }
    external = {
        (e["caller"], e["callee"]) for e in result.callgraph["external"]
    }
    assert ("journal.Journal.append", "os.fsync") in external


# Incremental cache (--changed-only) -----------------------------------------

def _copy_package(tmp_path, package: str) -> Path:
    dest = tmp_path / package
    shutil.copytree(FIXTURES / package, dest)
    return dest


def test_changed_only_serves_unchanged_run_from_cache(tmp_path):
    pkg = _copy_package(tmp_path, "prog_rl009_bad")
    config = LintConfig(unscoped=True, enabled=("RL009",))
    cache_dir = tmp_path / "cache"

    first = lint_paths(
        [pkg], config, program=True, changed_only=True, cache_dir=cache_dir
    )
    assert len(first.findings) == 1 and first.n_cached == 0

    second = lint_paths(
        [pkg], config, program=True, changed_only=True, cache_dir=cache_dir
    )
    assert second.n_cached == second.n_files == 2
    assert [f.render() for f in second.findings] == [
        f.render() for f in first.findings
    ]


def test_changed_only_recomputes_after_edit(tmp_path):
    pkg = _copy_package(tmp_path, "prog_rl009_bad")
    config = LintConfig(unscoped=True, enabled=("RL009",))
    cache_dir = tmp_path / "cache"

    first = lint_paths(
        [pkg], config, program=True, changed_only=True, cache_dir=cache_dir
    )
    assert len(first.findings) == 1

    # remove the fsync: the dependency's interface summary changes, so
    # the cached program findings must be invalidated, not replayed
    journal = pkg / "journal.py"
    journal.write_text(
        journal.read_text(encoding="utf-8").replace(
            "        os.fsync(self._fh.fileno())\n", ""
        ),
        encoding="utf-8",
    )
    second = lint_paths(
        [pkg], config, program=True, changed_only=True, cache_dir=cache_dir
    )
    assert second.findings == [], "\n".join(
        f.render() for f in second.findings
    )
    # the unchanged file is still served from cache
    assert second.n_cached == 1


def test_findings_carry_location_and_message():
    report = _lint("rl006_bad.py")
    for finding in report.findings:
        assert finding.path.endswith("rl006_bad.py")
        assert finding.line > 0
        assert "atomic" in finding.message  # the fix is spelled out
        rendered = finding.render()
        assert f":{finding.line}:" in rendered and "RL006" in rendered


def test_rl005_missing_setflags_is_warning_mutation_is_error():
    report = _lint("rl005_bad.py")
    by_line = {f.line: f.severity for f in report.findings}
    assert by_line[9] is Severity.WARNING
    assert by_line[10] is Severity.ERROR
    assert by_line[11] is Severity.ERROR


# Suppressions ---------------------------------------------------------------

def test_line_suppressions():
    report = _lint("suppressed.py")
    assert report.findings == []
    assert len(report.suppressed) == 3
    assert {f.rule for f in report.suppressed} == {"RL006"}


def test_file_wide_suppression():
    report = _lint("file_suppressed.py")
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_suppression_of_other_rule_does_not_mask():
    source = (
        "from pathlib import Path\n"
        "def save(path, text):\n"
        '    """Doc."""\n'
        "    Path(path).write_text(text)  # reprolint: disable=RL001\n"
    )
    report = lint_source(source, "x.py", UNSCOPED)
    assert [f.rule for f in report.findings] == ["RL006"]


# Config / scoping -----------------------------------------------------------

def test_module_name_resolution():
    assert module_name_for("src/repro/store/shm.py") == "repro.store.shm"
    assert module_name_for("/abs/src/repro/core/plan/__init__.py") == "repro.core.plan"
    assert module_name_for("tests/tools/fixtures/rl001_bad.py") == "rl001_bad"


def test_default_scoping_applies_rules_where_invariants_live():
    assert DEFAULT_CONFIG.rule_applies("RL003", "src/repro/store/service.py")
    assert not DEFAULT_CONFIG.rule_applies("RL003", "src/repro/core/engine.py")
    assert DEFAULT_CONFIG.rule_applies("RL006", "src/repro/core/session.py")
    # the atomic-write module itself is the one legal open() site
    assert not DEFAULT_CONFIG.rule_applies("RL006", "src/repro/util/fileio.py")
    assert DEFAULT_CONFIG.rule_applies("RL001", "src/repro/core/plan/executor.py")
    assert not DEFAULT_CONFIG.rule_applies("RL001", "src/repro/render/lines.py")
    # RL007 guards every emit site but not the obs facade itself
    assert DEFAULT_CONFIG.rule_applies("RL007", "src/repro/core/plan/executor.py")
    assert not DEFAULT_CONFIG.rule_applies("RL007", "src/repro/obs/spans.py")
    # RL008 guards the store/core packages where swaps and deadlines live
    assert DEFAULT_CONFIG.rule_applies("RL008", "src/repro/store/ingest.py")
    assert DEFAULT_CONFIG.rule_applies("RL008", "src/repro/core/plan/executor.py")
    assert not DEFAULT_CONFIG.rule_applies("RL008", "src/repro/render/lines.py")


def test_rl007_span_in_with_is_clean_bare_span_is_not():
    clean = (
        "from repro import obs\n"
        "def f():\n"
        "    with obs.span('x') as sp:\n"
        "        sp.annotate(k=1)\n"
    )
    assert lint_source(clean, "x.py", UNSCOPED).findings == []
    bare = "from repro import obs\ndef f():\n    sp = obs.span('x')\n"
    assert [f.rule for f in lint_source(bare, "x.py", UNSCOPED).findings] == ["RL007"]


def test_enabled_allowlist_limits_rules():
    config = LintConfig(unscoped=True, enabled=("RL006",))
    report = lint_file(FIXTURES / "rl001_bad.py", config)
    assert report.findings == []


def test_parse_error_reported_not_crashing(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n")
    result = lint_paths([broken], UNSCOPED)
    assert result.exit_code == 2
    assert result.parse_errors and "broken.py" in result.parse_errors[0][0]


# Output formats -------------------------------------------------------------

def test_json_report_schema():
    result = lint_paths([FIXTURES / "rl006_bad.py"], UNSCOPED)
    doc = json.loads(render_json(result))
    assert doc["version"] == 2
    assert doc["ok"] is False
    assert doc["summary"]["findings"] == 2
    assert {f["rule"] for f in doc["findings"]} == {"RL006"}
    for f in doc["findings"]:
        assert set(f) == {
            "path", "line", "col", "rule", "severity", "message", "chain",
        }
        assert f["chain"] == []  # per-file rules carry no chain


def test_json_report_chain_hops():
    config = LintConfig(unscoped=True, enabled=("RL009",))
    result = lint_paths([FIXTURES / "prog_rl009_bad"], config, program=True)
    doc = json.loads(render_json(result))
    (finding,) = doc["findings"]
    assert len(finding["chain"]) == 4
    for hop in finding["chain"]:
        assert set(hop) == {"path", "line", "note"}


def test_human_output_mentions_every_finding():
    result = lint_paths([FIXTURES / "rl004_bad.py"], UNSCOPED)
    text = render_human(result)
    assert text.count("RL004") == 2
    assert "2 findings" in text


# CLI ------------------------------------------------------------------------

def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.reprolint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_cli_exit_codes_and_report(tmp_path):
    report_path = tmp_path / "reprolint.json"
    proc = _run_cli(
        str(FIXTURES / "rl002_bad.py"), "--unscoped",
        "--report", str(report_path),
    )
    assert proc.returncode == 1
    assert "RL002" in proc.stdout
    doc = json.loads(report_path.read_text())
    assert doc["summary"]["findings"] == 2

    proc = _run_cli(str(FIXTURES / "rl002_clean.py"), "--unscoped")
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_rules_filter_and_list():
    proc = _run_cli(str(FIXTURES / "rl001_bad.py"), "--unscoped", "--rules", "RL006")
    assert proc.returncode == 0  # RL001 findings filtered out

    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in registered_rules():
        assert rule in proc.stdout
    # program-scope rules are tagged so readers know they need --program
    for line in proc.stdout.splitlines():
        if any(r in line for r in ("RL009", "RL010", "RL011")):
            assert "[program]" in line

    proc = _run_cli("--rules", "RL999")
    assert proc.returncode == 2


def test_cli_program_mode_and_callgraph_dump(tmp_path):
    dump = tmp_path / "callgraph.json"
    proc = _run_cli(
        str(FIXTURES / "prog_rl009_bad"), "--unscoped",
        "--program", "--rules", "RL009",
        "--callgraph-dump", str(dump),
    )
    assert proc.returncode == 1
    assert "RL009" in proc.stdout and "via " in proc.stdout

    doc = json.loads(dump.read_text())
    assert {e["callee"] for e in doc["edges"]} == {
        "journal.Journal.__init__",
        "svc.SessionView._log",
        "journal.Journal.append",
    }

    proc = _run_cli(
        str(FIXTURES / "prog_rl009_clean"), "--unscoped",
        "--program", "--rules", "RL009",
    )
    assert proc.returncode == 0


def test_cli_changed_only_uses_cache(tmp_path):
    pkg = tmp_path / "pkg"
    shutil.copytree(FIXTURES / "prog_rl009_clean", pkg)
    cache = tmp_path / "cache"
    args = (
        str(pkg), "--unscoped", "--program", "--rules", "RL009",
        "--changed-only", "--cache-dir", str(cache),
    )
    proc = _run_cli(*args)
    assert proc.returncode == 0
    assert cache.is_dir()

    proc = _run_cli(*args)
    assert proc.returncode == 0
    assert "cached" in proc.stdout


# Meta: the tree itself ------------------------------------------------------

def test_src_is_clean_at_head():
    """`reprolint src` must exit 0 on the committed tree.

    If this fails, either a real invariant violation crept in (fix the
    code) or a checker grew a false positive (fix the checker or add a
    reviewed `# reprolint: disable=` with a comment saying why).
    """
    result = lint_paths([SRC], DEFAULT_CONFIG)
    assert result.parse_errors == []
    assert result.findings == [], "\n".join(f.render() for f in result.findings)


def test_src_is_clean_under_program_analysis():
    """The interprocedural rules (RL009–RL011) must also hold at HEAD.

    Every allowlist entry and ``# reprolint: exempt=`` annotation that
    keeps this green is a reviewed decision — see DESIGN.md §14.
    """
    result = lint_paths([SRC], DEFAULT_CONFIG, program=True)
    assert result.parse_errors == []
    assert result.findings == [], "\n".join(f.render() for f in result.findings)


# Pyramid arena tables -------------------------------------------------------
# The aggregate refactor added pyr_* tables to the shared arena; these
# fixtures pin the lint behavior of their publish/attach idiom without
# widening GOLDEN (which must stay exactly the registered rule set).

def test_pyramid_table_fixtures():
    report = _lint("pyramid_tables_bad.py")
    got = {(f.line, f.rule) for f in report.findings}
    assert got == {
        (10, "RL002"),  # block created for the tables, never paired
        (18, "RL005"),  # unfrozen frombuffer view of the tables
        (19, "RL005"),  # in-place write through the shared view
        (20, "RL002"),  # consumer unlinking the tables it attached
    }, sorted(got)

    clean = _lint("pyramid_tables_clean.py")
    assert clean.findings == [], [f.render() for f in clean.findings]
    assert clean.parse_error is None
