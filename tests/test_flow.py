"""Tests for the flow-sensitive dataflow analyzer (``repro.analysis.flow``).

Covers four layers: the fixture corpus in ``tests/lint_fixtures/`` (one
clean + one violation file per flow rule, mirroring test_lint.py), the CFG
builder and fixpoint engine on synthetic programs (including
hypothesis-generated control flow), the SARIF fingerprints, and the
``python -m repro.analysis flow`` CLI end to end.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flow import (
    FLOW_RULES,
    analyze_paths,
    analyze_source,
    build_cfg,
    finding_fingerprints,
    main,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: rule id -> (violation fixture, exact {(line, col), ...} of its findings).
#: REPRO012's (34, 13), (44, 17) and (46, 17) are the two historic
#: perf/shm.py leak-on-exception shapes (_export_array, _attach_array).
VIOLATIONS = {
    "REPRO012": (
        "repro012_violation.py",
        {(10, 13), (18, 12), (23, 5), (34, 13), (44, 17), (46, 17)},
    ),
    "REPRO013": ("repro013_violation.py", {(13, 5), (18, 12), (24, 5)}),
}

CLEAN = {
    "REPRO012": "repro012_clean.py",
    "REPRO013": "repro013_clean.py",
}


def _analyze(path: Path, **kwargs):
    return analyze_source(path.read_text(encoding="utf-8"), path, **kwargs)


def test_corpus_covers_every_flow_rule():
    assert sorted(VIOLATIONS) == sorted(CLEAN) == sorted(FLOW_RULES)


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_rule_flags_violation_fixture(rule):
    name, expected = VIOLATIONS[rule]
    findings = _analyze(FIXTURES / name)
    # Fixtures are crafted to violate exactly one rule, at exact positions.
    assert {f.rule for f in findings} == {rule}, [f.format() for f in findings]
    assert {(f.line, f.col) for f in findings} == expected


@pytest.mark.parametrize("rule", sorted(CLEAN))
def test_rule_passes_clean_fixture(rule):
    findings = _analyze(FIXTURES / CLEAN[rule])
    assert findings == [], [f.format() for f in findings]


# ---------------------------------------------------------------------------
# CFG builder
# ---------------------------------------------------------------------------


def _cfg_of(source: str):
    import ast

    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body)


def test_cfg_straight_line_reaches_exit():
    blocks, entry, exit_, _ = _cfg_of("a = 1\nb = a\nc = b\n")
    # No calls anywhere: a single block holds all three ops.
    assert blocks[entry].ops
    assert exit_ in blocks[entry].succs
    assert not blocks[entry].exc_succs


def test_cfg_branch_joins():
    blocks, entry, exit_, _ = _cfg_of(
        """
        if a:
            b = 1
        else:
            b = 2
        c = b
        """
    )
    then_b, else_b = blocks[entry].succs
    # Both arms funnel into the join block that precedes exit.
    (join_from_then,) = blocks[then_b].succs
    (join_from_else,) = blocks[else_b].succs
    assert join_from_then == join_from_else
    assert exit_ in blocks[join_from_then].succs


def test_cfg_loop_has_back_edge():
    blocks, _, exit_, raise_exit = _cfg_of(
        """
        while a:
            a = a - 1
        """
    )
    # The loop body must jump backwards to the loop head (a lower block id
    # that is not one of the synthetic exit blocks).
    back = [
        (i, s)
        for i, b in enumerate(blocks)
        for s in b.succs
        if s <= i and s not in (exit_, raise_exit)
    ]
    assert back


def test_cfg_call_gets_exception_edge():
    blocks, _, _, raise_exit = _cfg_of("x = f()\n")
    raisers = [b for b in blocks if b.exc_succs]
    assert raisers and all(raise_exit in b.exc_succs for b in raisers)
    # May-raise statements are isolated: one op per raising block.
    assert all(len(b.ops) == 1 for b in raisers)


def test_cfg_cleanup_statement_does_not_raise():
    blocks, _, _, _ = _cfg_of("x.close()\nx.unlink()\n")
    assert not any(b.exc_succs for b in blocks)


def test_cfg_edges_are_well_formed():
    blocks, entry, exit_, raise_exit = _cfg_of(
        """
        try:
            x = f()
        except ValueError:
            x = None
        finally:
            g()
        return x
        """
    )
    n = len(blocks)
    for b in blocks:
        assert all(0 <= s < n for s in b.succs)
        assert all(0 <= s < n for s in b.exc_succs)
    assert {entry, exit_, raise_exit} <= set(range(n))


# ---------------------------------------------------------------------------
# Fixpoint engine on synthetic programs (hypothesis)
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c"])
_EXPRS = st.sampled_from(["0", "1", "a + 1", "b - a", "min(a, b)", "a"])
_ASSIGN = st.builds("{} = {}".format, _NAMES, _EXPRS)


def _block(stmts: list[str]) -> str:
    return textwrap.indent("\n".join(stmts) or "pass", "    ")


_STMT = st.deferred(
    lambda: st.one_of(
        _ASSIGN,
        st.builds(
            lambda cond, body, orelse: (
                f"if {cond} > 0:\n{_block(body)}\nelse:\n{_block(orelse)}"
            ),
            _NAMES,
            st.lists(_STMT, max_size=3),
            st.lists(_STMT, max_size=3),
        ),
        st.builds(
            lambda cond, body: f"while {cond} > 0:\n{_block(body)}",
            _NAMES,
            st.lists(_STMT, max_size=3),
        ),
        st.builds(
            lambda var, bound, body: f"for {var} in range({bound}):\n{_block(body)}",
            _NAMES,
            _NAMES,
            st.lists(_STMT, max_size=3),
        ),
    )
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_STMT, min_size=1, max_size=5))
def test_engine_terminates_on_generated_control_flow(stmts):
    source = "def f(a, b, c):\n" + _block(stmts) + "\n    return a\n"
    compile(source, "<gen>", "exec")  # the generator must emit valid Python
    blocks, _, _, _ = _cfg_of(source)
    n = len(blocks)
    assert all(0 <= s < n for b in blocks for s in b.succs + b.exc_succs)
    # The fixpoint must converge without findings: the generated programs
    # allocate no resources.
    findings = analyze_source(source, Path("gen.py"))
    assert findings == []


def test_container_escape_suppresses_leak():
    # Regression for perf/parallel.py: resources held by list elements
    # escape when the container does.
    attach = "from repro.perf.shm import attach_graph\n"
    leaking = attach + textwrap.dedent(
        """
        def f(descs):
            handles = [attach_graph(d) for d in descs]
        """
    )
    escaping = attach + textwrap.dedent(
        """
        def f(descs):
            handles = [attach_graph(d) for d in descs]
            return handles
        """
    )
    assert {f.rule for f in analyze_source(leaking, Path("gen.py"))} == {"REPRO012"}
    assert analyze_source(escaping, Path("gen.py")) == []


def test_coded_noqa_suppresses_flow_finding():
    source = textwrap.dedent(
        """
        from multiprocessing import shared_memory

        def f(nbytes: int) -> int:
            block = shared_memory.SharedMemory(create=True, size=nbytes)  # noqa: REPRO012
            return block.size
        """
    )
    assert analyze_source(source, Path("gen.py")) == []
    unsuppressed = source.replace("  # noqa: REPRO012", "")
    assert {f.rule for f in analyze_source(unsuppressed, Path("gen.py"))} == {"REPRO012"}


def test_select_filters_rules():
    path = FIXTURES / "repro012_violation.py"
    assert _analyze(path, select=["REPRO013"]) == []
    assert {f.rule for f in _analyze(path, select=["REPRO012"])} == {"REPRO012"}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprints_survive_line_shifts():
    path = FIXTURES / "repro012_violation.py"
    source = path.read_text(encoding="utf-8")
    before = finding_fingerprints(_analyze(path), source, "perf/scratch.py")
    shifted = "# a new leading comment\n\n" + source
    findings = analyze_source(shifted, path)
    after = finding_fingerprints(findings, shifted, "perf/scratch.py")
    assert before == after
    assert len(set(before)) == len(before)  # distinct per finding


def test_src_tree_is_flow_clean():
    # The same gate CI runs: no finding anywhere under src/repro.
    results = analyze_paths([SRC])
    assert results == [], "\n".join(f.format() for f, _ in results)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_output(capsys):
    bad = str(FIXTURES / "repro012_violation.py")
    assert main([bad]) == 1
    out = capsys.readouterr().out
    assert "REPRO012" in out
    assert "6 finding(s)" in out

    good = str(FIXTURES / "repro012_clean.py")
    assert main([good]) == 0
    assert capsys.readouterr().out == ""


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in FLOW_RULES:
        assert rule in out


def test_cli_select(capsys):
    bad = str(FIXTURES / "repro012_violation.py")
    assert main([bad, "--select", "repro013"]) == 0
    capsys.readouterr()
    assert main([bad, "--select", "REPRO012"]) == 1


def test_cli_rejects_unknown_rule():
    with pytest.raises(SystemExit):
        main([str(FIXTURES), "--select", "REPRO001"])


def test_cli_rejects_missing_path():
    with pytest.raises(SystemExit):
        main(["definitely/not/a/path.py"])


def test_cli_sarif_output(capsys, tmp_path):
    bad = str(FIXTURES / "repro013_violation.py")
    sarif_path = tmp_path / "out.sarif"
    assert main([bad, "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-flow"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(FLOW_RULES)
    assert len(run["results"]) == 3
    for result in run["results"]:
        assert result["ruleId"] == "REPRO013"
        assert result["partialFingerprints"]["reproFlow/v1"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] in {13, 18, 24}
