"""Phase-3 dataflow tests: the solver, its statement views, and one
injected-violation fixture per DF rule (mirroring the FLOW self-gate
style in ``tests/test_lint_self.py`` — a minimal source carrying exactly
one violation, asserted down to the line)."""

from __future__ import annotations

import ast
import textwrap

from repro.lint import (DataflowRule, ForwardAnalysis, Linter,
                        ReachingDefinitions, RuleConfig, build_cfg,
                        default_df_rules, render_stats, solve_forward)
from repro.lint.cfg import EXIT
from repro.lint.dataflow import stmt_defs, stmt_uses


def lint(source: str, path: str = "src/repro/core/mod.py"):
    return Linter(RuleConfig()).check_source(
        textwrap.dedent(source), path=path
    )


def only(findings, code):
    return [f for f in findings if f.rule == code]


def solve_rd(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    )
    cfg = build_cfg(func)
    return cfg, solve_forward(cfg, ReachingDefinitions())


# ---------------------------------------------------------------------------
# Statement views
# ---------------------------------------------------------------------------


def stmt_of(source: str) -> ast.stmt:
    return ast.parse(textwrap.dedent(source)).body[0]


def test_stmt_defs_cover_binding_forms():
    assert stmt_defs(stmt_of("a, (b, c) = x")) == \
        [("a", 1), ("b", 1), ("c", 1)]
    assert stmt_defs(stmt_of("for i in xs:\n    pass")) == [("i", 1)]
    assert stmt_defs(stmt_of("with open(p) as fh:\n    pass")) == \
        [("fh", 1)]
    assert stmt_defs(stmt_of("import os.path")) == [("os", 1)]
    assert stmt_defs(stmt_of("from m import x as y")) == [("y", 1)]
    assert ("n", 1) in stmt_defs(stmt_of("while (n := read()):\n    pass"))


def test_stmt_uses_are_header_only():
    assert stmt_uses(stmt_of("x += y")) == {"x", "y"}
    # Compound headers read only their own expressions, not the body.
    assert stmt_uses(stmt_of("if cond:\n    body(arg)")) == {"cond"}
    assert stmt_uses(stmt_of("for i in xs:\n    use(i)")) == {"xs"}


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


def test_reaching_definitions_kill_within_a_block():
    _, (in_facts, _) = solve_rd(
        """
        def f():
            x = 1
            x = 2
            return x
        """
    )
    assert in_facts[EXIT] == frozenset({("x", 4)})  # line 3 was killed


def test_reaching_definitions_join_at_branch_merge():
    cfg, (in_facts, _) = solve_rd(
        """
        def f(flag):
            x = 1
            if flag:
                x = 2
            return x
        """
    )
    # Both definitions survive the merge and reach the function exit.
    assert cfg is not None
    assert in_facts[EXIT] == frozenset({("x", 3), ("x", 5)})


def test_custom_analysis_plugs_into_the_solver():
    class AssignedNames(ForwardAnalysis):
        def transfer(self, fact, stmt):
            return fact | frozenset(n for n, _ in stmt_defs(stmt))

    source = """
        def f(flag):
            x = 1
            if flag:
                y = 2
            else:
                z = 3
            return x
        """
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    )
    _, out = solve_forward(build_cfg(func), AssignedNames())
    seen = frozenset().union(*out.values())
    assert seen == {"x", "y", "z"}


def test_df_catalogue_codes_and_metadata():
    rules = default_df_rules()
    assert [r.code for r in rules] == \
        ["DF001", "DF002", "DF004", "DF005"]
    for rule in rules:
        assert isinstance(rule, DataflowRule)
        assert rule.name and rule.rationale


# ---------------------------------------------------------------------------
# DF001 — unseeded-rng-taint
# ---------------------------------------------------------------------------


def test_df001_fixed_seed_rng_reaching_sample_is_caught():
    findings = only(lint(
        """
        import random


        def pick(items):
            rng = random.Random(42)
            return rng.sample(items, 3)
        """
    ), "DF001")
    assert len(findings) == 1
    assert findings[0].line == 7
    assert "derive_rng" in findings[0].message


def test_df001_taint_propagates_through_aliasing():
    findings = only(lint(
        """
        import random


        def shuffle_all(items):
            rng = random.Random(7)
            alias = rng
            alias.shuffle(items)
        """
    ), "DF001")
    assert len(findings) == 1
    assert findings[0].line == 8


def test_df001_survives_a_partial_rebind_branch():
    findings = only(lint(
        """
        import random


        def pick(items, flag, fresh):
            rng = random.Random(3)
            if flag:
                rng = fresh()
            return rng.sample(items, 3)
        """
    ), "DF001")
    assert len(findings) == 1  # tainted on the not-flag path


def test_df001_flags_tainted_argument_to_sampling_helper():
    findings = only(lint(
        """
        import random


        def pick(items):
            rng = random.Random(5)
            return weighted_choice(items, rng)
        """
    ), "DF001")
    assert len(findings) == 1


def test_df001_parameter_seeded_rng_is_fine():
    findings = only(lint(
        """
        import random


        def pick(items, seed):
            rng = random.Random(seed)
            return rng.sample(items, 3)
        """
    ), "DF001")
    assert findings == []


# ---------------------------------------------------------------------------
# DF002 — resource-leak
# ---------------------------------------------------------------------------


def test_df002_early_return_leaking_an_open_handle_is_caught():
    findings = only(lint(
        """
        def dump(path, rows):
            fh = open(path, "w")
            for row in rows:
                if not row:
                    return None
                fh.write(row)
            fh.close()
            return None
        """
    ), "DF002")
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "'fh'" in findings[0].message


def test_df002_with_block_never_fires():
    findings = only(lint(
        """
        def dump(path, rows):
            with open(path, "w") as fh:
                for row in rows:
                    fh.write(row)
        """
    ), "DF002")
    assert findings == []


def test_df002_close_in_finally_covers_every_path():
    findings = only(lint(
        """
        def dump(path, rows):
            fh = open(path, "w")
            try:
                for row in rows:
                    fh.write(row)
            finally:
                fh.close()
            return None
        """
    ), "DF002")
    assert findings == []


def test_df002_escaped_handle_moves_ownership():
    findings = only(lint(
        """
        def acquire(path):
            fh = open(path)
            return fh
        """
    ), "DF002")
    assert findings == []


# ---------------------------------------------------------------------------
# DF004 — dead-store
# ---------------------------------------------------------------------------


def test_df004_overwritten_initialiser_is_caught():
    findings = only(lint(
        """
        def compute(items):
            total = 0
            total = sum(items)
            return total
        """
    ), "DF004")
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "'total'" in findings[0].message


def test_df004_definition_live_on_one_branch_is_fine():
    findings = only(lint(
        """
        def compute(flag):
            value = 0
            if flag:
                value = 1
            return value
        """
    ), "DF004")
    assert findings == []


def test_df004_underscore_names_and_closure_reads_are_exempt():
    findings = only(lint(
        """
        def make(build, expensive):
            _scratch = expensive()
            state = build()

            def read():
                return state
            return read
        """
    ), "DF004")
    assert findings == []


def test_df_findings_respect_noqa_markers():
    findings = only(lint(
        """
        def compute(items):
            total = 0  # repro: noqa[DF004] explicit zero documents the unit
            total = sum(items)
            return total
        """
    ), "DF004")
    assert findings == []


# ---------------------------------------------------------------------------
# DF005 — swallowed-retry-error
# ---------------------------------------------------------------------------


def test_df005_swallowed_timeout_is_caught():
    findings = only(lint(
        """
        def fetch(client, url):
            try:
                return client.get(url)
            except TimeoutError:
                pass
            return None
        """
    ), "DF005")
    assert len(findings) == 1
    assert findings[0].line == 5
    assert "TimeoutError" in findings[0].message


def test_df005_reraise_satisfies_the_obligation():
    findings = only(lint(
        """
        def fetch(client, url):
            try:
                return client.get(url)
            except TimeoutError:
                raise
        """
    ), "DF005")
    assert findings == []


def test_df005_reachable_accounting_call_satisfies_the_obligation():
    findings = only(lint(
        """
        def fetch(client, ledger, url):
            try:
                return client.get(url)
            except ConnectionError:
                ledger.charge(1)
            return None
        """
    ), "DF005")
    assert findings == []


def test_df005_fall_through_to_shared_bookkeeping_passes():
    findings = only(lint(
        """
        def fetch(client, url):
            try:
                response = client.get(url)
            except HttpTimeoutError:
                response = None
            client.record(response)
            return response
        """
    ), "DF005")
    assert findings == []


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------


def test_render_stats_reports_the_dataflow_phase(tmp_path):
    (tmp_path / "m.py").write_text("def f():\n    return 1\n")
    run = Linter(RuleConfig()).run([tmp_path / "m.py"])
    text = render_stats(run)
    assert "phase per-file" in text
    assert "dataflow" in text
    assert "cache: disabled" in text
    assert set(run.timings) >= {"per_file", "dataflow"}
