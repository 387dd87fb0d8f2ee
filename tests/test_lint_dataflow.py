"""DF family tests: one injected-violation fixture per DF rule, plus
the negatives each rule must stay silent on (mirroring the FLOW
self-gate style in ``tests/test_lint_self.py`` — a minimal source
carrying exactly one violation, asserted down to the line)."""

from __future__ import annotations

import textwrap

from repro.lint import Linter, Rule, RuleConfig, default_rules, render_stats


def lint(source: str, path: str = "src/repro/core/mod.py"):
    return Linter(RuleConfig()).check_source(
        textwrap.dedent(source), path=path
    )


def only(findings, code):
    return [f for f in findings if f.rule == code]


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


def test_df_catalogue_codes_and_metadata():
    rules = [r for r in default_rules() if r.code.startswith("DF")]
    assert [r.code for r in rules] == \
        ["DF001", "DF002", "DF004", "DF005"]
    for rule in rules:
        assert isinstance(rule, Rule)
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


def test_df002_close_outside_finally_is_caught():
    # An exception between open and close skips a straight-line close.
    findings = only(lint(
        """
        def dump(path, row):
            fh = open(path, "w")
            fh.write(row)
            fh.close()
        """
    ), "DF002")
    assert [f.line for f in findings] == [3]


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


def test_df004_store_that_is_only_deleted_is_caught():
    findings = only(lint(
        """
        def drop(frontier, url):
            features = frontier.pop(url)
            del features
        """
    ), "DF004")
    assert [f.line for f in findings] == [3]


def test_df004_augmented_assignment_reads_the_store():
    findings = only(lint(
        """
        def count(items):
            total = 0
            for item in items:
                total += item
        """
    ), "DF004")
    assert findings == []


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


def test_render_stats_reports_the_two_phases(tmp_path):
    (tmp_path / "m.py").write_text("def f():\n    return 1\n")
    run = Linter(RuleConfig()).run([tmp_path / "m.py"], project=True)
    text = render_stats(run)
    assert "phase per-file" in text and "phase project" in text
    assert "dataflow" not in text
    assert "cache: disabled" in text
    assert set(run.timings) == {"per_file", "project"}
