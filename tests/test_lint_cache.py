"""Incremental-cache behaviour: hits on unchanged files, invalidation
on content edit / rule-set version bump / config change, and tolerance
of corrupted cache files (caching must never change findings)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Linter, RuleConfig

DIRTY = "import random\nx = random.random()\n"
CLEAN = "from repro.utils.rng import derive_rng\n"


@pytest.fixture()
def tree(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "dirty.py").write_text(DIRTY)
    (package / "clean.py").write_text(CLEAN)
    return package


def run(tree, cache, config=None):
    return Linter(config or RuleConfig()).run([tree], cache_path=cache)


def test_second_run_hits_for_every_unchanged_file(tree, tmp_path):
    cache = tmp_path / "cache.json"
    cold = run(tree, cache)
    warm = run(tree, cache)
    assert cold.cache.enabled and warm.cache.enabled
    assert cold.cache.misses == cold.cache.files == 2
    assert warm.cache.hits == warm.cache.files == 2
    assert warm.cache.misses == 0
    assert [f.to_dict() for f in cold.findings] == \
        [f.to_dict() for f in warm.findings]
    assert len(warm.findings) == 1  # the DET001 in dirty.py


def test_file_edit_invalidates_only_that_file(tree, tmp_path):
    cache = tmp_path / "cache.json"
    run(tree, cache)
    (tree / "dirty.py").write_text(CLEAN)
    warm = run(tree, cache)
    assert warm.cache.hits == 1    # clean.py untouched
    assert warm.cache.misses == 1  # dirty.py re-linted
    assert warm.findings == []


def test_rule_version_bump_invalidates_everything(tree, tmp_path, monkeypatch):
    cache = tmp_path / "cache.json"
    run(tree, cache)
    import repro.lint.rules as rules_module

    monkeypatch.setattr(rules_module, "RULESET_VERSION", "9999.99-0")
    bumped = run(tree, cache)
    assert bumped.cache.hits == 0
    assert bumped.cache.misses == bumped.cache.files == 2


def test_interpreter_version_is_part_of_the_cache_key(tree, tmp_path,
                                                      monkeypatch):
    """A cache written by one Python minor must not serve facts to
    another — ``ast`` node shapes change across minors, and CI runs the
    suite on both 3.11 and 3.12 against the same layout."""
    import repro.lint.cache as cache_module

    assert cache_module.interpreter_tag().startswith("py3.")
    cache = tmp_path / "cache.json"
    run(tree, cache)
    monkeypatch.setattr(cache_module, "interpreter_tag",
                        lambda: "py3.99")
    other = run(tree, cache)
    assert other.cache.hits == 0
    assert other.cache.misses == other.cache.files == 2


def test_config_change_invalidates_everything(tree, tmp_path):
    cache = tmp_path / "cache.json"
    run(tree, cache)
    reconfigured = run(tree, cache,
                       config=RuleConfig(disable=frozenset({"DET001"})))
    assert reconfigured.cache.hits == 0
    assert reconfigured.cache.misses == 2
    assert reconfigured.findings == []  # DET001 disabled


def test_changed_config_does_not_resurrect_old_findings(tree, tmp_path):
    """Round-trip back to the original config: the cache was rewritten
    under the new key, so the original run is cold again — and correct."""
    cache = tmp_path / "cache.json"
    first = run(tree, cache)
    run(tree, cache, config=RuleConfig(disable=frozenset({"DET001"})))
    again = run(tree, cache)
    assert again.cache.misses == 2
    assert [f.to_dict() for f in again.findings] == \
        [f.to_dict() for f in first.findings]


def test_corrupted_cache_file_is_ignored(tree, tmp_path):
    cache = tmp_path / "cache.json"
    cache.write_text("{not json at all")
    result = run(tree, cache)
    assert result.cache.misses == 2
    assert len(result.findings) == 1
    # ... and the corrupted file was replaced with a valid one.
    rerun = run(tree, cache)
    assert rerun.cache.hits == 2


def test_cache_preserves_suppressed_findings_for_flow004(tmp_path):
    """FLOW004 must see *suppressed* findings even when the per-file
    phase is served entirely from the cache."""
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "guarded.py").write_text(
        "def f(x):\n"
        "    return x == 0.5  # repro: noqa[COR002] exact sentinel\n"
    )
    cache = tmp_path / "cache.json"
    linter = Linter(RuleConfig())
    cold = linter.run([tmp_path / "src"], project=True, cache_path=cache)
    warm = Linter(RuleConfig()).run([tmp_path / "src"], project=True,
                                    cache_path=cache)
    assert warm.cache.hits == warm.cache.files == 1
    assert cold.findings == warm.findings == []  # marker is used, no FLOW004


def test_no_cache_path_disables_caching(tree):
    result = Linter(RuleConfig()).run([tree])
    assert not result.cache.enabled
    assert result.cache.hits == result.cache.misses == 0


def test_cache_roundtrip_preserves_symbols(tree, tmp_path):
    """Symbol tables restored from cache equal freshly extracted ones."""
    from repro.lint.cache import LintCache, content_sha

    cache_path = tmp_path / "cache.json"
    linter = Linter(RuleConfig())
    linter.run([tree], cache_path=cache_path)
    key = linter._cache_key()
    store = LintCache(cache_path, key=key)
    path = str(tree / "dirty.py")
    entry = store.get(path, content_sha((tree / "dirty.py").read_bytes()))
    assert entry is not None
    fresh = linter._analyze(DIRTY, path, sha=entry.sha)
    assert entry.symbols.to_dict() == fresh.symbols.to_dict()
    assert [f.to_dict() for f in entry.findings] == \
        [f.to_dict() for f in fresh.findings]


def test_symbols_only_entry_never_serves_a_linted_file(tmp_path):
    """Reference-corpus files are cached with their symbols only; linting
    such a file later must analyse it afresh, not replay an entry no rule
    ever ran on.  A full entry does serve a later reference read."""
    src = tmp_path / "src"
    examples = tmp_path / "examples"
    src.mkdir()
    examples.mkdir()
    (src / "clean.py").write_text(CLEAN)
    (examples / "dirty.py").write_text(DIRTY)
    cache = tmp_path / "cache.json"

    def project_run():
        return Linter(RuleConfig()).run([src], project=True, cache_path=cache,
                                        reference_roots=[examples])

    first = project_run()
    assert first.findings == []  # reference files are never linted
    assert first.cache.misses == first.cache.files == 2
    linted = run(examples, cache)
    assert linted.cache.misses == linted.cache.files == 1
    assert [f.rule for f in linted.findings] == ["DET001"]
    again = project_run()
    assert again.cache.hits == again.cache.files == 2
