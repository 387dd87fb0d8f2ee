"""Per-rule unit tests for ``repro.lint``: positive and negative
fixture snippets, ``noqa`` suppression and config-driven disabling."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import Linter, RuleConfig
from repro.lint.engine import LintUsageError

#: A path that places the snippet inside the crawler layer.
CORE = "src/repro/core/example.py"


def lint(source: str, path: str = CORE, config: RuleConfig | None = None):
    return Linter(config or RuleConfig()).check_source(
        textwrap.dedent(source), path=path
    )


def codes(findings) -> list[str]:
    return [finding.rule for finding in findings]


# -- DET001: unseeded / global randomness --------------------------------


def test_det001_unseeded_random_flagged():
    findings = lint("import random\nrng = random.Random()\n")
    assert codes(findings) == ["DET001"]
    assert findings[0].line == 2


def test_det001_seeded_random_ok():
    assert lint("import random\nrng = random.Random(7)\n") == []


def test_det001_global_random_calls_flagged():
    findings = lint(
        """
        import random

        def f():
            return random.random() + random.gauss(0, 1)
        """
    )
    assert codes(findings) == ["DET001", "DET001"]


def test_det001_from_import_flagged():
    assert codes(lint("from random import Random\n")) == ["DET001"]


def test_det001_function_scope_import_flagged():
    findings = lint(
        """
        def f(seed):
            import random

            return random.Random(seed)
        """
    )
    assert codes(findings) == ["DET001"]


def test_det001_rng_module_exempt():
    source = "import random\n\nrng = random.Random()\n"
    assert lint(source, path="src/repro/utils/rng.py") == []
    assert codes(lint(source, path=CORE)) == ["DET001"]


# -- DET002: wall clock / OS entropy -------------------------------------


def test_det002_wall_clock_flagged():
    findings = lint(
        """
        import os
        import time
        from datetime import datetime

        def f():
            return time.time(), datetime.now(), os.urandom(8)
        """
    )
    assert codes(findings) == ["DET002", "DET002", "DET002"]


def test_det002_tests_and_benchmarks_exempt():
    source = "import time\nstart = time.time()\n"
    assert lint(source, path="tests/test_example.py") == []
    assert lint(source, path="benchmarks/test_bench_x.py") == []


def test_det002_unrelated_methods_ok():
    assert lint("class C:\n    def go(self):\n        return self.now()\n") == []


# -- DET003: set iteration feeding RNG -----------------------------------


def test_det003_set_iteration_with_rng_flagged():
    findings = lint(
        """
        def f(rng, urls):
            pending = set(urls)
            for url in pending:
                if rng.random() < 0.5:
                    return url
        """
    )
    assert codes(findings) == ["DET003"]


def test_det003_sorted_set_ok():
    assert lint(
        """
        def f(rng, urls):
            for url in sorted(set(urls)):
                if rng.random() < 0.5:
                    return url
        """
    ) == []


def test_det003_no_rng_use_ok():
    assert lint(
        """
        def f(urls):
            total = 0
            for url in set(urls):
                total += len(url)
            return total
        """
    ) == []


# -- COR001: mutable defaults --------------------------------------------


def test_cor001_mutable_defaults_flagged():
    findings = lint(
        """
        def f(a, b=[], *, c={}):
            return a, b, c
        """
    )
    assert codes(findings) == ["COR001", "COR001"]
    assert "'b'" in findings[0].message


def test_cor001_none_default_ok():
    assert lint("def f(a, b=None, c=()):\n    return a, b, c\n") == []


# -- COR002: float equality ----------------------------------------------


def test_cor002_float_literal_equality_flagged():
    assert codes(lint("def f(x):\n    return x == 0.0\n")) == ["COR002"]
    assert codes(lint("def f(x):\n    return 1.0 != x\n")) == ["COR002"]


def test_cor002_int_and_ordering_ok():
    assert lint("def f(x):\n    return x == 0 or x <= 0.0\n") == []


def test_cor002_test_files_exempt():
    source = "def f(x):\n    assert x == 0.5\n"
    assert lint(source, path="tests/test_example.py") == []


# -- COR003: swallowed exceptions ----------------------------------------


def test_cor003_bare_except_flagged():
    findings = lint(
        """
        def f():
            try:
                work()
            except:
                pass
        """
    )
    assert codes(findings) == ["COR003"]


def test_cor003_swallowed_broad_except_flagged():
    findings = lint(
        """
        def f():
            try:
                work()
            except Exception:
                pass
        """
    )
    assert codes(findings) == ["COR003"]


def test_cor003_narrow_or_handled_ok():
    assert lint(
        """
        def f(log):
            try:
                work()
            except ValueError:
                pass
            try:
                work()
            except Exception as exc:
                log.append(exc)
                raise
        """
    ) == []


# -- API001: seed threading in crawler layers ----------------------------


def test_api001_hardwired_rng_flagged():
    findings = lint(
        """
        import random

        def shuffle_frontier(urls):
            rand = random.Random(42)
            rand.shuffle(urls)
            return urls
        """
    )
    # The hard-wired stream now trips two layers: API001 at the def
    # (no seed/rng parameter) and DF001 at the draw (taint analysis).
    assert codes(findings) == ["API001", "DF001"]


def test_api001_seed_parameter_ok():
    assert lint(
        """
        import random

        def shuffle_frontier(urls, seed=0):
            rand = random.Random(seed)
            rand.shuffle(urls)
            return urls
        """
    ) == []


def test_api001_stored_state_ok():
    assert lint(
        """
        import random

        class C:
            def reset(self):
                self._rand = random.Random(self.seed)
        """
    ) == []


def test_api001_private_and_other_layers_exempt():
    # API001 stays quiet for private helpers and non-seeded layers;
    # only the layer-independent DF001 taint finding remains.
    source = (
        "import random\n\n\ndef _helper(urls):\n"
        "    return random.Random(42).choice(urls)\n"
    )
    assert codes(lint(source)) == ["DF001"]
    assert codes(lint(source.replace("_helper", "helper"),
                      path="src/repro/analysis/example.py")) == ["DF001"]


# -- API002: layering ----------------------------------------------------


def test_api002_upward_import_flagged():
    findings = lint("from repro.experiments.config import ExperimentConfig\n")
    assert codes(findings) == ["API002"]
    assert "repro.core" in findings[0].message


def test_api002_downward_and_sibling_imports_ok():
    assert lint("from repro.http.client import HttpClient\n") == []
    assert lint("from repro.webgraph.model import WebsiteGraph\n",
                path="src/repro/html/example.py") == []


def test_api002_root_modules_exempt():
    assert lint("from repro.experiments import runner\n",
                path="src/repro/__main__.py") == []


def test_api002_layer_override_via_config():
    config = RuleConfig(layers={"experiments": 0})
    assert lint("import repro.experiments\n", config=config) == []


# -- suppression & configuration -----------------------------------------


def test_noqa_single_code_suppresses_only_that_rule():
    source = "def f(x):\n    return x == 0.0  # repro: noqa[COR002]\n"
    assert lint(source) == []
    # The marker names a different rule: the finding survives.
    other = "def f(x):\n    return x == 0.0  # repro: noqa[DET001]\n"
    assert codes(lint(other)) == ["COR002"]


def test_noqa_bare_suppresses_everything():
    source = "rng = __import__('random').Random()  # repro: noqa\n"
    assert lint("import random\nrng = random.Random()  # repro: noqa\n") == []
    assert lint(source) == []


def test_noqa_multiple_codes():
    source = (
        "import random\n"
        "x = random.random() == 0.0  # repro: noqa[DET001, COR002]\n"
    )
    assert lint(source) == []


def test_noqa_inside_string_literal_does_not_suppress():
    """Only real COMMENT tokens carry the marker: a string that happens
    to contain it (fixtures, docs, templates) must not suppress the
    finding on its line."""
    source = (
        "def f(x):\n"
        '    marker = "see  # repro: noqa[COR002] in docs"\n'
        "    return (x == 0.5, marker)\n"
    )
    findings = lint(source)
    assert codes(findings) == ["COR002"]

    multiline = (
        "DOC = '''\n"
        "x == 0.0  # repro: noqa[COR002] example from the docs\n"
        "'''\n"
        "def f(x):\n"
        "    return x == 0.5\n"
    )
    assert codes(lint(multiline)) == ["COR002"]


def test_noqa_string_and_comment_on_same_line():
    """A real comment after a marker-bearing string still suppresses."""
    source = (
        "def f(x):\n"
        '    s = "# repro: noqa[DET001]"\n'
        "    return (s, x == 0.5)  # repro: noqa[COR002] sentinel\n"
    )
    assert lint(source) == []


@pytest.mark.parametrize("marker", [
    "# repro: noqa[ COR002 ]",
    "# repro: noqa[COR002,]",
    "# repro: noqa[ COR002 , DET001 ]",
    "#repro:noqa[COR002]",
    "#  repro:  noqa[cor002] lowercase codes normalise",
    "# repro: noqa[COR002] trailing justification prose, with commas",
])
def test_noqa_code_list_whitespace_variants(marker):
    source = f"def f(x):\n    return x == 0.0  {marker}\n"
    assert lint(source) == []


@pytest.mark.parametrize("marker", [
    "# repro: noqa[DET001]",          # names a different rule
    "# repro: noqa[NOPE99]",          # unknown code suppresses nothing
    "# repro: noqa[]",                # empty list suppresses nothing
])
def test_noqa_non_matching_code_lists_do_not_suppress(marker):
    source = f"def f(x):\n    return x == 0.0  {marker}\n"
    assert codes(lint(source)) == ["COR002"]


def test_scan_noqa_maps_lines_and_codes():
    from repro.lint import scan_noqa

    markers = scan_noqa(
        "a = 1  # repro: noqa\n"
        "b = 2\n"
        "c = 3  # repro: noqa[DET001 , cor002]\n"
    )
    assert markers == {1: None, 3: frozenset({"DET001", "COR002"})}


def test_check_paths_deduplicates_overlapping_inputs(tmp_path):
    """Overlapping paths (``pkg pkg/mod.py``) lint each file once."""
    package = tmp_path / "pkg"
    package.mkdir()
    bad = package / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    single = Linter(RuleConfig()).check_paths([package])
    doubled = Linter(RuleConfig()).check_paths([package, bad, package])
    assert len(single) == len(doubled) == 1


def test_config_disable_turns_rule_off():
    config = RuleConfig(disable=frozenset({"COR002"}))
    assert lint("def f(x):\n    return x == 0.0\n", config=config) == []


def test_config_unknown_disable_code_rejected():
    with pytest.raises(LintUsageError):
        Linter(RuleConfig(disable=frozenset({"NOPE99"})))


def test_syntax_error_reported_as_finding():
    findings = lint("def f(:\n")
    assert codes(findings) == ["E999"]
    assert findings[0].line == 1


def test_pyproject_loading(tmp_path):
    from repro.lint import load_pyproject_config

    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        """
        [tool.repro-lint]
        disable = ["cor002"]
        exclude = ["*/generated/*"]

        [tool.repro-lint.layers]
        plugins = 45
        """
    )
    config = load_pyproject_config(pyproject)
    assert config.disable == frozenset({"COR002"})
    assert config.is_excluded("src/repro/generated/stub.py")
    assert config.layer_rank("plugins") == 45
    assert config.layer_rank("core") == 30  # defaults still present
    assert lint("def f(x):\n    return x == 0.0\n", config=config) == []


def test_pyproject_unknown_key_rejected(tmp_path):
    from repro.lint import load_pyproject_config

    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.repro-lint]\ntypo-key = 1\n")
    with pytest.raises(ValueError):
        load_pyproject_config(pyproject)


def test_pyproject_missing_file_yields_defaults(tmp_path):
    from repro.lint import load_pyproject_config

    config = load_pyproject_config(tmp_path / "absent.toml")
    assert config.disable == frozenset()
