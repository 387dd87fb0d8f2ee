"""Lint configuration, loadable from ``[tool.repro-lint]`` in pyproject.

Everything has a code-level default tuned to this repository, so the
linter runs out of the box; the pyproject table only needs to list
deviations::

    [tool.repro-lint]
    disable = ["COR002"]          # rule codes to turn off globally
    exclude = ["*/generated/*"]   # fnmatch patterns on posix paths

    [tool.repro-lint.layers]      # override the API002 layer ranking
    plugins = 45
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

#: Layer rank of each first-level subpackage of ``repro``; an import of
#: a *higher-ranked* package from a lower-ranked one is an API002
#: violation.  Equal ranks may import each other (``html``/``webgraph``
#: are deliberately co-resident: pages render from graph models and the
#: generator reuses DOM builders).  Mirrors docs/architecture.md.
DEFAULT_LAYERS: dict[str, int] = {
    "utils": 0,
    "lint": 0,  # the linter must stay importable with zero library deps
    "webgraph": 10,
    "html": 10,
    "ml": 10,
    "sd": 10,
    "checkpoint": 10,  # codec/store substrate; core and campaign snapshot into it
    "analysis": 10,
    "obs": 10,  # events/metrics are substrate; report replay peers with analysis
    "http": 20,
    "core": 30,
    "baselines": 40,
    "deepweb": 40,
    "revisit": 40,
    "campaign": 40,
    "experiments": 50,
}

#: Subpackages whose public functions must thread a seed/rng (API001).
DEFAULT_SEEDED_PACKAGES: tuple[str, ...] = ("core", "baselines")

#: The one module allowed to touch ``random`` module-level state.
DEFAULT_RNG_MODULE: str = "repro/utils/rng.py"


@dataclass(frozen=True)
class RuleConfig:
    """Effective linter configuration (defaults + pyproject overrides)."""

    #: Rule codes disabled globally (``DET001`` etc.).
    disable: frozenset[str] = frozenset()
    #: fnmatch patterns (posix paths) excluded from directory walks.
    exclude: tuple[str, ...] = ()
    #: API002 layer ranking; merged over :data:`DEFAULT_LAYERS`.
    layers: dict[str, int] = field(default_factory=dict)
    #: API001 scope.
    seeded_packages: tuple[str, ...] = DEFAULT_SEEDED_PACKAGES
    #: Path suffix of the module exempt from DET001.
    rng_module: str = DEFAULT_RNG_MODULE

    def is_excluded(self, posix_path: str) -> bool:
        return any(fnmatch(posix_path, pattern) for pattern in self.exclude)

    def layer_rank(self, package: str) -> int | None:
        if package in self.layers:
            return self.layers[package]
        return DEFAULT_LAYERS.get(package)

    def is_rng_module(self, posix_path: str) -> bool:
        return posix_path.endswith(self.rng_module)


def config_digest(config: RuleConfig) -> str:
    """Stable digest of the effective configuration.

    Part of the incremental-cache key: any change to the knobs that can
    alter findings (disabled rules, excludes, layer ranks, API001/FLOW001
    scope, the RNG-module exemption) must invalidate cached results.
    """
    import hashlib
    import json

    payload = {
        "disable": sorted(config.disable),
        "exclude": list(config.exclude),
        "layers": dict(sorted(config.layers.items())),
        "seeded_packages": list(config.seeded_packages),
        "rng_module": config.rng_module,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def load_pyproject_config(pyproject_path: str | Path | None = None) -> RuleConfig:
    """Build a :class:`RuleConfig` from ``[tool.repro-lint]``.

    With no explicit path, searches for ``pyproject.toml`` upward from
    the current directory; a missing file or missing table yields the
    defaults.  Unknown keys raise ``ValueError`` so typos fail loudly.
    """
    import tomllib

    if pyproject_path is None:
        for parent in [Path.cwd(), *Path.cwd().parents]:
            candidate = parent / "pyproject.toml"
            if candidate.is_file():
                pyproject_path = candidate
                break
        else:
            return RuleConfig()
    pyproject_path = Path(pyproject_path)
    if not pyproject_path.is_file():
        return RuleConfig()
    with pyproject_path.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    known = {"disable", "exclude", "layers", "seeded-packages", "rng-module"}
    unknown = set(table) - known
    if unknown:
        raise ValueError(
            f"unknown [tool.repro-lint] key(s): {sorted(unknown)} "
            f"(expected a subset of {sorted(known)})"
        )
    return RuleConfig(
        disable=frozenset(str(c).upper() for c in table.get("disable", [])),
        exclude=tuple(table.get("exclude", [])),
        layers={str(k): int(v) for k, v in table.get("layers", {}).items()},
        seeded_packages=tuple(
            table.get("seeded-packages", DEFAULT_SEEDED_PACKAGES)
        ),
        rng_module=str(table.get("rng-module", DEFAULT_RNG_MODULE)),
    )
