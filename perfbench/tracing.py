"""Layer spans for the traced run, recorded from outside the program.

Each layer's public entry points are wrapped by replacing the attribute
its caller resolves at call time (a module global or a class
attribute), and restored afterwards.  Every wrapped call records one
span: name, start, end and the span that was open when it started.
Spans stay in memory and are reduced after each repetition; a span's
self time is its duration minus the time of its direct child spans, so
the self times of all spans add up to the time spent inside any span,
and the rest of the crawl's wall time is ``unattributed``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Layer:
    name: str
    #: "simulator" for the stand-in web, "crawler" for the program's own work
    side: str
    #: wrapped entry points, as "module:attribute" or "module:Class.attribute"
    entries: tuple[str, ...]
    #: extra per-layer metrics as (name, unit, better)
    extras: tuple[tuple[str, str, str], ...]
    #: which end-to-end metric this layer should move, on which workload
    moves: str


LAYERS: tuple[Layer, ...] = (
    Layer("http.server", "simulator",
          ("workloads:RequestLog.get", "workloads:RequestLog.head"), (),
          "none: the simulated server's own dispatch, render excluded"),
    Layer("html.render", "simulator", ("repro.http.server:render_page",), (),
          "pages_per_s, gap_ms_p50 on bfs-cold; ~0 on sb-warm"),
    Layer("html.parse", "crawler", ("repro.http.environment:parse_page",),
          (("env_parse_calls", "count", "lower"),
           ("cache_hit_ratio", "ratio", "higher")),
          "pages_per_s on bfs-cold"),
    Layer("webgraph.canonical", "crawler",
          ("repro.webgraph.canonical:resolve_link",), (),
          "pages_per_s on bfs-cold"),
    Layer("http.environment.in_site", "crawler",
          ("repro.http.environment:CrawlEnvironment.in_site",),
          (("calls_per_request", "calls/request", "lower"),),
          "pages_per_s on sb-warm"),
    Layer("http.client", "crawler",
          ("repro.http.client:HttpClient.get", "repro.http.client:HttpClient.head"),
          (("retries", "count", "lower"), ("abandoned", "count", "lower"),
           ("wait_s", "s", "lower")),
          "ok_share, harvest_rate on sb-durable"),
    Layer("core.url_classifier", "crawler",
          ("repro.core.url_classifier:OnlineUrlClassifier.add_labeled",
           "repro.core.url_classifier:OnlineUrlClassifier.classify",
           "repro.ml.linear:LogisticRegressionSGD.partial_fit",
           "repro.core.url_classifier:hashed_bow"),
          (("fits", "count", "lower"), ("samples_per_fit", "samples", "lower"),
           ("hashed_bow_per_label", "calls/label", "lower")),
          "pages_per_s, gap_ms_p99 on sb-warm; nothing on bfs-cold"),
    Layer("core.actions", "crawler",
          ("repro.core.actions:ActionSpace.assign",
           "repro.core.hnsw:HnswIndex.search", "repro.core.hnsw:HnswIndex.insert"),
          (("created", "count", "lower"),),
          "gap_ms_p50 on sb-warm"),
    Layer("core.frontier", "crawler",
          ("repro.core.frontier:Frontier.add",
           "repro.core.frontier:Frontier.pop_from_action",
           "repro.core.frontier:Frontier.pop_random",
           "repro.core.bandit:SleepingBandit.select"),
          (("size_at_end", "count", "lower"),),
          "gap_ms_p50 on sb-warm"),
    Layer("checkpoint", "crawler",
          ("repro.checkpoint.controller:CrawlCheckpointer.tick",
           "repro.checkpoint.store:CheckpointStore.write_checkpoint"),
          (("saves", "count", "lower"), ("bytes_per_save", "bytes", "lower")),
          "pages_per_s, gap_ms_p99 on sb-durable; zero elsewhere"),
    Layer("obs.sinks", "crawler", ("repro.obs.sinks:JsonlSink.on_event",),
          (("events", "count", "lower"),),
          "pages_per_s on sb-durable"),
)

#: span of the payload callable a checkpoint tick receives (checkpoint layer)
_PAYLOAD_SPAN = "CrawlCheckpointer.payload"
#: counted without a span: cache lookups in front of html.parse
_COUNTED = "repro.http.environment:CrawlEnvironment.parse"

#: unattributed crawl time, and the overall figures of the traced run
SUMMARY_METRICS: tuple[tuple[str, str, str], ...] = (
    ("unattributed.self_ms", "ms", "lower"),
    ("unattributed.ms_per_request", "ms/request", "lower"),
    ("simulator.ms_per_request", "ms/request", "lower"),
    ("crawler.ms_per_request", "ms/request", "lower"),
    ("crawl.requests", "count", "lower"),
    ("tracing.untraced_pages_per_s", "requests/s", "higher"),
    ("tracing.traced_pages_per_s", "requests/s", "higher"),
    ("tracing.overhead", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics = []
    for layer in LAYERS:
        metrics += [
            (f"{layer.name}.calls", "count", "lower"),
            (f"{layer.name}.self_ms", "ms", "lower"),
            (f"{layer.name}.ms_per_request", "ms/request", "lower"),
        ]
        metrics += [(f"{layer.name}.{x}", unit, better)
                    for x, unit, better in layer.extras]
    return metrics + list(SUMMARY_METRICS)


def _span_name(entry: str) -> str:
    return entry.split(":", 1)[1]


def _resolve(entry: str):
    """(owner, attribute) that a caller of ``entry`` looks up."""
    module_name, qualname = entry.split(":", 1)
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


class Tracer:
    """Collects spans and counts while installed, timed by ``clock``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.frontier = None
        self._span_layer = {
            _span_name(entry): layer.name
            for layer in LAYERS for entry in layer.entries
        }
        self._span_layer[_PAYLOAD_SPAN] = "checkpoint"

    def reset(self) -> None:
        for column in (self.parent, self.name, self.start, self.end):
            del column[:]
        self._stack[:] = [-1]
        self.counts = {}
        self.frontier = None

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping --------------------------------------------------------

    def _span(self, fn, span_name: str, hook=None):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        name_id = self._name_ids[span_name]
        stack, parents, names = self._stack, self.parent, self.name
        starts, ends = self.start, self.end
        clock = self.clock

        def traced(*args, **kwargs):
            span_id = len(starts)
            parents.append(stack[-1])
            names.append(name_id)
            ends.append(0.0)
            stack.append(span_id)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span_id] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        """Counts taken at the layer boundaries, keyed by span name."""
        from repro.core.url_classifier import UrlClass

        def abandoned(args, kwargs, response):
            if response.abandoned:
                self._count("abandoned")

        def labelled(args, kwargs, result):
            label = kwargs.get("label", args[2] if len(args) > 2 else None)
            if label is not UrlClass.NEITHER:
                self._count("labelled")

        def fit(args, kwargs, result):
            self._count("samples", len(args[1]))

        def frontier(args, kwargs, result):
            self.frontier = args[0]

        def saved(args, kwargs, path):
            self._count("checkpoint_bytes", (path / "state.json").stat().st_size)

        return {
            "HttpClient.get": abandoned,
            "HttpClient.head": abandoned,
            "OnlineUrlClassifier.add_labeled": labelled,
            "LogisticRegressionSGD.partial_fit": fit,
            "Frontier.add": frontier,
            "CheckpointStore.write_checkpoint": saved,
        }

    def _replacement(self, entry: str, original, hooks):
        name = _span_name(entry)
        if name == "CrawlCheckpointer.tick":
            span = self._span

            def tick(checkpointer, build_payload):
                return original(checkpointer, span(build_payload, _PAYLOAD_SPAN))

            return self._span(tick, name)
        return self._span(original, name, hooks.get(name))

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        hooks = self._hooks()
        saved = []
        try:
            for layer in LAYERS:
                for entry in layer.entries:
                    owner, attribute = _resolve(entry)
                    original = vars(owner)[attribute]
                    saved.append((owner, attribute, original))
                    setattr(owner, attribute,
                            self._replacement(entry, original, hooks))
            owner, attribute = _resolve(_COUNTED)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))

            def counted(*args, **kwargs):
                self._count("env_parse")
                return original(*args, **kwargs)

            setattr(owner, attribute, counted)
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- reduction -------------------------------------------------------

    def _self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(start))
        return np.frombuffer(self.name, dtype=np.int64), duration, duration - child

    def layer_metrics(self, outcomes) -> dict[str, float]:
        """Per-layer figures of one repetition (spans since ``reset``)."""
        names, _, self_s = self._self_times()
        n_names = len(self.span_names)
        calls = np.bincount(names, minlength=n_names)
        self_by_name = np.bincount(names, weights=self_s, minlength=n_names)
        requests = sum(o.n_requests for o in outcomes)
        wall_ms = sum(o.wall_s for o in outcomes) * 1e3
        metrics: dict[str, float] = {}
        sides = {"simulator": 0.0, "crawler": 0.0}
        by_layer: dict[str, list[float]] = {layer.name: [0, 0.0] for layer in LAYERS}
        for name_id, span_name in enumerate(self.span_names):
            layer = by_layer[self._span_layer[span_name]]
            layer[0] += int(calls[name_id])
            layer[1] += float(self_by_name[name_id]) * 1e3
        for layer in LAYERS:
            n_calls, self_ms = by_layer[layer.name]
            sides[layer.side] += self_ms
            metrics[f"{layer.name}.calls"] = n_calls
            metrics[f"{layer.name}.self_ms"] = self_ms
            metrics[f"{layer.name}.ms_per_request"] = self_ms / requests

        def span_calls(span_name: str) -> int:
            name_id = self._name_ids.get(span_name)
            return int(calls[name_id]) if name_id is not None else 0

        counts = self.counts
        env_parse = counts.get("env_parse", 0)
        parses = span_calls("parse_page")
        fits = span_calls("LogisticRegressionSGD.partial_fit")
        saves = span_calls("CheckpointStore.write_checkpoint")
        labelled = counts.get("labelled", 0)
        unattributed_ms = wall_ms - sum(sides.values())
        metrics.update({
            "html.parse.env_parse_calls": env_parse,
            "html.parse.cache_hit_ratio": 1 - parses / env_parse if env_parse else 0.0,
            "http.environment.in_site.calls_per_request":
                span_calls("CrawlEnvironment.in_site") / requests,
            "http.client.retries": sum(o.retries for o in outcomes),
            "http.client.abandoned": counts.get("abandoned", 0),
            "http.client.wait_s": sum(o.wait_s for o in outcomes),
            "core.url_classifier.fits": fits,
            "core.url_classifier.samples_per_fit":
                counts.get("samples", 0) / fits if fits else 0.0,
            "core.url_classifier.hashed_bow_per_label":
                span_calls("hashed_bow") / labelled if labelled else 0.0,
            "core.actions.created": span_calls("HnswIndex.insert"),
            "core.frontier.size_at_end":
                len(self.frontier) if self.frontier is not None else 0,
            "checkpoint.saves": saves,
            "checkpoint.bytes_per_save":
                counts.get("checkpoint_bytes", 0) / saves if saves else 0.0,
            "obs.sinks.events": span_calls("JsonlSink.on_event"),
            "unattributed.self_ms": unattributed_ms,
            "unattributed.ms_per_request": unattributed_ms / requests,
            "simulator.ms_per_request": sides["simulator"] / requests,
            "crawler.ms_per_request": (sides["crawler"] + unattributed_ms) / requests,
            "crawl.requests": requests,
        })
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write the current spans as tab-separated text, times in µs
        from the first span."""
        names, duration, self_s = self._self_times()
        start = np.frombuffer(self.start, dtype=np.float64)
        origin = start[0] if len(start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("id\tparent\tlayer\tspan\tstart_us\tduration_us\tself_us\n")
            for span_id, (name_id, parent) in enumerate(zip(names, self.parent)):
                span_name = self.span_names[name_id]
                handle.write(
                    f"{span_id}\t{parent}\t{self._span_layer[span_name]}\t{span_name}\t"
                    f"{(start[span_id] - origin) * 1e6:.1f}\t"
                    f"{duration[span_id] * 1e6:.1f}\t{self_s[span_id] * 1e6:.1f}\n"
                )
