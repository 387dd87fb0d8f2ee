"""The crawl kernel: the one fetch path every crawler runs on.

A crawler is a *policy* (:class:`repro.core.base.Crawler`): it picks
the next URL, decides what to do with each accepted link or redirect
target, reacts to fetched pages and snapshots its own frontier and
model.  Everything else happens here, once, for all crawlers:

* the budget check before every GET, redirects included;
* retry → requeue → dead-letter for abandoned requests;
* dispatch on the response (error, redirect, target MIME, HTML);
* the link filter (seen → in site → blocklist → robots.txt) for page
  links, redirect targets and form submissions alike;
* one ``checkpoint.tick`` at the top of each step, and the snapshot and
  restore of the state every crawler shares;
* the :class:`CrawlResult`, ledger included.

The contracts this enforces are written down in docs/architecture.md
("Crawl kernel").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.trace import CrawlTrace
from repro.checkpoint.codec import Log
from repro.core.url_classifier import UrlClass
from repro.http.environment import CrawlEnvironment
from repro.http.robots import RobotsPolicy, fetch_robots_policy
from repro.obs.events import TargetFound
from repro.webgraph.mime import is_blocklisted_extension

#: Recursion guard for redirect / immediate-fetch chains.
_MAX_CHAIN_DEPTH = 25


@dataclass
class CrawlResult:
    """Outcome of one crawler run on one website."""

    crawler: str
    site: str
    trace: CrawlTrace
    visited: set[str] = field(default_factory=set)
    targets: set[str] = field(default_factory=set)
    stopped_early: bool = False
    #: URLs permanently given up on: permanent HTTP errors (404/410/…)
    #: and transient failures that exhausted their retries and requeues
    #: (docs/architecture.md, "Fault model").  Order = abandonment order.
    dead_letters: list[str] = field(default_factory=list)
    #: crawler-specific extras (bandit stats, classifier confusion, …)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        return self.trace.n_requests

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_dead_letters(self) -> int:
        return len(self.dead_letters)


class CrawlKernel:
    """One crawl of one site under one policy (a :class:`Crawler`)."""

    def __init__(
        self,
        policy,
        env: CrawlEnvironment,
        budget: float | None = None,
        cost_model: str = "requests",
    ) -> None:
        self.policy = policy
        self.env = env
        self.budget = budget
        self.cost_model = cost_model
        self.observer = (
            policy.observer if policy.observer is not None else env.observer
        )
        self.client = env.new_client(policy.name, observer=self.observer)
        self.robots = RobotsPolicy()
        # Insertion-ordered sets (values are None): a checkpoint journals
        # them as lists that only grow (repro.checkpoint.Log).
        self.visited: dict[str, None] = {}
        self.seen: dict[str, None] = {}
        self.targets: dict[str, None] = {}
        self.dead_letters: list[str] = []
        self.requeues: dict[str, int] = {}
        #: pages fetched so far (GETs that were not abandoned)
        self.t = 0

    # -- the crawl loop ------------------------------------------------

    def crawl(self, checkpoint=None) -> CrawlResult:
        policy = self.policy
        policy.start(self)
        if checkpoint is not None and checkpoint.resume_payload is not None:
            # The snapshot was taken at the top of the loop, after the
            # robots fetch and seeding: restore instead of repeating them.
            self._restore(checkpoint.resume_payload)
        else:
            if policy.respect_robots:
                self.robots = fetch_robots_policy(self.client, self.env.root_url)
            for url in policy.seeds(self):
                self.seen[url] = None
                policy.push(self, url, None)

        stopped_early = False
        while policy.has_next(self):
            if checkpoint is not None:
                # May raise CrawlInterrupted after saving a final
                # checkpoint; the payload describes state *before* this
                # step, so resume re-executes it exactly.
                checkpoint.tick(self._payload)
            if self.budget_exhausted():
                break
            url, ctx = policy.next_url(self)
            reward = self.fetch(url, ctx)
            if policy.after_step(self, url, ctx, reward):
                stopped_early = True
                break

        trace = self.client.trace
        if stopped_early:
            trace.stopped_early_at = len(trace.records)
        return CrawlResult(
            crawler=policy.name,
            site=self.env.graph.name,
            trace=trace,
            visited=set(self.visited),
            targets=set(self.targets),
            stopped_early=stopped_early,
            dead_letters=self.dead_letters,
            info={"ledger": self.client.ledger.snapshot(),
                  **policy.result_info(self)},
        )

    def budget_exhausted(self) -> bool:
        if self.budget is None:
            return False
        return self.client.budget_spent(self.cost_model) >= self.budget

    # -- the one fetch path ----------------------------------------------

    def fetch(self, url: str, ctx=None, depth: int = 0) -> int:
        """GET ``url`` and dispatch on the response.  ``ctx`` is the
        policy's tag for the URL (SB's action, TP-OFF's group, ...),
        handed back on requeue and carried along redirects.  Returns
        the number of targets retrieved by this call, redirects and
        immediately fetched links included."""
        if depth > _MAX_CHAIN_DEPTH or url in self.visited:
            return 0
        if self.budget_exhausted():
            return 0
        policy = self.policy
        response = self.client.get(url)
        if response.abandoned:
            # Transient failure, retries exhausted: give the URL a
            # bounded number of fresh chances, then dead-letter it.
            count = self.requeues.get(url, 0)
            if count < policy.max_requeues:
                self.requeues[url] = count + 1
                policy.push(self, url, ctx)
            else:
                self.dead_letters.append(url)
                self.visited[url] = None
            return 0
        self.visited[url] = None
        self.t += 1

        if response.interrupted or response.is_error:
            if response.is_permanent_error:
                self.dead_letters.append(url)
            policy.on_response(self, url, ctx, UrlClass.NEITHER, None)
            return 0
        if response.is_redirect:
            location = response.redirect_to
            if (
                location
                and location not in self.visited
                and self.admit(location)
                and policy.follow_redirect(self, location, ctx)
            ):
                self.seen[location] = None
                return self.fetch(location, ctx, depth + 1)
            return 0

        mime = response.mime_root()
        if mime is None:
            return 0
        if "html" not in mime:
            if not self.env.is_target_mime(mime):
                return 0
            policy.on_response(self, url, ctx, UrlClass.TARGET, None)
            self.targets[url] = None
            if self.observer.enabled:
                self.observer.on_event(
                    TargetFound(
                        ordinal=self.client.ledger.n_requests,
                        url=url,
                        n_targets=len(self.targets),
                    )
                )
            return 1

        parsed = self.env.parse(response)
        policy.on_response(self, url, ctx, UrlClass.HTML, parsed)
        reward = 0
        seen = self.seen
        for link in parsed.links:
            if link.url in seen or not self.admit(link.url):
                continue
            seen[link.url] = None
            if policy.on_link(self, link, url, parsed):
                reward += self.fetch(link.url, None, depth + 1)
        policy.after_page(self, url, ctx, parsed, reward)
        return reward

    def admit(self, url: str) -> bool:
        """The one link filter: in site, not a blocklisted extension,
        allowed by robots.txt.  In-site rejects are remembered in
        ``seen`` so they are never tested again; callers check ``seen``
        (links, forms) or ``visited`` (redirect targets) first."""
        if not self.env.in_site(url):
            return False
        if is_blocklisted_extension(url) or not self.robots.allowed(url):
            self.seen[url] = None
            return False
        return True

    # -- checkpointing (repro.checkpoint) -------------------------------

    def _payload(self) -> dict:
        """The whole crawl state as a canonical-JSON-safe payload (see
        docs/checkpoint.md for the schema)."""
        policy = self.policy
        components = policy.snapshot_policy(self)
        components.update({
            "client": self.client.snapshot_state(),
            "robots": self.robots.snapshot_state(),
            "crawl": {
                "t": self.t,
                "visited": Log(self.visited),
                "seen": Log(self.seen),
                "targets": Log(self.targets),
                "dead_letters": Log(self.dead_letters),
                "requeues": dict(self.requeues),
            },
        })
        return {
            "kind": policy.checkpoint_kind,
            "crawler": policy.name,
            "site": self.env.graph.name,
            "components": components,
        }

    def _restore(self, payload: dict) -> None:
        """Inverse of :meth:`_payload`; fails loudly when the checkpoint
        belongs to a different kind of crawl, crawler or site."""
        from repro.checkpoint.store import CheckpointError

        policy = self.policy
        kind = policy.checkpoint_kind
        if payload.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint kind {payload.get('kind')!r} is not a "
                f"{kind} snapshot"
            )
        if payload.get("crawler") != policy.name or (
            payload.get("site") != self.env.graph.name
        ):
            raise CheckpointError(
                f"checkpoint is for {payload.get('crawler')!r} on "
                f"{payload.get('site')!r}, not {policy.name!r} on "
                f"{self.env.graph.name!r}"
            )
        parts = payload["components"]
        policy.restore_policy(self, parts)
        self.client.restore_state(parts["client"])
        self.robots.restore_state(parts["robots"])
        crawl = parts["crawl"]
        self.t = crawl["t"]
        self.visited = dict.fromkeys(crawl["visited"])
        self.seen = dict.fromkeys(crawl["seen"])
        self.targets = dict.fromkeys(crawl["targets"])
        self.dead_letters = list(crawl["dead_letters"])
        self.requeues = dict(crawl["requeues"])
