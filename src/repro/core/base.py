"""Crawler interface shared by SB-CLASSIFIER and all baselines.

A crawler consumes a :class:`~repro.http.environment.CrawlEnvironment`
and a budget (in requests or bytes, Sec. 2.2) and produces a
:class:`CrawlResult` — the request trace plus the sets of visited pages
and retrieved targets.  All evaluation metrics are computed from the
trace, never from crawler internals.

Every crawler runs on the one :class:`~repro.core.kernel.CrawlKernel`;
a :class:`Crawler` subclass is only the *policy* the kernel consults.
Per-crawl policy state lives on the crawler instance (reset by
:meth:`Crawler.start`), so one instance runs one crawl at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.kernel import CrawlKernel, CrawlResult
from repro.core.url_classifier import UrlClass
from repro.http.environment import CrawlEnvironment
from repro.obs.observer import Observer

__all__ = ["Crawler", "CrawlResult"]


class Crawler(ABC):
    """A crawl policy; :meth:`crawl` runs it on the crawl kernel."""

    #: display name used in result tables (paper's crawler names)
    name: str = "crawler"
    #: ``kind`` of this crawler's checkpoint payloads (docs/checkpoint.md)
    checkpoint_kind: str = "crawl"
    #: polite crawlers fetch and honour robots.txt (one extra request)
    respect_robots: bool = True
    #: times an abandoned (transient, retries exhausted) URL is pushed
    #: back before it is dead-lettered
    max_requeues: int = 2
    #: event sink for this crawler's client; None = the environment's
    observer: Observer | None = None

    def crawl(
        self,
        env: CrawlEnvironment,
        budget: float | None = None,
        cost_model: str = "requests",
        checkpoint=None,
    ) -> CrawlResult:
        """Run the crawl until the frontier is empty or the budget is
        spent; ``checkpoint`` (a ``CrawlCheckpointer``) makes it durable."""
        return CrawlKernel(self, env, budget, cost_model).crawl(checkpoint)

    # -- the policy: frontier -------------------------------------------

    @abstractmethod
    def start(self, kernel: CrawlKernel) -> None:
        """Reset per-crawl state (before root seeding or restore)."""

    def seeds(self, kernel: CrawlKernel) -> list[str]:
        """The URLs the crawl starts from."""
        return [kernel.env.root_url]

    @abstractmethod
    def push(self, kernel: CrawlKernel, url: str, ctx) -> None:
        """Queue ``url``: a seed or link (``ctx`` None), or an abandoned
        URL given another chance (``ctx`` as it was fetched with)."""

    @abstractmethod
    def has_next(self, kernel: CrawlKernel) -> bool: ...

    @abstractmethod
    def next_url(self, kernel: CrawlKernel) -> tuple[str, object]:
        """Pop the next URL to fetch and its ``ctx``."""

    # -- the policy: links and pages --------------------------------------

    def on_link(self, kernel: CrawlKernel, link, source: str, parsed) -> bool:
        """An accepted, newly seen link of page ``source``: queue it (and
        return False), drop it (False), or return True to fetch it now.
        The default queues every link."""
        self.push(kernel, link.url, None)
        return False

    def follow_redirect(self, kernel: CrawlKernel, location: str, ctx) -> bool:
        """An accepted redirect target not yet fetched: True fetches it
        now under the same ``ctx``."""
        return True

    def on_response(self, kernel: CrawlKernel, url: str, ctx, kind: UrlClass,
                    parsed) -> None:
        """A fetched page that is not a redirect: ``kind`` is HTML (with
        ``parsed``, before its links), TARGET, or NEITHER for errors."""

    def after_page(self, kernel: CrawlKernel, url: str, ctx, parsed,
                   reward: int) -> None:
        """An HTML page whose links were all handled; ``reward`` counts
        the targets fetched from it."""

    def after_step(self, kernel: CrawlKernel, url: str, ctx, reward: int) -> bool:
        """End of one crawl step; True stops the crawl early."""
        return False

    # -- the policy: state -------------------------------------------------

    def snapshot_policy(self, kernel: CrawlKernel) -> dict:
        """This crawler's own state as checkpoint components."""
        return {}

    def restore_policy(self, kernel: CrawlKernel, components: dict) -> None:
        """Inverse of :meth:`snapshot_policy` (after :meth:`start`)."""

    def result_info(self, kernel: CrawlKernel) -> dict:
        """Crawler-specific extras for ``CrawlResult.info``."""
        return {}
