"""Crawl environment: one website, shared by many crawler runs.

Bundles the website graph, its simulated server and a shared
parse cache.  Because HTML parsing is deterministic per URL, caching
parsed pages across crawler runs is behaviour-preserving and mirrors
the paper's local-replication methodology (every crawler re-reads the
same stored pages, Sec. 4.4).  Absolute hrefs, which recur across a
site's pages, are resolved once each (:meth:`CrawlEnvironment.resolve_hrefs`).
"""

from __future__ import annotations

import re
from urllib.parse import urlsplit

from repro.html.parse import ParsedPage, parse_page
from repro.http.client import HttpClient, RetryPolicy
from repro.http.faults import FaultPlan, FaultyServer
from repro.http.messages import Response
from repro.http.server import SimulatedServer
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.webgraph.model import WebsiteGraph, host_in_site, registrable_host

#: An absolute http(s) href with a non-empty authority.  ``urljoin``
#: resolves it from the base URL's scheme alone.  The href must not hold
#: tab, CR or LF: ``urlsplit`` deletes those first, so ``http://\t``
#: resolves against the base.
_BASE_FREE_HREF = re.compile(r"https?://[^/?#\t\n\r][^\t\n\r]*\Z")


class CrawlEnvironment:
    """Shared state for evaluating several crawlers on one website.

    ``target_mimes`` customises the target definition (Sec. 2.2: targets
    are resources whose MIME type is in a *user-defined* list); the
    default is the paper's 38-type list.

    ``fault_plan`` interposes a deterministic
    :class:`~repro.http.faults.FaultyServer` between clients and the
    clean server; ``retry_policy`` arms every client the environment
    creates with retry/backoff.  Both default to None — the clean path
    builds exactly the same object graph as before they existed.
    """

    def __init__(
        self,
        graph: WebsiteGraph,
        target_mimes: frozenset[str] | None = None,
        observer: Observer | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.graph = graph
        self._root_host = registrable_host(graph.root_url)
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        base_server = SimulatedServer(graph)
        self.server = (
            FaultyServer(base_server, fault_plan)
            if fault_plan is not None
            else base_server
        )
        self.target_mimes = target_mimes
        #: default observer handed to every client (docs/observability.md);
        #: instruments *any* crawler's fetch stream, baselines included.
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._parse_cache: dict[str, ParsedPage] = {}
        #: base scheme -> base-free href -> resolved URL (see resolve_hrefs)
        self._resolved: dict[str, dict[str, str]] = {}

    # -- clients ---------------------------------------------------------

    def new_client(
        self, crawler_name: str = "", observer: Observer | None = None
    ) -> HttpClient:
        """A fresh client (own ledger/trace) sharing this environment.

        ``observer`` overrides the environment-level default for this
        client only (e.g. the SB crawler threading ``SBConfig.observer``).
        """
        return HttpClient(
            self.server,
            crawler_name=crawler_name,
            target_mimes=self.target_mimes,
            observer=observer if observer is not None else self.observer,
            retry_policy=self.retry_policy,
        )

    def is_target_mime(self, mime: str | None) -> bool:
        """Target test under this environment's (possibly custom) MIME set."""
        from repro.webgraph.mime import is_target_mime

        return is_target_mime(mime, self.target_mimes)

    # -- parsing -----------------------------------------------------------

    def parse(self, response: Response) -> ParsedPage:
        """Parse an HTML response body, with a URL-keyed cache.

        Link hrefs are resolved against the page URL and canonicalised
        (fragments stripped, relative forms made absolute) — the page
        may write them as ``/path``, ``page#frag`` or absolute URLs.
        """
        cached = self._parse_cache.get(response.url)
        if cached is None:
            from repro.webgraph.model import Form, Link

            raw = parse_page(response.body)
            urls = self.resolve_hrefs(response.url, [link.url for link in raw.links])
            actions = self.resolve_hrefs(
                response.url, [form.action for form in raw.forms]
            )
            resolved = [
                Link(url=url, tag_path=link.tag_path, anchor=link.anchor)
                for url, link in zip(urls, raw.links)
            ]
            forms = [
                Form(action=action, fields=form.fields)
                for action, form in zip(actions, raw.forms)
            ]
            cached = ParsedPage(
                links=resolved, text=raw.text, title=raw.title, forms=forms
            )
            self._parse_cache[response.url] = cached
        return cached

    def resolve_hrefs(self, base_url: str, hrefs: list[str]) -> list[str]:
        """``resolve_link(base_url, href)`` for each href, in order.

        Most hrefs on a site are absolute and recur on many pages.  Those
        the base-free pattern matches resolve once per base scheme, the
        only part of the base they depend on (``http://a/b;`` keeps its
        ``;`` under an https base but not under an http one).  Every
        other href resolves afresh, and an href that raises is never
        memoised.
        """
        if not hrefs:
            return []
        from repro.webgraph.canonical import resolve_link

        memo = self._resolved.setdefault(urlsplit(base_url).scheme, {})
        urls = []
        for href in hrefs:
            url = memo.get(href)
            if url is None:
                url = resolve_link(base_url, href)
                if _BASE_FREE_HREF.match(href) is not None:
                    memo[href] = url
            urls.append(url)
        return urls

    def invalidate(self, url: str) -> None:
        """Drop the cached parse of ``url`` (used by revisit crawling
        when a page's content changes)."""
        self._parse_cache.pop(url, None)

    def in_site(self, url: str) -> bool:
        """Website-boundary test relative to this site's root (Sec. 2.2)."""
        return host_in_site(self._root_host, url)

    # -- ground truth (for oracles and evaluation only) ---------------------

    @property
    def root_url(self) -> str:
        return self.graph.root_url

    def _target_pages(self):
        pages = self.graph.target_pages()
        if self.target_mimes is None:
            return pages
        return [p for p in pages if self.is_target_mime(p.mime_type)]

    def total_targets(self) -> int:
        return len(self._target_pages())

    def total_target_bytes(self) -> int:
        return sum(p.size for p in self._target_pages())

    def target_urls(self) -> set[str]:
        return {p.url for p in self._target_pages()}

    def n_available(self) -> int:
        return len(self.graph.available_pages())
