"""Website graph model (Definition 1 of the paper).

A website is a rooted, node-weighted, edge-labelled directed graph: nodes
are resources (HTML pages, data-file targets, error URLs), edges are
hyperlinks, and each edge carries a *tag path* label — the DOM path from
the HTML root to the anchor element in the page containing the link.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator
from urllib.parse import urlsplit

from repro.webgraph.mime import HTML_MIME, is_target_mime


class PageKind(Enum):
    """Resource categories of the crawl environment."""

    HTML = "html"
    TARGET = "target"
    ERROR = "error"
    REDIRECT = "redirect"
    OTHER = "other"  # reachable, 2xx, but neither HTML nor target (e.g. image)


@dataclass(frozen=True)
class Link:
    """A hyperlink: destination URL, DOM tag path, and anchor text.

    ``tag_path`` is the canonical space-separated string form, e.g.
    ``"html body div#main ul.datasets li a"`` where ``#`` prefixes the
    element id and ``.`` a class (Sec. 2.2, Fig. 2).
    """

    url: str
    tag_path: str
    anchor: str = ""


@dataclass(frozen=True)
class Form:
    """A GET search form (deep-web extension).

    ``fields`` maps each select name to its finite option values;
    submitting a value combination requests
    ``action?name1=v1&name2=v2`` (names in field order).
    ``result_urls`` is the ground-truth set of result pages, used only
    for graph analyses (reachability) — crawlers must *enumerate*, they
    never see this attribute.
    """

    action: str
    fields: tuple[tuple[str, tuple[str, ...]], ...]
    result_urls: tuple[str, ...] = ()

    def submission_urls(self) -> list[str]:
        """All submission URLs (cartesian product of option values)."""
        import itertools

        names = [name for name, _ in self.fields]
        value_lists = [values for _, values in self.fields]
        urls = []
        for combo in itertools.product(*value_lists):
            query = "&".join(f"{n}={v}" for n, v in zip(names, combo))
            urls.append(f"{self.action}?{query}")
        return urls


@dataclass
class Page:
    """One node of the website graph.

    Pages also model error URLs (kind == ERROR, status 4xx/5xx) and
    redirects (kind == REDIRECT, status 3xx with a ``redirect_to``);
    the paper's crawler must cope with all of these.
    """

    url: str
    kind: PageKind
    mime_type: str | None = HTML_MIME
    status: int = 200
    size: int = 0
    redirect_to: str | None = None
    links: list[Link] = field(default_factory=list)
    #: GET search forms on this page (deep-web extension)
    forms: list[Form] = field(default_factory=list)
    #: section identifier assigned by the generator (used in analyses only)
    section: str = ""

    @property
    def is_target(self) -> bool:
        return self.kind is PageKind.TARGET

    @property
    def is_html(self) -> bool:
        return self.kind is PageKind.HTML


@dataclass
class SiteStatistics:
    """Table 1-style site characteristics computed from the graph."""

    n_available: int
    n_targets: int
    target_density: float
    html_to_target_pct: float
    target_size_mean: float
    target_size_std: float
    target_depth_mean: float
    target_depth_std: float

    def as_row(self) -> dict[str, float]:
        return {
            "#Available": self.n_available,
            "#Target": self.n_targets,
            "Density (%)": 100.0 * self.target_density,
            "HTML to T. (%)": self.html_to_target_pct,
            "Target Size Mean (MB)": self.target_size_mean / 1e6,
            "Target Size STD (MB)": self.target_size_std / 1e6,
            "Target Depth Mean": self.target_depth_mean,
            "Target Depth STD": self.target_depth_std,
        }


def registrable_host(url: str) -> str:
    """Return the hostname of ``url`` with any leading ``www.`` removed.

    The paper (Sec. 2.2) treats ``www.`` as an alias prefix when deciding
    website membership.
    """
    host = urlsplit(url).hostname or ""
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    return host


def same_site(root_url: str, url: str) -> bool:
    """Website-boundary rule of Sec. 2.2.

    ``url`` belongs to the site of ``root_url`` iff its hostname (modulo a
    ``www.`` prefix) equals the root hostname or is a subdomain of it.
    """
    return host_in_site(registrable_host(root_url), url)


def host_in_site(root_host: str, url: str) -> bool:
    """:func:`same_site` with the root already resolved to
    ``registrable_host(root_url)``, for callers that test many URLs
    against one root."""
    host = registrable_host(url)
    if not root_host or not host:
        return False
    return host == root_host or host.endswith("." + root_host)


#: A URL whose authority ``urlsplit`` takes verbatim: a lowercase http(s)
#: scheme (so no leading C0 control or space for it to strip) and no tab,
#: CR or LF anywhere (it deletes those before splitting).  Group 1 is the
#: authority, everything up to the first ``/``, ``?`` or ``#``.
_VERBATIM_AUTHORITY = re.compile(r"https?://([^/?#\t\n\r]*)[^\t\n\r]*\Z")


class SiteBoundary:
    """The website boundary of one root (Sec. 2.2), memoised per authority.

    ``contains(url)`` is ``same_site(root_url, url)`` for every URL.  The
    answer depends only on the URL's authority, so a URL whose authority
    ``urlsplit`` takes verbatim reuses the answer of the first URL with
    that authority; any other URL is parsed afresh.  A URL that raises
    is never memoised, so it raises again on the next call.
    """

    def __init__(self, root_url: str) -> None:
        self._root_host = registrable_host(root_url)
        self._by_authority: dict[str, bool] = {}

    def contains(self, url: str) -> bool:
        match = _VERBATIM_AUTHORITY.match(url)
        if match is None:
            return host_in_site(self._root_host, url)
        authority = match[1]
        inside = self._by_authority.get(authority)
        if inside is None:
            inside = host_in_site(self._root_host, url)
            self._by_authority[authority] = inside
        return inside


class WebsiteGraph:
    """A complete synthetic website: pages indexed by URL, plus a root.

    The graph is the *ground truth* consumed by the simulated HTTP server;
    crawlers never see it directly — they observe only HTTP responses.
    """

    def __init__(self, root_url: str, name: str = "site") -> None:
        self.root_url = root_url
        self.name = name
        self._pages: dict[str, Page] = {}
        #: robots.txt body served at <root>/robots.txt (None = no file)
        self.robots_txt: str | None = None
        #: URLs listed in the site's sitemap.xml (empty = no sitemap)
        self.sitemap_urls: list[str] = []

    # -- construction -------------------------------------------------

    def add_page(self, page: Page) -> None:
        if page.url in self._pages:
            raise ValueError(f"duplicate URL: {page.url}")
        self._pages[page.url] = page

    # -- lookups ------------------------------------------------------

    def __contains__(self, url: str) -> bool:
        return url in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def get(self, url: str) -> Page | None:
        return self._pages.get(url)

    def page(self, url: str) -> Page:
        return self._pages[url]

    def pages(self) -> Iterator[Page]:
        return iter(self._pages.values())

    def urls(self) -> Iterator[str]:
        return iter(self._pages.keys())

    @property
    def root(self) -> Page:
        return self._pages[self.root_url]

    # -- derived sets ---------------------------------------------------

    def html_pages(self) -> list[Page]:
        return [p for p in self._pages.values() if p.kind is PageKind.HTML]

    def target_pages(self) -> list[Page]:
        return [p for p in self._pages.values() if p.kind is PageKind.TARGET]

    def target_urls(self) -> set[str]:
        return {p.url for p in self._pages.values() if p.kind is PageKind.TARGET}

    def available_pages(self) -> list[Page]:
        """Pages that resolve with a 2xx (the paper's "#Available")."""
        return [
            p
            for p in self._pages.values()
            if p.kind in (PageKind.HTML, PageKind.TARGET, PageKind.OTHER)
        ]

    # -- analyses -------------------------------------------------------

    def depths(self) -> dict[str, int]:
        """Shortest link distance from the root for every reachable URL.

        Redirects are followed at zero depth cost (they are the same
        logical resource).
        """
        dist: dict[str, int] = {self.root_url: 0}
        queue: deque[str] = deque([self.root_url])
        while queue:
            url = queue.popleft()
            page = self._pages.get(url)
            if page is None:
                continue
            if page.redirect_to is not None and page.redirect_to not in dist:
                dist[page.redirect_to] = dist[url]
                queue.append(page.redirect_to)
            for link in page.links:
                if link.url not in dist:
                    dist[link.url] = dist[url] + 1
                    queue.append(link.url)
            for form in page.forms:
                # Form submissions are navigation steps of depth 1.
                for result_url in form.result_urls:
                    if result_url not in dist:
                        dist[result_url] = dist[url] + 1
                        queue.append(result_url)
        return dist

    def statistics(self) -> SiteStatistics:
        """Compute the Table 1 metrics for this site."""
        available = self.available_pages()
        targets = self.target_pages()
        html = [p for p in available if p.kind is PageKind.HTML]
        target_urls = {p.url for p in targets}
        linking = sum(
            1 for p in html if any(link.url in target_urls for link in p.links)
        )
        sizes = [float(p.size) for p in targets]
        depth_map = self.depths()
        depths = [float(depth_map[p.url]) for p in targets if p.url in depth_map]
        return SiteStatistics(
            n_available=len(available),
            n_targets=len(targets),
            target_density=(len(targets) / len(available)) if available else 0.0,
            html_to_target_pct=(100.0 * linking / len(html)) if html else 0.0,
            target_size_mean=_mean(sizes),
            target_size_std=_std(sizes),
            target_depth_mean=_mean(depths),
            target_depth_std=_std(depths),
        )

    def validate(self) -> list[str]:
        """Return a list of consistency problems (empty when sound)."""
        problems: list[str] = []
        if self.root_url not in self._pages:
            problems.append("root URL missing from graph")
        for page in self._pages.values():
            if page.kind is PageKind.REDIRECT and page.redirect_to is None:
                problems.append(f"redirect without destination: {page.url}")
            if page.kind is not PageKind.HTML and page.links:
                problems.append(f"non-HTML page with outlinks: {page.url}")
            if page.kind is PageKind.TARGET and not is_target_mime(page.mime_type):
                problems.append(f"target with non-target MIME: {page.url}")
            for link in page.links:
                if same_site(self.root_url, link.url) and link.url not in self._pages:
                    problems.append(f"dangling in-site link: {page.url} -> {link.url}")
        reachable = set(self.depths())
        for page in self.available_pages():
            if page.url not in reachable:
                problems.append(f"unreachable page: {page.url}")
        return problems


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _std(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    mu = _mean(xs)
    return (sum((x - mu) ** 2 for x in xs) / len(xs)) ** 0.5
