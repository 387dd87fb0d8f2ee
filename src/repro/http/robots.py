"""robots.txt parsing and politeness policy.

Crawling ethics are a recurring theme of the paper (1-second waits
between requests, respect for site owners).  This module implements the
subset of the Robots Exclusion Protocol a polite focused crawler needs:
``User-agent`` groups, ``Disallow``/``Allow`` prefix rules (longest
match wins, Google-style), ``Crawl-delay`` and ``Sitemap`` discovery.

Disallowed areas matter doubly for crawlers: besides etiquette, they
commonly fence off *spider traps* — unbounded calendar/search spaces
that would eat the crawl budget (the reason the paper calls DFS "rarely
used ... since it may fall into robot traps").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.webgraph.canonical import PLAIN_ABSOLUTE


@dataclass
class RobotsPolicy:
    """Parsed rules applying to one user agent."""

    disallow: list[str] = field(default_factory=list)
    allow: list[str] = field(default_factory=list)
    crawl_delay: float | None = None
    sitemaps: list[str] = field(default_factory=list)

    def allowed(self, url: str) -> bool:
        """Longest-prefix-match decision; empty Disallow allows all."""
        if not self.allow and not self.disallow:
            return True
        plain = PLAIN_ABSOLUTE.match(url)
        if plain is None:
            parts = urlsplit(url)
            path, query = parts.path, parts.query
        else:
            # Exact: a plain absolute URL has no tab, CR, LF or leading
            # space for urlsplit to strip, and its netloc ends at the
            # first of "/?#", which starts group 2.  urlsplit then cuts
            # the fragment at the first "#" and the query at the first
            # "?" of what is left: the same two partitions.
            path, _, query = plain.group(2).partition("#")[0].partition("?")
        path = path or "/"
        if query:
            path = f"{path}?{query}"
        best_allow = -1
        best_disallow = -1
        for rule in self.allow:
            if rule and path.startswith(rule):
                best_allow = max(best_allow, len(rule))
        for rule in self.disallow:
            if rule and path.startswith(rule):
                best_disallow = max(best_disallow, len(rule))
        return best_allow >= best_disallow

    # -- checkpointing (repro.checkpoint) ----------------------------

    def snapshot_state(self) -> dict:
        return {
            "disallow": list(self.disallow),
            "allow": list(self.allow),
            "crawl_delay": self.crawl_delay,
            "sitemaps": list(self.sitemaps),
        }

    def restore_state(self, state: dict) -> None:
        self.disallow = list(state["disallow"])
        self.allow = list(state["allow"])
        self.crawl_delay = state["crawl_delay"]
        self.sitemaps = list(state["sitemaps"])


def parse_robots_txt(text: str, user_agent: str = "*") -> RobotsPolicy:
    """Parse robots.txt, honouring the group matching ``user_agent`` (or
    the ``*`` group when no specific group matches)."""
    groups: dict[str, RobotsPolicy] = {}
    sitemaps: list[str] = []
    current_agents: list[str] = []
    last_was_agent = False
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            if not last_was_agent:
                current_agents = []
            current_agents.append(value.lower())
            groups.setdefault(value.lower(), RobotsPolicy())
            last_was_agent = True
            continue
        last_was_agent = False
        if key == "sitemap":
            sitemaps.append(value)
            continue
        for agent in current_agents:
            policy = groups[agent]
            if key == "disallow" and value:
                policy.disallow.append(value)
            elif key == "allow" and value:
                policy.allow.append(value)
            elif key == "crawl-delay":
                try:
                    policy.crawl_delay = float(value)
                except ValueError:
                    pass
    chosen = groups.get(user_agent.lower()) or groups.get("*") or RobotsPolicy()
    chosen.sitemaps = sitemaps
    return chosen


def fetch_robots_policy(client, root_url: str) -> RobotsPolicy:
    """Fetch and parse ``<root>/robots.txt`` through a crawl client.

    Costs one GET (recorded like any request); a missing robots.txt
    yields an allow-everything policy.
    """
    base = root_url.rstrip("/")
    response = client.get(f"{base}/robots.txt")
    if response.ok and response.body:
        return parse_robots_txt(response.body)
    return RobotsPolicy()


def parse_sitemap(xml_text: str) -> list[str]:
    """Extract ``<loc>`` URLs from a (urlset) sitemap document."""
    urls: list[str] = []
    text = xml_text
    while True:
        start = text.find("<loc>")
        if start == -1:
            break
        end = text.find("</loc>", start)
        if end == -1:
            break
        urls.append(text[start + len("<loc>") : end].strip())
        text = text[end + len("</loc>") :]
    return urls
