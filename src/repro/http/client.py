"""Crawler-facing HTTP client with cost accounting and retry/backoff.

Every GET/HEAD is recorded both in a :class:`CostLedger` (totals) and a
:class:`~repro.analysis.trace.CrawlTrace` (per-request log).  The client
refuses to fetch URLs outside the website boundary — crawler code must
apply the Sec. 2.2 same-site rule before scheduling a URL, and this
check turns a forgotten filter into a loud error instead of a silently
wrong experiment.

With a :class:`RetryPolicy` attached, transient failures (429, 5xx
bursts, timeouts, truncated bodies — see
``repro.http.messages.TRANSIENT_STATUSES``) are retried with capped
exponential backoff and seeded jitter; ``Retry-After`` headers are
honoured; every attempt is a full request in the ledger and trace, and
the simulated wait time is charged to ``CostLedger.wait_seconds``.
Without a policy (the default), behaviour is byte-identical to the
pre-retry client: one attempt per request, whatever the status.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.trace import CrawlRecord, CrawlTrace
from repro.http.faults import InjectedTimeoutError
from repro.http.ledger import CostLedger
from repro.http.messages import TIMEOUT_STATUS, Response, parse_retry_after
from repro.http.server import SimulatedServer
from repro.obs.events import (
    FaultInjected,
    FetchEvent,
    RequestAbandoned,
    RetryScheduled,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.utils.rng import derive_rng
from repro.webgraph.mime import is_target_mime
from repro.webgraph.model import host_in_site, registrable_host


class OffsiteRequestError(RuntimeError):
    """Raised when a crawler requests a URL outside the site boundary."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter (docs/architecture.md).

    ``max_attempts`` bounds attempts per request (first try included);
    ``total_budget`` bounds retries per crawl so a melting-down site
    cannot eat the whole request budget in back-offs.  The jittered
    delay for the retry after failed attempt *k* (1-based) is::

        min(max_delay, base_delay * multiplier**(k-1)) * (1 ± jitter)

    raised to the response's ``Retry-After`` when present and larger.
    Jitter comes from a ``derive_rng`` stream, so runs stay reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    total_budget: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays cannot be negative")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered delay before the retry following failed ``attempt``."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def retry_wait(self, attempt: int, response: Response, rng: random.Random) -> float:
        """The wait before retrying ``response``: backoff, raised to any
        valid ``Retry-After`` the server advertised."""
        wait = self.backoff_delay(attempt, rng)
        retry_after = response.retry_after_seconds()
        if retry_after is not None:
            wait = max(wait, retry_after)
        return wait


def _failure_reason(response: Response) -> str:
    """Stable tag naming why a response counts as a transient failure."""
    if response.status == TIMEOUT_STATUS:
        return "timeout"
    if response.truncated:
        return "truncated"
    return f"status_{response.status}"


class HttpClient:
    """One crawler's connection to the simulated server."""

    def __init__(
        self,
        server: SimulatedServer,
        crawler_name: str = "",
        enforce_boundary: bool = True,
        target_mimes: frozenset[str] | None = None,
        observer: Observer | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.server = server
        self.ledger = CostLedger()
        self.trace = CrawlTrace(crawler=crawler_name, site=server.graph.name)
        self.enforce_boundary = enforce_boundary
        self._root_host = registrable_host(server.graph.root_url)
        self.target_mimes = target_mimes
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.retry_policy = retry_policy
        self.retries_used = 0
        #: ``trace.records`` as checkpoint rows, extended at each
        #: snapshot with only the records added since the last one
        self._trace_rows: list[list] = []
        self._rows_of: list[CrawlRecord] | None = None
        self._retry_rng: random.Random | None = (
            derive_rng(retry_policy.seed, "retry-jitter", crawler_name)
            if retry_policy is not None
            else None
        )

    # -- internals -----------------------------------------------------

    def _check_boundary(self, url: str) -> None:
        if self.enforce_boundary and not host_in_site(self._root_host, url):
            raise OffsiteRequestError(
                f"crawler requested off-site URL: {url!r} "
                f"(site root {self.server.graph.root_url!r})"
            )

    def _record(self, response: Response) -> None:
        # robots.txt / sitemap.xml are crawl infrastructure, not data
        # targets, even though their MIME types (text/plain,
        # application/xml) appear in the paper's target list.
        well_known = response.url.rstrip("/").endswith(
            ("/robots.txt", "/sitemap.xml")
        )
        is_target = (
            response.method == "GET"
            and response.ok
            and not response.interrupted
            and not response.truncated
            and not well_known
            and is_target_mime(response.mime_root(), self.target_mimes)
        )
        self.ledger.record(response.method, response.size, is_target)
        if response.latency:
            self.ledger.record_wait(response.latency)
        self.trace.append(
            CrawlRecord(
                method=response.method,
                url=response.url,
                status=response.status,
                size=response.size,
                is_target=is_target,
            )
        )
        if self.observer.enabled:
            self.observer.on_event(
                FetchEvent(
                    ordinal=self.ledger.n_requests,
                    method=response.method,
                    url=response.url,
                    status=response.status,
                    size=response.size,
                    is_target=is_target,
                )
            )
            if response.fault is not None:
                self.observer.on_event(
                    FaultInjected(
                        ordinal=self.ledger.n_requests,
                        url=response.url,
                        fault=response.fault,
                        status=response.status,
                    )
                )

    def _fetch_once(self, method: str, url: str) -> Response:
        """One attempt: injected timeouts become synthetic responses so
        crawler code keeps a single status-dispatch path."""
        try:
            if method == "GET":
                response = self.server.get(url)
            else:
                response = self.server.head(url)
        except InjectedTimeoutError:
            response = Response(
                url=url, method=method, status=TIMEOUT_STATUS, size=0,
                fault="timeout",
            )
        self._record(response)
        return response

    def _retry_budget_left(self) -> bool:
        assert self.retry_policy is not None
        return self.retries_used < self.retry_policy.total_budget

    def _request(self, method: str, url: str) -> Response:
        self._check_boundary(url)
        response = self._fetch_once(method, url)
        policy = self.retry_policy
        if policy is None or not response.is_transient_error:
            return response
        attempt = 1
        while (
            response.is_transient_error
            and attempt < policy.max_attempts
            and self._retry_budget_left()
        ):
            wait = policy.retry_wait(attempt, response, self._retry_rng)
            self.retries_used += 1
            self.ledger.record_retry(wait)
            if self.observer.enabled:
                self.observer.on_event(
                    RetryScheduled(
                        ordinal=self.ledger.n_requests,
                        url=url,
                        attempt=attempt,
                        wait_seconds=wait,
                        reason=_failure_reason(response),
                    )
                )
            response = self._fetch_once(method, url)
            attempt += 1
        if response.is_transient_error:
            response.abandoned = True
            if self.observer.enabled:
                self.observer.on_event(
                    RequestAbandoned(
                        ordinal=self.ledger.n_requests,
                        url=url,
                        attempts=attempt,
                        reason=_failure_reason(response),
                    )
                )
        return response

    # -- public API ------------------------------------------------------

    def get(self, url: str) -> Response:
        """HTTP GET.  Redirects are *not* followed (Algorithm 4 handles 3xx)."""
        return self._request("GET", url)

    def head(self, url: str) -> Response:
        """HTTP HEAD: status and headers only, at small volume cost."""
        return self._request("HEAD", url)

    # -- cost helpers -----------------------------------------------------

    @property
    def n_requests(self) -> int:
        return self.ledger.n_requests

    @property
    def bytes_received(self) -> int:
        return self.ledger.bytes_total

    def budget_spent(self, cost_model: str = "requests") -> float:
        """Budget β under the chosen cost model (Sec. 2.2)."""
        if cost_model == "requests":
            return float(self.ledger.n_requests)
        if cost_model == "volume":
            return float(self.ledger.bytes_total)
        raise ValueError(f"unknown cost model: {cost_model}")

    # -- checkpointing (repro.checkpoint) --------------------------------

    def _snapshot_rows(self) -> list[list]:
        records = self.trace.records
        rows = self._trace_rows
        if self._rows_of is not records or len(rows) > len(records):
            rows = self._trace_rows = []
            self._rows_of = records
        rows.extend(
            [r.method, r.url, r.status, r.size, r.is_target]
            for r in records[len(rows):]
        )
        return rows

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import Log, encode_rng_state

        return {
            "ledger": self.ledger.snapshot_state(),
            "retries_used": self.retries_used,
            "retry_rng": (
                encode_rng_state(self._retry_rng)
                if self._retry_rng is not None
                else None
            ),
            "trace": {
                "records": Log(self._snapshot_rows()),
                "stopped_early_at": self.trace.stopped_early_at,
            },
        }

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.codec import decode_rng_state

        self.ledger.restore_state(state["ledger"])
        self.retries_used = state["retries_used"]
        if state["retry_rng"] is not None:
            if self._retry_rng is None:
                raise ValueError(
                    "checkpoint carries retry-jitter RNG state but this "
                    "client has no retry policy"
                )
            self._retry_rng.setstate(decode_rng_state(state["retry_rng"]))
        trace = state["trace"]
        # a new records list: the next snapshot rebuilds its rows
        self.trace.records = [
            CrawlRecord(
                method=method, url=url, status=status, size=size,
                is_target=is_target,
            )
            for method, url, status, size, is_target in trace["records"]
        ]
        self.trace.stopped_early_at = trace["stopped_early_at"]
