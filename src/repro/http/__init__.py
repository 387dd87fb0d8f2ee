"""Simulated HTTP layer.

Crawlers interact with websites exclusively through this layer: GET/HEAD
requests against a :class:`SimulatedServer` built over a
:class:`~repro.webgraph.model.WebsiteGraph`, with every request and byte
accounted in a :class:`CostLedger` and logged in a crawl trace.  The
paper's evaluation measures exactly these quantities (requests and data
volume; Sec. 4.4 excludes wall-clock time on purpose).
"""

from repro.http.messages import Response, parse_retry_after
from repro.http.ledger import CostLedger
from repro.http.server import SimulatedServer
from repro.http.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FaultyServer,
    InjectedTimeoutError,
)
from repro.http.client import HttpClient, RetryPolicy
from repro.http.environment import CrawlEnvironment

__all__ = [
    "Response",
    "parse_retry_after",
    "CostLedger",
    "SimulatedServer",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultyServer",
    "InjectedTimeoutError",
    "HttpClient",
    "RetryPolicy",
    "CrawlEnvironment",
]
