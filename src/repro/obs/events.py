"""Structured crawl events: the observable record of one crawl.

Every instrumented component emits frozen :class:`CrawlEvent`
dataclasses through an :class:`~repro.obs.observer.Observer`.  The
stream is *deterministic*: event timestamps are request ordinals (the
1-based position in the crawler's HTTP ledger) or crawl-step counters,
never wall-clock time, so the same seed yields a byte-identical event
stream — the property the ``repro.lint`` DET rules protect.

The full schema — one row per event type, with fields and emission
site — is the contract table in docs/observability.md, enforced by
``tests/test_docs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar


@dataclass(frozen=True)
class CrawlEvent:
    """Base class of all observable crawl events.

    Subclasses declare a stable ``kind`` tag used by the JSONL wire
    format (``{"e": "<kind>", ...fields}``).
    """

    #: stable wire-format tag; subclasses must override
    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-serialisable form: ``{"e": kind, **fields}``."""
        payload: dict[str, Any] = {"e": self.kind}
        # The field names in declaration order, as the dataclass built
        # them once per class (events have only plain positional fields).
        for name in self.__match_args__:
            payload[name] = getattr(self, name)
        return payload


@dataclass(frozen=True)
class FetchEvent(CrawlEvent):
    """One HTTP request issued (GET or HEAD).

    Emitted by ``HttpClient._record`` — the same site that feeds the
    :class:`~repro.analysis.trace.CrawlTrace`, so the FetchEvent stream
    reconstructs the trace exactly (see ``repro.obs.report``).
    """

    kind: ClassVar[str] = "fetch"

    ordinal: int       # 1-based request number (ledger position)
    method: str        # "GET" or "HEAD"
    url: str
    status: int
    size: int          # bytes received
    is_target: bool    # a newly retrieved target file


@dataclass(frozen=True)
class ActionSelected(CrawlEvent):
    """One crawl-loop iteration: the bandit's pull and its outcome.

    Emitted by ``SBCrawler.crawl`` after the selected page (plus any
    redirect / immediate-target chain) has been processed.  ``action_id``
    is ``-1`` while no action exists yet (uniform frontier draw);
    ``reward`` is the number of targets retrieved by this pull — the
    quantity fed to ``SleepingBandit.record_reward``.
    """

    kind: ClassVar[str] = "action_selected"

    step: int          # pages fetched by the crawler so far (crawl step t)
    action_id: int     # chosen arm, or -1 for the pre-action phase
    score: float       # bandit score of the chosen arm (0.0 when random)
    n_awake: int       # awake actions at selection time
    frontier_size: int # frontier URLs remaining after the pop
    url: str           # the URL drawn from the action's pool
    reward: int        # targets retrieved by this pull


@dataclass(frozen=True)
class ActionCreated(CrawlEvent):
    """A new action (tag-path cluster) entered the action space.

    Emitted by ``SBCrawler`` when ``ActionSpace.assign`` mints a fresh
    cluster (Algorithm 1's "create singleton" branch).
    """

    kind: ClassVar[str] = "action_created"

    action_id: int
    tag_path: str      # the tag path that seeded the cluster
    n_actions: int     # total actions after creation
    step: int          # crawl step at creation time


@dataclass(frozen=True)
class ClassifierBatchTrained(CrawlEvent):
    """The online URL classifier completed one ``partial_fit`` batch.

    Emitted by ``OnlineUrlClassifier.add_labeled`` (Algorithm 2's
    training trigger).  Accuracies are prequential (test-then-train),
    0.0 until the model has made its first evaluated prediction.
    """

    kind: ClassVar[str] = "classifier_batch_trained"

    n_batches: int              # batches trained so far (this one included)
    n_examples: int             # fresh labelled URLs in this batch
    prequential_accuracy: float # cumulative test-then-train accuracy
    recent_accuracy: float      # accuracy over the last <=500 labels


@dataclass(frozen=True)
class TargetFound(CrawlEvent):
    """A target file was retrieved and counted.

    Emitted by the crawl kernel (``CrawlKernel.fetch``), for every
    crawler, when a GET response's MIME type confirms a target.  ``ordinal`` matches the
    :class:`FetchEvent` of the confirming request.
    """

    kind: ClassVar[str] = "target_found"

    ordinal: int       # request ordinal of the confirming GET
    url: str
    n_targets: int     # distinct targets retrieved so far (this one included)


@dataclass(frozen=True)
class EarlyStopTriggered(CrawlEvent):
    """The Sec. 4.8 early-stopping rule fired.

    Emitted by ``EarlyStoppingMonitor.observe`` at the step where the
    discovery-slope EMA stayed below the threshold for ``patience``
    consecutive windows.
    """

    kind: ClassVar[str] = "early_stop"

    step: int          # monitor iteration at which the rule fired
    ema: float         # the EMA value that triggered the stop
    window: int        # nu
    patience: int      # kappa


@dataclass(frozen=True)
class FaultInjected(CrawlEvent):
    """The fault layer tampered with one request.

    Emitted by ``HttpClient._record`` when a response carries a
    ``fault`` tag (set by :class:`~repro.http.faults.FaultyServer`,
    including the synthetic timeout response).  ``ordinal`` matches the
    :class:`FetchEvent` of the faulted request.
    """

    kind: ClassVar[str] = "fault_injected"

    ordinal: int       # request ordinal of the faulted request
    url: str
    fault: str         # fault kind (repro.http.faults.FAULT_KINDS)
    status: int        # resulting status (0 never occurs; 598 = timeout)


@dataclass(frozen=True)
class RetryScheduled(CrawlEvent):
    """The retry policy decided to re-issue a failed request.

    Emitted by ``HttpClient`` between the failed attempt and its retry.
    ``wait_seconds`` is the simulated backoff (jittered exponential,
    raised to any honoured ``Retry-After``) charged to the ledger.
    """

    kind: ClassVar[str] = "retry_scheduled"

    ordinal: int       # request ordinal of the failed attempt
    url: str
    attempt: int       # 1-based attempt number that just failed
    wait_seconds: float
    reason: str        # "status_429", "timeout", "truncated", ...


@dataclass(frozen=True)
class RequestAbandoned(CrawlEvent):
    """Retries were exhausted; the request stays failed.

    Emitted by ``HttpClient`` after the last transient failure of a
    request whose retry policy ran out of attempts (or retry budget).
    The crawler reacts by requeueing the URL or dead-lettering it.
    """

    kind: ClassVar[str] = "request_abandoned"

    ordinal: int       # request ordinal of the final failed attempt
    url: str
    attempts: int      # total attempts made (first try + retries)
    reason: str        # classification of the final failure


@dataclass(frozen=True)
class ShardStarted(CrawlEvent):
    """A campaign shard was dispatched to a worker.

    Emitted by ``CampaignEngine`` for every shard, in virtual-clock
    dispatch order.  Campaign events are a *deterministic record*: the
    engine replays them after all shards are collected, so serial and
    multiprocessing backends produce byte-identical campaign streams
    (docs/campaign.md, "Determinism guarantee").  ``virtual_start`` is
    the shard's start time on the simulated politeness clock — never
    wall-clock.
    """

    kind: ClassVar[str] = "shard_started"

    shard_id: int        # dense shard index (0-based)
    n_sites: int         # sites assigned to this shard
    sites: str           # comma-joined site names, sorted
    virtual_start: float # seconds on the virtual politeness clock


@dataclass(frozen=True)
class ShardFinished(CrawlEvent):
    """A campaign shard's crawls completed (or were interrupted).

    Emitted by ``CampaignEngine`` after :class:`ShardStarted`, same
    deterministic replay ordering.  ``status`` is ``"completed"`` or
    ``"interrupted"`` (graceful-shutdown partial shard).
    """

    kind: ClassVar[str] = "shard_finished"

    shard_id: int
    n_requests: int       # requests issued across the shard's sites
    n_targets: int        # targets retrieved across the shard's sites
    virtual_finish: float # shard finish time on the virtual clock
    status: str           # "completed" | "interrupted"


@dataclass(frozen=True)
class CampaignMerged(CrawlEvent):
    """Per-shard outputs were folded into one campaign report.

    Emitted by ``CampaignEngine`` once per campaign, after the last
    :class:`ShardFinished`.  ``digest`` is the report's SHA-256 — the
    value the backend-equivalence gate compares.
    """

    kind: ClassVar[str] = "campaign_merged"

    n_shards: int
    n_sites: int
    n_requests: int        # merged request count (campaign ledger)
    n_targets: int         # merged distinct-target count
    makespan_seconds: float  # virtual campaign makespan
    digest: str            # SHA-256 of the canonical report


#: Wire-format registry: kind tag -> event class.
EVENT_TYPES: dict[str, type[CrawlEvent]] = {
    cls.kind: cls
    for cls in (
        FetchEvent,
        ActionSelected,
        ActionCreated,
        ClassifierBatchTrained,
        TargetFound,
        EarlyStopTriggered,
        FaultInjected,
        RetryScheduled,
        RequestAbandoned,
        ShardStarted,
        ShardFinished,
        CampaignMerged,
    )
}


def event_from_dict(payload: dict[str, Any]) -> CrawlEvent:
    """Inverse of :meth:`CrawlEvent.to_dict`; raises on unknown kinds."""
    kind = payload.get("e")
    cls = EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown event kind: {kind!r}")
    kwargs = {k: v for k, v in payload.items() if k != "e"}
    return cls(**kwargs)
