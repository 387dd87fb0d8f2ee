"""Multi-site acquisition campaigns: simulation and execution.

The paper's motivating application — populating a statistics-data lake
for fact-checking — needs *many* organisations crawled, each under its
own politeness constraint.  Parallel crawlers (Cho & Garcia-Molina 2002;
UbiCrawler) interleave requests across hosts so politeness waits on one
site are spent working on another.  This package provides both halves
of that story:

* **simulation** (``scheduler``) — given per-site crawl traces, a
  discrete-event scheduler computes the campaign makespan under
  per-host delays, quantifying the speedup of cross-site interleaving;
* **execution** (``partitions`` / ``workers`` / ``merge`` / ``engine``)
  — an engine that actually *runs* the campaign: sites shard into
  per-domain partitions, a worker pool (deterministic serial backend,
  or an opt-in multiprocessing backend) crawls each shard, and the
  outputs merge into one canonical report whose SHA-256 digest is
  byte-identical across backends (docs/campaign.md).
"""

from repro.campaign.engine import (
    CampaignSpec,
    dispatch_order,
    run_campaign,
    shard_tasks,
    site_weights,
)
from repro.campaign.merge import (
    CampaignRunReport,
    assign_virtual_times,
    merge_outcomes,
)
from repro.campaign.partitions import Partition, partition_sites
from repro.campaign.scheduler import (
    CampaignReport,
    SiteWorkload,
    TraceLike,
    schedule_campaign,
)
from repro.campaign.workers import (
    CrawlSpec,
    MultiprocessingBackend,
    SerialBackend,
    ShardOutcome,
    ShardTask,
    SiteFacts,
    SiteOutcome,
    WorkerPool,
    run_shard,
    site_seed,
    trace_digest,
    trace_name,
)

__all__ = [
    # simulation
    "CampaignReport",
    "SiteWorkload",
    "TraceLike",
    "schedule_campaign",
    # sharding
    "Partition",
    "partition_sites",
    # workers
    "CrawlSpec",
    "ShardTask",
    "SiteOutcome",
    "SiteFacts",
    "ShardOutcome",
    "WorkerPool",
    "SerialBackend",
    "MultiprocessingBackend",
    "run_shard",
    "site_seed",
    "trace_digest",
    "trace_name",
    # merge
    "CampaignRunReport",
    "assign_virtual_times",
    "merge_outcomes",
    # engine
    "CampaignSpec",
    "run_campaign",
    "dispatch_order",
    "shard_tasks",
    "site_weights",
]
