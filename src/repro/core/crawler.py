"""The SB crawler: Algorithms 3 and 4 of the paper.

``SBCrawler`` is SB-CLASSIFIER with the online URL classifier, or
SB-ORACLE when ``SBConfig.use_oracle`` is set.  One crawl step:

1. *Select an action* with the sleeping-bandit score (Algorithm 3) and
   draw a uniformly random unvisited link of that action — or a random
   frontier link while no action exists yet.
2. *Crawl the page* (Algorithm 4): GET; dispatch on status (errors
   return, redirects are followed if unseen, 2xx pages are processed);
   extract in-site links from HTML; classify every new link (HEAD
   during the classifier's initial phase, free prediction afterwards);
   HTML links are mapped to actions (Algorithm 1) and queued; target
   links are fetched immediately and counted into the reward.
3. *Update* the chosen action's running mean reward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.actions import ActionSpace
from repro.core.bandit import DEFAULT_ALPHA, SleepingBandit, make_bandit
from repro.core.base import Crawler
from repro.core.early_stopping import EarlyStoppingMonitor
from repro.core.frontier import Frontier
from repro.core.kernel import CrawlKernel
from repro.core.tagpath import DEFAULT_M, DEFAULT_PRIME, DEFAULT_W, TagPathVectorizer
from repro.core.url_classifier import (
    LinkContext,
    OnlineUrlClassifier,
    OracleUrlClassifier,
    UrlClass,
)
from repro.http.messages import Response
from repro.ml.metrics import ConfusionMatrix
from repro.obs.events import ActionCreated, ActionSelected
from repro.obs.observer import Observer
from repro.webgraph.mime import is_target_mime

#: Sentinel action for the root URL (discovered before any action exists).
_ROOT_ACTION = -1


@dataclass(frozen=True)
class SBConfig:
    """Hyper-parameters of the SB crawler (defaults from Sec. 4.5).

    The paper's default projection dimension is m = 12; Sec. 4.6 reports
    that m has no significant effect, and the scaled-down sites used
    here need far fewer buckets, so the library defaults to m = 8.
    """

    alpha: float = DEFAULT_ALPHA          # exploration-exploitation (2√2)
    theta: float = 0.75                   # tag-path similarity threshold
    ngram_n: int = 2                      # n-grams over tag-path segments
    m: int = DEFAULT_M                    # projected dimension D = 2^m
    w: int = DEFAULT_W                    # hash width (w > m)
    prime: int = DEFAULT_PRIME            # hash multiplier Π
    epsilon: float = 1e-6                 # bandit division guard
    bandit_policy: str = "auer"           # auer | epsilon-greedy | thompson
    batch_size: int = 10                  # URL-classifier batch b
    classifier_model: str = "LR"          # LR | SVM | NB | PA
    feature_set: str = "URL_ONLY"         # URL_ONLY | URL_CONT
    use_oracle: bool = False              # SB-ORACLE instead of SB-CLASSIFIER
    respect_robots: bool = True           # fetch & honour robots.txt
    early_stopping: bool = False
    es_window: int = 1000                 # ν
    es_threshold: float = 0.2             # ε (targets per iteration)
    es_decay: float = 0.05                # γ
    es_patience: int = 15                 # κ
    seed: int = 0
    #: event sink (docs/observability.md); None falls back to the
    #: environment's observer, which defaults to the shared no-op
    observer: Observer | None = None

    def with_seed(self, seed: int) -> "SBConfig":
        return replace(self, seed=seed)


class SBCrawler(Crawler):
    """SB-CLASSIFIER / SB-ORACLE (the paper's contribution)."""

    checkpoint_kind = "sb-crawl"

    def __init__(self, config: SBConfig | None = None, name: str | None = None) -> None:
        self.config = config or SBConfig()
        if name is not None:
            self.name = name
        else:
            self.name = "SB-ORACLE" if self.config.use_oracle else "SB-CLASSIFIER"
        self.respect_robots = self.config.respect_robots
        self.observer = self.config.observer

    # -- setup ------------------------------------------------------------

    def start(self, kernel: CrawlKernel) -> None:
        config = self.config
        env = kernel.env
        self._actions = ActionSpace(
            TagPathVectorizer(
                n=config.ngram_n, m=config.m, w=config.w, prime=config.prime
            ),
            theta=config.theta, seed=config.seed,
        )
        self._bandit: SleepingBandit = make_bandit(
            config.bandit_policy, alpha=config.alpha,
            epsilon=config.epsilon, seed=config.seed,
        )
        self._frontier = Frontier(seed=config.seed)
        if config.use_oracle:
            self._classifier: object = OracleUrlClassifier(env.graph, env.target_mimes)
        else:
            self._classifier = OnlineUrlClassifier(
                batch_size=config.batch_size,
                model=config.classifier_model,
                feature_set=config.feature_set,
                seed=config.seed,
                observer=kernel.observer,
            )
        self._monitor: EarlyStoppingMonitor | None = None
        if config.early_stopping:
            self._monitor = EarlyStoppingMonitor(
                window=config.es_window,
                threshold=config.es_threshold,
                decay=config.es_decay,
                patience=config.es_patience,
                observer=kernel.observer,
            )
        self._confusion = ConfusionMatrix()
        self._oracle = OracleUrlClassifier(env.graph, env.target_mimes)
        self._n_awake = 0

    # -- Algorithm 3: the frontier and the bandit ---------------------------

    def push(self, kernel: CrawlKernel, url: str, ctx) -> None:
        # abandoned URLs go back into their action; the root (and
        # immediately fetched links) into the root pool
        self._frontier.add(url, _ROOT_ACTION if ctx is None else ctx)

    def has_next(self, kernel: CrawlKernel) -> bool:
        return len(self._frontier) > 0

    def next_url(self, kernel: CrawlKernel) -> tuple[str, int | None]:
        awake = [a for a in self._frontier.awake_actions() if a != _ROOT_ACTION]
        self._n_awake = len(awake)
        if awake:
            action_id = self._bandit.select(awake, max(kernel.t, 1))
            url = self._frontier.pop_from_action(action_id)
            self._bandit.record_selection(action_id)
            return url, action_id
        return self._frontier.pop_random(), None

    def after_step(self, kernel: CrawlKernel, url: str, action_id, reward: int) -> bool:
        if kernel.observer.enabled:
            kernel.observer.on_event(
                ActionSelected(
                    step=kernel.t,
                    action_id=action_id if action_id is not None else _ROOT_ACTION,
                    score=self._bandit.last_score if action_id is not None else 0.0,
                    n_awake=self._n_awake,
                    frontier_size=len(self._frontier),
                    url=url,
                    reward=reward,
                )
            )
        return self._monitor is not None and self._monitor.observe(len(kernel.targets))

    # -- Algorithm 4: pages and links ------------------------------------------

    def follow_redirect(self, kernel: CrawlKernel, location: str, ctx) -> bool:
        return location not in self._frontier

    def on_response(self, kernel: CrawlKernel, url: str, ctx, kind: UrlClass,
                    parsed) -> None:
        # NEITHER trains nothing but frees the URL's discovery-time vector
        self._classifier.add_labeled(url, kind)

    def on_link(self, kernel: CrawlKernel, link, source: str, parsed) -> bool:
        label = self._classify_link(
            kernel, link.url, link.anchor, link.tag_path, parsed.text
        )
        if label is UrlClass.HTML:
            actions = self._actions
            n_before = actions.n_actions
            new_action = actions.assign(link.tag_path)
            self._bandit.ensure_arm(new_action)
            self._frontier.add(link.url, new_action)
            if kernel.observer.enabled and actions.n_actions > n_before:
                kernel.observer.on_event(
                    ActionCreated(
                        action_id=new_action,
                        tag_path=link.tag_path,
                        n_actions=actions.n_actions,
                        step=kernel.t,
                    )
                )
        # TARGET: fetched right away and counted into the reward;
        # NEITHER (oracle only) and None (budget spent on HEADs): dropped.
        return label is UrlClass.TARGET

    def after_page(self, kernel: CrawlKernel, url: str, action_id, parsed,
                   reward: int) -> None:
        self._process_forms(kernel, parsed)
        if action_id is not None and action_id != _ROOT_ACTION:
            self._bandit.record_reward(action_id, float(reward))

    def _process_forms(self, kernel: CrawlKernel, parsed) -> None:
        """Hook for deep-web subclasses; the base crawler ignores forms
        (the paper's crawler is navigation-only; Sec. 6 future work)."""

    # -- link classification (Algorithm 2 driver) ---------------------------

    def _classify_link(
        self,
        kernel: CrawlKernel,
        url: str,
        anchor: str,
        tag_path: str,
        page_text: str,
    ) -> UrlClass | None:
        """Classify one newly discovered link, paying HEAD during the
        initial training phase.  Returns None if the budget died first."""
        classifier = self._classifier
        context = None
        if getattr(classifier, "feature_set", "URL_ONLY") == "URL_CONT":
            context = LinkContext(
                anchor=anchor, dom_path=tag_path, surrounding_text=page_text
            )
        if isinstance(classifier, OracleUrlClassifier):
            label = classifier.classify(url, context)
        elif classifier.initial_training_phase:
            if kernel.budget_exhausted():
                return None
            head = kernel.client.head(url)
            label = _label_from_head(head, kernel.env.target_mimes)
            classifier.add_labeled(url, label, context)
            # HEAD already told us the truth: act on it directly.
        else:
            label = classifier.classify(url, context)
        truth = self._oracle.classify(url)
        self._confusion.update(truth.value, label.value)
        return label

    # -- result and checkpointing (repro.checkpoint) --------------------------

    def result_info(self, kernel: CrawlKernel) -> dict:
        mean, std = self._bandit.nonzero_reward_stats()
        online = isinstance(self._classifier, OnlineUrlClassifier)
        return {
            "n_actions": self._actions.n_actions,
            "reward_mean_nonzero": mean,
            "reward_std_nonzero": std,
            "top10_rewards": self._bandit.top_mean_rewards(10),
            "bandit": self._bandit,
            "actions": self._actions,
            "confusion": self._confusion,
            "early_stopping": self._monitor,
            "classifier_prequential_accuracy": (
                self._classifier.prequential_accuracy() if online else 1.0
            ),
            "classifier_recent_accuracy": (
                self._classifier.recent_accuracy() if online else 1.0
            ),
        }

    def snapshot_policy(self, kernel: CrawlKernel) -> dict:
        return {
            "frontier": self._frontier.snapshot_state(),
            "bandit": self._bandit.snapshot_state(),
            "actions": self._actions.snapshot_state(),
            "classifier": (
                self._classifier.snapshot_state()
                if isinstance(self._classifier, OnlineUrlClassifier)
                else None
            ),
            "monitor": (
                self._monitor.snapshot_state()
                if self._monitor is not None
                else None
            ),
            "confusion": self._confusion.snapshot_state(),
        }

    def restore_policy(self, kernel: CrawlKernel, parts: dict) -> None:
        from repro.checkpoint.store import CheckpointError

        self._frontier.restore_state(parts["frontier"])
        self._bandit.restore_state(parts["bandit"])
        self._actions.restore_state(parts["actions"])
        if parts["classifier"] is not None:
            if not isinstance(self._classifier, OnlineUrlClassifier):
                raise CheckpointError(
                    "checkpoint carries classifier state but this "
                    "crawler runs with the oracle classifier"
                )
            self._classifier.restore_state(parts["classifier"])
        if parts["monitor"] is not None:
            if self._monitor is None:
                raise CheckpointError(
                    "checkpoint carries early-stopping state but this "
                    "crawler has early stopping disabled"
                )
            self._monitor.restore_state(parts["monitor"])
        self._confusion.restore_state(parts["confusion"])


def _label_from_head(
    head: Response, target_mimes: frozenset[str] | None = None
) -> UrlClass:
    """Ground-truth label from a HEAD response (initial training phase)."""
    if head.is_redirect:
        return UrlClass.HTML  # following it will land on a live page
    if head.abandoned:
        # The HEAD never got a real answer; keep the link alive as HTML
        # so the (retried, requeued) GET path decides its fate later.
        return UrlClass.HTML
    if not head.ok:
        return UrlClass.NEITHER
    mime = head.mime_root()
    if mime is None:
        return UrlClass.NEITHER
    if "html" in mime:
        return UrlClass.HTML
    if is_target_mime(mime, target_mimes):
        return UrlClass.TARGET
    return UrlClass.NEITHER


def sb_classifier(config: SBConfig | None = None) -> SBCrawler:
    """Factory: the paper's SB-CLASSIFIER with default hyper-parameters."""
    return SBCrawler(config or SBConfig())


def sb_oracle(config: SBConfig | None = None) -> SBCrawler:
    """Factory: SB-ORACLE (perfect URL classification, Sec. 4.3)."""
    base = config or SBConfig()
    return SBCrawler(replace(base, use_oracle=True))
