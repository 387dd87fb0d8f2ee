"""TRES adapted to target retrieval (Sec. 4.3).

TRES [Kontogiannis et al. 2021] is a *topical* RL crawler: it scores
HTML pages by topic relevance (originally with a Bi-LSTM over text) and
expands a crawl tree toward relevant regions.  The paper adapts it to
SD retrieval without touching its core logic, granting three unfair
advantages:

(i)  74 hand-crafted keywords likely to appear in anchors of links to
     targets initialise its relevance model (``TRES_KEYWORDS`` below is
     the paper's Appendix B.2 list);
(ii) 1 000 positive HTML pages (pages that link to targets, taken from
     prior crawls of the ground truth) pre-train the relevance model;
(iii) an oracle classifies URLs as HTML or not at zero cost.

Two behavioural adaptations from the paper: links that are not HTML
(which TRES would ignore) are visited immediately and counted if they
turn out to be targets, and the language filter is disabled.

The deep network is replaced by an online logistic model over word
features — the decision signals (keywords, page text, anchor text) and
the cost profile are preserved: like the original, this adaptation
**re-evaluates the scores of the whole frontier at every step** during
tree expansion, which is what makes TRES unable to scale beyond small
sites (Sec. 4.5).
"""

from __future__ import annotations

import re

from repro.core.base import Crawler
from repro.core.url_classifier import OracleUrlClassifier, UrlClass
from repro.http.environment import CrawlEnvironment
from repro.ml.features import (
    HashedVector,
    decode_vector,
    encode_vector,
    hashed_bow,
    merge_vectors,
)
from repro.ml.linear import LogisticRegressionSGD

#: The 74 keywords the paper supplies to TRES (Appendix B.2).
TRES_KEYWORDS: tuple[str, ...] = (
    "pdf", "xls", "csv", "tar", "zip", "rar", "rdf", "json", "doc", "xml",
    "yaml", "txt", "tsv", "ppt", "ods", "dta", "7z", "ttl", "file",
    "document", "report", "publication", "dataset", "data", "download",
    "archive", "spreadsheet", "table", "list", "resource", "annex",
    "supplement", "attachment", "proceedings", "survey", "material",
    "output", "content", "statistics", "article", "paper", "metadata",
    "fact", "download file", "download document", "available for download",
    "access data", "view report", "get dataset", "data file", "read more",
    "resource list", "get document", "download pulication",
    "document archive", "supporting materials", "export data",
    "download csv", "download pdf", "download xls", "dataset download",
    "attached document", "official documents", "browse files",
    "download statistics", "download article", "annual report",
    "white paper", "technical documentation", "technical report",
    "raw data", "metadata file", "open data", "fact sheet",
)

_FEATURE_DIM = 1 << 14
_WORD_RE = re.compile(r"[a-zA-Z]{2,}")


def _text_features(text: str) -> HashedVector:
    words = " ".join(_WORD_RE.findall(text.lower())[:200])
    return hashed_bow(words, n=4, dim=_FEATURE_DIM, seed=21)


class TresCrawler(Crawler):
    """Topical RL crawler adaptation (with the paper's unfair advantages)."""

    name = "TRES"
    checkpoint_kind = "tres-crawl"

    def __init__(
        self,
        n_pretraining_pages: int = 1000,
        keywords: tuple[str, ...] = TRES_KEYWORDS,
        seed: int = 0,
    ) -> None:
        self.n_pretraining_pages = n_pretraining_pages
        self.keywords = keywords
        self.seed = seed

    # -- relevance model ---------------------------------------------------

    def _pretrain(self, env: CrawlEnvironment) -> LogisticRegressionSGD:
        """Unfair advantages (i) + (ii): keyword seeding and positive pages."""
        model = LogisticRegressionSGD(_FEATURE_DIM, seed=self.seed)
        keyword_vector = _text_features(" ".join(self.keywords))
        target_urls = env.target_urls()
        positives: list[HashedVector] = [keyword_vector]
        negatives: list[HashedVector] = []
        count = 0
        for page in env.graph.html_pages():
            if count >= self.n_pretraining_pages:
                break
            anchors = " ".join(link.anchor for link in page.links)
            vector = _text_features(anchors)
            if any(link.url in target_urls for link in page.links):
                positives.append(vector)
            else:
                negatives.append(vector)
            count += 1
        batch = positives + negatives
        labels = [1] * len(positives) + [0] * len(negatives)
        if batch:
            model.partial_fit(batch, labels)
        return model

    def _keyword_score(self, text: str) -> float:
        lowered = text.lower()
        return sum(1.0 for keyword in self.keywords if keyword in lowered)

    # -- frontier -------------------------------------------------------------

    def start(self, kernel) -> None:
        self._model = self._pretrain(kernel.env)
        # unfair advantage (iii): oracle URL typing at zero cost
        self._oracle = OracleUrlClassifier(kernel.env.graph, kernel.env.target_mimes)
        #: frontier entries: url -> feature vector (anchor + source text)
        self._frontier: dict[str, HashedVector] = {}

    def push(self, kernel, url: str, features: HashedVector | None) -> None:
        # the root and requeued target links carry no anchor context
        self._frontier[url] = (
            features if features is not None else _text_features("link")
        )

    def has_next(self, kernel) -> bool:
        return bool(self._frontier)

    def next_url(self, kernel) -> tuple[str, HashedVector]:
        # TRES's scalability bottleneck, reproduced on purpose: the full
        # frontier is re-scored at every expansion step.
        model, frontier = self._model, self._frontier
        best_url = max(frontier, key=lambda u: model.predict_proba(frontier[u]))
        return best_url, frontier.pop(best_url)

    # -- pages and links ----------------------------------------------------------

    def follow_redirect(self, kernel, location: str, features) -> bool:
        # Redirect targets join the frontier instead of being fetched.
        if location not in kernel.seen:
            kernel.seen[location] = None
            self._frontier[location] = _text_features("redirect")
        return False

    def on_link(self, kernel, link, source: str, parsed) -> bool:
        url_class = self._oracle.classify(link.url)
        if url_class is UrlClass.HTML:
            self._frontier[link.url] = merge_vectors(
                [_text_features(link.anchor or "link"),
                 _text_features(parsed.text[:400])]
            )
        # Adaptation: non-HTML links are visited immediately.
        return url_class is UrlClass.TARGET

    def after_page(self, kernel, url: str, features, parsed, reward: int) -> None:
        # Reinforce the relevance model with the observed page: its label
        # is whether it is relevant and links to targets.
        page_relevant = self._keyword_score(parsed.text) > 0
        label = 1 if (page_relevant and any(
            link.url in kernel.targets for link in parsed.links)) else 0
        anchors = " ".join(link.anchor for link in parsed.links)
        self._model.partial_fit([_text_features(anchors)], [label])

    # -- checkpointing (repro.checkpoint) --------------------------------------

    def snapshot_policy(self, kernel) -> dict:
        return {
            "frontier": [[url, encode_vector(v)] for url, v in self._frontier.items()],
            "model": self._model.snapshot_state(),
        }

    def restore_policy(self, kernel, components: dict) -> None:
        self._frontier = {url: decode_vector(v) for url, v in components["frontier"]}
        self._model.restore_state(components["model"])
