"""Online URL classifier (Sec. 3.3, Algorithm 2).

Estimates, from the URL string alone (character 2-gram bag-of-words),
whether a link leads to an HTML page or a target file.  Training is
incremental:

1. *Initial training phase*: the first ``b`` URLs are labelled by HTTP
   HEAD requests (the crawler pays for those); once the batch is full,
   the model is trained and the phase ends.
2. *Online phase*: labels come for free from every HTTP GET the crawler
   issues anyway; each full batch triggers another ``partial_fit``.

The model trains on the vector it predicted with: :meth:`classify` keeps
each link's vector until the GET labels it, so a link is featurised once
and, with URL_CONT, trained on its link context as well.

Scale adaptation (EXPERIMENTS.md deviation #2): on the paper's
million-page sites the model's warm-up is a negligible share of the
crawl; on scaled-down sites it is not.  So until ``WARM_UP_LABELS``
labels have been trained, each fit also replays every earlier label;
after that the window is dropped for good and each ``partial_fit`` sees
only its ``b`` fresh labels, as in Algorithm 2.

The classifier deliberately knows only two classes, "HTML" and
"Target": misclassifying a dead URL costs one wasted request, whereas
classifying a live URL as "Neither" would silently amputate the crawl
(Sec. 3.3), so "Neither" is folded away.

:class:`OracleUrlClassifier` is the unrealistic perfect-knowledge
variant used by SB-ORACLE and as TRES's unfair advantage (iii).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.checkpoint.codec import Log
from repro.ml.features import (
    HashedVector,
    decode_vector,
    encode_vector,
    hashed_bow,
    merge_vectors,
)
from repro.ml.linear import (
    LinearSVMSGD,
    LogisticRegressionSGD,
    PassiveAggressiveClassifier,
)
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.obs.events import ClassifierBatchTrained
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.webgraph.mime import is_target_mime
from repro.webgraph.model import PageKind, WebsiteGraph

_FEATURE_DIM = 1 << 14
#: labels trained with replay of all earlier labels; later fits see only
#: their fresh batch
WARM_UP_LABELS = 400


class UrlClass(Enum):
    HTML = "HTML"
    TARGET = "Target"
    NEITHER = "Neither"


@dataclass
class LinkContext:
    """Optional context features for the URL_CONT feature set (Table 5)."""

    anchor: str = ""
    dom_path: str = ""
    surrounding_text: str = ""


def _make_model(model: str, dim: int, seed: int):
    if model == "LR":
        return LogisticRegressionSGD(dim, seed=seed)
    if model == "SVM":
        return LinearSVMSGD(dim, seed=seed)
    if model == "NB":
        return MultinomialNaiveBayes(dim)
    if model == "PA":
        return PassiveAggressiveClassifier(dim, seed=seed)
    raise ValueError(f"unknown model: {model!r} (pick LR, SVM, NB or PA)")


@dataclass
class _Batch:
    vectors: list[HashedVector] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    #: ``encode_vector`` of a prefix of ``vectors``, built by checkpoints
    encoded: list[list] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.vectors)

    def clear(self) -> None:
        self.vectors.clear()
        self.labels.clear()
        self.encoded.clear()

    def encode(self) -> list[list]:
        """``encode_vector`` of every vector, each encoded once."""
        self.encoded.extend(encode_vector(v) for v in self.vectors[len(self.encoded):])
        return self.encoded


class OnlineUrlClassifier:
    """Algorithm 2: batched online training, two live classes."""

    def __init__(
        self,
        batch_size: int = 10,
        model: str = "LR",
        feature_set: str = "URL_ONLY",
        dim: int = _FEATURE_DIM,
        seed: int = 0,
        observer: Observer | None = None,
    ) -> None:
        if feature_set not in ("URL_ONLY", "URL_CONT"):
            raise ValueError("feature_set must be URL_ONLY or URL_CONT")
        self.batch_size = batch_size
        self.feature_set = feature_set
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.dim = dim
        self.model = _make_model(model, dim, seed)
        self.initial_training_phase = True
        self._batch = _Batch()
        self.n_batches_trained = 0
        # Warm-up window (deviation #2): every label trained so far, kept
        # only while the model is still warming up, then emptied for good.
        self._replay = _Batch()
        # URL -> the vector ``classify`` built for it, until a label pops
        # it: the model trains on the vector it predicted with.
        self._pending: dict[str, HashedVector] = {}
        self._class_seen = [False, False]
        # Prequential (test-then-train) evaluation: every labelled URL is
        # first predicted with the current model, then learned from — the
        # standard online-learning accuracy estimate (Appendix B.5).
        self._prequential_total = 0
        self._prequential_correct = 0
        self._prequential_window: list[bool] = []

    # -- features ----------------------------------------------------------

    def _features(self, url: str, context: LinkContext | None) -> HashedVector:
        url_vector = hashed_bow(url, n=2, dim=self.dim, seed=1)
        if self.feature_set == "URL_ONLY" or context is None:
            return url_vector
        parts = [url_vector]
        if context.anchor:
            parts.append(hashed_bow(context.anchor, n=2, dim=self.dim, seed=2))
        if context.dom_path:
            parts.append(hashed_bow(context.dom_path, n=2, dim=self.dim, seed=3))
        if context.surrounding_text:
            parts.append(
                hashed_bow(context.surrounding_text[:200], n=2, dim=self.dim, seed=4)
            )
        return merge_vectors(parts)

    # -- training ------------------------------------------------------------

    def add_labeled(
        self, url: str, label: UrlClass, context: LinkContext | None = None
    ) -> None:
        """Record a ground-truth (URL, class) pair; train when batch full.

        During crawling these pairs come for free from GET responses
        (and from the HEAD requests of the initial phase).  "Neither"
        URLs are dropped — the model is trained on two classes only.

        A URL that went through :meth:`classify` is trained on the vector
        built there, link context included; any other URL (the root,
        redirect targets, HEAD-phase labels) is featurised here.
        """
        features = self._pending.pop(url, None)
        if label is UrlClass.NEITHER:
            return
        if features is None:
            features = self._features(url, context)
        y = 1 if label is UrlClass.TARGET else 0
        if self.is_trained:
            correct = self.model.predict(features) == y
            self._prequential_total += 1
            self._prequential_correct += int(correct)
            self._prequential_window.append(correct)
            if len(self._prequential_window) > 500:
                del self._prequential_window[:-500]
        self._class_seen[y] = True
        self._batch.vectors.append(features)
        self._batch.labels.append(y)
        if len(self._batch) >= self.batch_size:
            fresh_examples = len(self._batch)
            vectors = self._batch.vectors + self._replay.vectors
            labels = self._batch.labels + self._replay.labels
            self.model.partial_fit(vectors, labels)
            self.n_batches_trained += 1
            if self.n_batches_trained * self.batch_size < WARM_UP_LABELS:
                replay, batch = self._replay, self._batch
                if len(replay.encoded) == len(replay):  # carry the encoded prefix
                    replay.encoded.extend(batch.encoded)
                replay.vectors.extend(batch.vectors)
                replay.labels.extend(batch.labels)
            else:
                self._replay.clear()
            self._batch.clear()
            # Leave the HEAD-labelled phase only once the model has seen
            # both classes: a one-class training set cannot classify, and
            # on target-dense sites the first batch is often all-HTML.
            if self._class_seen[0] and self._class_seen[1]:
                self.initial_training_phase = False
            if self.observer.enabled:
                self.observer.on_event(
                    ClassifierBatchTrained(
                        n_batches=self.n_batches_trained,
                        n_examples=fresh_examples,
                        prequential_accuracy=self.prequential_accuracy(),
                        recent_accuracy=self.recent_accuracy(),
                    )
                )

    @property
    def is_trained(self) -> bool:
        return self.n_batches_trained > 0

    def prequential_accuracy(self) -> float:
        """Cumulative test-then-train accuracy over all labelled URLs."""
        if self._prequential_total == 0:
            return 0.0
        return self._prequential_correct / self._prequential_total

    def recent_accuracy(self) -> float:
        """Accuracy over the last ≤500 labelled URLs (convergence check)."""
        if not self._prequential_window:
            return 0.0
        return sum(self._prequential_window) / len(self._prequential_window)

    # -- inference -------------------------------------------------------------

    def classify(self, url: str, context: LinkContext | None = None) -> UrlClass:
        """Predict HTML vs Target from the URL (plus context if enabled).

        The vector is kept until :meth:`add_labeled` labels ``url``.
        """
        features = self._features(url, context)
        self._pending[url] = features
        prediction = self.model.predict(features)
        return UrlClass.TARGET if prediction == 1 else UrlClass.HTML

    # -- checkpointing (repro.checkpoint) --------------------------------

    @staticmethod
    def _decode_batch(payload: dict) -> _Batch:
        encoded = list(payload["vectors"])
        return _Batch([decode_vector(v) for v in encoded],
                      list(payload["labels"]), encoded)

    def snapshot_state(self) -> dict:
        batch, replay = self._batch, self._replay
        state = {
            "model": self.model.snapshot_state(),
            "initial_training_phase": self.initial_training_phase,
            "n_batches_trained": self.n_batches_trained,
            "class_seen": list(self._class_seen),
            "batch": {"vectors": list(batch.encode()), "labels": list(batch.labels)},
            # The warm-up window only grows: the store journals its new tail.
            "replay": {"vectors": Log(replay.encode()), "labels": Log(replay.labels)},
            "prequential": {
                "total": self._prequential_total,
                "correct": self._prequential_correct,
                "window": list(self._prequential_window),
            },
        }
        # A URL_ONLY vector is a function of the URL alone, so a resumed
        # crawl rebuilds it; a URL_CONT vector needs the lost link context.
        if self.feature_set == "URL_CONT":
            state["pending"] = {
                url: encode_vector(vector) for url, vector in self._pending.items()
            }
        return state

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.store import CheckpointError

        if self.feature_set == "URL_CONT":
            if "pending" not in state:
                raise CheckpointError(
                    "URL_CONT classifier state has no pending link vectors"
                )
            self._pending = {
                url: decode_vector(vector) for url, vector in state["pending"].items()
            }
        else:
            self._pending = {}
        self.model.restore_state(state["model"])
        self.initial_training_phase = state["initial_training_phase"]
        self.n_batches_trained = state["n_batches_trained"]
        self._class_seen = list(state["class_seen"])
        self._batch = self._decode_batch(state["batch"])
        self._replay = self._decode_batch(state["replay"])
        prequential = state["prequential"]
        self._prequential_total = prequential["total"]
        self._prequential_correct = prequential["correct"]
        self._prequential_window = list(prequential["window"])


class OracleUrlClassifier:
    """Perfect URL classification from the ground-truth graph.

    Used by SB-ORACLE (Sec. 4.3) and granted to the TRES baseline.  The
    oracle also resolves "Neither" correctly — that is exactly its
    unrealistic advantage over the online classifier.
    """

    def __init__(
        self,
        graph: WebsiteGraph,
        target_mimes: frozenset[str] | None = None,
    ) -> None:
        self._graph = graph
        self._target_mimes = target_mimes
        self.initial_training_phase = False

    def add_labeled(
        self, url: str, label: UrlClass, context: LinkContext | None = None
    ) -> None:
        """Oracles do not learn."""

    def classify(self, url: str, context: LinkContext | None = None) -> UrlClass:
        page = self._graph.get(url)
        if page is None:
            return UrlClass.NEITHER
        if page.kind is PageKind.REDIRECT:
            # Classify by the redirect's destination.
            destination = self._graph.get(page.redirect_to or "")
            if destination is None:
                return UrlClass.NEITHER
            page = destination
        if page.kind is PageKind.HTML:
            return UrlClass.HTML
        if page.kind is PageKind.TARGET and is_target_mime(
            page.mime_type, self._target_mimes
        ):
            return UrlClass.TARGET
        return UrlClass.NEITHER
