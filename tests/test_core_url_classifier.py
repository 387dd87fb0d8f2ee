"""Tests for the online URL classifier (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.url_classifier import (
    LinkContext,
    OnlineUrlClassifier,
    OracleUrlClassifier,
    WARM_UP_LABELS,
    UrlClass,
)
from repro.webgraph.model import PageKind


def _feed(classifier, n_html=20, n_target=20):
    for i in range(max(n_html, n_target)):
        if i < n_html:
            classifier.add_labeled(
                f"https://s.example/pages/article-{i}", UrlClass.HTML
            )
        if i < n_target:
            classifier.add_labeled(
                f"https://s.example/files/data-{i}.csv", UrlClass.TARGET
            )


def test_initial_phase_until_batch_and_both_classes():
    classifier = OnlineUrlClassifier(batch_size=10)
    assert classifier.initial_training_phase
    for i in range(10):
        classifier.add_labeled(f"https://s.example/p{i}", UrlClass.HTML)
    # batch trained but only one class seen: still in initial phase
    assert classifier.n_batches_trained == 1
    assert classifier.initial_training_phase
    for i in range(10):
        classifier.add_labeled(f"https://s.example/f{i}.csv", UrlClass.TARGET)
    assert not classifier.initial_training_phase


def test_neither_labels_dropped():
    classifier = OnlineUrlClassifier(batch_size=5)
    for i in range(20):
        classifier.add_labeled(f"https://s.example/x{i}", UrlClass.NEITHER)
    assert classifier.n_batches_trained == 0  # batch never fills


def test_learns_html_vs_target():
    classifier = OnlineUrlClassifier(batch_size=10, seed=0)
    _feed(classifier, 40, 40)
    assert classifier.classify("https://s.example/files/new.csv") is UrlClass.TARGET
    assert classifier.classify("https://s.example/pages/new-article") is UrlClass.HTML


@pytest.mark.parametrize("model", ["LR", "SVM", "NB", "PA"])
def test_all_model_variants_work(model):
    classifier = OnlineUrlClassifier(batch_size=10, model=model, seed=0)
    _feed(classifier, 40, 40)
    assert classifier.classify("https://s.example/files/other.csv") is UrlClass.TARGET


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        OnlineUrlClassifier(model="DeepNet")


def test_unknown_feature_set_rejected():
    with pytest.raises(ValueError):
        OnlineUrlClassifier(feature_set="EVERYTHING")


def test_url_cont_uses_context():
    classifier = OnlineUrlClassifier(
        batch_size=10, feature_set="URL_CONT", seed=0
    )
    context_target = LinkContext(anchor="Download CSV", dom_path="ul.files li a")
    context_html = LinkContext(anchor="Read more", dom_path="div.article p a")
    for i in range(30):
        classifier.add_labeled(f"https://s.example/f{i}", UrlClass.TARGET, context_target)
        classifier.add_labeled(f"https://s.example/p{i}", UrlClass.HTML, context_html)
    # Same URL shape, distinguishable only through context features.
    assert classifier.classify("https://s.example/f999", context_target) is UrlClass.TARGET
    assert classifier.classify("https://s.example/p999", context_html) is UrlClass.HTML


def _fit_sizes(classifier):
    """Record how many samples each ``partial_fit`` trains on."""
    sizes = []
    fit = classifier.model.partial_fit

    def recording(vectors, labels):
        sizes.append(len(vectors))
        return fit(vectors, labels)

    classifier.model.partial_fit = recording
    return sizes


@pytest.mark.parametrize("model", ["LR", "SVM", "NB", "PA"])
def test_warm_up_replays_then_fits_see_only_fresh_batch(model):
    """Fit k <= 40 trains on all 10*k labels so far; every later fit
    trains on its 10 fresh labels only (Algorithm 2)."""
    classifier = OnlineUrlClassifier(batch_size=10, model=model, seed=0)
    warm_up_fits = WARM_UP_LABELS // 10
    sizes = _fit_sizes(classifier)
    _feed(classifier, 300, 300)
    assert classifier.n_batches_trained == len(sizes) == 60
    assert sizes[:warm_up_fits] == [10 * k for k in range(1, warm_up_fits + 1)]
    assert sizes[warm_up_fits:] == [10] * (60 - warm_up_fits)


def test_replay_empty_from_the_last_warm_up_fit_on():
    classifier = OnlineUrlClassifier(batch_size=10, seed=0)
    _feed(classifier, WARM_UP_LABELS // 2 - 5, WARM_UP_LABELS // 2 - 5)
    assert len(classifier._replay) == WARM_UP_LABELS - 10
    assert len(classifier.snapshot_state()["replay"]["labels"]) == WARM_UP_LABELS - 10
    _feed(classifier, 5, 5)
    assert classifier.n_batches_trained == WARM_UP_LABELS // 10
    state = classifier.snapshot_state()
    assert state["replay"] == {"vectors": [], "labels": []}
    _feed(classifier, 50, 50)
    assert classifier.snapshot_state()["replay"] == {"vectors": [], "labels": []}


def test_oracle_classifier(small_site):
    oracle = OracleUrlClassifier(small_site)
    for page in small_site.pages():
        label = oracle.classify(page.url)
        if page.kind is PageKind.HTML:
            assert label is UrlClass.HTML
        elif page.kind is PageKind.TARGET:
            assert label is UrlClass.TARGET
        elif page.kind is PageKind.ERROR:
            assert label is UrlClass.NEITHER
    assert oracle.classify("https://nowhere.example/x") is UrlClass.NEITHER


def test_oracle_resolves_redirects(small_site):
    oracle = OracleUrlClassifier(small_site)
    redirect = next(
        p for p in small_site.pages() if p.kind is PageKind.REDIRECT
    )
    destination = small_site.page(redirect.redirect_to)
    assert oracle.classify(redirect.url).value.lower() == (
        "html" if destination.kind is PageKind.HTML else "target"
    )


def test_prequential_accuracy_tracks_learning():
    classifier = OnlineUrlClassifier(batch_size=10, seed=0)
    _feed(classifier, 200, 200)
    # After warm-up the model separates the two URL families easily.
    assert classifier.prequential_accuracy() > 0.8
    assert classifier.recent_accuracy() > 0.95


def test_prequential_zero_before_training():
    classifier = OnlineUrlClassifier(batch_size=10)
    assert classifier.prequential_accuracy() == 0.0
    assert classifier.recent_accuracy() == 0.0


def test_prequential_window_bounded():
    classifier = OnlineUrlClassifier(batch_size=10, seed=0)
    _feed(classifier, 600, 600)
    assert len(classifier._prequential_window) <= 500


# -- the discovery-time vector (Algorithm 2 trains on what it predicted) ----


def test_label_trains_on_the_vector_classify_built():
    """URL_CONT: classify(url, ctx) then a context-free add_labeled(url)
    trains on the URL+context vector, not a URL-only rebuild."""
    classifier = OnlineUrlClassifier(batch_size=10, feature_set="URL_CONT", seed=0)
    url = "https://s.example/files/report"
    context = LinkContext(anchor="Download CSV", dom_path="ul.files li a",
                          surrounding_text="quarterly data")
    classifier.classify(url, context)
    classifier.add_labeled(url, UrlClass.TARGET)
    trained = classifier._batch.vectors[-1]
    with_context = classifier._features(url, context)
    url_only = classifier._features(url, None)
    assert np.array_equal(trained.indices, with_context.indices)
    assert np.array_equal(trained.values, with_context.values)
    assert trained.nnz > url_only.nnz
    assert url not in classifier._pending


def test_unclassified_url_is_featurised_at_label_time():
    classifier = OnlineUrlClassifier(batch_size=10, feature_set="URL_CONT", seed=0)
    context = LinkContext(anchor="Download CSV")
    classifier.add_labeled("https://s.example/f.csv", UrlClass.TARGET, context)
    trained = classifier._batch.vectors[-1]
    expected = classifier._features("https://s.example/f.csv", context)
    assert np.array_equal(trained.indices, expected.indices)
    assert classifier._pending == {}


def test_pending_vector_dropped_by_every_label():
    classifier = OnlineUrlClassifier(batch_size=10, seed=0)
    for i, label in enumerate(UrlClass):
        classifier.classify(f"https://s.example/p{i}")
        classifier.add_labeled(f"https://s.example/p{i}", label)
    classifier.classify("https://s.example/unlabelled")
    assert list(classifier._pending) == ["https://s.example/unlabelled"]
    assert len(classifier._batch) == 2  # NEITHER trains nothing


def test_pending_vectors_checkpointed_only_for_url_cont():
    from repro.checkpoint import CheckpointError

    url_only = OnlineUrlClassifier(batch_size=10, seed=0)
    url_only.classify("https://s.example/a")
    assert "pending" not in url_only.snapshot_state()

    url_cont = OnlineUrlClassifier(batch_size=10, feature_set="URL_CONT", seed=0)
    url_cont.classify("https://s.example/a", LinkContext(anchor="Read more"))
    state = url_cont.snapshot_state()
    assert list(state["pending"]) == ["https://s.example/a"]
    del state["pending"]
    with pytest.raises(CheckpointError):
        OnlineUrlClassifier(batch_size=10, feature_set="URL_CONT").restore_state(state)


def test_snapshots_encode_each_vector_once(monkeypatch):
    """Saves mid-batch, across warm-up fits and after the window is
    dropped encode every vector at most once, and each snapshot holds
    the same vectors a fresh encoding gives."""
    import repro.core.url_classifier as module
    from repro.checkpoint.codec import Log
    from repro.ml.features import encode_vector

    encoded = []
    monkeypatch.setattr(
        module, "encode_vector", lambda v: encoded.append(v) or encode_vector(v))
    classifier = OnlineUrlClassifier(batch_size=10)
    for i in range(WARM_UP_LABELS + 40):
        label = UrlClass.TARGET if i % 3 == 0 else UrlClass.HTML
        classifier.add_labeled(f"https://s.example/p/{i}", label)
        if i % 7 == 3:
            state = classifier.snapshot_state()
            for name, batch in (("batch", classifier._batch),
                                ("replay", classifier._replay)):
                assert state[name]["vectors"] == [encode_vector(v) for v in batch.vectors]
                assert state[name]["labels"] == batch.labels
            assert isinstance(state["replay"]["vectors"], Log)
    assert len(encoded) == len({id(v) for v in encoded})
    assert classifier._replay.vectors == []
