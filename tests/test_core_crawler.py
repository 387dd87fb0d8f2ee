"""End-to-end tests of the SB crawler (Algorithms 1-4)."""

import pytest

from repro.core.crawler import SBConfig, SBCrawler, sb_classifier, sb_oracle
from repro.webgraph.model import PageKind, same_site


def test_full_crawl_finds_all_targets(small_env):
    result = sb_oracle(SBConfig(seed=1)).crawl(small_env)
    assert result.targets == small_env.target_urls()


def test_classifier_variant_finds_all_targets(small_env):
    result = sb_classifier(SBConfig(seed=1)).crawl(small_env)
    assert result.targets == small_env.target_urls()


def test_budget_respected(small_env):
    result = sb_classifier(SBConfig(seed=1)).crawl(small_env, budget=50)
    # Recursion chains may overshoot by a bounded amount only.
    assert result.n_requests <= 50 + 30


def test_volume_budget(small_env):
    budget = 2_000_000.0
    result = sb_oracle(SBConfig(seed=1)).crawl(
        small_env, budget=budget, cost_model="volume"
    )
    total_bytes = result.trace.total_bytes
    assert total_bytes > 0
    full = sb_oracle(SBConfig(seed=1)).crawl(small_env)
    assert total_bytes <= full.trace.total_bytes


def test_no_page_fetched_twice(small_env):
    result = sb_oracle(SBConfig(seed=2)).crawl(small_env)
    get_urls = [r.url for r in result.trace.records if r.method == "GET"]
    assert len(get_urls) == len(set(get_urls))


def test_all_requests_in_site(small_env):
    result = sb_classifier(SBConfig(seed=3)).crawl(small_env)
    for record in result.trace.records:
        assert same_site(small_env.root_url, record.url)


def test_no_blocklisted_media_fetched(small_env):
    result = sb_oracle(SBConfig(seed=1)).crawl(small_env)
    media_urls = {
        p.url for p in small_env.graph.pages() if p.kind is PageKind.OTHER
    }
    fetched = {r.url for r in result.trace.records}
    # The oracle classifies media URLs as NEITHER; extension blocklist
    # catches them even earlier.
    assert not (fetched & media_urls)


def test_oracle_never_requests_error_urls(small_env):
    result = sb_oracle(SBConfig(seed=1)).crawl(small_env)
    error_urls = {
        p.url for p in small_env.graph.pages() if p.kind is PageKind.ERROR
    }
    fetched = {r.url for r in result.trace.records}
    assert not (fetched & error_urls)


def test_classifier_pays_head_requests(small_env):
    result = sb_classifier(SBConfig(seed=1, batch_size=10)).crawl(small_env)
    heads = [r for r in result.trace.records if r.method == "HEAD"]
    assert heads  # initial training phase labels via HEAD
    oracle_run = sb_oracle(SBConfig(seed=1)).crawl(small_env)
    assert not [r for r in oracle_run.trace.records if r.method == "HEAD"]


def test_determinism_same_seed(small_env):
    a = sb_classifier(SBConfig(seed=5)).crawl(small_env)
    b = sb_classifier(SBConfig(seed=5)).crawl(small_env)
    assert [r.url for r in a.trace.records] == [r.url for r in b.trace.records]


def test_different_seeds_differ(small_env):
    a = sb_classifier(SBConfig(seed=5)).crawl(small_env)
    b = sb_classifier(SBConfig(seed=6)).crawl(small_env)
    assert [r.url for r in a.trace.records] != [r.url for r in b.trace.records]


def test_redirects_followed_once(small_env):
    result = sb_oracle(SBConfig(seed=1)).crawl(small_env)
    redirect_urls = {
        p.url for p in small_env.graph.pages() if p.kind is PageKind.REDIRECT
    }
    if redirect_urls:
        canonical = {
            small_env.graph.page(u).redirect_to for u in redirect_urls
        }
        fetched = {r.url for r in result.trace.records}
        assert canonical <= fetched


def test_info_payload(small_env):
    result = sb_classifier(SBConfig(seed=1)).crawl(small_env)
    assert result.info["n_actions"] > 1
    assert len(result.info["top10_rewards"]) <= 10
    assert result.info["confusion"].total > 0


def test_early_stopping_reduces_requests(deep_env):
    base = sb_classifier(SBConfig(seed=1)).crawl(deep_env)
    es = SBCrawler(
        SBConfig(
            seed=1,
            early_stopping=True,
            es_window=30,
            es_threshold=0.2,
            es_decay=0.1,
            es_patience=4,
        )
    )
    stopped = es.crawl(deep_env)
    assert stopped.n_requests <= base.n_requests
    if stopped.stopped_early:
        assert stopped.trace.stopped_early_at is not None


def test_names():
    assert sb_oracle().name == "SB-ORACLE"
    assert sb_classifier().name == "SB-CLASSIFIER"
    assert SBCrawler(SBConfig(), name="custom").name == "custom"


def test_with_seed_helper():
    config = SBConfig(seed=1)
    assert config.with_seed(9).seed == 9
    assert config.seed == 1


def test_custom_target_mime_set(small_site):
    """The target definition is user-configurable (Sec. 2.2)."""
    from repro.http.environment import CrawlEnvironment

    csv_only = frozenset({"text/csv", "text/comma-separated-values"})
    env = CrawlEnvironment(small_site, target_mimes=csv_only)
    result = sb_oracle(SBConfig(seed=1)).crawl(env)
    assert result.targets == env.target_urls()
    for url in result.targets:
        assert small_site.page(url).mime_type in csv_only
    # Restricting the target set yields fewer targets than the default.
    full_env = CrawlEnvironment(small_site)
    assert env.total_targets() < full_env.total_targets()


def test_alternative_bandit_policies_crawl_fully(small_env):
    """ε-greedy and Thompson variants (Appendix C) complete the crawl."""
    for policy in ("epsilon-greedy", "thompson"):
        result = sb_oracle(SBConfig(seed=1, bandit_policy=policy)).crawl(small_env)
        assert result.targets == small_env.target_urls(), policy


def test_unknown_bandit_policy_rejected(small_env):
    import pytest

    with pytest.raises(ValueError):
        sb_oracle(SBConfig(bandit_policy="bogus")).crawl(small_env)


def _recording_classifier(monkeypatch):
    """Record the URLs the online classifier predicts and labels, and
    the hashed_bow calls it makes."""
    import repro.core.url_classifier as url_classifier

    log = {"classified": set(), "labelled": set(), "targets_or_html": 0,
           "hashed_bow": 0}
    classify = url_classifier.OnlineUrlClassifier.classify
    add_labeled = url_classifier.OnlineUrlClassifier.add_labeled
    hashed_bow = url_classifier.hashed_bow

    def recording_classify(self, url, context=None):
        log["classified"].add(url)
        return classify(self, url, context)

    def recording_add_labeled(self, url, label, context=None):
        log["labelled"].add(url)
        log["targets_or_html"] += label is not url_classifier.UrlClass.NEITHER
        return add_labeled(self, url, label, context)

    def counting_hashed_bow(*args, **kwargs):
        log["hashed_bow"] += 1
        return hashed_bow(*args, **kwargs)

    monkeypatch.setattr(url_classifier.OnlineUrlClassifier, "classify",
                        recording_classify)
    monkeypatch.setattr(url_classifier.OnlineUrlClassifier, "add_labeled",
                        recording_add_labeled)
    monkeypatch.setattr(url_classifier, "hashed_bow", counting_hashed_bow)
    return log


def test_pending_vectors_only_for_classified_never_labelled_urls(monkeypatch):
    """After a whole-site crawl the classifier keeps a discovery-time
    vector only for URLs it predicted but no response labelled
    (redirect sources, unfetched links): no labelled URL stays."""
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.sites import load_paper_site

    log = _recording_classifier(monkeypatch)
    crawler = sb_classifier(SBConfig(seed=1))
    crawler.crawl(CrawlEnvironment(load_paper_site("ju", scale=0.1)))
    pending = set(crawler._classifier._pending)
    assert log["classified"] and log["labelled"]
    assert pending == log["classified"] - log["labelled"]
    assert pending, "the site has redirect sources: some vectors stay"


@pytest.mark.parametrize("feature_set", ["URL_ONLY", "URL_CONT"])
def test_each_link_featurised_once(monkeypatch, feature_set):
    """Guard against double featurisation: discovery builds a link's
    vector, its GET label reuses it.  The extra calls are for links
    classified but never labelled HTML or Target (error pages, redirect
    sources); two per label would mean every link is featurised twice."""
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.sites import load_paper_site

    log = _recording_classifier(monkeypatch)
    crawler = sb_classifier(SBConfig(seed=1, feature_set=feature_set))
    crawler.crawl(CrawlEnvironment(load_paper_site("be", scale=0.1)))
    # URL_CONT builds four bags per vector (URL, anchor, DOM path, text)
    bags = 1 if feature_set == "URL_ONLY" else 4
    assert log["targets_or_html"] > 100
    assert log["hashed_bow"] / log["targets_or_html"] <= 1.1 * bags
