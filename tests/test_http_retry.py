"""Tests for Retry-After parsing and the client's retry/backoff loop."""

import datetime

import pytest

from repro.http.client import HttpClient, RetryPolicy
from repro.http.ledger import CostLedger
from repro.http.messages import (
    TIMEOUT_STATUS,
    TRANSIENT_STATUSES,
    Response,
    parse_retry_after,
)
from repro.obs.sinks import MemorySink
from repro.utils.rng import derive_rng


# -- parse_retry_after ------------------------------------------------------

def test_delta_seconds():
    assert parse_retry_after("120") == 120.0
    assert parse_retry_after(" 42 ") == 42.0
    assert parse_retry_after("0") == 0.0


def test_negative_delta_clamps_to_zero():
    assert parse_retry_after("-5") == 0.0


def test_garbage_returns_none():
    assert parse_retry_after("soon") is None
    assert parse_retry_after("") is None
    assert parse_retry_after("   ") is None
    assert parse_retry_after("1.5") is None  # RFC delta-seconds is integral


def test_http_date_needs_explicit_now():
    header = "Wed, 21 Oct 2015 07:30:00 GMT"
    # no reference instant: the caller must not read the clock (DET002),
    # so the date form degrades to "no usable value"
    assert parse_retry_after(header) is None
    now = datetime.datetime(
        2015, 10, 21, 7, 28, 0, tzinfo=datetime.timezone.utc
    )
    assert parse_retry_after(header, now=now) == 120.0


def test_http_date_in_the_past_clamps_to_zero():
    header = "Wed, 21 Oct 2015 07:28:00 GMT"
    now = datetime.datetime(
        2015, 10, 21, 9, 0, 0, tzinfo=datetime.timezone.utc
    )
    assert parse_retry_after(header, now=now) == 0.0


def test_naive_now_treated_as_utc():
    header = "Wed, 21 Oct 2015 07:29:00 GMT"
    now = datetime.datetime(2015, 10, 21, 7, 28, 0)  # naive
    assert parse_retry_after(header, now=now) == 60.0


def test_response_retry_after_accessor():
    response = Response(url="u", method="GET", status=429,
                        headers={"Retry-After": "7"})
    assert response.retry_after_seconds() == 7.0
    assert Response(url="u", method="GET", status=429).retry_after_seconds() is None


# -- transient / permanent classification -----------------------------------

def test_transient_statuses_cover_the_contract():
    assert {429, 500, 502, 503, 504, TIMEOUT_STATUS} == set(TRANSIENT_STATUSES)
    assert Response(url="u", method="GET", status=503).is_transient_error
    assert Response(url="u", method="GET", status=404).is_permanent_error
    truncated = Response(url="u", method="GET", status=200, truncated=True)
    assert truncated.is_transient_error
    assert not truncated.is_permanent_error


# -- RetryPolicy maths ------------------------------------------------------

def test_backoff_doubles_and_caps():
    policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=4.0,
                         jitter=0.0)
    rng = derive_rng(0, "t")
    delays = [policy.backoff_delay(k, rng) for k in (1, 2, 3, 4, 5)]
    assert delays == [0.5, 1.0, 2.0, 4.0, 4.0]


def test_jitter_is_bounded_and_seeded():
    policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.2)
    a = [policy.backoff_delay(1, derive_rng(5, "j")) for _ in range(1)]
    b = [policy.backoff_delay(1, derive_rng(5, "j")) for _ in range(1)]
    assert a == b  # same stream, same jitter
    for _ in range(50):
        rng = derive_rng(5, "j")
        delay = policy.backoff_delay(1, rng)
        assert 0.8 <= delay <= 1.2


def test_retry_wait_raised_to_retry_after():
    policy = RetryPolicy(base_delay=0.5, jitter=0.0)
    response = Response(url="u", method="GET", status=429,
                        headers={"Retry-After": "10"})
    assert policy.retry_wait(1, response, derive_rng(0, "t")) == 10.0


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)


# -- the client retry loop --------------------------------------------------

class ScriptedServer:
    """Serves a fixed sequence of responses, whatever the URL."""

    def __init__(self, graph, responses):
        self.graph = graph
        self._responses = list(responses)

    def get(self, url, blocklist_mime=True):
        return self._responses.pop(0)

    def head(self, url):
        return self._responses.pop(0)


def _resp(status, **kwargs):
    return Response(url="https://www.testsite.example/p", method="GET",
                    status=status, **kwargs)


def test_transient_failure_retried_until_success(small_site):
    server = ScriptedServer(small_site, [_resp(503), _resp(503), _resp(200)])
    sink = MemorySink()
    client = HttpClient(server, observer=sink,
                        retry_policy=RetryPolicy(seed=1, jitter=0.0))
    response = client.get("https://www.testsite.example/p")
    assert response.ok
    assert client.n_requests == 3          # every attempt is a request
    assert client.ledger.n_retries == 2
    events = sink.of_kind("retry_scheduled")
    assert [e.attempt for e in events] == [1, 2]
    assert events[0].reason == "status_503"
    assert client.ledger.wait_seconds > 0


def test_no_policy_means_no_retry(small_site):
    server = ScriptedServer(small_site, [_resp(503), _resp(200)])
    client = HttpClient(server)
    response = client.get("https://www.testsite.example/p")
    assert response.status == 503
    assert client.n_requests == 1
    assert not response.abandoned


def test_permanent_error_not_retried(small_site):
    server = ScriptedServer(small_site, [_resp(404), _resp(200)])
    client = HttpClient(server, retry_policy=RetryPolicy(seed=1))
    response = client.get("https://www.testsite.example/p")
    assert response.status == 404
    assert client.n_requests == 1


def test_exhausted_attempts_abandon_the_request(small_site):
    server = ScriptedServer(small_site, [_resp(503)] * 3)
    sink = MemorySink()
    client = HttpClient(server, observer=sink,
                        retry_policy=RetryPolicy(seed=1, max_attempts=3,
                                                 jitter=0.0))
    response = client.get("https://www.testsite.example/p")
    assert response.abandoned
    assert client.n_requests == 3
    abandoned = sink.of_kind("request_abandoned")
    assert len(abandoned) == 1
    assert abandoned[0].attempts == 3
    assert abandoned[0].reason == "status_503"


def test_retry_budget_bounds_total_retries(small_site):
    server = ScriptedServer(small_site, [_resp(503)] * 10)
    policy = RetryPolicy(seed=1, max_attempts=4, total_budget=1, jitter=0.0)
    client = HttpClient(server, retry_policy=policy)
    first = client.get("https://www.testsite.example/p")
    assert first.abandoned
    assert client.ledger.n_retries == 1    # budget spent
    second = client.get("https://www.testsite.example/p")
    assert second.abandoned                # no budget left: single attempt
    assert client.n_requests == 3


def test_retry_after_header_stretches_the_wait(small_site):
    flaky = _resp(429, headers={"Retry-After": "10"})
    server = ScriptedServer(small_site, [flaky, _resp(200)])
    sink = MemorySink()
    client = HttpClient(server, observer=sink,
                        retry_policy=RetryPolicy(seed=1, base_delay=0.1,
                                                 jitter=0.0))
    client.get("https://www.testsite.example/p")
    event = sink.of_kind("retry_scheduled")[0]
    assert event.wait_seconds == 10.0
    assert client.ledger.wait_seconds == 10.0


def test_ledger_retry_accounting():
    ledger = CostLedger()
    ledger.record_retry(2.5)
    ledger.record_wait(1.5)
    assert ledger.n_retries == 1
    assert ledger.wait_seconds == 4.0
    with pytest.raises(ValueError):
        ledger.record_wait(-1.0)
    snapshot = ledger.snapshot()
    assert snapshot.n_retries == 1
    assert snapshot.wait_seconds == 4.0
