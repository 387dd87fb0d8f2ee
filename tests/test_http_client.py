"""Tests for the HTTP client: accounting, tracing, boundary enforcement."""

import pytest

from repro.http.client import HttpClient, OffsiteRequestError
from repro.http.server import SimulatedServer
from repro.webgraph.model import PageKind


def test_client_records_trace_and_ledger(small_site):
    server = SimulatedServer(small_site)
    client = HttpClient(server, crawler_name="t")
    client.get(small_site.root_url)
    client.head(small_site.root_url)
    assert client.ledger.n_get == 1
    assert client.ledger.n_head == 1
    assert client.n_requests == 2
    assert len(client.trace) == 2
    assert client.trace.records[0].method == "GET"
    assert client.trace.records[1].method == "HEAD"


def test_target_fetch_flagged_in_trace(small_site):
    server = SimulatedServer(small_site)
    client = HttpClient(server)
    target = next(p for p in small_site.pages() if p.kind is PageKind.TARGET)
    response = client.get(target.url)
    assert response.ok
    record = client.trace.records[-1]
    assert record.is_target
    assert client.ledger.bytes_target == target.size


def test_head_of_target_not_counted_as_target(small_site):
    server = SimulatedServer(small_site)
    client = HttpClient(server)
    target = next(p for p in small_site.pages() if p.kind is PageKind.TARGET)
    client.head(target.url)
    assert not client.trace.records[-1].is_target
    assert client.ledger.bytes_target == 0


def test_offsite_request_rejected(small_site):
    client = HttpClient(SimulatedServer(small_site))
    with pytest.raises(OffsiteRequestError):
        client.get("https://elsewhere.example/page")
    with pytest.raises(OffsiteRequestError):
        client.head("https://elsewhere.example/page")


def test_budget_spent_models(small_site):
    client = HttpClient(SimulatedServer(small_site))
    client.get(small_site.root_url)
    assert client.budget_spent("requests") == 1.0
    assert client.budget_spent("volume") == float(client.bytes_received)
    with pytest.raises(ValueError):
        client.budget_spent("time")


def test_environment_new_clients_are_independent(small_env):
    a = small_env.new_client("a")
    b = small_env.new_client("b")
    a.get(small_env.root_url)
    assert a.n_requests == 1
    assert b.n_requests == 0


def test_environment_parse_cache(small_env):
    client = small_env.new_client()
    response = client.get(small_env.root_url)
    first = small_env.parse(response)
    second = small_env.parse(response)
    assert first is second
    assert first.links
