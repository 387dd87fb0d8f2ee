"""Tests for cost accounting."""

import pytest

from repro.http.ledger import CostLedger


def test_record_and_totals():
    ledger = CostLedger()
    ledger.record("GET", 1000, is_target=False)
    ledger.record("GET", 5000, is_target=True)
    ledger.record("HEAD", 280, is_target=False)
    assert ledger.n_requests == 3
    assert ledger.n_get == 2
    assert ledger.n_head == 1
    assert ledger.bytes_total == 6280
    assert ledger.bytes_target == 5000
    assert ledger.bytes_non_target == 1280


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        CostLedger().record("POST", 10, False)


def test_snapshot_is_independent():
    ledger = CostLedger()
    ledger.record("GET", 10, False)
    snap = ledger.snapshot()
    ledger.record("GET", 10, False)
    assert snap.n_get == 1
    assert ledger.n_get == 2


# -- merge fold (campaign shard aggregation) --------------------------------


def _ledger(n_get=0, n_head=0, size=0, target=False, retries=0, wait=0.0):
    ledger = CostLedger()
    for _ in range(n_get):
        ledger.record("GET", size, target)
    for _ in range(n_head):
        ledger.record("HEAD", size, target)
    for _ in range(retries):
        ledger.record_retry(wait)
    return ledger


def test_merge_adds_every_counter():
    a = _ledger(n_get=2, size=100, target=True, retries=1, wait=0.5)
    b = _ledger(n_head=3, size=10, retries=2, wait=0.25)
    a.merge(b)
    assert a.n_get == 2 and a.n_head == 3
    assert a.n_requests == 5
    assert a.bytes_total == 230
    assert a.bytes_target == 200 and a.bytes_non_target == 30
    assert a.n_retries == 3
    assert a.wait_seconds == 1.0


def test_merge_empty_is_identity():
    ledger = _ledger(n_get=4, size=123, retries=2, wait=0.5)
    before = ledger.snapshot()
    ledger.merge(CostLedger())
    assert ledger == before
    empty = CostLedger()
    empty.merge(before)
    assert empty == before


def test_merge_is_associative_and_commutative():
    # Dyadic-rational waits make the float sums exact, so equality is
    # legitimate — the property the campaign digest contract rests on.
    def parts():
        return (
            _ledger(n_get=3, size=50, target=True, retries=1, wait=0.5),
            _ledger(n_head=2, size=7, retries=2, wait=0.25),
            _ledger(n_get=1, size=999, wait=0.0),
        )

    a, b, c = parts()
    left = CostLedger().merge(CostLedger().merge(a).merge(b)).merge(c)
    a, b, c = parts()
    right = CostLedger().merge(a).merge(CostLedger().merge(b).merge(c))
    assert left == right
    a, b, c = parts()
    reversed_order = CostLedger().merge(c).merge(b).merge(a)
    assert reversed_order == left


def test_merge_returns_self_for_chaining():
    total = CostLedger()
    assert total.merge(_ledger(n_get=1, size=1)) is total
