"""JsonlSink durability: traces survive crawler crashes intact."""

import json

import pytest

from repro.obs.events import FetchEvent
from repro.obs.sinks import JsonlSink, read_events


def _event(ordinal: int) -> FetchEvent:
    return FetchEvent(ordinal=ordinal, method="GET",
                      url=f"https://s.example/p{ordinal}", status=200,
                      size=100, is_target=False)


def test_events_written_before_a_crash_are_readable(tmp_path):
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError):
        with JsonlSink(path) as sink:
            for i in range(1, 4):
                sink.on_event(_event(i))
            raise RuntimeError("crawler died mid-run")
    # the context manager closed the file despite the exception
    assert sink.closed
    _, events = read_events(path)
    assert [e.ordinal for e in events] == [1, 2, 3]


def test_lines_are_flushed_as_written_without_close(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    sink.on_event(_event(1))
    # line buffering: the event is on disk while the sink is still open
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2  # header + event
    assert json.loads(lines[1])["e"] == "fetch"
    sink.close()


def test_close_is_idempotent(tmp_path):
    sink = JsonlSink(tmp_path / "trace.jsonl")
    sink.close()
    sink.close()
    assert sink.closed


def test_events_after_close_fail_loudly(tmp_path):
    sink = JsonlSink(tmp_path / "trace.jsonl")
    sink.close()
    with pytest.raises(ValueError):
        sink.on_event(_event(1))


def test_flush_is_safe_before_and_after_close(tmp_path):
    sink = JsonlSink(tmp_path / "trace.jsonl")
    sink.on_event(_event(1))
    sink.flush()
    sink.close()
    sink.flush()  # no-op, must not raise


def test_every_event_kind_writes_the_same_bytes_as_json_dumps(tmp_path):
    """The sink reuses one compact encoder and a per-class field tuple;
    each line must stay what ``json.dumps`` over ``dataclasses.fields``
    wrote, for every event kind and awkward string values."""
    from dataclasses import fields

    from repro.obs.events import EVENT_TYPES

    samples = {"int": -7, "float": 0.1, "bool": True,
               "str": 'é "q" \\ \t\u2028 </s>'}
    events = [
        cls(**{f.name: samples[f.type] for f in fields(cls)})
        for cls in EVENT_TYPES.values()
    ]
    meta = {"site": "é", "seed": 3}
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path, meta=meta) as sink:
        for event in events:
            sink.on_event(event)

    def old_line(event):
        payload = {"e": event.kind}
        for f in fields(event):
            payload[f.name] = getattr(event, f.name)
        return json.dumps(payload, separators=(",", ":")) + "\n"

    header = {"format": 1, "stream": "repro.obs", **meta}
    expected = json.dumps(header, separators=(",", ":")) + "\n"
    expected += "".join(old_line(event) for event in events)
    assert path.read_text(encoding="utf-8") == expected
