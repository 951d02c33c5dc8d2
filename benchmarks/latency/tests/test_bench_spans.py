import json

import pytest

from spans import SpanRecorder


def test_durations_are_taken_by_span_name():
    recorder = SpanRecorder()
    root = recorder.add("client.request", "client", 0, 0.0, 0.100)
    recorder.add("client.submit", "client", 0, 0.0, 0.010, root)
    recorder.add("client.done", "client", 0, 0.010, 0.095, root)
    assert recorder.durations_ms("client.done") == [pytest.approx(85.0)]
    assert recorder.spans[1].parent == root


def test_a_recorder_that_is_off_keeps_nothing():
    recorder = SpanRecorder.off()
    assert recorder.add("x.y", "x", 0, 0.0, 1.0) is None
    with recorder.span("x.z", "x", 0) as index:
        assert index is None
    assert recorder.spans == []


def test_chrome_trace_has_one_row_per_request(tmp_path):
    recorder = SpanRecorder()
    for rid in range(3):
        with recorder.span("client.request", "client", rid) as root:
            with recorder.span("client.submit", "client", rid, root):
                pass
    with recorder.span("server.request", "server", 0):
        pass
    path = tmp_path / "trace.json"
    recorder.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    rows = [e for e in events if e["name"] == "thread_name"]
    assert len(rows) == 4       # 3 client requests + 1 server request
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 7
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in spans)
    assert {e["args"]["name"] for e in events
            if e["name"] == "process_name"} == {"client", "server"}
