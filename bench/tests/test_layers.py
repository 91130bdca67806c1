"""Self-time arithmetic of the layer report."""

import os

import pytest

import spans
from layers import (layer_metrics, self_times, union_length,
                    with_client_spans)


def span(layer, start, end, parent=-1, attrs=None):
    return [layer, start, end, parent, 1, attrs]


def test_union_merges_overlaps_and_keeps_gaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_nested_spans_subtract_only_direct_children():
    spans = [span("executor", 0.0, 10.0),
             span("prepass", 1.0, 5.0, parent=0),
             span("trace.pack", 2.0, 3.0, parent=1)]
    assert self_times(spans, (0.0, 10.0)) == pytest.approx([6.0, 3.0, 1.0])


def test_sibling_spans_are_each_subtracted_once():
    spans = [span("figures", 0.0, 10.0),
             span("replay", 1.0, 3.0, parent=0),
             span("legacy", 3.0, 7.0, parent=0)]
    assert self_times(spans, (0.0, 10.0)) == pytest.approx([4.0, 2.0, 4.0])


def test_spans_are_clipped_to_the_window():
    spans = [span("serve.http", 0.0, 4.0),
             span("serve.figure", 1.0, 3.0, parent=0)]
    assert self_times(spans, (2.0, 10.0)) == pytest.approx([1.0, 1.0])


def test_worker_spans_add_their_own_self_time():
    main = {"pid": 1, "main": True, "counters": {},
            "spans": [span("cli", 0.0, 10.0),
                      span("executor", 1.0, 9.0, parent=0),
                      span("journal.record", 8.0, 9.0, parent=1,
                           attrs={"job_wall": 6.0})]}
    worker = {"pid": 2, "main": False,
              "counters": {"cache.hits": 3, "cache.misses": 1},
              "spans": [span("tracegen", 2.0, 4.0, attrs={"n": 1000}),
                        span("replay", 4.0, 7.0,
                             attrs={"instructions": 10, "cycles": 40})]}
    metrics = layer_metrics([main, worker], (0.0, 10.0), pool_jobs=2)
    assert metrics["executor.self_s"] == pytest.approx(7.0)
    assert metrics["journal.record.self_s"] == pytest.approx(1.0)
    assert metrics["tracegen.self_s"] == pytest.approx(2.0)
    assert metrics["replay.self_s"] == pytest.approx(3.0)
    assert metrics["tracegen.inst_per_s"] == pytest.approx(500.0)
    assert metrics["cache.hit_rate"] == pytest.approx(0.75)
    assert metrics["pool.utilization"] == pytest.approx(6.0 / 20.0)
    assert metrics["replay.envelope_frac"] == 1.0
    assert metrics["sim.cycles"] == 40
    # Coverage counts the main process's layers only; the cli span is
    # not a layer, so the 2 s only it covers are unaccounted.
    assert metrics["trace.coverage_pct"] == pytest.approx(80.0)
    assert metrics["trace.unaccounted_s"] == pytest.approx(2.0)


def test_a_wrapped_call_that_raises_keeps_its_exception(tmp_path):
    class Layer:
        @staticmethod
        def run(n):
            if n < 0:
                raise ValueError("negative")
            return n * 2

    recorder = spans.Recorder(str(tmp_path), main_pid=os.getpid())
    spans._wrap(recorder, Layer, "run", "layer",
                lambda args, result: {"n": result})
    assert Layer.run(3) == 6
    with pytest.raises(ValueError, match="negative"):
        Layer.run(-1)
    (_, _, ok_end, _, _, ok_attrs), (_, _, err_end, _, _, err_attrs) = \
        recorder.spans
    assert ok_attrs == {"n": 6} and ok_end is not None
    assert err_attrs is None and err_end is not None
    assert recorder._stack() == []


def test_client_request_spans_take_the_server_handler_as_child():
    server = {"pid": 7, "main": True, "counters": {},
              "spans": [span("serve.handler", 1.0, 2.0),
                        span("serve.figure", 1.2, 1.8, parent=0),
                        span("serve.handler", 3.5, 4.5),
                        span("serve.sweep", 3.6, 4.4, parent=2)]}
    requests = [("figure", 0.5, 3.0), ("sweep", 3.0, 5.0)]
    merged = with_client_spans(server, requests)
    assert merged["main"]
    assert [s[3] for s in merged["spans"]] == [-1, -1, 0, 2, 1, 4]
    metrics = layer_metrics([merged], (0.0, 6.0))
    # Request time outside the handler is time on the wire.
    assert metrics["serve.http.self_s"] == pytest.approx(1.5 + 1.0)
    assert metrics["serve.handler.self_s"] == pytest.approx(0.4 + 0.2)
    assert metrics["serve.figure.self_s"] == pytest.approx(0.6)
    assert metrics["trace.unaccounted_s"] == pytest.approx(1.5)
