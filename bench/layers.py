"""Turn recorded spans into per-layer metrics and a Chrome trace.

A layer's *self time* is the part of its spans' durations that none of
their child spans cover.  Spans are clipped to the measured window
first, so a server's requests outside the load window do not count.
The ``cli`` span wraps a whole CLI command; it is not a layer, so the
time only it covers is reported as unaccounted.

A span is ``[layer, start, end, parent index, thread id, attrs]``.
"""

import bisect
import json
import os

#: Span names, one per wrapped layer boundary, in report order.
LAYERS = ("tracegen", "trace.pack", "cache", "prepass", "replay", "legacy",
          "legacy.build", "metrics", "store.load_result",
          "store.load_prepass", "store.load_trace", "store.save_result",
          "store.save_prepass", "store.save_trace", "store.lock_wait",
          "journal.record", "executor", "figures", "table2", "export",
          "serve.http", "serve.handler", "serve.figure", "serve.sweep")

#: Layers whose call counts are reported.
COUNTED = ("tracegen", "prepass", "replay", "legacy", "store.load_result",
           "journal.record")

#: Layers whose spans carry the instructions they processed (``n``).
THROUGHPUT = ("tracegen", "prepass", "legacy")

#: The catch-all span around a whole CLI command.
ROOT = "cli"


def load_processes(directory):
    """Every ``spans-<pid>.json`` a traced run left in ``directory``."""
    processes = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                processes.append(json.load(handle))
    return processes


def with_client_spans(server, requests):
    """The server's spans under the client's request spans, as one process.

    ``requests`` holds ``(kind, sent, received)`` per HTTP request the
    harness made, ``kind`` being ``"figure"`` or ``"sweep"``.  Each one
    becomes a ``serve.http`` span, and the server's ``serve.handler``
    span that answered it (the one with a ``serve.<kind>`` child, inside
    the request's interval) becomes its child, so the request span's
    self time is the time spent outside the server's handler: on the
    wire and in the TCP stack.  The merged process is the main one.
    """
    threads = {"figure": 1, "sweep": 2}
    client = [["serve.http", sent, received, -1, threads[kind], None]
              for kind, sent, received in requests]
    offset = len(client)
    spans = [[layer, start, end, parent + offset if parent >= 0 else -1,
              tid, attrs]
             for layer, start, end, parent, tid, attrs in server["spans"]]
    starts = {kind: sorted((span[1], i) for i, span in enumerate(client)
                           if span[4] == tid)
              for kind, tid in threads.items()}
    for span in spans:
        kind = span[0][len("serve."):]
        if kind not in threads or span[3] < 0:
            continue
        handler = spans[span[3] - offset]
        if handler[0] != "serve.handler" or handler[3] >= 0:
            continue
        pos = bisect.bisect_right(starts[kind], (handler[1], float("inf")))
        if pos and handler[2] <= client[starts[kind][pos - 1][1]][2]:
            handler[3] = starts[kind][pos - 1][1]
    return dict(server, spans=client + spans, main=True)


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def clip(spans, window):
    """``(start, end)`` of each span inside ``window`` (None if outside)."""
    low, high = window
    out = []
    for span in spans:
        start, end = max(span[1], low), min(span[2], high)
        out.append((start, end) if end > start else None)
    return out


def self_times(spans, window):
    """Self time of each span of one process, clipped to ``window``."""
    bounds = clip(spans, window)
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0 and bounds[index] is not None:
            children[parent].append(bounds[index])
    result = []
    for index, interval in enumerate(bounds):
        if interval is None:
            result.append(0.0)
            continue
        start, end = interval
        covered = union_length([(max(s, start), min(e, end))
                                for s, e in children[index]
                                if min(e, end) > max(s, start)])
        result.append(end - start - covered)
    return result


def layer_metrics(processes, window, pool_jobs=1):
    """Per-layer metrics of one traced repetition.

    ``window`` is the measured interval on the shared monotonic clock;
    ``pool_jobs`` is the worker count ``pool.utilization`` divides by.
    Coverage is the part of the window some layer span of the main
    process covers; pool workers run beside it.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    work = dict.fromkeys(THROUGHPUT, 0)
    hits = {"store.load_result": [0, 0], "store.load_prepass": [0, 0]}
    counters = {}
    instructions = cycles = 0
    job_wall = 0.0
    covered = 0.0
    spans_total = 0
    for process in processes:
        spans = process["spans"]
        spans_total += len(spans)
        for span, own in zip(spans, self_times(spans, window)):
            layer, attrs = span[0], span[5] or {}
            if layer not in self_s:
                continue
            self_s[layer] += own
            calls[layer] += 1
            if layer in work:
                work[layer] += attrs.get("n", 0)
            if layer in hits:
                hits[layer][0 if attrs.get("hit") else 1] += 1
            if layer in ("replay", "legacy"):
                instructions += attrs.get("instructions", 0)
                cycles += attrs.get("cycles", 0)
            if layer == "journal.record":
                job_wall += attrs.get("job_wall", 0.0)
        for key, value in process.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        if process.get("main"):
            covered = union_length([
                interval for span, interval in zip(spans, clip(spans, window))
                if interval is not None and span[0] != ROOT])
    wall = window[1] - window[0]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = self_s[layer]
    for layer in COUNTED:
        metrics[layer + ".calls"] = calls[layer]
    for layer in THROUGHPUT:
        metrics[layer + ".inst_per_s"] = ratio(work[layer], self_s[layer])
    evaluations = calls["replay"] + calls["legacy"]
    metrics["replay.envelope_frac"] = ratio(calls["replay"], evaluations)
    metrics["cache.hit_rate"] = ratio(
        counters.get("cache.hits", 0),
        counters.get("cache.hits", 0) + counters.get("cache.misses", 0))
    metrics["cache.gen_s"] = counters.get("cache.gen_s", 0.0)
    for layer, name in (("store.load_result", "store.result_hit_rate"),
                        ("store.load_prepass", "store.prepass_hit_rate")):
        metrics[name] = ratio(hits[layer][0], sum(hits[layer]))
    metrics["store.bytes_written"] = counters.get("store.bytes_written", 0)
    metrics["pool.utilization"] = ratio(job_wall, wall * pool_jobs)
    metrics["sim.evaluations"] = evaluations
    metrics["sim.instructions"] = instructions
    metrics["sim.cycles"] = cycles
    metrics["trace.coverage_pct"] = 100.0 * ratio(covered, wall)
    metrics["trace.unaccounted_s"] = max(0.0, wall - covered)
    metrics["trace.spans"] = spans_total
    return metrics


def chrome_trace(processes, window, workload):
    """The spans as a Chrome trace-event document (open in Perfetto)."""
    origin = window[0]
    events = []
    for process in processes:
        pid = process["pid"]
        role = "main" if process.get("main") else "worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": "%s %s %d" % (workload, role, pid)}})
        for layer, start, end, _parent, tid, attrs in process["spans"]:
            events.append({"name": layer, "ph": "X", "pid": pid,
                           "tid": tid, "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6,
                           "args": attrs or {}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
