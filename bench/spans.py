"""Time calls into the program's layers from outside the program.

:func:`install` wraps each layer's public function at the place the
program looks it up (a module attribute read at call time, or a class
attribute) and records one span per call: layer name, start, end, the
span that was open on the same thread when it started, thread id and a
few counts taken from the call's arguments or result.  Spans stay in
memory and each process writes its own ``spans-<pid>.json`` when it
ends.  Forked pool workers start with an empty buffer and flush through
a ``multiprocessing.util.Finalize``, because pool workers leave through
``os._exit`` and never run ``atexit`` handlers.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans from different processes and the
harness's own timestamps share one time base.
"""

import functools
import json
import os
import threading
import time


class Recorder:
    """Per-process span buffer."""

    def __init__(self, out_dir, main_pid):
        self.out_dir = out_dir
        self.main_pid = main_pid
        self.spans = []   # [layer, start, end, parent span, tid, attrs]
        self._local = threading.local()
        self._pid = os.getpid()
        self._finalizer_pid = main_pid
        self._flushed = False
        self._base = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer):
        stack = self._stack()
        span = [layer, time.perf_counter(), None,
                stack[-1] if stack else None, threading.get_ident(), None]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span, end, attrs=None):
        span[2] = end
        span[5] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if self._finalizer_pid != self._pid:
            # Registered on the first span a forked worker closes:
            # multiprocessing clears its finalizer registry right after
            # fork, so one registered from the fork hook would be lost.
            from multiprocessing.util import Finalize
            self._finalizer_pid = self._pid
            Finalize(None, self.flush, exitpriority=100)

    def after_fork(self):
        """Child side of a fork: drop the parent's spans and open stacks."""
        self.spans = []
        self._local = threading.local()
        self._pid = os.getpid()
        self._flushed = False
        self._base = _counters()

    def flush(self):
        """Write this process's spans once; later calls do nothing."""
        if self._flushed or os.getpid() != self._pid:
            return
        self._flushed = True
        started = time.perf_counter()
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[layer, start, end,
                 index[id(parent)] if parent is not None else -1,
                 tid, attrs]
                for layer, start, end, parent, tid, attrs in self.spans
                if end is not None]
        counters = {key: value - self._base.get(key, 0)
                    for key, value in _counters().items()}
        payload = {"pid": self._pid, "main": self._pid == self.main_pid,
                   "flush_start": started, "spans": rows,
                   "counters": counters}
        path = os.path.join(self.out_dir, "spans-%d.json" % self._pid)
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


def _counters():
    """This process's trace-cache and artifact-store counters."""
    from repro.exec.cache import GLOBAL_CACHE
    from repro.exec.store import active_store

    stats = GLOBAL_CACHE.stats()
    counters = {"cache.hits": stats["hits"], "cache.misses": stats["misses"],
                "cache.gen_s": stats["gen_seconds"]}
    store = active_store()
    if store is not None:
        counters["store.bytes_written"] = store.counters["bytes_written"]
    return counters


def _wrap(recorder, owner, attr, layer, attrs=None):
    """Replace ``owner.attr`` by a function that records one span per call.

    ``attrs(args, result)`` runs after the span's end time is taken, so
    its cost is charged to the caller, not to the layer.  It runs only
    when the call returned: a call that raised has no result to count,
    and its exception must reach the caller unchanged.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = recorder.open(layer)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.close(span, time.perf_counter())
            raise
        end = time.perf_counter()
        recorder.close(span, end, attrs(args, result) if attrs else None)
        return result

    setattr(owner, attr, traced)


def _wrap_lock_wait(recorder, owner):
    """Span only the acquisition half of ``ArtifactStore.single_flight``."""
    original = owner.single_flight

    class _Timed:
        def __init__(self, context):
            self.context = context

        def __enter__(self):
            span = recorder.open("store.lock_wait")
            try:
                return self.context.__enter__()
            finally:
                recorder.close(span, time.perf_counter())

        def __exit__(self, *exc):
            return self.context.__exit__(*exc)

    @functools.wraps(original)
    def traced(self, tier, name):
        return _Timed(original(self, tier, name))

    owner.single_flight = traced


def _wrap_handler(recorder, module):
    """Span ``do_GET`` of every handler class ``module.make_handler`` builds.

    ``handle_one_request`` would also time the wait for the next request
    on a keep-alive connection; ``do_GET`` starts once it has arrived.
    """
    original = module.make_handler

    @functools.wraps(original)
    def traced(service):
        handler = original(service)
        _wrap(recorder, handler, "do_GET", "serve.handler")
        return handler

    module.make_handler = traced


def _result_counts(args, result):
    return {"instructions": result.instructions, "cycles": result.cycles}


def _legacy_counts(args, result):
    return dict(_result_counts(args, result), n=len(args[1]))


def _hit(args, result):
    return {"hit": result is not None}


def _job_wall(args, result):
    accounting = getattr(args[2], "accounting", None) or {}
    return {"job_wall": accounting.get("wall_seconds", 0.0)}


def install(out_dir):
    """Patch every layer boundary; returns the process's Recorder."""
    import repro.cli
    import repro.cpu.core
    import repro.cpu.prepass
    import repro.cpu.shared_kernel
    import repro.exec.cache
    import repro.exec.executor
    import repro.experiments.figures
    import repro.experiments.table2
    import repro.obs
    import repro.obs.export
    import repro.serve.http
    import repro.serve.service
    import repro.sim.checkpoint
    import repro.sim.metrics
    import repro.sim.runner
    import repro.workloads.trace
    from repro.exec.store import ArtifactStore

    recorder = Recorder(out_dir, os.getpid())
    os.register_at_fork(after_in_child=recorder.after_fork)
    wrap = functools.partial(_wrap, recorder)

    wrap(repro.exec.cache, "generate_trace", "tracegen",
         lambda args, result: {"n": args[1]})
    wrap(repro.workloads.trace.Trace, "packed", "trace.pack")
    wrap(repro.exec.executor, "cached_trace", "cache")
    wrap(repro.cpu.prepass, "build_prepass", "prepass",
         lambda args, result: {"n": len(args[0])})
    wrap(repro.cpu.shared_kernel, "replay_policy", "replay", _result_counts)
    wrap(repro.cpu.core.TimestampCore, "run", "legacy", _legacy_counts)
    wrap(repro.sim.runner, "build_simulator", "legacy.build")
    wrap(repro.sim.metrics, "collect_metrics", "metrics")
    for tier in ("result", "prepass", "trace"):
        wrap(ArtifactStore, "load_" + tier, "store.load_" + tier, _hit)
        wrap(ArtifactStore, "save_" + tier, "store.save_" + tier)
    _wrap_lock_wait(recorder, ArtifactStore)
    wrap(repro.sim.checkpoint.JobJournal, "record", "journal.record",
         _job_wall)
    wrap(repro.exec.executor.Executor, "run", "executor")
    wrap(repro.experiments.figures, "run_figures", "figures")
    wrap(repro.experiments.table2, "emit", "table2")
    # The CLI imports these from the package, run_figures from the module.
    for module in (repro.obs, repro.obs.export):
        for name in ("build_sweep_manifest", "build_figures_manifest",
                     "write_json", "write_json_atomic"):
            if hasattr(module, name):
                wrap(module, name, "export")
    wrap(repro.cli, "main", "cli")
    wrap(repro.serve.service.FigureService, "figure", "serve.figure")
    wrap(repro.serve.service.FigureService, "sweep", "serve.sweep")
    _wrap_handler(recorder, repro.serve.http)
    return recorder
