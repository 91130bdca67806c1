"""The figure server's state machine (transport-agnostic).

:class:`FigureService` answers figure and sweep requests from the
artifacts on disk and the artifact store, and funnels every miss
through one background regeneration worker:

- A *warm* figure is one whose ``<name>.json`` series artifact exists
  in ``out_dir`` (``run_figures`` writes the ``.txt`` first and the
  JSON last, atomically, so the JSON doubles as the completion
  marker).  Warm requests return the artifact file's bytes verbatim --
  byte-identical to what ``repro figures --emit-json`` wrote, because
  it *is* that file.
- A *cold* figure enqueues one regeneration unit and answers 202 with
  a retry hint.  The in-process ``_warming`` set coalesces K
  concurrent clients asking for the same cold figure into one unit,
  and the regeneration itself runs through the normal executor path --
  honouring ``jobs``, the :class:`~repro.exec.retry.FailurePolicy` and
  the store's cross-process single-flight locks -- so one simulation
  serves everyone, even with several servers sharing a store.
- A failed regeneration parks the error; the next request for that
  figure reports it (500) and re-arms the queue, so a transient
  failure never wedges a figure permanently.

Sweep requests build the job grid with the same content-hashed job
specs the CLI uses and answer from the store's result tier: all-hit
grids are 200, partial grids enqueue exactly the missing jobs and
answer 202 with the warm cells inlined.

All methods return ``(status, body, content_type)`` with a dict body
for JSON responses, so the HTTP layer stays a thin skin and tests can
drive the service directly.
"""

import json
import os
import threading
import time

# The warm paths' imports.  A regeneration imports ``run_figures`` (and
# with it every experiment driver and the simulator) when it starts, so
# a server over a warm store never loads them.
from repro.errors import ConfigError
from repro.exec.job import build_jobs
from repro.experiments import ARTIFACT_NAMES

#: Hint clients how long to back off while a figure warms.  Regenerating
#: a figure takes seconds-to-minutes; anything shorter just burns polls.
RETRY_AFTER_SECONDS = 5

JSON_TYPE = "application/json"
TEXT_TYPE = "text/plain; charset=utf-8"


class FigureService:
    """Memoized figure/sweep answering over ``out_dir`` + the store."""

    def __init__(self, out_dir, store=None, num_instructions=12_000,
                 warmup=12_000, jobs=None, failure_policy=None,
                 benchmarks=None, metrics=None, log=None):
        self.out_dir = os.fspath(out_dir)
        self.store = store
        self.num_instructions = num_instructions
        self.warmup = warmup
        self.jobs = jobs
        self.failure_policy = failure_policy
        self.benchmarks = benchmarks
        self.metrics = metrics
        self.log = log if log is not None else (lambda message: None)
        self.started = time.time()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue = []      # unit keys, FIFO
        self._units = {}      # unit key -> payload (sweep job lists)
        self._warming = {}    # unit key -> enqueue timestamp
        self._failed = {}     # unit key -> error string
        self._worker = None
        self._stopping = False
        #: Completed regeneration units (the single-flight test hook).
        self.regenerations = 0
        os.makedirs(self.out_dir, exist_ok=True)
        if metrics is not None and metrics.enabled:
            self._requests = metrics.counter(
                "repro_serve_requests_total",
                "Service requests answered, by endpoint and status",
                ("endpoint", "status"))
            self._regens = metrics.counter(
                "repro_serve_regenerations_total",
                "Regeneration units drained, by outcome", ("outcome",))
        else:
            self._requests = self._regens = None

    # -- lifecycle ------------------------------------------------------

    def close(self):
        """Stop the regeneration worker (pending queue is dropped)."""
        with self._lock:
            self._stopping = True
            self._wakeup.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join(timeout=10.0)

    def _count(self, endpoint, status):
        if self._requests is not None:
            self._requests.labels(endpoint, str(status)).inc()

    # -- regeneration worker --------------------------------------------

    def _enqueue(self, key, payload=None):
        """Queue one regeneration unit.  Caller holds the lock."""
        self._warming[key] = time.time()
        if payload is not None:
            self._units[key] = payload
        self._queue.append(key)
        self._wakeup.notify()
        if self._worker is None:
            self._worker = threading.Thread(target=self._drain,
                                            name="repro-serve-regen",
                                            daemon=True)
            self._worker.start()

    def _drain(self):
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._wakeup.wait()
                if self._stopping:
                    return
                key = self._queue.pop(0)
                payload = self._units.pop(key, None)
            error = None
            try:
                self._regenerate(key, payload)
            except BaseException as exc:  # the worker must survive
                error = repr(exc)
            with self._lock:
                self._warming.pop(key, None)
                if error is not None:
                    self._failed[key] = error
                else:
                    self.regenerations += 1
            if self._regens is not None:
                self._regens.labels("failed" if error else "ok").inc()
            self.log("regenerated %s%s" % ("/".join(str(part) for part
                                                    in key[:2]),
                                           ": %s" % error if error
                                           else ""))

    def _regenerate(self, key, payload):
        if key[0] == "figure":
            from repro.experiments.figures import run_figures
            run_figures([key[1]], self.out_dir,
                        num_instructions=self.num_instructions,
                        warmup=self.warmup, jobs=self.jobs,
                        failure_policy=self.failure_policy,
                        benchmarks=self.benchmarks,
                        metrics=self.metrics, emit_json=True)
        else:  # ("sweep", grid-key): payload is the missing job list
            from repro.exec import executor_scope
            with executor_scope(None, jobs=self.jobs) as executor:
                executor.run(payload, failure_policy=self.failure_policy,
                             metrics=self.metrics)

    # -- figures --------------------------------------------------------

    def _artifact(self, name, fmt):
        suffix = ".txt" if fmt == "txt" else ".json"
        return os.path.join(self.out_dir, name + suffix)

    def figure_state(self, name):
        """warming | warm | failed | cold (lock held by caller).

        A regeneration writes the artifact before it settles, so a key
        still in ``_warming`` is warming even once the file exists.
        """
        key = ("figure", name)
        if key in self._warming:
            return "warming"
        if os.path.exists(self._artifact(name, "json")):
            return "warm"
        if key in self._failed:
            return "failed"
        return "cold"

    def list_figures(self):
        """``GET /figures``: every registered artifact and its state."""
        with self._lock:
            figures = [{"name": name, "state": self.figure_state(name)}
                       for name in ARTIFACT_NAMES]
        self._count("figures", 200)
        return 200, {"kind": "figure-list", "figures": figures,
                     "out_dir": self.out_dir}, JSON_TYPE

    def figure(self, name, fmt="json"):
        """``GET /figure/<name>[?format=txt]``.

        Warm: the artifact file's bytes, verbatim.  Cold: enqueue one
        regeneration (coalescing concurrent requests) and 202; the
        answer stays 202 until that regeneration has settled, even
        after its artifact is on disk.  A parked failure is reported
        once (500) and cleared so the next request retries.
        """
        if name not in ARTIFACT_NAMES:
            self._count("figure", 404)
            error = ("unknown figure %r (choose from %s)"
                     % (name, ", ".join(ARTIFACT_NAMES)))
            return 404, {"error": error}, JSON_TYPE
        if fmt not in ("json", "txt"):
            self._count("figure", 400)
            return 400, {"error": "unknown format %r (json or txt)"
                                  % fmt}, JSON_TYPE
        key = ("figure", name)
        with self._lock:
            state = self.figure_state(name)
            if state == "warming":
                self._count("figure", 202)
                return 202, self._warming_body(name), JSON_TYPE
            if state != "warm":
                error = self._failed.pop(key, None)
                if error is not None:
                    self._count("figure", 500)
                    return 500, {"error": error, "figure": name,
                                 "note": "failure cleared; the next "
                                         "request retries"}, JSON_TYPE
                self._enqueue(key)
                self._count("figure", 202)
                return 202, self._warming_body(name), JSON_TYPE
        # Read outside the lock: the artifact is complete (the JSON is
        # written last, atomically) and never rewritten mid-read.
        path = self._artifact(name, fmt)
        try:
            with open(path, "rb") as handle:
                body = handle.read()
        except OSError as exc:
            self._count("figure", 500)
            return 500, {"error": repr(exc), "figure": name}, JSON_TYPE
        self._count("figure", 200)
        return 200, body, (TEXT_TYPE if fmt == "txt" else JSON_TYPE)

    def _warming_body(self, name):
        return {"status": "warming", "figure": name,
                "retry_after": RETRY_AFTER_SECONDS}

    # -- sweeps ---------------------------------------------------------

    def sweep(self, benchmarks, policies, num_instructions=None,
              warmup=None, seed=None):
        """``GET /sweep``: the policy x benchmark grid from the store.

        Every cell the result tier holds is inlined; missing cells
        enqueue exactly those jobs and the response is 202 until the
        grid is complete.
        """
        if self.store is None:
            self._count("sweep", 400)
            return 400, {"error": "sweep serving requires an artifact "
                                  "store (start with --store)"}, JSON_TYPE
        n = num_instructions or self.num_instructions
        warm = self.warmup if warmup is None else warmup
        try:
            jobs = build_jobs(benchmarks, policies, num_instructions=n,
                              warmup=warm, seed=seed)
        except (ConfigError, KeyError, ValueError) as exc:
            self._count("sweep", 400)
            return 400, {"error": str(exc)}, JSON_TYPE
        cells = []
        misses = []
        for job in jobs:
            result = self.store.load_result(job)
            cell = {"benchmark": job.benchmark, "policy": job.policy,
                    "job_id": job.job_id}
            if result is None:
                cell["status"] = "miss"
                misses.append(job)
            else:
                cell.update(status="hit", cycles=result.cycles,
                            ipc=result.ipc,
                            instructions=result.instructions)
            cells.append(cell)
        body = {"kind": "sweep-grid", "num_instructions": n,
                "warmup": warm, "seed": seed, "cells": cells,
                "misses": len(misses)}
        if not misses:
            self._count("sweep", 200)
            return 200, body, JSON_TYPE
        key = ("sweep", tuple(sorted(job.job_id for job in misses)))
        with self._lock:
            if key not in self._warming:
                self._failed.pop(key, None)
                self._enqueue(key, payload=misses)
        body["status"] = "warming"
        body["retry_after"] = RETRY_AFTER_SECONDS
        self._count("sweep", 202)
        return 202, body, JSON_TYPE

    # -- health + metrics -----------------------------------------------

    def health(self):
        """``GET /healthz``: liveness plus queue/warm state."""
        with self._lock:
            body = {
                "status": "ok",
                "uptime_seconds": round(time.time() - self.started, 3),
                "queue_depth": len(self._queue) + len(self._warming),
                "warming": sorted("/".join(str(part) for part in key[:2])
                                  for key in self._warming),
                "failed": sorted("/".join(str(part) for part in key[:2])
                                 for key in self._failed),
                "regenerations": self.regenerations,
                "warm_figures": [name for name in ARTIFACT_NAMES
                                 if os.path.exists(
                                     self._artifact(name, "json"))],
                "out_dir": self.out_dir,
                "store": (os.fspath(self.store.root)
                          if self.store is not None else None),
            }
        self._count("healthz", 200)
        return 200, body, JSON_TYPE

    def metrics_text(self):
        """``GET /metricsz``: the Prometheus text exposition."""
        self._count("metricsz", 200)
        if self.metrics is None:
            return 200, "", TEXT_TYPE
        return 200, self.metrics.render_prometheus(), TEXT_TYPE


def dumps(payload):
    """The service's canonical JSON serialisation (for dict bodies)."""
    return json.dumps(payload, indent=1, sort_keys=True, default=str)
