"""Per-process trace cache, backed by the persistent artifact store.

Trace generation is deterministic given ``(profile, length, seed)``, so a
sweep only ever needs to generate each benchmark's trace once -- but the
old per-caller loops regenerated it per config point (every MAC latency
in an ablation grid paid tracegen again).  This cache memoises traces by
their generation key.  It is *process-safe by construction*: each worker
process holds its own in-memory cache, and cross-process sharing happens
through the content-addressed :mod:`~repro.exec.store` when one is
active -- a memory miss checks the store before generating, and a
generation is published back under a single-flight lock so N concurrent
workers asking for the same missing trace cost exactly one generation.
With no store active (the default) behaviour is the historical one:
generate per process, bit-identical because generation is deterministic.
"""

import threading
import time
from collections import OrderedDict

from repro.workloads.spec import get_profile
from repro.workloads.tracegen import generate_trace


class TraceCache:
    """LRU memo of generated traces keyed by (benchmark, length, seed).

    ``store`` overrides the process-wide active store for this cache
    (useful for benchmarks and tests); None means "resolve
    :func:`~repro.exec.store.active_store` at lookup time", which is
    how pool workers pick up ``REPRO_STORE`` after fork.
    """

    def __init__(self, capacity=32, store=None):
        self.capacity = capacity
        self.store = store
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.group_reuses = 0   # in-worker fan-out hits (grouped jobs)
        self.store_hits = 0     # misses served by the artifact store
        self.gen_seconds = 0.0  # wall time spent generating on misses

    def _resolve_store(self):
        if self.store is not None:
            return self.store
        from repro.exec.store import active_store

        return active_store()

    def get(self, benchmark, num_instructions, seed, profiler=None):
        """The trace for ``benchmark``, generated at most once per key.

        ``profiler`` charges a ``tracegen`` phase only on a generating
        miss, so the phase table reports real generation time, not
        cache lookups; a hit (in-memory or store) still records the
        phase (at zero cost) so callers can rely on the key being
        present.  Store loads are charged to a ``store`` phase.
        """
        key = (benchmark, num_instructions, seed)
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if profiler is not None:
                    profiler.add("tracegen", 0.0)
                return trace
            self.misses += 1
        trace, elapsed = self._load_or_generate(benchmark, num_instructions,
                                                seed, profiler)
        with self._lock:
            self.gen_seconds += elapsed
            self._entries[key] = trace
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return trace

    def _load_or_generate(self, benchmark, num_instructions, seed,
                          profiler):
        """Store lookup -> single-flight generate; returns (trace, gen_s).

        ``gen_seconds`` only counts actual generation: a store hit is
        free by construction, which is what makes warm-store accounting
        report zero tracegen.
        """
        store = self._resolve_store()
        if store is None:
            return self._generate(benchmark, num_instructions, seed,
                                  profiler)
        trace = self._store_load(store, benchmark, num_instructions, seed,
                                 profiler)
        if trace is not None:
            return trace, 0.0
        # Single-flight: one process generates and publishes, the rest
        # re-check the store after the lock (or after a wait timeout --
        # the lock is advisory, correctness never depends on it).
        name = store.trace_name(benchmark, num_instructions, seed)
        with store.single_flight("traces", name):
            trace = self._store_load(store, benchmark, num_instructions,
                                     seed, profiler)
            if trace is not None:
                return trace, 0.0
            trace, elapsed = self._generate(benchmark, num_instructions,
                                            seed, profiler)
            store.save_trace(trace, benchmark, num_instructions, seed)
        return trace, elapsed

    def _store_load(self, store, benchmark, num_instructions, seed,
                    profiler):
        if profiler is not None:
            with profiler.phase("store"):
                trace = store.load_trace(benchmark, num_instructions, seed)
        else:
            trace = store.load_trace(benchmark, num_instructions, seed)
        if trace is None:
            return None
        with self._lock:
            self.store_hits += 1
        if profiler is not None:
            profiler.add("tracegen", 0.0)
        return trace

    def _generate(self, benchmark, num_instructions, seed, profiler):
        profile = get_profile(benchmark)
        started = time.perf_counter()
        if profiler is not None:
            with profiler.phase("tracegen"):
                trace = generate_trace(profile, num_instructions, seed=seed)
        else:
            trace = generate_trace(profile, num_instructions, seed=seed)
        return trace, time.perf_counter() - started

    def count_group_reuse(self, reuses):
        """Charge ``reuses`` cache hits for a grouped multi-policy job.

        A :class:`~repro.exec.job.MultiPolicySimJob` calls ``get`` once
        and fans the trace out to N policy evaluations in-process; the
        N-1 reuses never go through ``get``, so without this the hit
        counters would under-report exactly the reuse the grouped
        pipeline exists to create (1 generation + N-1 hits per group).
        """
        if reuses <= 0:
            return
        with self._lock:
            self.hits += reuses
            self.group_reuses += reuses

    def stats(self):
        """Counter snapshot for telemetry (hits/misses/evictions/...)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "group_reuses": self.group_reuses,
                "store_hits": self.store_hits,
                # Guarded: a fresh cache has zero lookups, and stats()
                # must never divide by zero.
                "hit_rate": (round(self.hits / lookups, 6)
                             if lookups else 0.0),
                "gen_seconds": round(self.gen_seconds, 6),
            }

    def _reset_counters_locked(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.group_reuses = 0
        self.store_hits = 0
        self.gen_seconds = 0.0

    def reset_stats(self):
        """Zero the counters without touching cached entries."""
        with self._lock:
            self._reset_counters_locked()

    def clear(self):
        """Drop every entry *and* the counters.

        A cleared cache must report a fresh slate: leaving the counters
        would make the next ``stats()`` claim phantom hit rates for
        entries that no longer exist.
        """
        with self._lock:
            self._entries.clear()
            self._reset_counters_locked()

    def __len__(self):
        return len(self._entries)


#: Shared per-process cache (workers each get their own copy after fork).
GLOBAL_CACHE = TraceCache()


def cached_trace(benchmark, num_instructions, seed, profiler=None,
                 cache=None):
    """The one tracegen-under-profiler helper every runner shares."""
    if cache is None:  # not `or`: an empty TraceCache is falsy via __len__
        cache = GLOBAL_CACHE
    return cache.get(benchmark, num_instructions, seed, profiler=profiler)
