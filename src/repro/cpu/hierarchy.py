"""Memory hierarchy glue: L1I/L1D + TLBs + unified L2 + secure engine.

Every resident line carries ``(data_time, verify_time)`` so that hits to
in-flight or still-unverified lines observe the correct timestamps -- the
decrypt-to-verify window survives into the caches, which is exactly what
the authentication control points gate on.

``ifetch``/``load``/``store`` return a plain ``(data_time, verify_time)``
tuple.  All three go through one walk, :meth:`MemoryHierarchy._l1_access`:
TLB translation, the L1 ``hit_line`` probe, and on a miss
:meth:`MemoryHierarchy._l1_miss` (allocate, write back, fill from L2).
The common L1/L2 hit case allocates nothing but that tuple; the verify
component is always ``>= data_time``.  The shared-pass prepass
(:mod:`repro.cpu.prepass`) mirrors this walk decision for decision, and
the golden parity suite (``tests/perf``) pins both.
"""

from repro.cache.cache import Cache
from repro.cache.tlb import Tlb
from repro.mem.controller import MemoryController
from repro.obs.events import L2_MISS, LANE_MEM, MSHR_STALL
from repro.secure.engine import SecureMemoryEngine
from repro.secure.metadata import MetadataLayout
from repro.util.statistics import StatGroup


class MemoryHierarchy:
    """Two-level hierarchy in front of the secure-memory engine."""

    def __init__(self, config, policy, rng=None, stats=None,
                 protected_bytes=256 * 1024 * 1024, tracer=None):
        self.config = config
        self.policy = policy
        self.stats = stats if stats is not None else StatGroup("hier")
        self.tracer = tracer
        secure_cfg = config.for_policy(policy).secure
        layout = MetadataLayout(
            protected_bytes=protected_bytes,
            line_bytes=config.l2.line_bytes,
            counter_bytes=secure_cfg.counter_bytes,
            mac_bits=secure_cfg.mac_bits,
            hash_bytes=secure_cfg.hash_bytes,
        )
        self.controller = MemoryController(
            config.dram, line_bytes=config.l2.line_bytes, stats=self.stats,
            tracer=tracer,
        )
        self.engine = SecureMemoryEngine(
            secure_cfg,
            layout,
            self.controller,
            rng=rng,
            stats=self.stats,
            authentication_enabled=policy.authentication,
            tracer=tracer,
        )
        self.l1i = Cache(config.l1i, stats=StatGroup("l1i"))
        self.l1d = Cache(config.l1d, stats=StatGroup("l1d"))
        self.l2 = Cache(config.l2, stats=StatGroup("l2"))
        if self.engine.hash_tree is not None:
            # CHTree nodes are cacheable: evicted-but-verified nodes may
            # also sit in the unified L2 (they compete with data lines).
            self.engine.hash_tree.attach_backing(self.l2,
                                                 config.l2.latency)
        self.itlb = Tlb(config.itlb_entries, config.tlb_associativity,
                        config.page_bytes, config.tlb_miss_latency, "itlb")
        self.dtlb = Tlb(config.dtlb_entries, config.tlb_associativity,
                        config.page_bytes, config.tlb_miss_latency, "dtlb")
        self._wrap = layout.protected_bytes
        # MSHRs bound memory-level parallelism: a new external fetch
        # waits for a free outstanding-miss slot.
        self._mshr_ring = [0] * max(1, config.mshr_entries)
        self._mshr_index = 0
        self._mshr_stalls = self.stats.counter("mshr_stall_events")
        self._prefetches = self.stats.counter("prefetch_issued")

    # ------------------------------------------------------------------

    def ifetch(self, pc, cycle, gate_time=0):
        """Fetch the I-line holding ``pc``; ``(data_time, verify_time)``."""
        return self._l1_access(self.l1i, self.itlb, pc, cycle, gate_time,
                               False)

    def load(self, addr, cycle, gate_time=0):
        """D-side read of ``addr``; ``(data_time, verify_time)``."""
        return self._l1_access(self.l1d, self.dtlb, addr, cycle, gate_time,
                               False)

    def store(self, addr, cycle, gate_time=0):
        """D-side write of ``addr``; ``(data_time, verify_time)``."""
        return self._l1_access(self.l1d, self.dtlb, addr, cycle, gate_time,
                               True)

    def _l1_access(self, l1, tlb, addr, cycle, gate_time, is_write):
        """TLB translation, then the L1 probe; misses go to
        :meth:`_l1_miss`.  Returns ``(data_time, verify_time)``."""
        cycle += tlb.translate_latency(addr)
        line = l1.hit_line(addr, is_write)
        if line is None:
            return self._l1_miss(l1, addr, cycle, gate_time, is_write)
        data_time = line.data_time
        l1_done = cycle + l1.latency
        if l1_done > data_time:
            data_time = l1_done
        verify_time = line.verify_time
        return (data_time,
                verify_time if verify_time > data_time else data_time)

    def _clamp(self, addr):
        """Fold any address into the protected region."""
        return addr % self._wrap

    def _l2_fill(self, addr, cycle, gate_time):
        """Access L2; fill from memory on a miss.

        Returns a ``(data_time, verify_time)`` tuple.
        """
        l2 = self.l2
        line = l2.hit_line(addr)
        if line is not None:
            data_time = line.data_time
            if cycle > data_time:
                data_time = cycle
            verify_time = line.verify_time
            return (data_time,
                    verify_time if verify_time > data_time else data_time)
        return self._l2_miss(addr, cycle, gate_time)

    def _l2_miss(self, addr, cycle, gate_time):
        """L2 miss slow path: allocate, write back, fetch through the
        secure engine (with MSHR backpressure), prefetch.

        Returns a ``(data_time, verify_time)`` tuple.
        """
        l2 = self.l2
        line, victim_addr, victim_dirty = l2.fill(addr)
        if victim_dirty:
            self.engine.write_line(self._clamp(victim_addr), cycle)
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        slot_free = self._mshr_ring[self._mshr_index]
        if slot_free > cycle:
            self._mshr_stalls.value += 1
            if tracing:
                tracer.emit(MSHR_STALL, LANE_MEM, cycle,
                            dur=slot_free - cycle, addr=addr)
            cycle = slot_free
        target = (addr // l2.line_bytes) * l2.line_bytes % self._wrap
        if tracing:
            tracer.emit(L2_MISS, LANE_MEM, cycle, addr=target)
        fetch = self.engine.fetch_line(target, cycle, gate_time=gate_time)
        self._mshr_ring[self._mshr_index] = fetch.mem_done
        self._mshr_index = (self._mshr_index + 1) % len(self._mshr_ring)
        line.data_time = fetch.data_time
        line.verify_time = fetch.verify_time
        if self.config.prefetch_degree:
            self._prefetch_after(addr, fetch)
        return (fetch.data_time, fetch.verify_time)

    def _prefetch_after(self, addr, trigger_fetch):
        """Next-N-lines prefetch on a demand miss.

        Prefetches are never gated by authen-then-fetch (they are not
        program-dependent), and their verification starts as soon as they
        arrive -- often completing before the demand access that would
        otherwise expose the gap.
        """
        degree = self.config.prefetch_degree
        if not degree:
            return
        line_bytes = self.l2.line_bytes
        base = self.l2.line_addr(addr)
        # Stream detection: only prefetch when the preceding line is
        # already resident (evidence of a sequential walk) -- otherwise
        # random misses just pollute the L2 and burn bus bandwidth.
        if self.l2.lookup(base - line_bytes) is None:
            return
        for step in range(1, degree + 1):
            next_addr = base + step * line_bytes
            if self.l2.hit_line(next_addr) is not None:
                continue
            line, victim_addr, victim_dirty = self.l2.fill(next_addr)
            if victim_dirty:
                self.engine.write_line(self._clamp(victim_addr),
                                       trigger_fetch.mem_done)
            fetch = self.engine.fetch_line(self._clamp(next_addr),
                                           trigger_fetch.mem_done)
            line.data_time = fetch.data_time
            line.verify_time = fetch.verify_time
            self._prefetches.value += 1

    def _l1_miss(self, l1, addr, cycle, gate_time, is_write):
        """L1 miss slow path: allocate, write back, fill from L2.

        ``cycle`` already includes the TLB translation latency
        (:meth:`_l1_access` charged it before probing L1).
        """
        line, victim_addr, victim_dirty = l1.fill(addr, is_write)
        if victim_dirty:
            self._l1_writeback(victim_addr, cycle)
        l1_lat = l1.latency
        data_time, verify_time = self._l2_fill(
            addr, cycle + l1_lat + self.l2.latency, gate_time)
        l1_done = cycle + l1_lat
        if l1_done > data_time:
            data_time = l1_done
        if data_time > verify_time:
            verify_time = data_time
        line.data_time = data_time
        line.verify_time = verify_time
        return (data_time, verify_time)

    def _l1_writeback(self, victim_addr, cycle):
        """Write a dirty L1 victim into L2 (write-validate allocate)."""
        if self.l2.hit_line(victim_addr, is_write=True) is not None:
            return
        _, l2_victim, l2_victim_dirty = self.l2.fill(victim_addr,
                                                     is_write=True)
        if l2_victim_dirty:
            self.engine.write_line(self._clamp(l2_victim), cycle)

    # ------------------------------------------------------------------

    def reset_stats(self):
        """Reset hit/miss counters without touching cache contents
        (used at the warmup boundary)."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.stats.reset()
        self.itlb.stats.reset()
        self.dtlb.stats.reset()

    def miss_summary(self):
        """Per-level miss rates (diagnostics and calibration tests)."""
        return {
            "l1i": self.l1i.miss_rate(),
            "l1d": self.l1d.miss_rate(),
            "l2": self.l2.miss_rate(),
            "itlb": self.itlb.miss_rate(),
            "dtlb": self.dtlb.miss_rate(),
        }
