"""Derived run metrics: everything a memory-system architect asks next.

Computes, from a finished run's shared stats group:

- DRAM traffic decomposition (data reads, writebacks, metadata by kind);
- bus utilisation and mean queueing delay;
- DRAM row-buffer behaviour;
- authentication-engine pressure (requests, queue-full events, the
  decrypt-to-verify gap distribution);
- per-level miss rates.
"""

from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    """Derived metrics of one simulation run."""

    cycles: int
    instructions: int
    ipc: float
    miss_rates: dict = field(default_factory=dict)
    dram_reads: int = 0
    dram_writes: int = 0
    dram_metadata: int = 0
    row_hit_rate: float = 0.0
    bus_utilisation: float = 0.0
    mean_bus_wait: float = 0.0
    mean_read_latency: float = 0.0
    auth_requests: int = 0
    auth_queue_full: int = 0
    mean_verify_gap: float = 0.0
    # Figure 6's discussion is really about the tail of the window, not
    # its mean: the p50/p95/max decrypt-to-verify gap in cycles.
    p50_verify_gap: int = 0
    p95_verify_gap: int = 0
    max_verify_gap: int = 0
    reads_per_kinst: float = 0.0

    def as_dict(self):
        out = dict(self.__dict__)
        out["miss_rates"] = dict(self.miss_rates)
        return out


def collect_metrics(result):
    """Build :class:`RunMetrics` from a RunResult's one "sim"
    :class:`StatGroup`, which the legacy core, hierarchy and memory
    controller all count into and the kernel replay reproduces."""
    stats = result.stats
    cycles = max(result.cycles, 1)

    reads = stats["line_reads"].value
    writes = stats["line_writes"].value
    metadata = stats["metadata_accesses"].value

    hits = stats["row_hits"].value
    total_rows = (hits + stats["row_empty"].value
                  + stats["row_conflicts"].value)
    row_hit_rate = hits / total_rows if total_rows else 0.0

    busy = stats["busy_cycles"].value
    transfers = stats["transfers"].value
    wait = stats["wait_cycles"].value

    read_latency = stats["read_latency"]
    auth_requests = (stats["auth_requests"].value
                     if "auth_requests" in stats else 0)
    queue_full = (stats["auth_queue_full"].value
                  if "auth_queue_full" in stats else 0)
    if "decrypt_verify_gap" in stats:
        gap_hist = stats["decrypt_verify_gap"]
        gap = gap_hist.mean()
        # percentile/max_key return None on an empty histogram; the run
        # metrics keep the historical 0 so journal records stay stable.
        gap_p50 = gap_hist.percentile(50) or 0
        gap_p95 = gap_hist.percentile(95) or 0
        gap_max = gap_hist.max_key() or 0
    else:
        gap = 0.0
        gap_p50 = gap_p95 = gap_max = 0

    return RunMetrics(
        cycles=result.cycles,
        instructions=result.instructions,
        ipc=result.ipc,
        miss_rates=result.miss_summary,
        dram_reads=reads,
        dram_writes=writes,
        dram_metadata=metadata,
        row_hit_rate=row_hit_rate,
        bus_utilisation=min(1.0, busy / cycles),
        mean_bus_wait=wait / transfers if transfers else 0.0,
        mean_read_latency=read_latency.mean(),
        auth_requests=auth_requests,
        auth_queue_full=queue_full,
        mean_verify_gap=gap,
        p50_verify_gap=gap_p50,
        p95_verify_gap=gap_p95,
        max_verify_gap=gap_max,
        reads_per_kinst=1000.0 * reads / max(result.instructions, 1),
    )


def run_with_metrics(trace, config=None, policy="decrypt-only",
                     warmup=0, tracer=None, profiler=None):
    """Convenience: run a trace and return (RunResult, RunMetrics)."""
    from repro.sim.runner import run_trace

    result = run_trace(trace, config, policy, tracer=tracer,
                       profiler=profiler, warmup=warmup)
    return result, result.metrics


def render_metrics(metrics):
    """Human-readable metric block."""
    lines = [
        "cycles=%d instructions=%d ipc=%.4f"
        % (metrics.cycles, metrics.instructions, metrics.ipc),
        "dram: reads=%d (%.1f/kinst) writes=%d metadata=%d"
        % (metrics.dram_reads, metrics.reads_per_kinst,
           metrics.dram_writes, metrics.dram_metadata),
        "dram rows: hit rate %.1f%%; bus util %.1f%%, mean wait %.0f cyc"
        % (100 * metrics.row_hit_rate, 100 * metrics.bus_utilisation,
           metrics.mean_bus_wait),
        "mean read latency %.0f cyc" % metrics.mean_read_latency,
        "auth: %d requests, %d queue-full, mean verify gap %.0f cyc"
        % (metrics.auth_requests, metrics.auth_queue_full,
           metrics.mean_verify_gap),
        "verify gap percentiles: p50=%d p95=%d max=%d cyc"
        % (metrics.p50_verify_gap, metrics.p95_verify_gap,
           metrics.max_verify_gap),
        "miss rates: " + "  ".join(
            "%s=%.3f" % (k, v) for k, v in sorted(
                metrics.miss_rates.items())),
    ]
    return "\n".join(lines)
