"""Shared timestamp kernel: replay one prepass under one policy's terms.

The second half of the decode-once/evaluate-many pipeline
(:mod:`repro.cpu.prepass` is the first).  Given a
:class:`~repro.cpu.prepass.TracePrepass`, :func:`replay_policy` runs the
full out-of-order timestamp model for one policy -- but every structural
decision (cache outcomes, evictions, bank/row classification,
prediction draws) is a column read instead of a cache-dict walk, so the
per-policy cost is pure cycle arithmetic.

The replay itself is the C kernel of :mod:`repro.cpu.native`, a
line-for-line mirror of :meth:`repro.cpu.core.TimestampCore.run` and of
the timing half of ``hierarchy._l1_access`` / ``_l2_miss`` /
``engine.fetch_line``.  :func:`replay_policy` derives the kernel's
config block, runs it, and assembles the legacy ``StatGroup``; the
differential equivalence suite and the perf goldens pin cycles and
every counter bit-identical to the legacy simulator.  It raises when
the kernel cannot load: the grouped executor checks
:func:`~repro.cpu.native.native_available` first and runs the legacy
simulator instead.
"""

from time import perf_counter

from repro.cpu.core import RunResult
from repro.cpu import native
from repro.util.statistics import StatGroup


def replay_policy(prepass, policy, config, trace_name="trace",
                  profiler=None):
    """Replay ``prepass`` under ``policy``; returns a :class:`RunResult`.

    The result's ``stats`` group carries the same counters (including
    zero-valued ones) as a legacy ``build_simulator`` + ``core.run``
    pass, so stats digests match byte-for-byte.  Raises RuntimeError
    when the native kernel cannot load and MemoryError when it fails.
    """
    start_wall = perf_counter() if profiler is not None else 0.0

    cfg = native.config_block(prepass, policy, config)
    o = native.replay(prepass, cfg)

    # ---- assemble the stats group (legacy counter inventory) ---------
    stats = StatGroup("sim")
    counter = stats.counter
    n_line_ops = prepass.n_misses + prepass.n_writes
    counter("line_reads").value = prepass.n_misses
    counter("line_writes").value = prepass.n_writes
    counter("metadata_accesses").value = prepass.n_meta
    stats.histogram("read_latency").buckets.update(o["read_lat_buckets"])
    counter("row_hits").value = prepass.row_hits
    counter("row_empty").value = prepass.row_empty
    counter("row_conflicts").value = prepass.row_conflicts
    counter("accesses").value = prepass.dram_ops
    counter("busy_cycles").value = (
        n_line_ops * cfg[native.CFG_DUR_LINE]
        + prepass.n_meta * cfg[native.CFG_DUR_META])
    counter("transfers").value = prepass.dram_ops
    counter("wait_cycles").value = o["wait_cycles"]
    counter("pad_fully_hidden").value = o["pad_hidden"]
    counter("pad_exposed_cycles").value = o["pad_exposed"]
    counter("hits").value = prepass.cc_hits
    counter("misses").value = prepass.cc_misses
    counter("evictions").value = prepass.cc_evictions
    counter("writebacks").value = prepass.cc_writebacks
    counter("auth_requests").value = o["auth_requests"]
    counter("auth_queue_full").value = o["queue_full"]
    stats.histogram("decrypt_verify_gap").buckets.update(o["gap_buckets"])
    counter("page_reencryptions").value = prepass.page_reencryptions
    counter("mshr_stall_events").value = o["mshr_stalls"]
    counter("prefetch_issued").value = 0
    counter("auth_commit_stall_cycles").value = o["auth_commit_stall"]
    counter("auth_issue_stall_cycles").value = o["auth_issue_stall"]
    counter("store_buffer_full_stalls").value = o["sb_full_stall"]
    counter("branch_mispredicts").value = o["branch_mispredicts"]

    if profiler is not None:
        profiler.add("replay", perf_counter() - start_wall)
    return RunResult(
        trace_name,
        policy.name,
        prepass.num_instructions - prepass.warmup,
        o["cycles"],
        stats,
        dict(prepass.miss_summary),
    )
