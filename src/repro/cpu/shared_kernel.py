"""Shared timestamp kernel: replay one prepass under one policy's terms.

The second half of the decode-once/evaluate-many pipeline
(:mod:`repro.cpu.prepass` is the first).  Given a
:class:`~repro.cpu.prepass.TracePrepass` walked for the policy's
effective structure (:meth:`~repro.config.SimConfig.for_policy`),
:func:`replay_policy` runs the full out-of-order timestamp model for one
policy -- but every structural decision (cache outcomes, evictions,
tree-node fetches, re-map entry fetches, bank/row classification,
prediction draws) is a column read instead of a cache walk, so the
per-policy cost is pure cycle arithmetic.

The replay itself is the C kernel of :mod:`repro.cpu.native`, a
line-for-line mirror of :meth:`repro.cpu.core.TimestampCore.run` and of
the timing half of ``hierarchy._l1_access`` / ``_l2_miss`` /
``engine.fetch_line`` (with ``HashTreeTiming.verification_extra``,
``AddressObfuscator.resolve``, CBC's serial decryption and the
prefetches of ``hierarchy._prefetch_after``).  :func:`replay_policy`
derives the kernel's config block, runs it, and assembles the legacy
``StatGroup`` (with the tree and re-map counters when the walk has that
structure); the differential equivalence suite, the lockstep oracle and
the perf goldens pin cycles and every counter bit-identical to the
legacy simulator.  It raises :class:`~repro.errors.KernelUnavailableError`
when the kernel cannot be built; there is no second loop to fall back
to.
"""

from time import perf_counter

from repro.cpu import native
from repro.sim.result import RunResult
from repro.util.statistics import StatGroup


def replay_policy(prepass, policy, config, trace_name="trace",
                  profiler=None):
    """Replay ``prepass`` under ``policy``; returns a :class:`RunResult`.

    ``prepass`` must be the walk of the policy's effective structure
    (:meth:`~repro.config.SimConfig.for_policy`), else ValueError.  The
    result's ``stats`` group carries the same counters (including
    zero-valued ones) as a legacy ``build_simulator`` + ``core.run``
    pass, so stats digests match byte-for-byte.  Raises
    KernelUnavailableError when the native kernel cannot load and
    MemoryError when it fails.
    """
    start_wall = perf_counter() if profiler is not None else 0.0

    secure = config.for_policy(policy).secure
    wanted = (secure.hash_tree_enabled, secure.obfuscation_enabled,
              secure.encryption_mode == "cbc", config.prefetch_degree)
    walked = (prepass.hash_tree, prepass.obfuscation, prepass.cbc,
              prepass.prefetch_degree)
    if walked != wanted:
        raise ValueError(
            "policy %r runs with hash_tree=%s, obfuscation=%s, cbc=%s, "
            "prefetch_degree=%s, but the prepass was walked with "
            "hash_tree=%s, obfuscation=%s, cbc=%s, prefetch_degree=%s"
            % ((policy.name,) + wanted + walked))
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
    n_remap = prepass.remap_entry_fetches
    counter("busy_cycles").value = (
        n_line_ops * cfg[native.CFG_DUR_LINE]
        + (prepass.n_meta - n_remap) * cfg[native.CFG_DUR_META]
        + n_remap * cfg[native.CFG_DUR_REMAP])
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
    counter("prefetch_issued").value = prepass.prefetch_issued
    counter("auth_commit_stall_cycles").value = o["auth_commit_stall"]
    counter("auth_issue_stall_cycles").value = o["auth_issue_stall"]
    counter("store_buffer_full_stalls").value = o["sb_full_stall"]
    counter("branch_mispredicts").value = o["branch_mispredicts"]
    if prepass.hash_tree:
        counter("tree_node_fetches").value = prepass.tree_node_fetches
        counter("tree_backing_hits").value = prepass.tree_backing_hits
        stats.histogram("tree_walk_depth").buckets.update(
            (depth, count) for depth, count
            in enumerate(prepass.tree_depths) if count)
    if prepass.obfuscation:
        counter("remap_lookups").value = prepass.n_misses
        counter("remap_entry_fetches").value = n_remap
        counter("remap_reshuffles").value = prepass.remap_reshuffles

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
