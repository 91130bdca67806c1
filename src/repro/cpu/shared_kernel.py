"""Shared timestamp kernel: replay one prepass under one policy's terms.

The second half of the decode-once/evaluate-many pipeline
(:mod:`repro.cpu.prepass` is the first).  Given a
:class:`~repro.cpu.prepass.TracePrepass`, :func:`replay_policy` runs the
full out-of-order timestamp model for one policy -- but every structural
decision (cache outcomes, evictions, bank/row classification,
prediction draws) is a column read instead of a cache-dict walk, so the
per-policy cost is pure cycle arithmetic.

The pipeline loop is a line-for-line mirror of
:meth:`repro.cpu.core.TimestampCore.run`, and the memory replay mirrors
the timing half of ``hierarchy._l1_access`` / ``_l2_miss`` /
``engine.fetch_line``: the differential equivalence suite and the perf
goldens pin cycles and every ``StatGroup`` counter bit-identical to the
legacy path.

The replay arithmetic is all int64, so it also has a native build:
:mod:`repro.cpu.native` compiles the same loop with the system C
compiler and runs it through ctypes.  :func:`replay_policy` prefers the
native kernel when one is available (set ``REPRO_NATIVE=0`` to force
the pure-Python loop); both paths feed the same constants
(:func:`_policy_constants`) and the same stats assembly, and the
differential tests pin them bit-identical to each other and to the
legacy simulator.
"""

from bisect import bisect_right
from time import perf_counter

from repro.cpu.core import _UNIT_LATENCY, _CALENDAR_PRUNE_INTERVAL, RunResult
from repro.cpu import native
from repro.util.statistics import StatGroup


def _policy_constants(policy, config):
    """Every scalar the replay consumes, derived from (policy, config).

    One derivation feeds both the pure-Python loop and the native
    kernel, so the two cannot drift apart on a constant.
    """
    cfg = config.core
    secure = config.secure
    dram_cfg = config.dram

    gate_fetch = policy.gate_fetch
    fetch_mode = getattr(policy, "fetch_mode", "tag")
    auth_enabled = policy.authentication

    line_bytes = config.l2.line_bytes
    mac_rider = secure.mac_bits // 8 if auth_enabled else 0
    bus_width = dram_cfg.bus_width_bytes
    beat = dram_cfg.bus_multiplier
    cas = dram_cfg.cas_cycles
    if secure.mac_scheme == "gmac":
        mac_latency = secure.gmac_latency
        mac_throughput = max(1, secure.gmac_latency // 2)
    else:
        mac_latency = secure.hmac_latency
        mac_throughput = secure.mac_throughput

    return {
        "gate_issue": policy.gate_issue,
        "gate_commit": policy.gate_commit,
        "gate_fetch": gate_fetch,
        "gate_store": policy.gate_store,
        "precise_fetch": gate_fetch and fetch_mode == "precise",
        "drain_fetch": gate_fetch and fetch_mode == "drain",
        "auth_enabled": auth_enabled,
        "dur_line": -(-(line_bytes + mac_rider) // bus_width) * beat,
        "dur_meta": -(-line_bytes // bus_width) * beat,
        "ras": (cas, dram_cfg.rcd_cycles + cas,
                dram_cfg.rp_cycles + dram_cfg.rcd_cycles + cas),
        "mac_latency": mac_latency,
        "mac_throughput": mac_throughput,
        "queue_depth": secure.auth_queue_depth,
        "decrypt_latency": secure.decrypt_latency,
        "xor_latency": 1,  # DecryptionEngine default; not config-routed
        "l1i_latency": config.l1i.latency,
        "l1d_latency": config.l1d.latency,
        "l2_latency": config.l2.latency,
        "num_banks": dram_cfg.num_banks,
        "mshr_entries": max(1, config.mshr_entries),
        "fetch_width": cfg.fetch_width,
        "issue_width": cfg.issue_width,
        "commit_width": cfg.commit_width,
        "ruu_size": cfg.ruu_entries,
        "lsq_size": cfg.lsq_entries,
        "depth": cfg.pipeline_depth,
        "penalty": cfg.branch_mispredict_penalty,
        "sb_size": secure.store_buffer_entries,
        "unit_latency": [_UNIT_LATENCY.get(code, 0) for code in range(8)],
        "prune_interval": _CALENDAR_PRUNE_INTERVAL,
    }


def replay_policy(prepass, policy, config, trace_name="trace",
                  profiler=None):
    """Replay ``prepass`` under ``policy``; returns a :class:`RunResult`.

    The result's ``stats`` group carries the same counters (including
    zero-valued ones) as a legacy ``build_simulator`` + ``core.run``
    pass, so stats digests match byte-for-byte.  Uses the compiled
    kernel from :mod:`repro.cpu.native` when available, the pure-Python
    loop below otherwise -- both produce identical ``o`` payloads.
    """
    start_wall = perf_counter() if profiler is not None else 0.0

    c = _policy_constants(policy, config)
    o = native.replay(prepass, c)
    if o is None:
        o = _replay_python(prepass, c)

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
    counter("busy_cycles").value = (n_line_ops * c["dur_line"]
                                    + prepass.n_meta * c["dur_meta"])
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


def _replay_python(prepass, c):
    """Pure-Python replay loop; returns the kernel-output payload."""
    gate_issue = c["gate_issue"]
    gate_commit = c["gate_commit"]
    gate_fetch = c["gate_fetch"]
    gate_store = c["gate_store"]
    precise_fetch = c["precise_fetch"]
    drain_fetch = c["drain_fetch"]
    auth_enabled = c["auth_enabled"]
    dur_line = c["dur_line"]
    dur_meta = c["dur_meta"]
    ras = c["ras"]
    mac_latency = c["mac_latency"]
    mac_throughput = c["mac_throughput"]
    queue_depth = c["queue_depth"]
    decrypt_latency = c["decrypt_latency"]
    xor_latency = c["xor_latency"]
    l1i_latency = c["l1i_latency"]
    l1d_latency = c["l1d_latency"]
    l2_latency = c["l2_latency"]

    # ---- replay state -------------------------------------------------
    bank_ready = [0] * c["num_banks"]
    bus_free = 0
    wait_cycles = 0
    read_lat_buckets = {}
    gap_buckets = {}
    pad_hidden = 0
    pad_exposed = 0
    queue_full = 0
    mshr_stalls = 0
    completions = []
    fetch_times = []
    last_start = None
    mshr_ring = [0] * c["mshr_entries"]
    mshr_index = 0
    mshr_len = len(mshr_ring)

    n_accesses = prepass.n_accesses
    n_misses = prepass.n_misses
    acc_data = [0] * n_accesses
    acc_verify = [0] * n_accesses
    miss_data = [0] * n_misses
    miss_verify = [0] * n_misses
    acc_cursor = 0
    dram_cursor = 0

    a_pre = prepass.a_pre
    a_lvl = prepass.a_lvl
    a_ref = prepass.a_ref
    a_wb = prepass.a_wb
    m_wb = prepass.m_wb
    m_counter = prepass.m_counter
    d_bank = prepass.d_bank
    d_cat = prepass.d_cat

    def mem_access(cycle, gate_time, l1_latency):
        """Timing replay of one ``ifetch``/``load``/``store`` access."""
        nonlocal acc_cursor, dram_cursor, bus_free, wait_cycles
        nonlocal pad_hidden, pad_exposed, queue_full, mshr_stalls
        nonlocal last_start, mshr_index
        i = acc_cursor
        acc_cursor = i + 1
        cycle += a_pre[i]
        # Posted writes from the L1 victim writeback, at post-TLB cycle.
        for _ in range(a_wb[i]):
            d = dram_cursor
            dram_cursor = d + 1
            ready = bank_ready[d_bank[d]]
            bstart = cycle if cycle > ready else ready
            data_ready = bstart + ras[d_cat[d]]
            free_at = bus_free
            tstart = data_ready if data_ready > free_at else free_at
            done = tstart + dur_line
            bus_free = done
            wait_cycles += tstart - data_ready
            bank_ready[d_bank[d]] = done
        lvl = a_lvl[i]
        if lvl == 0:  # L1 hit
            ref = a_ref[i]
            data_time = acc_data[ref]
            l1_done = cycle + l1_latency
            if l1_done > data_time:
                data_time = l1_done
            verify_time = acc_verify[ref]
            if verify_time < data_time:
                verify_time = data_time
            acc_data[i] = data_time
            acc_verify[i] = verify_time
            return data_time, verify_time
        l1_done = cycle + l1_latency
        l2_cycle = l1_done + l2_latency
        if lvl == 1:  # L2 hit
            ref = a_ref[i]
            if ref >= 0:
                data_time = miss_data[ref]
                verify_time = miss_verify[ref]
            else:
                data_time = 0
                verify_time = 0
            if l2_cycle > data_time:
                data_time = l2_cycle
            if verify_time < data_time:
                verify_time = data_time
        else:  # L2 miss
            m = a_ref[i]
            # Posted writes from the L2 victim writeback, at l2_cycle.
            for _ in range(m_wb[m]):
                d = dram_cursor
                dram_cursor = d + 1
                ready = bank_ready[d_bank[d]]
                bstart = l2_cycle if l2_cycle > ready else ready
                data_ready = bstart + ras[d_cat[d]]
                free_at = bus_free
                tstart = data_ready if data_ready > free_at else free_at
                done = tstart + dur_line
                bus_free = done
                wait_cycles += tstart - data_ready
                bank_ready[d_bank[d]] = done
            # MSHR backpressure, then the fetch gate.
            fetch_cycle = l2_cycle
            slot_free = mshr_ring[mshr_index]
            if slot_free > fetch_cycle:
                mshr_stalls += 1
                fetch_cycle = slot_free
            issue = fetch_cycle if fetch_cycle > gate_time else gate_time
            # Counter-mode pad source.
            mc = m_counter[m]
            if mc == 2:
                d = dram_cursor
                dram_cursor = d + 1
                ready = bank_ready[d_bank[d]]
                bstart = issue if issue > ready else ready
                data_ready = bstart + ras[d_cat[d]]
                free_at = bus_free
                tstart = data_ready if data_ready > free_at else free_at
                pad_start = tstart + dur_meta
                bus_free = pad_start
                wait_cycles += tstart - data_ready
                bank_ready[d_bank[d]] = pad_start
            else:
                pad_start = issue
            # Main line fetch.
            d = dram_cursor
            dram_cursor = d + 1
            ready = bank_ready[d_bank[d]]
            bstart = issue if issue > ready else ready
            data_ready = bstart + ras[d_cat[d]]
            free_at = bus_free
            tstart = data_ready if data_ready > free_at else free_at
            done = tstart + dur_line
            bus_free = done
            wait_cycles += tstart - data_ready
            bank_ready[d_bank[d]] = done
            lat = done - issue
            read_lat_buckets[lat] = read_lat_buckets.get(lat, 0) + 1
            # Decrypt overlap.
            pad_done = pad_start + decrypt_latency
            if pad_done <= done:
                pad_hidden += 1
                data_time = done + xor_latency
            else:
                pad_exposed += pad_done - done
                data_time = pad_done + xor_latency
            if auth_enabled:
                # AuthQueue.enqueue(done, 0, fetch_time=done); tag == m.
                fetch_time = done
                if fetch_times and fetch_time < fetch_times[-1]:
                    fetch_time = fetch_times[-1]
                fetch_times.append(fetch_time)
                ready_time = done
                if m >= queue_depth:
                    qslot = completions[m - queue_depth]
                    if qslot > ready_time:
                        queue_full += 1
                        ready_time = qslot
                if last_start is None:
                    qstart = ready_time
                else:
                    qstart = last_start + mac_throughput
                    if ready_time > qstart:
                        qstart = ready_time
                verify_time = qstart + mac_latency
                if m and verify_time < completions[-1]:
                    verify_time = completions[-1]
                last_start = qstart
                completions.append(verify_time)
                gap = verify_time - data_time
                if gap < 0:
                    gap = 0
                gap_buckets[gap] = gap_buckets.get(gap, 0) + 1
            else:
                verify_time = data_time
            mshr_ring[mshr_index] = done
            mshr_index += 1
            if mshr_index == mshr_len:
                mshr_index = 0
            miss_data[m] = data_time
            miss_verify[m] = verify_time
        if l1_done > data_time:
            data_time = l1_done
        if data_time > verify_time:
            verify_time = data_time
        acc_data[i] = data_time
        acc_verify[i] = verify_time
        return data_time, verify_time

    def frontier(cycle):
        """engine.auth_frontier: LastRequest completion as read at
        ``cycle``."""
        if not auth_enabled:
            return 0
        index = bisect_right(fetch_times, cycle) - 1
        if index < 0:
            return 0
        return completions[index]

    # ---- pipeline replay (mirror of TimestampCore.run) ---------------
    fetch_width = c["fetch_width"]
    issue_width = c["issue_width"]
    commit_width = c["commit_width"]
    ruu_size = c["ruu_size"]
    lsq_size = c["lsq_size"]
    depth = c["depth"]
    penalty = c["penalty"]
    sb_size = c["sb_size"]

    reg_ready = [0] * 64
    reg_frontier = [0] * 64
    ctrl_frontier = 0
    ruu_ring = [0] * ruu_size
    lsq_ring = [0] * lsq_size
    sb_ring = [0] * sb_size

    fetch_frontier = 0
    fetched_in_cycle = 0
    fetch_cycle = -1
    redirect_time = 0
    issue_calendar = {}
    last_commit = 0
    commit_cycle = -1
    committed_in_cycle = 0
    ruu_index = 0
    lsq_index = 0
    sb_index = 0

    auth_commit_stall = 0
    auth_issue_stall = 0
    sb_full_stall = 0
    branch_mispredicts = 0

    warmup = prepass.warmup
    warmup_commit = 0

    op_load = 3  # Op.LOAD
    op_store = 4  # Op.STORE
    op_branch = 5  # Op.BRANCH
    op_jump = 6  # Op.JUMP
    unit_latency = c["unit_latency"]
    calendar_get = issue_calendar.get
    if_flags = prepass.if_flags
    prune_mask = c["prune_interval"] - 1
    iline_data = 0
    iline_verify = 0

    packed = prepass.packed
    for index, (op, dest, srcs, mispredict) in enumerate(
            zip(packed.ops, packed.dests, packed.srcss,
                packed.mispredicts)):
        if index == warmup and warmup:
            warmup_commit = last_commit
        # ---------------- fetch ----------------------------------
        base = fetch_frontier
        if redirect_time > base:
            base = redirect_time
        if base != fetch_cycle:
            fetch_cycle = base
            fetched_in_cycle = 0
        elif fetched_in_cycle >= fetch_width:
            fetch_cycle += 1
            fetched_in_cycle = 0
            base = fetch_cycle
        fetched_in_cycle += 1

        if if_flags[index]:
            if precise_fetch:
                gate = ctrl_frontier
            elif gate_fetch:
                gate = frontier(base)
            else:
                gate = 0
            iline_data, iline_verify = mem_access(base, gate, l1i_latency)
        if iline_data > base:
            base = iline_data
            fetch_cycle = base
            fetched_in_cycle = 1
        fetch_frontier = base

        # ---------------- dispatch -------------------------------
        dispatch = base + depth
        slot_free = ruu_ring[ruu_index]
        if slot_free > dispatch:
            dispatch = slot_free
        is_mem = op == op_load or op == op_store
        if is_mem:
            lsq_free = lsq_ring[lsq_index]
            if lsq_free > dispatch:
                dispatch = lsq_free

        # ---------------- issue ----------------------------------
        ready = dispatch
        for src in srcs:
            t = reg_ready[src]
            if t > ready:
                ready = t
        if gate_issue:
            if iline_verify > ready:
                auth_issue_stall += iline_verify - ready
                ready = iline_verify
        count = calendar_get(ready, 0)
        while count >= issue_width:
            ready += 1
            count = calendar_get(ready, 0)
        issue_calendar[ready] = count + 1
        issue = ready

        # ---------------- execute --------------------------------
        verify_needed = iline_verify if gate_commit else 0
        store_frontier = 0
        if precise_fetch:
            slice_frontier = ctrl_frontier
            if iline_verify > slice_frontier:
                slice_frontier = iline_verify
            for src in srcs:
                f = reg_frontier[src]
                if f > slice_frontier:
                    slice_frontier = f
        if op == op_load:
            if precise_fetch:
                gate = slice_frontier
            elif gate_fetch:
                gate = frontier(issue + 1) if drain_fetch else frontier(issue)
            else:
                gate = 0
            data_time, verify_time = mem_access(issue + 1, gate,
                                                l1d_latency)
            value_time = verify_time if gate_issue else data_time
            if gate_issue and value_time > data_time:
                auth_issue_stall += value_time - data_time
            complete = value_time
            if dest >= 0:
                reg_ready[dest] = value_time
                if precise_fetch:
                    f = slice_frontier
                    if verify_time > f:
                        f = verify_time
                    reg_frontier[dest] = f
            if gate_commit and verify_time > verify_needed:
                verify_needed = verify_time
        elif op == op_store:
            complete = issue + 1
            if gate_store:
                store_frontier = frontier(issue)
        else:
            complete = issue + unit_latency[op]
            if dest >= 0:
                reg_ready[dest] = complete
                if precise_fetch:
                    reg_frontier[dest] = slice_frontier

        if precise_fetch and (op == op_branch or op == op_jump):
            if slice_frontier > ctrl_frontier:
                ctrl_frontier = slice_frontier

        if mispredict:
            branch_mispredicts += 1
            resolve = complete + penalty
            if resolve > redirect_time:
                redirect_time = resolve

        # ---------------- commit ---------------------------------
        commit = complete + 1
        if last_commit > commit:
            commit = last_commit
        if verify_needed > commit:
            auth_commit_stall += verify_needed - commit
            commit = verify_needed
        if op == op_store:
            sb_free = sb_ring[sb_index]
            if sb_free > commit:
                sb_full_stall += 1
                commit = sb_free
        if commit != commit_cycle:
            commit_cycle = commit
            committed_in_cycle = 0
        elif committed_in_cycle >= commit_width:
            commit_cycle += 1
            committed_in_cycle = 0
            commit = commit_cycle
        committed_in_cycle += 1
        last_commit = commit

        if op == op_store:
            if gate_store:
                release = commit if commit > store_frontier \
                    else store_frontier
            else:
                release = commit
            if precise_fetch:
                gate = slice_frontier
            elif gate_fetch:
                gate = frontier(release) if drain_fetch else frontier(issue)
            else:
                gate = 0
            mem_access(release, gate, l1d_latency)
            sb_ring[sb_index] = release
            sb_index += 1
            if sb_index == sb_size:
                sb_index = 0

        ruu_ring[ruu_index] = commit
        ruu_index += 1
        if ruu_index == ruu_size:
            ruu_index = 0
        if is_mem:
            lsq_ring[lsq_index] = commit
            lsq_index += 1
            if lsq_index == lsq_size:
                lsq_index = 0

        if index & prune_mask == prune_mask:
            floor = fetch_frontier + depth
            for key in [k for k in issue_calendar if k < floor]:
                del issue_calendar[key]

    return {
        "cycles": last_commit - warmup_commit,
        "wait_cycles": wait_cycles,
        "read_lat_buckets": read_lat_buckets,
        "gap_buckets": gap_buckets,
        "pad_hidden": pad_hidden,
        "pad_exposed": pad_exposed,
        "queue_full": queue_full,
        "mshr_stalls": mshr_stalls,
        "auth_requests": len(completions),
        "auth_commit_stall": auth_commit_stall,
        "auth_issue_stall": auth_issue_stall,
        "sb_full_stall": sb_full_stall,
        "branch_mispredicts": branch_mispredicts,
    }
