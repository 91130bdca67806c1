"""One-pass timestamp model of the out-of-order pipeline.

For each committed-path instruction the model computes, in program order:

``fetch`` -> bounded by fetch width, I-cache/ITLB, branch redirects;
``dispatch`` -> fetch + pipeline depth, bounded by a free RUU entry (and
LSQ entry for memory ops);
``issue`` -> operands ready (register timestamps), bounded by issue width;
under *authen-then-issue* also by the instruction line's verification;
``complete`` -> functional-unit latency, or the D-cache/memory path for
loads (whose value availability is policy-gated);
``commit`` -> in order, bounded by commit width and, under
*authen-then-commit*, by verification of the instruction's own line and
its memory operand's line.  Stores additionally need a free store-buffer
slot; under *authen-then-write* a slot frees only when the authentication
frontier recorded at the store's issue has drained.

External fetches triggered by any level are gated through the policy's
``fetch_gate`` (*authen-then-fetch*).
"""

from time import perf_counter

# Read as this module's own globals, so a test may re-bind the interval.
from repro.cpu.native import _CALENDAR_PRUNE_INTERVAL, _UNIT_LATENCY
from repro.obs.events import (
    COMMIT,
    FETCH_ISSUED,
    ISSUE,
    LANE_COMMIT,
    LANE_FETCH,
    LANE_ISSUE,
    LANE_STORE,
    SQUASH,
    STORE_RELEASED,
)
from repro.sim.result import RunResult
from repro.util.statistics import StatGroup
from repro.workloads.trace import NUM_REGS, Op


class TimestampCore:
    """Trace-driven out-of-order core with authentication control points."""

    def __init__(self, config, policy, hierarchy, stats=None, tracer=None):
        self.config = config
        self.policy = policy
        self.hierarchy = hierarchy
        self.stats = stats if stats is not None else StatGroup("core")
        self.tracer = tracer
        # Peak issue-calendar population observed by the last run()
        # (sampled at every prune point and at the end of the run):
        # observability for the sliding-window bound, and what the
        # bounded-memory regression test asserts on.
        self.issue_calendar_peak = 0

    def run(self, trace, warmup=0, profiler=None):
        """Replay ``trace`` and return a :class:`RunResult`.

        The hot loop iterates the trace's parallel columns
        (:meth:`~repro.workloads.trace.Trace.packed`), so per-instruction
        cost is one tuple unpack.

        The first ``warmup`` instructions warm the caches, TLBs, counter
        cache and branch state but are excluded from the reported cycle
        and instruction counts (the paper warms L1/L2 during SimPoint
        fast-forward; this is the trace-driven equivalent).

        ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler`) splits
        the replay wall clock into ``warmup`` and ``measure`` phases.
        """
        cfg = self.config.core
        policy = self.policy
        hier = self.hierarchy
        engine = hier.engine

        packed = trace.packed()
        num_insts = len(packed)

        fetch_width = cfg.fetch_width
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        ruu_size = cfg.ruu_entries
        lsq_size = cfg.lsq_entries
        depth = cfg.pipeline_depth
        penalty = cfg.branch_mispredict_penalty
        sb_size = self.config.secure.store_buffer_entries
        gate_issue = policy.gate_issue
        gate_commit = policy.gate_commit
        gate_fetch = policy.gate_fetch
        gate_store = policy.gate_store
        precise_fetch = gate_fetch and \
            getattr(policy, "fetch_mode", "tag") == "precise"
        iline_bytes = self.config.l1i.line_bytes

        reg_ready = [0] * NUM_REGS
        # Precise authen-then-fetch: per-register verification frontier of
        # the value's whole data/control ancestry, plus the control-flow
        # frontier carried by branches.
        reg_frontier = [0] * NUM_REGS
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
        # Rolling ring cursors (cheaper than a modulo per instruction).
        ruu_index = 0
        lsq_index = 0
        sb_index = 0
        cur_iline = -1

        auth_commit_stall = self.stats.counter("auth_commit_stall_cycles")
        auth_issue_stall = self.stats.counter("auth_issue_stall_cycles")
        sb_full_stall = self.stats.counter("store_buffer_full_stalls")
        mispredicts = self.stats.counter("branch_mispredicts")

        warmup = min(warmup, num_insts)
        warmup_commit = 0

        # Tracing fast path: one hoisted boolean; a disabled tracer costs
        # the hot loop only these predicate tests.
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        op_names = Op.NAMES
        run_start = perf_counter() if profiler is not None else 0.0
        warmup_wall = 0.0

        # Everything the loop touches per instruction lives in a local:
        # globals, class attributes and bound methods all cost a dict
        # probe per use in CPython.
        op_load = Op.LOAD
        op_store = Op.STORE
        op_branch = Op.BRANCH
        op_jump = Op.JUMP
        # Ops are small ints: list indexing beats a dict probe.
        unit_latency = [_UNIT_LATENCY.get(code, 0) for code in range(8)]
        ifetch = hier.ifetch
        do_load = hier.load
        do_store = hier.store
        fetch_gate_time = policy.fetch_gate_time
        value_ready = policy.value_ready
        store_release = policy.store_release
        auth_frontier = engine.auth_frontier
        calendar_get = issue_calendar.get
        auth_issue_add = auth_issue_stall.add
        auth_commit_add = auth_commit_stall.add

        prune_mask = _CALENDAR_PRUNE_INTERVAL - 1
        calendar_peak = 0
        iline_data = 0
        iline_verify = 0

        for index, (pc, op, dest, srcs, addr, mispredict) in enumerate(
                packed.rows()):
            if index == warmup and warmup:
                warmup_commit = last_commit
                self.hierarchy.reset_stats()
                if profiler is not None:
                    warmup_wall = perf_counter() - run_start
                    profiler.add("warmup", warmup_wall)
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

            iline = pc // iline_bytes
            if iline != cur_iline:
                if precise_fetch:
                    # Instruction fetch depends on the control slice only.
                    gate = ctrl_frontier
                elif gate_fetch:
                    gate = fetch_gate_time(engine, base, base)
                else:
                    gate = 0
                if tracing:
                    tracer.emit(FETCH_ISSUED, LANE_FETCH, base, pc=pc,
                                iline=iline)
                iline_data, iline_verify = ifetch(pc, base, gate_time=gate)
                cur_iline = iline
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
                    auth_issue_add(iline_verify - ready)
                    ready = iline_verify
            # issue bandwidth
            count = calendar_get(ready, 0)
            while count >= issue_width:
                ready += 1
                count = calendar_get(ready, 0)
            issue_calendar[ready] = count + 1
            issue = ready
            if tracing:
                tracer.emit(ISSUE, LANE_ISSUE, issue, pc=pc,
                            op=op_names.get(op, op))

            # ---------------- execute --------------------------------
            verify_needed = iline_verify if gate_commit else 0
            store_frontier = 0
            if precise_fetch:
                # Verification frontier of this instruction's slice: its
                # own I-line, its operands' ancestry, the control slice.
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
                    gate = fetch_gate_time(engine, issue, issue + 1)
                else:
                    gate = 0
                data_time, verify_time = do_load(addr, issue + 1,
                                                 gate_time=gate)
                value_time = value_ready(data_time, verify_time)
                if gate_issue and value_time > data_time:
                    auth_issue_add(value_time - data_time)
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
                    store_frontier = auth_frontier(issue)
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
                mispredicts.value += 1
                resolve = complete + penalty
                if tracing:
                    tracer.emit(SQUASH, LANE_FETCH, resolve, pc=pc)
                if resolve > redirect_time:
                    redirect_time = resolve

            # ---------------- commit ---------------------------------
            commit = complete + 1
            if last_commit > commit:
                commit = last_commit
            if verify_needed > commit:
                auth_commit_add(verify_needed - commit)
                commit = verify_needed
            if op == op_store:
                sb_free = sb_ring[sb_index]
                if sb_free > commit:
                    sb_full_stall.value += 1
                    commit = sb_free
            # commit bandwidth (in order -> monotonic counter)
            if commit != commit_cycle:
                commit_cycle = commit
                committed_in_cycle = 0
            elif committed_in_cycle >= commit_width:
                commit_cycle += 1
                committed_in_cycle = 0
                commit = commit_cycle
            committed_in_cycle += 1
            last_commit = commit
            if tracing:
                tracer.emit(COMMIT, LANE_COMMIT, commit, pc=pc,
                            op=op_names.get(op, op))

            if op == op_store:
                release = store_release(commit, store_frontier)
                if precise_fetch:
                    gate = slice_frontier
                elif gate_fetch:
                    gate = fetch_gate_time(engine, issue, release)
                else:
                    gate = 0
                if tracing:
                    tracer.emit(STORE_RELEASED, LANE_STORE, release,
                                addr=addr)
                do_store(addr, release, gate_time=gate)
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

            # ------------- issue-calendar sliding window --------------
            if index & prune_mask == prune_mask:
                size = len(issue_calendar)
                if size > calendar_peak:
                    calendar_peak = size
                # Probes are always at >= fetch_frontier + depth and the
                # frontier never moves backwards, so everything behind
                # that floor is dead weight.
                floor = fetch_frontier + depth
                for key in [k for k in issue_calendar if k < floor]:
                    del issue_calendar[key]

        size = len(issue_calendar)
        if size > calendar_peak:
            calendar_peak = size
        self.issue_calendar_peak = calendar_peak

        if profiler is not None:
            profiler.add("measure", perf_counter() - run_start - warmup_wall)
        cycles = last_commit - warmup_commit
        return RunResult(
            getattr(trace, "name", "trace"),
            policy.name,
            num_insts - warmup,
            cycles,
            self.stats,
            hier.miss_summary(),
        )
