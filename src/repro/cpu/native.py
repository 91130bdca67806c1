"""Native (C) kernel: the structural walk, the replay and the generator.

The decode-once/evaluate-many pipeline has two hot loops, and both are
pure integer arithmetic -- a shape the system C compiler turns into
code an order of magnitude faster than the CPython interpreter loop;
so is the synthetic trace generator that feeds them.  This module
carries all three as one C translation unit, compiles it at first use
and drives it through :mod:`ctypes`:

- :func:`walk` is the structural walk behind
  :func:`~repro.cpu.prepass.build_prepass`: a decision-for-decision
  mirror of the memory system's structural half (caches, TLBs, counter
  cache, CHTree node walk, address obfuscation, stream prefetches,
  SDRAM rows) that records a :class:`~repro.cpu.prepass.TracePrepass`'s
  columns;
- :func:`replay` times one policy over those columns, a line-for-line
  mirror of :meth:`repro.cpu.core.TimestampCore.run` and of the timing
  half of the memory walk.  :func:`config_block` is the one derivation
  of the scalars it consumes;
- :func:`tracegen` is the loop of
  :func:`~repro.workloads.tracegen.generate_trace`, drawing from the
  stream's own ``random.Random`` state exactly as the Python loop in
  ``tests/oracle/tracegen.py`` (its oracle,
  ``tests/workloads/test_tracegen_oracle.py``) does;
- :func:`trace_bounds` is the value half of every trace's check
  (``PackedTrace._check``), whose oracle is the Python check in
  ``tests/oracle/trace_check.py``.

Everything is integer arithmetic, so walk plus replay is
*bit-identical* to the legacy simulator: the differential suite and the
lockstep oracle property in ``tests/cpu/`` pin native == legacy, and
``repro perf`` gates the pinned goldens.  The kernel is a hard
requirement: it needs a C compiler (``CC``, default ``cc``), and when
it cannot be built every use raises
:class:`~repro.errors.KernelUnavailableError`, naming the compile
command, its exit status and its stderr tail.

The compiled object is cached as
``<cache>/repro-kernel-<source-hash>.so`` (``REPRO_NATIVE_CACHE``,
default the system temp dir); each machine compiles once and
process-pool workers just dlopen the cached object.  The walk's columns
come back as ``array('q')`` (no third-party deps), and the walk and
every replay read them and the trace's own int64 columns as they are.
"""

import ctypes
import hashlib
import os
import tempfile
from array import array
from collections import Counter

from repro.errors import KernelUnavailableError
from repro.workloads.trace import NUM_REGS, Op, PackedTrace

#: Functional-unit latency per op code, in the replay's config block
#: and in the legacy core (``cpu/core.py``), which imports both constants.
_UNIT_LATENCY = {
    Op.IALU: 1,
    Op.IMUL: 3,
    Op.FPU: 4,
    Op.BRANCH: 1,
    Op.JUMP: 1,
    Op.SYSTEM: 1,
    Op.STORE: 1,  # address generation; data is written at commit
}

# The issue calendar (issue cycle -> instructions issued that cycle) is
# pruned every this-many instructions: entries behind the fetch frontier
# plus pipeline depth can never be probed again (every future probe is at
# ``>= fetch_frontier + depth`` and the frontier is monotonic), so
# dropping them is timing-neutral while keeping the dict's size bounded
# by the prune interval plus the in-flight issue spread instead of
# growing with the run length.
_CALENDAR_PRUNE_INTERVAL = 4096

#: Output block size -- keep in lockstep with the OUT_* enum in the C
#: source (config_block() follows its CFG_* enum the same way).
_OUT_SLOTS = 12
#: Generator config block sizes: G_DOUBLES and G_INTS in the C source.
_GEN_DOUBLES = 9
_GEN_INTS = 6

_C_SOURCE = "#define NUM_REGS %d\n" % NUM_REGS + r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Scalar config block layout (mirror of config_block in native.py). */
enum {
    CFG_NUM_INSTS, CFG_WARMUP, CFG_N_ACCESSES, CFG_N_MISSES,
    CFG_GATE_ISSUE, CFG_GATE_COMMIT, CFG_GATE_FETCH, CFG_GATE_STORE,
    CFG_PRECISE_FETCH, CFG_DRAIN_FETCH, CFG_AUTH_ENABLED,
    CFG_DUR_LINE, CFG_DUR_META, CFG_RAS0, CFG_RAS1, CFG_RAS2,
    CFG_MAC_LATENCY, CFG_MAC_THROUGHPUT, CFG_QUEUE_DEPTH,
    CFG_DECRYPT_LAT, CFG_XOR_LAT,
    CFG_L1I_LAT, CFG_L1D_LAT, CFG_L2_LAT,
    CFG_NUM_BANKS, CFG_MSHR_ENTRIES,
    CFG_FETCH_WIDTH, CFG_ISSUE_WIDTH, CFG_COMMIT_WIDTH,
    CFG_RUU_SIZE, CFG_LSQ_SIZE, CFG_DEPTH, CFG_PENALTY, CFG_SB_SIZE,
    CFG_UNIT_LAT0,                    /* ..+7: latency per op code 0..7 */
    CFG_PRUNE_INTERVAL = CFG_UNIT_LAT0 + 8,
    CFG_TREE, CFG_TREE_EXTRA, CFG_REMAP, CFG_REMAP_LAT, CFG_DUR_REMAP,
    CFG_CBC, CFG_CHUNKS, CFG_PREFETCH,
    CFG_SLOTS
};

/* Scalar output block layout (mirror of replay() in native.py). */
enum {
    OUT_LAST_COMMIT, OUT_WARMUP_COMMIT, OUT_WAIT_CYCLES,
    OUT_PAD_HIDDEN, OUT_PAD_EXPOSED, OUT_QUEUE_FULL, OUT_MSHR_STALLS,
    OUT_AUTH_COMMIT_STALL, OUT_AUTH_ISSUE_STALL, OUT_SB_FULL_STALL,
    OUT_BRANCH_MISPRED, OUT_N_COMPLETIONS, OUT_SLOTS
};

#define OP_IALU   0
#define OP_IMUL   1
#define OP_FPU    2
#define OP_LOAD   3
#define OP_STORE  4
#define OP_BRANCH 5
#define OP_JUMP   6

/* ---- issue calendar: open-addressing int64 -> int64 map.
 * One insert per instruction, pruned wholesale every
 * CFG_PRUNE_INTERVAL instructions (same contract as the Python dict in
 * TimestampCore.run: keys behind fetch_frontier + depth can never be
 * probed again, so the table stays bounded). */
typedef struct {
    int64_t cap;                      /* power of two */
    int64_t used;
    int64_t *keys;
    int64_t *vals;
    uint8_t *full;
} cal_t;

static int cal_init(cal_t *c, int64_t cap)
{
    c->cap = cap;
    c->used = 0;
    c->keys = (int64_t *)malloc(sizeof(int64_t) * (size_t)cap);
    c->vals = (int64_t *)malloc(sizeof(int64_t) * (size_t)cap);
    c->full = (uint8_t *)calloc((size_t)cap, 1);
    return (c->keys && c->vals && c->full) ? 0 : -1;
}

static void cal_free(cal_t *c)
{
    free(c->keys);
    free(c->vals);
    free(c->full);
    c->keys = c->vals = 0;
    c->full = 0;
}

static int64_t cal_slot(const cal_t *c, int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    int64_t mask = c->cap - 1;
    int64_t i = (int64_t)(h >> 17) & mask;
    while (c->full[i] && c->keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

static int64_t cal_get(const cal_t *c, int64_t key)
{
    int64_t i = cal_slot(c, key);
    return c->full[i] ? c->vals[i] : 0;
}

/* Rebuild the table: doubled when `floor_key` is negative (load-factor
 * growth), same-size keeping only keys >= floor_key otherwise (prune). */
static int cal_rebuild(cal_t *c, int64_t floor_key)
{
    cal_t next;
    int64_t cap = floor_key < 0 ? c->cap * 2 : c->cap;
    int64_t i;
    if (cal_init(&next, cap) != 0)
        return -1;
    for (i = 0; i < c->cap; i++) {
        if (!c->full[i])
            continue;
        if (floor_key >= 0 && c->keys[i] < floor_key)
            continue;
        {
            int64_t j = cal_slot(&next, c->keys[i]);
            next.full[j] = 1;
            next.keys[j] = c->keys[i];
            next.vals[j] = c->vals[i];
            next.used++;
        }
    }
    cal_free(c);
    *c = next;
    return 0;
}

static int cal_put(cal_t *c, int64_t key, int64_t val)
{
    int64_t i = cal_slot(c, key);
    if (!c->full[i]) {
        c->full[i] = 1;
        c->keys[i] = key;
        c->vals[i] = val;
        c->used++;
        if (c->used * 4 > c->cap * 3)
            return cal_rebuild(c, -1);
        return 0;
    }
    c->vals[i] = val;
    return 0;
}

/* ---- replay state shared with mem_access ------------------------- */
typedef struct {
    const int64_t *a_pre, *a_lvl, *a_ref, *a_wb;
    const int64_t *m_wb, *m_counter, *m_tree, *m_backing, *m_remap;
    const int64_t *m_prefetch, *d_bank, *d_cat;
    int64_t *acc_data, *acc_verify, *miss_data, *miss_verify;
    int64_t *bank_ready, *mshr_ring, *completions, *fetch_times;
    int64_t *lat_out, *gap_out;
    int64_t acc_cursor, dram_cursor, bus_free, wait_cycles;
    int64_t pad_hidden, pad_exposed, queue_full, mshr_stalls;
    int64_t mshr_index, mshr_len;
    int64_t n_completions, n_fetch_times, last_start, has_last_start;
    int64_t dur_line, dur_meta;
    int64_t ras[3];
    int64_t mac_latency, mac_throughput, queue_depth;
    int64_t decrypt_latency, xor_latency, l2_latency;
    int64_t auth_enabled, tree, tree_extra, remap, remap_latency;
    int64_t dur_remap, cbc, chunks, prefetch;
} rs_t;

/* engine.auth_frontier: LastRequest completion as read at `cycle`. */
static int64_t frontier(const rs_t *rs, int64_t cycle)
{
    int64_t lo = 0, hi = rs->n_fetch_times;
    if (!rs->auth_enabled)
        return 0;
    while (lo < hi) {                 /* bisect_right(fetch_times, cycle) */
        int64_t mid = (lo + hi) / 2;
        if (cycle < rs->fetch_times[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo == 0)
        return 0;
    return rs->completions[lo - 1];
}

/* The next recorded DRAM op, issued at `cycle` and holding the bus for
 * `dur` cycles (DramModel.access + BandwidthBus.reserve); returns its
 * completion cycle. */
static int64_t dram_op(rs_t *rs, int64_t cycle, int64_t dur)
{
    int64_t d = rs->dram_cursor++;
    int64_t bank = rs->d_bank[d];
    int64_t ready = rs->bank_ready[bank];
    int64_t bstart = cycle > ready ? cycle : ready;
    int64_t data_ready = bstart + rs->ras[rs->d_cat[d]];
    int64_t free_at = rs->bus_free;
    int64_t tstart = data_ready > free_at ? data_ready : free_at;
    int64_t done = tstart + dur;
    rs->bus_free = done;
    rs->wait_cycles += tstart - data_ready;
    rs->bank_ready[bank] = done;
    return done;
}

/* SecureMemoryEngine.fetch_line from `issue` on, for miss `m`: the
 * counter-mode pad source or CBC's serial chunk decryption, the re-map
 * probe, the line fetch and the authentication queue.  Records the
 * miss's timestamps and returns the line's arrival (mem_done). */
static int64_t fetch_line(rs_t *rs, int64_t m, int64_t issue)
{
    int64_t pad_start = issue, fetch_ready = issue, ready_time;
    int64_t done, data_time, verify_time;
    /* Counter-mode pad source (CBC walks record no counter fetch). */
    if (rs->m_counter[m] == 2)
        pad_start = dram_op(rs, issue, rs->dur_meta);
    /* Address obfuscation: re-map cache probe, entry fetch on a miss. */
    if (rs->remap) {
        fetch_ready = issue + rs->remap_latency;
        if (rs->m_remap[m])
            fetch_ready = dram_op(rs, fetch_ready, rs->dur_remap);
    }
    /* Main line fetch. */
    done = dram_op(rs, fetch_ready, rs->dur_line);
    rs->lat_out[m] = done - fetch_ready;
    if (rs->cbc) {
        /* _fetch_line_cbc: the consumer's word waits for the mean
         * serial chunk; the CBC-MAC needs the last one. */
        data_time = done + rs->decrypt_latency * ((rs->chunks + 1) / 2);
        ready_time = done + rs->decrypt_latency * rs->chunks;
    } else {
        /* Decrypt overlap. */
        int64_t pad_done = pad_start + rs->decrypt_latency;
        if (pad_done <= done) {
            rs->pad_hidden++;
            data_time = done + rs->xor_latency;
        } else {
            rs->pad_exposed += pad_done - done;
            data_time = pad_done + rs->xor_latency;
        }
        ready_time = done;
    }
    if (rs->auth_enabled) {
        /* AuthQueue.enqueue(ready, extra, fetch_time=done); tag == m. */
        int64_t fetch_time = done, extra = 0, qstart;
        if (rs->tree) {
            /* HashTreeTiming.verification_extra: the node fetches
             * chain from the line's verification start; an L2-resident
             * node ends the walk one L2 latency later. */
            int64_t f;
            for (f = 0; f < rs->m_tree[m]; f++)
                ready_time = dram_op(rs, ready_time, rs->dur_meta);
            if (rs->m_backing[m])
                ready_time += rs->l2_latency;
            if (rs->m_tree[m] || rs->m_backing[m])
                extra = rs->tree_extra;
        }
        if (rs->n_fetch_times
                && fetch_time < rs->fetch_times[rs->n_fetch_times - 1])
            fetch_time = rs->fetch_times[rs->n_fetch_times - 1];
        rs->fetch_times[rs->n_fetch_times++] = fetch_time;
        if (m >= rs->queue_depth) {
            int64_t qslot = rs->completions[m - rs->queue_depth];
            if (qslot > ready_time) {
                rs->queue_full++;
                ready_time = qslot;
            }
        }
        if (!rs->has_last_start) {
            qstart = ready_time;
        } else {
            qstart = rs->last_start + rs->mac_throughput;
            if (ready_time > qstart)
                qstart = ready_time;
        }
        verify_time = qstart + rs->mac_latency + extra;
        if (m && verify_time < rs->completions[rs->n_completions - 1])
            verify_time = rs->completions[rs->n_completions - 1];
        rs->last_start = qstart;
        rs->has_last_start = 1;
        rs->completions[rs->n_completions++] = verify_time;
        rs->gap_out[m] = verify_time > data_time ? verify_time - data_time
                                                 : 0;
    } else {
        verify_time = data_time;
    }
    rs->miss_data[m] = data_time;
    rs->miss_verify[m] = verify_time;
    return done;
}

/* Timing replay of one ifetch/load/store access. */
static void mem_access(rs_t *rs, int64_t cycle, int64_t gate_time,
                       int64_t l1_latency,
                       int64_t *out_data, int64_t *out_verify)
{
    int64_t i = rs->acc_cursor++;
    int64_t w, lvl, data_time, verify_time, l1_done, l2_cycle;
    cycle += rs->a_pre[i];
    for (w = 0; w < rs->a_wb[i]; w++)
        dram_op(rs, cycle, rs->dur_line);
    lvl = rs->a_lvl[i];
    if (lvl == 0) {                                   /* L1 hit */
        int64_t ref = rs->a_ref[i];
        data_time = rs->acc_data[ref];
        l1_done = cycle + l1_latency;
        if (l1_done > data_time)
            data_time = l1_done;
        verify_time = rs->acc_verify[ref];
        if (verify_time < data_time)
            verify_time = data_time;
        rs->acc_data[i] = data_time;
        rs->acc_verify[i] = verify_time;
        *out_data = data_time;
        *out_verify = verify_time;
        return;
    }
    l1_done = cycle + l1_latency;
    l2_cycle = l1_done + rs->l2_latency;
    if (lvl == 1) {                                   /* L2 hit */
        int64_t ref = rs->a_ref[i];
        if (ref >= 0) {
            data_time = rs->miss_data[ref];
            verify_time = rs->miss_verify[ref];
        } else {
            data_time = 0;
            verify_time = 0;
        }
        if (l2_cycle > data_time)
            data_time = l2_cycle;
        if (verify_time < data_time)
            verify_time = data_time;
    } else {                                          /* L2 miss */
        int64_t m = rs->a_ref[i];
        int64_t fetch_cycle, slot_free, issue, done, p;
        for (w = 0; w < rs->m_wb[m]; w++)
            dram_op(rs, l2_cycle, rs->dur_line);
        /* MSHR backpressure, then the fetch gate. */
        fetch_cycle = l2_cycle;
        slot_free = rs->mshr_ring[rs->mshr_index];
        if (slot_free > fetch_cycle) {
            rs->mshr_stalls++;
            fetch_cycle = slot_free;
        }
        issue = fetch_cycle > gate_time ? fetch_cycle : gate_time;
        done = fetch_line(rs, m, issue);
        rs->mshr_ring[rs->mshr_index] = done;
        rs->mshr_index++;
        if (rs->mshr_index == rs->mshr_len)
            rs->mshr_index = 0;
        /* hierarchy._prefetch_after: the walk recorded this miss's
         * prefetches as the misses right after it; each writes its
         * victim back and fetches at the trigger's arrival, ungated
         * and without an MSHR slot. */
        if (rs->prefetch)
            for (p = m + 1; p <= m + rs->m_prefetch[m]; p++) {
                for (w = 0; w < rs->m_wb[p]; w++)
                    dram_op(rs, done, rs->dur_line);
                fetch_line(rs, p, done);
            }
        data_time = rs->miss_data[m];
        verify_time = rs->miss_verify[m];
    }
    if (l1_done > data_time)
        data_time = l1_done;
    if (data_time > verify_time)
        verify_time = data_time;
    rs->acc_data[i] = data_time;
    rs->acc_verify[i] = verify_time;
    *out_data = data_time;
    *out_verify = verify_time;
}

int64_t repro_replay(const int64_t *cfg,
                     const int64_t *ops, const int64_t *dests,
                     const int64_t *src_off, const int64_t *src_flat,
                     const int64_t *mispredicts, const int64_t *if_flags,
                     const int64_t *a_pre, const int64_t *a_lvl,
                     const int64_t *a_ref, const int64_t *a_wb,
                     const int64_t *m_wb, const int64_t *m_counter,
                     const int64_t *m_tree, const int64_t *m_backing,
                     const int64_t *m_remap, const int64_t *m_prefetch,
                     const int64_t *d_bank, const int64_t *d_cat,
                     int64_t *lat_out, int64_t *gap_out, int64_t *out)
{
    const int64_t n = cfg[CFG_NUM_INSTS];
    const int64_t warmup = cfg[CFG_WARMUP];
    const int64_t n_accesses = cfg[CFG_N_ACCESSES];
    const int64_t n_misses = cfg[CFG_N_MISSES];
    const int64_t gate_issue = cfg[CFG_GATE_ISSUE];
    const int64_t gate_commit = cfg[CFG_GATE_COMMIT];
    const int64_t gate_fetch = cfg[CFG_GATE_FETCH];
    const int64_t gate_store = cfg[CFG_GATE_STORE];
    const int64_t precise_fetch = cfg[CFG_PRECISE_FETCH];
    const int64_t drain_fetch = cfg[CFG_DRAIN_FETCH];
    const int64_t l1i_latency = cfg[CFG_L1I_LAT];
    const int64_t l1d_latency = cfg[CFG_L1D_LAT];
    const int64_t fetch_width = cfg[CFG_FETCH_WIDTH];
    const int64_t issue_width = cfg[CFG_ISSUE_WIDTH];
    const int64_t commit_width = cfg[CFG_COMMIT_WIDTH];
    const int64_t ruu_size = cfg[CFG_RUU_SIZE];
    const int64_t lsq_size = cfg[CFG_LSQ_SIZE];
    const int64_t depth = cfg[CFG_DEPTH];
    const int64_t penalty = cfg[CFG_PENALTY];
    const int64_t sb_size = cfg[CFG_SB_SIZE];
    const int64_t prune_mask = cfg[CFG_PRUNE_INTERVAL] - 1;

    int64_t reg_ready[NUM_REGS] = {0};
    int64_t reg_frontier[NUM_REGS] = {0};
    int64_t ctrl_frontier = 0;
    int64_t fetch_frontier = 0, fetched_in_cycle = 0, fetch_cycle = -1;
    int64_t redirect_time = 0, last_commit = 0, commit_cycle = -1;
    int64_t committed_in_cycle = 0;
    int64_t ruu_index = 0, lsq_index = 0, sb_index = 0;
    int64_t auth_commit_stall = 0, auth_issue_stall = 0;
    int64_t sb_full_stall = 0, branch_mispredicts = 0;
    int64_t warmup_commit = 0;
    int64_t iline_data = 0, iline_verify = 0;
    int64_t index, rc = -1;

    rs_t rs = {0};
    cal_t cal = {0};
    int64_t *ruu_ring = 0, *lsq_ring = 0, *sb_ring = 0;

    rs.a_pre = a_pre; rs.a_lvl = a_lvl; rs.a_ref = a_ref; rs.a_wb = a_wb;
    rs.m_wb = m_wb; rs.m_counter = m_counter;
    rs.m_tree = m_tree; rs.m_backing = m_backing; rs.m_remap = m_remap;
    rs.m_prefetch = m_prefetch;
    rs.d_bank = d_bank; rs.d_cat = d_cat;
    rs.lat_out = lat_out; rs.gap_out = gap_out;
    rs.mshr_len = cfg[CFG_MSHR_ENTRIES];
    rs.dur_line = cfg[CFG_DUR_LINE];
    rs.dur_meta = cfg[CFG_DUR_META];
    rs.ras[0] = cfg[CFG_RAS0];
    rs.ras[1] = cfg[CFG_RAS1];
    rs.ras[2] = cfg[CFG_RAS2];
    rs.mac_latency = cfg[CFG_MAC_LATENCY];
    rs.mac_throughput = cfg[CFG_MAC_THROUGHPUT];
    rs.queue_depth = cfg[CFG_QUEUE_DEPTH];
    rs.decrypt_latency = cfg[CFG_DECRYPT_LAT];
    rs.xor_latency = cfg[CFG_XOR_LAT];
    rs.l2_latency = cfg[CFG_L2_LAT];
    rs.auth_enabled = cfg[CFG_AUTH_ENABLED];
    rs.tree = cfg[CFG_TREE];
    rs.tree_extra = cfg[CFG_TREE_EXTRA];
    rs.remap = cfg[CFG_REMAP];
    rs.remap_latency = cfg[CFG_REMAP_LAT];
    rs.dur_remap = cfg[CFG_DUR_REMAP];
    rs.cbc = cfg[CFG_CBC];
    rs.chunks = cfg[CFG_CHUNKS];
    rs.prefetch = cfg[CFG_PREFETCH];

    rs.acc_data = (int64_t *)calloc((size_t)(n_accesses + 1), 8);
    rs.acc_verify = (int64_t *)calloc((size_t)(n_accesses + 1), 8);
    rs.miss_data = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.miss_verify = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.completions = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.fetch_times = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.bank_ready = (int64_t *)calloc((size_t)cfg[CFG_NUM_BANKS], 8);
    rs.mshr_ring = (int64_t *)calloc((size_t)rs.mshr_len, 8);
    ruu_ring = (int64_t *)calloc((size_t)ruu_size, 8);
    lsq_ring = (int64_t *)calloc((size_t)lsq_size, 8);
    sb_ring = (int64_t *)calloc((size_t)(sb_size + 1), 8);
    if (!rs.acc_data || !rs.acc_verify || !rs.miss_data
            || !rs.miss_verify || !rs.completions || !rs.fetch_times
            || !rs.bank_ready || !rs.mshr_ring
            || !ruu_ring || !lsq_ring || !sb_ring)
        goto done;
    if (cal_init(&cal, 1 << 14) != 0)
        goto done;

    for (index = 0; index < n; index++) {
        int64_t op = ops[index];
        int64_t dest = dests[index];
        int64_t mispredict = mispredicts[index];
        int64_t base, dispatch, slot_free, ready, count, issue;
        int64_t verify_needed, store_frontier, slice_frontier = 0;
        int64_t complete, commit, s;
        int is_mem;

        if (index == warmup && warmup)
            warmup_commit = last_commit;

        /* ---------------- fetch ---------------------------------- */
        base = fetch_frontier;
        if (redirect_time > base)
            base = redirect_time;
        if (base != fetch_cycle) {
            fetch_cycle = base;
            fetched_in_cycle = 0;
        } else if (fetched_in_cycle >= fetch_width) {
            fetch_cycle += 1;
            fetched_in_cycle = 0;
            base = fetch_cycle;
        }
        fetched_in_cycle += 1;

        if (if_flags[index]) {
            int64_t gate;
            if (precise_fetch)
                gate = ctrl_frontier;
            else if (gate_fetch)
                gate = frontier(&rs, base);
            else
                gate = 0;
            mem_access(&rs, base, gate, l1i_latency,
                       &iline_data, &iline_verify);
        }
        if (iline_data > base) {
            base = iline_data;
            fetch_cycle = base;
            fetched_in_cycle = 1;
        }
        fetch_frontier = base;

        /* ---------------- dispatch ------------------------------- */
        dispatch = base + depth;
        slot_free = ruu_ring[ruu_index];
        if (slot_free > dispatch)
            dispatch = slot_free;
        is_mem = (op == OP_LOAD || op == OP_STORE);
        if (is_mem) {
            int64_t lsq_free = lsq_ring[lsq_index];
            if (lsq_free > dispatch)
                dispatch = lsq_free;
        }

        /* ---------------- issue ---------------------------------- */
        ready = dispatch;
        for (s = src_off[index]; s < src_off[index + 1]; s++) {
            int64_t t = reg_ready[src_flat[s]];
            if (t > ready)
                ready = t;
        }
        if (gate_issue && iline_verify > ready) {
            auth_issue_stall += iline_verify - ready;
            ready = iline_verify;
        }
        count = cal_get(&cal, ready);
        while (count >= issue_width) {
            ready += 1;
            count = cal_get(&cal, ready);
        }
        if (cal_put(&cal, ready, count + 1) != 0)
            goto done;
        issue = ready;

        /* ---------------- execute -------------------------------- */
        verify_needed = gate_commit ? iline_verify : 0;
        store_frontier = 0;
        if (precise_fetch) {
            slice_frontier = ctrl_frontier;
            if (iline_verify > slice_frontier)
                slice_frontier = iline_verify;
            for (s = src_off[index]; s < src_off[index + 1]; s++) {
                int64_t f = reg_frontier[src_flat[s]];
                if (f > slice_frontier)
                    slice_frontier = f;
            }
        }
        if (op == OP_LOAD) {
            int64_t gate, data_time, verify_time, value_time;
            if (precise_fetch)
                gate = slice_frontier;
            else if (gate_fetch)
                gate = drain_fetch ? frontier(&rs, issue + 1)
                                   : frontier(&rs, issue);
            else
                gate = 0;
            mem_access(&rs, issue + 1, gate, l1d_latency,
                       &data_time, &verify_time);
            value_time = gate_issue ? verify_time : data_time;
            if (gate_issue && value_time > data_time)
                auth_issue_stall += value_time - data_time;
            complete = value_time;
            if (dest >= 0) {
                reg_ready[dest] = value_time;
                if (precise_fetch) {
                    int64_t f = slice_frontier;
                    if (verify_time > f)
                        f = verify_time;
                    reg_frontier[dest] = f;
                }
            }
            if (gate_commit && verify_time > verify_needed)
                verify_needed = verify_time;
        } else if (op == OP_STORE) {
            complete = issue + 1;
            if (gate_store)
                store_frontier = frontier(&rs, issue);
        } else {
            complete = issue + cfg[CFG_UNIT_LAT0 + op];
            if (dest >= 0) {
                reg_ready[dest] = complete;
                if (precise_fetch)
                    reg_frontier[dest] = slice_frontier;
            }
        }

        if (precise_fetch && (op == OP_BRANCH || op == OP_JUMP)
                && slice_frontier > ctrl_frontier)
            ctrl_frontier = slice_frontier;

        if (mispredict) {
            int64_t resolve = complete + penalty;
            branch_mispredicts++;
            if (resolve > redirect_time)
                redirect_time = resolve;
        }

        /* ---------------- commit --------------------------------- */
        commit = complete + 1;
        if (last_commit > commit)
            commit = last_commit;
        if (verify_needed > commit) {
            auth_commit_stall += verify_needed - commit;
            commit = verify_needed;
        }
        if (op == OP_STORE) {
            int64_t sb_free = sb_ring[sb_index];
            if (sb_free > commit) {
                sb_full_stall++;
                commit = sb_free;
            }
        }
        if (commit != commit_cycle) {
            commit_cycle = commit;
            committed_in_cycle = 0;
        } else if (committed_in_cycle >= commit_width) {
            commit_cycle += 1;
            committed_in_cycle = 0;
            commit = commit_cycle;
        }
        committed_in_cycle += 1;
        last_commit = commit;

        if (op == OP_STORE) {
            int64_t release, gate, dd, dv;
            if (gate_store)
                release = commit > store_frontier ? commit : store_frontier;
            else
                release = commit;
            if (precise_fetch)
                gate = slice_frontier;
            else if (gate_fetch)
                gate = drain_fetch ? frontier(&rs, release)
                                   : frontier(&rs, issue);
            else
                gate = 0;
            mem_access(&rs, release, gate, l1d_latency, &dd, &dv);
            sb_ring[sb_index] = release;
            sb_index++;
            if (sb_index == sb_size)
                sb_index = 0;
        }

        ruu_ring[ruu_index] = commit;
        ruu_index++;
        if (ruu_index == ruu_size)
            ruu_index = 0;
        if (is_mem) {
            lsq_ring[lsq_index] = commit;
            lsq_index++;
            if (lsq_index == lsq_size)
                lsq_index = 0;
        }

        if ((index & prune_mask) == prune_mask
                && cal_rebuild(&cal, fetch_frontier + depth) != 0)
            goto done;
    }

    out[OUT_LAST_COMMIT] = last_commit;
    out[OUT_WARMUP_COMMIT] = warmup_commit;
    out[OUT_WAIT_CYCLES] = rs.wait_cycles;
    out[OUT_PAD_HIDDEN] = rs.pad_hidden;
    out[OUT_PAD_EXPOSED] = rs.pad_exposed;
    out[OUT_QUEUE_FULL] = rs.queue_full;
    out[OUT_MSHR_STALLS] = rs.mshr_stalls;
    out[OUT_AUTH_COMMIT_STALL] = auth_commit_stall;
    out[OUT_AUTH_ISSUE_STALL] = auth_issue_stall;
    out[OUT_SB_FULL_STALL] = sb_full_stall;
    out[OUT_BRANCH_MISPRED] = branch_mispredicts;
    out[OUT_N_COMPLETIONS] = rs.n_completions;
    rc = 0;

done:
    free(rs.acc_data); free(rs.acc_verify);
    free(rs.miss_data); free(rs.miss_verify);
    free(rs.completions); free(rs.fetch_times);
    free(rs.bank_ready); free(rs.mshr_ring);
    free(ruu_ring); free(lsq_ring); free(sb_ring);
    cal_free(&cal);
    return rc;
}

/* ==================================================================
 * The structural walk (build_prepass): every cache, TLB, counter-cache,
 * tree-node-cache and re-map-cache outcome, every eviction and dirty
 * writeback, every prediction draw, every prefetch and every SDRAM
 * bank/row classification, mirrored decision for decision from
 * hierarchy._l1_access / _l1_writeback / _l2_miss / _prefetch_after
 * and engine.fetch_line / write_line, and recorded on the columns the
 * replay above reads.
 * ================================================================== */

/* Walk config block layout (mirror of the block build_prepass packs). */
enum {
    W_NUM_INSTS, W_WARMUP,
    W_L1I_SETS, W_L1I_ASSOC, W_L1I_LINE,
    W_L1D_SETS, W_L1D_ASSOC, W_L1D_LINE,
    W_L2_SETS, W_L2_ASSOC, W_L2_LINE,
    W_ITLB_SETS, W_DTLB_SETS, W_TLB_ASSOC, W_PAGE_BYTES, W_TLB_MISS_LAT,
    W_CC_SETS, W_WRAP, W_LINE_BYTES, W_COUNTER_BASE, W_COUNTER_BYTES,
    W_SPLIT, W_MINOR_LIMIT, W_PREDICT_THRESHOLD,
    W_NUM_BANKS, W_INTERLEAVE, W_ROW_DIV,
    W_TREE, W_TREE_SETS, W_TREE_LEVELS, W_TREE_ARITY,
    W_REMAP, W_REMAP_SETS, W_REMAP_BASE, W_ENTRY_BYTES, W_CHUNK_BYTES,
    W_SHUFFLE_PERIOD, W_N_DRAWS, W_CBC, W_PREFETCH,
    W_SLOTS
};

/* Walk output block: (pointer, length) per column, then the scalars. */
enum {
    C_IF_FLAGS, C_A_PRE, C_A_LVL, C_A_REF, C_A_WB, C_M_WB, C_M_COUNTER,
    C_M_TREE, C_M_BACKING, C_M_REMAP, C_M_PREFETCH, C_D_BANK, C_D_CAT,
    C_COLUMNS
};
enum {
    S_CC_HITS = 2 * C_COLUMNS, S_CC_MISSES, S_CC_EVICTIONS,
    S_CC_WRITEBACKS, S_ROW_HITS, S_ROW_EMPTY, S_ROW_CONFLICTS, S_N_META,
    S_N_WRITES, S_REENCRYPTS, S_NODE_FETCHES, S_BACKING_HITS,
    S_REMAP_FETCHES, S_RESHUFFLES, S_PREFETCHES,
    S_HM,                             /* ..+9: measured (hits, misses) of
                                         l1i, l1d, l2, itlb, dtlb */
    S_DEPTH = S_HM + 10,              /* ..+63: tree walk depth counts */
    S_SLOTS = S_DEPTH + 64
};

#define HM_L1I 0
#define HM_L1D 2
#define HM_L2 4
#define HM_ITLB 6
#define HM_DTLB 8

#define LVL_L1_HIT 0
#define LVL_L2_HIT 1
#define LVL_MISS 2

/* ---- growable int64 column -------------------------------------- */
typedef struct {
    int64_t *p;
    int64_t len, cap;
} col_t;

/* ---- set-associative LRU tag store (Cache's dict-ordered sets).
 * Way 0 of a set is its LRU line and way count-1 its MRU line; each
 * line carries a tag, a dirty bit and a reference (the access or miss
 * whose timestamps the line holds). */
typedef struct {
    int64_t sets, assoc, line;
    int64_t *tag, *ref, *count;
    uint8_t *dirty;
} lru_t;

static int lru_init(lru_t *c, int64_t sets, int64_t assoc, int64_t line)
{
    size_t ways = (size_t)(sets * assoc);
    c->sets = sets;
    c->assoc = assoc;
    c->line = line;
    c->tag = (int64_t *)malloc(8 * ways);
    c->ref = (int64_t *)malloc(8 * ways);
    c->count = (int64_t *)calloc((size_t)sets, 8);
    c->dirty = (uint8_t *)calloc(ways, 1);
    return (c->tag && c->ref && c->count && c->dirty) ? 0 : -1;
}

static void lru_free(lru_t *c)
{
    free(c->tag);
    free(c->ref);
    free(c->count);
    free(c->dirty);
}

/* Cache.lookup: the slot holding `tag`, or -1; changes nothing. */
static int64_t lru_find(const lru_t *c, int64_t set, int64_t tag)
{
    int64_t base = set * c->assoc, w;
    for (w = base + c->count[set] - 1; w >= base; w--)
        if (c->tag[w] == tag)
            return w;
    return -1;
}

/* Cache.hit_line: on a hit the line moves to the MRU end and its slot
 * is returned (dirtied when `is_write`); a miss returns -1 and changes
 * nothing. */
static int64_t lru_hit(lru_t *c, int64_t set, int64_t tag, int is_write)
{
    int64_t last = set * c->assoc + c->count[set] - 1;
    int64_t w = lru_find(c, set, tag), ref;
    uint8_t dirty;
    if (w < 0)
        return -1;
    ref = c->ref[w];
    dirty = c->dirty[w];
    for (; w < last; w++) {
        c->tag[w] = c->tag[w + 1];
        c->ref[w] = c->ref[w + 1];
        c->dirty[w] = c->dirty[w + 1];
    }
    c->tag[last] = tag;
    c->ref[last] = ref;
    c->dirty[last] = dirty | (uint8_t)is_write;
    return last;
}

/* Cache.fill: install `tag` at the MRU end, evicting the LRU line of a
 * full set.  Returns 1 on an eviction, with the victim's tag, reference
 * and dirty bit stored through the pointers. */
static int lru_fill(lru_t *c, int64_t set, int64_t tag, int64_t ref,
                    int dirty, int64_t *vtag, int64_t *vref, int *vdirty)
{
    int64_t base = set * c->assoc, n = c->count[set], w;
    int evicted = 0;
    if (n >= c->assoc) {
        *vtag = c->tag[base];
        *vref = c->ref[base];
        *vdirty = c->dirty[base];
        for (w = base; w < base + n - 1; w++) {
            c->tag[w] = c->tag[w + 1];
            c->ref[w] = c->ref[w + 1];
            c->dirty[w] = c->dirty[w + 1];
        }
        n--;
        evicted = 1;
    } else {
        c->count[set] = n + 1;
    }
    c->tag[base + n] = tag;
    c->ref[base + n] = ref;
    c->dirty[base + n] = (uint8_t)dirty;
    return evicted;
}

typedef struct {
    const int64_t *cfg;
    lru_t l1i, l1d, l2, itlb, dtlb, cc, tree, remap;
    col_t col[C_COLUMNS];
    int64_t *open_rows;
    cal_t minor, chunk_writes, forward, reverse;
    const int64_t *tree_bases, *draws;
    int64_t n_draws, next_draw;
    int64_t *out;                     /* the output block */
    int64_t hm[10];
    uint64_t predict_state;
    int failed;                       /* -1: no memory, -2: draws out */
} walk_t;

static void push(walk_t *w, int c, int64_t value)
{
    col_t *col = &w->col[c];
    if (col->len == col->cap) {
        int64_t cap = col->cap ? 2 * col->cap : 1024;
        int64_t *p = (int64_t *)realloc(col->p, 8 * (size_t)cap);
        if (!p) {
            w->failed = -1;
            return;
        }
        col->p = p;
        col->cap = cap;
    }
    col->p[col->len++] = value;
}

static void map_put(walk_t *w, cal_t *map, int64_t key, int64_t value)
{
    if (cal_put(map, key, value) != 0)
        w->failed = -1;
}

#define STAT(w, slot) ((w)->out[slot])

/* DramModel.access, structurally: classify against the open row. */
static void walk_dram(walk_t *w, int64_t addr)
{
    const int64_t *cfg = w->cfg;
    int64_t bank = (addr / cfg[W_INTERLEAVE]) % cfg[W_NUM_BANKS];
    int64_t row = addr / cfg[W_ROW_DIV];
    int64_t prev = w->open_rows[bank];
    int64_t cat;
    if (prev == row) {
        cat = 0;
        STAT(w, S_ROW_HITS)++;
    } else if (prev == -1) {
        cat = 1;
        STAT(w, S_ROW_EMPTY)++;
    } else {
        cat = 2;
        STAT(w, S_ROW_CONFLICTS)++;
    }
    w->open_rows[bank] = row;
    push(w, C_D_BANK, bank);
    push(w, C_D_CAT, cat);
}

/* Cache.access on a secure-engine cache (counter, tree node, re-map):
 * their events share the engine's hits/misses/evictions/writebacks
 * counters.  Returns 1 on a hit. */
static int meta_access(walk_t *w, lru_t *c, int64_t addr, int is_write)
{
    int64_t line = addr / c->line;
    int64_t set = line % c->sets, tag = line / c->sets;
    int64_t vtag, vref;
    int vdirty;
    if (lru_hit(c, set, tag, is_write) >= 0) {
        STAT(w, S_CC_HITS)++;
        return 1;
    }
    STAT(w, S_CC_MISSES)++;
    if (lru_fill(c, set, tag, -1, is_write, &vtag, &vref, &vdirty)) {
        STAT(w, S_CC_EVICTIONS)++;
        if (vdirty)
            STAT(w, S_CC_WRITEBACKS)++;
    }
    return 0;
}

/* MetadataLayout.tree_path node `level` of protected line `line`. */
static int64_t tree_node(const walk_t *w, int64_t line, int64_t level)
{
    int64_t index = line, l;
    for (l = 0; l <= level; l++)
        index /= w->cfg[W_TREE_ARITY];
    return w->tree_bases[level] + index * w->cfg[W_LINE_BYTES];
}

/* RemapTable.lookup: absent entries are the identity. */
static int64_t remap_slot(walk_t *w, int64_t chunk)
{
    int64_t v = cal_get(&w->forward, chunk);
    return v ? v - 1 : chunk;
}

static void remap_set(walk_t *w, int64_t chunk, int64_t slot)
{
    map_put(w, &w->forward, chunk, slot + 1);
    map_put(w, &w->reverse, slot, chunk + 1);
}

/* AddressObfuscator.remap_address (with _scramble). */
static int64_t remap_address(walk_t *w, int64_t addr)
{
    const int64_t *cfg = w->cfg;
    int64_t chunk_bytes = cfg[W_CHUNK_BYTES], line_bytes = cfg[W_LINE_BYTES];
    int64_t n = chunk_bytes / line_bytes;
    int64_t chunk = addr / chunk_bytes;
    int64_t line_in_chunk = (addr % chunk_bytes) / line_bytes;
    int64_t a = (chunk * 2 + 1) % n, b = (chunk * 7 + 3) % n;
    if (a == 0)
        a = 1;
    return remap_slot(w, chunk) * chunk_bytes
        + ((a * line_in_chunk + b) % n) * line_bytes + addr % line_bytes;
}

static int64_t remap_entry(const walk_t *w, int64_t chunk)
{
    return w->cfg[W_REMAP_BASE] + chunk * w->cfg[W_ENTRY_BYTES];
}

/* SecureMemoryEngine._counter_addr: split counters pack a 4KB page's
 * counters into one block. */
static int64_t counter_addr(const walk_t *w, int64_t addr)
{
    const int64_t *cfg = w->cfg;
    if (cfg[W_SPLIT])
        return cfg[W_COUNTER_BASE] + (addr / 4096) * cfg[W_LINE_BYTES];
    return cfg[W_COUNTER_BASE]
        + (addr / cfg[W_LINE_BYTES]) * cfg[W_COUNTER_BYTES];
}

/* SecureMemoryEngine.write_line, structurally; returns the number of
 * posted DRAM writes it issued. */
static int64_t engine_write(walk_t *w, int64_t addr)
{
    const int64_t *cfg = w->cfg;
    int64_t line_bytes = cfg[W_LINE_BYTES], ops = 0, line = addr / line_bytes;
    meta_access(w, &w->cc, counter_addr(w, addr), 1);
    if (cfg[W_SPLIT]) {
        int64_t count = cal_get(&w->minor, line) + 1;
        if (count < cfg[W_MINOR_LIMIT]) {
            map_put(w, &w->minor, line, count);
        } else {
            int64_t page_base = (addr / 4096) * 4096, i;
            int64_t first = page_base / line_bytes;
            int64_t per_page = 4096 / line_bytes;
            for (i = 0; i < per_page; i++) {
                map_put(w, &w->minor, first + i, 0);
                walk_dram(w, page_base + i * line_bytes);
            }
            ops += per_page;
            STAT(w, S_REENCRYPTS)++;
        }
    }
    if (cfg[W_TREE]) {                /* HashTreeTiming.touch_for_update */
        int64_t level;
        for (level = 0; level < cfg[W_TREE_LEVELS]; level++)
            if (meta_access(w, &w->tree, tree_node(w, line, level), 1))
                break;
    }
    if (cfg[W_REMAP]) {               /* reshuffle_on_writeback */
        int64_t chunk = addr / cfg[W_CHUNK_BYTES];
        int64_t count = cal_get(&w->chunk_writes, chunk) + 1;
        map_put(w, &w->chunk_writes, chunk, count);
        if (count % cfg[W_SHUFFLE_PERIOD] == 0) {
            /* RemapTable.reshuffle: swap into a pre-drawn random slot. */
            int64_t target, current, occupant, new_slot, i;
            int64_t lines = cfg[W_CHUNK_BYTES] / line_bytes;
            if (w->next_draw >= w->n_draws) {
                w->failed = -2;
                return ops;
            }
            target = w->draws[w->next_draw++];
            current = remap_slot(w, chunk);
            occupant = cal_get(&w->reverse, target);
            occupant = occupant ? occupant - 1 : target;
            if (occupant == chunk) {
                new_slot = current;
            } else {
                remap_set(w, chunk, target);
                remap_set(w, occupant, current);
                new_slot = target;
            }
            meta_access(w, &w->remap, remap_entry(w, chunk), 1);
            if (occupant != chunk)
                meta_access(w, &w->remap, remap_entry(w, occupant), 1);
            for (i = 0; i < lines; i++)
                walk_dram(w, new_slot * cfg[W_CHUNK_BYTES] + i * line_bytes);
            ops += lines;
            STAT(w, S_RESHUFFLES)++;
        } else {
            meta_access(w, &w->remap, remap_entry(w, chunk), 1);
        }
        walk_dram(w, remap_address(w, addr));
    } else {
        walk_dram(w, addr);
    }
    STAT(w, S_N_WRITES) += ops + 1;
    return ops + 1;
}

/* Cache.access on the unified L2 as the tree's backing cache: a miss
 * installs the node and silently drops any dirty victim. */
static int backing_access(walk_t *w, int64_t addr, int64_t miss)
{
    lru_t *c = &w->l2;
    int64_t line = addr / c->line;
    int64_t set = line % c->sets, tag = line / c->sets, vtag, vref, ref = -1;
    int vdirty;
    if (lru_hit(c, set, tag, 0) >= 0) {
        w->hm[HM_L2]++;
        return 1;
    }
    w->hm[HM_L2 + 1]++;
    /* Cache.fill recycles the victim's LineState.  When the victim is
     * the line this miss just installed, hierarchy._l2_miss still holds
     * that object and stamps the fetch's timestamps on it: the node
     * inherits the miss's reference. */
    if (lru_fill(c, set, tag, -1, 0, &vtag, &vref, &vdirty) && vref == miss)
        ref = miss;
    c->ref[set * c->assoc + c->count[set] - 1] = ref;
    return 0;
}

/* MemoryHierarchy._l1_writeback, structurally; returns the number of
 * posted DRAM writes it issued. */
static int64_t l1_writeback(walk_t *w, int64_t victim_addr)
{
    lru_t *c = &w->l2;
    int64_t line = victim_addr / c->line;
    int64_t set = line % c->sets, tag = line / c->sets, vtag, vref;
    int vdirty;
    if (lru_hit(c, set, tag, 1) >= 0) {
        w->hm[HM_L2]++;
        return 0;
    }
    w->hm[HM_L2 + 1]++;
    if (lru_fill(c, set, tag, -1, 1, &vtag, &vref, &vdirty) && vdirty)
        return engine_write(w, ((vtag * c->sets + set) * c->line)
                            % w->cfg[W_WRAP]);
    return 0;
}

/* MemoryHierarchy._l2_miss + engine.fetch_line, structurally; returns
 * the new miss index. */
static int64_t l2_miss(walk_t *w, int64_t addr)
{
    const int64_t *cfg = w->cfg;
    lru_t *c = &w->l2;
    int64_t miss = w->col[C_M_COUNTER].len;
    int64_t line = addr / c->line;
    int64_t set = line % c->sets, tag = line / c->sets, vtag, vref;
    int64_t wb_ops = 0, target, mc = 0;
    int vdirty;
    w->hm[HM_L2 + 1]++;
    if (lru_fill(c, set, tag, miss, 0, &vtag, &vref, &vdirty) && vdirty)
        wb_ops = engine_write(w, ((vtag * c->sets + set) * c->line)
                              % cfg[W_WRAP]);
    target = line * c->line % cfg[W_WRAP];
    /* Counter-mode pad source: counter cache, prediction, or memory.
     * CBC decrypts the line itself: no probe and no draw. */
    if (!cfg[W_CBC]) {
        int64_t caddr = counter_addr(w, target);
        if (!meta_access(w, &w->cc, caddr, 0)) {
            w->predict_state = w->predict_state * 6364136223846793005ULL
                + 1442695040888963407ULL;
            if ((int64_t)((w->predict_state >> 33) & 0xFFFF)
                    < cfg[W_PREDICT_THRESHOLD]) {
                mc = 1;
            } else {
                mc = 2;
                STAT(w, S_N_META)++;
                walk_dram(w, caddr);
            }
        }
    }
    if (cfg[W_REMAP]) {               /* AddressObfuscator.resolve */
        int64_t entry = remap_entry(w, target / cfg[W_CHUNK_BYTES]);
        int fetched = !meta_access(w, &w->remap, entry, 0);
        if (fetched) {
            STAT(w, S_N_META)++;
            STAT(w, S_REMAP_FETCHES)++;
            walk_dram(w, entry);
        }
        push(w, C_M_REMAP, fetched);
        walk_dram(w, remap_address(w, target));
    } else {
        walk_dram(w, target);
    }
    if (cfg[W_TREE]) {                /* verification_extra */
        int64_t tline = target / cfg[W_LINE_BYTES];
        int64_t level, fetches = 0, backing = 0;
        for (level = 0; level < cfg[W_TREE_LEVELS]; level++) {
            int64_t node = tree_node(w, tline, level);
            if (meta_access(w, &w->tree, node, 0))
                break;
            if (backing_access(w, node, miss)) {
                backing = 1;
                break;
            }
            fetches++;
            STAT(w, S_N_META)++;
            walk_dram(w, node);
        }
        STAT(w, S_NODE_FETCHES) += fetches;
        STAT(w, S_BACKING_HITS) += backing;
        STAT(w, S_DEPTH + fetches + backing)++;
        push(w, C_M_TREE, fetches);
        push(w, C_M_BACKING, backing);
    }
    push(w, C_M_COUNTER, mc);
    push(w, C_M_WB, wb_ops);
    if (cfg[W_PREFETCH])
        push(w, C_M_PREFETCH, 0);
    return miss;
}

/* MemoryHierarchy._prefetch_after demand miss `miss` of `addr`: when the
 * preceding line is resident (a sequential stream), each of the next
 * W_PREFETCH lines not in the L2 is filled and fetched as a miss of its
 * own, right after the trigger; m_prefetch[miss] counts them. */
static void prefetch_after(walk_t *w, int64_t addr, int64_t miss)
{
    lru_t *c = &w->l2;
    int64_t line = addr / c->line, next, issued = 0;
    if (line == 0 || lru_find(c, (line - 1) % c->sets,
                              (line - 1) / c->sets) < 0)
        return;
    for (next = line + 1; next <= line + w->cfg[W_PREFETCH]; next++) {
        if (lru_hit(c, next % c->sets, next / c->sets, 0) >= 0) {
            w->hm[HM_L2]++;
            continue;
        }
        l2_miss(w, next * c->line);
        issued++;
    }
    if (!w->failed)                   /* else a push may have fallen short */
        w->col[C_M_PREFETCH].p[miss] = issued;
    STAT(w, S_PREFETCHES) += issued;
}

/* MemoryHierarchy._l1_access (TLB, L1 probe, L1 miss path). */
static void walk_access(walk_t *w, lru_t *l1, lru_t *tlb, int hm_l1,
                        int hm_tlb, int64_t addr, int is_write)
{
    const int64_t *cfg = w->cfg;
    int64_t index = w->col[C_A_LVL].len;
    int64_t page = addr / cfg[W_PAGE_BYTES];
    int64_t tset = page % tlb->sets, pre = 0, vtag, vref, slot, wb_ops = 0;
    int64_t line = addr / l1->line, set = line % l1->sets;
    int64_t l2_line, l2_set, l2_tag;
    int vdirty;
    /* TLB probe (Tlb.translate_latency). */
    if (lru_hit(tlb, tset, page / tlb->sets, 0) >= 0) {
        w->hm[hm_tlb]++;
    } else {
        w->hm[hm_tlb + 1]++;
        lru_fill(tlb, tset, page / tlb->sets, -1, 0, &vtag, &vref, &vdirty);
        pre = cfg[W_TLB_MISS_LAT];
    }
    push(w, C_A_PRE, pre);
    /* L1 probe (Cache.hit_line). */
    slot = lru_hit(l1, set, line / l1->sets, is_write);
    if (slot >= 0) {
        w->hm[hm_l1]++;
        push(w, C_A_LVL, LVL_L1_HIT);
        push(w, C_A_REF, l1->ref[slot]);
        push(w, C_A_WB, 0);
        return;
    }
    /* L1 miss: allocate, write the victim back, probe L2. */
    w->hm[hm_l1 + 1]++;
    if (lru_fill(l1, set, line / l1->sets, index, is_write,
                 &vtag, &vref, &vdirty) && vdirty)
        wb_ops = l1_writeback(w, (vtag * l1->sets + set) * l1->line);
    l2_line = addr / w->l2.line;
    l2_set = l2_line % w->l2.sets;
    l2_tag = l2_line / w->l2.sets;
    slot = lru_hit(&w->l2, l2_set, l2_tag, 0);
    if (slot >= 0) {
        w->hm[HM_L2]++;
        push(w, C_A_LVL, LVL_L2_HIT);
        push(w, C_A_REF, w->l2.ref[slot]);
    } else {
        int64_t miss = l2_miss(w, addr);
        push(w, C_A_LVL, LVL_MISS);
        push(w, C_A_REF, miss);
        if (cfg[W_PREFETCH])
            prefetch_after(w, addr, miss);
    }
    push(w, C_A_WB, wb_ops);
}

/* Free column `column` of a walk output block once Python copied it,
 * or every column still held when `column` is negative. */
void repro_walk_free(int64_t *out, int64_t column)
{
    int64_t c;
    for (c = 0; c < C_COLUMNS; c++) {
        if (column >= 0 && c != column)
            continue;
        free((void *)(intptr_t)out[2 * c]);
        out[2 * c] = 0;
    }
}

int64_t repro_walk(const int64_t *cfg, const int64_t *pcs,
                   const int64_t *ops, const int64_t *addrs,
                   const int64_t *tree_bases, const int64_t *draws,
                   int64_t *out)
{
    const int64_t n = cfg[W_NUM_INSTS], warmup = cfg[W_WARMUP];
    const int64_t iline_bytes = cfg[W_L1I_LINE];
    int64_t snapshot[10] = {0};
    int64_t index, cur_iline = -1, k;
    int c;
    walk_t w;

    memset(&w, 0, sizeof w);
    w.cfg = cfg;
    w.tree_bases = tree_bases;
    w.draws = draws;
    w.n_draws = cfg[W_N_DRAWS];
    w.out = out;
    memset(out, 0, 8 * S_SLOTS);
    w.predict_state = 0x2545F4914F6CDD1DULL;
    w.open_rows = (int64_t *)malloc(8 * (size_t)cfg[W_NUM_BANKS]);
    if (!w.open_rows
            || lru_init(&w.l1i, cfg[W_L1I_SETS], cfg[W_L1I_ASSOC],
                        cfg[W_L1I_LINE])
            || lru_init(&w.l1d, cfg[W_L1D_SETS], cfg[W_L1D_ASSOC],
                        cfg[W_L1D_LINE])
            || lru_init(&w.l2, cfg[W_L2_SETS], cfg[W_L2_ASSOC],
                        cfg[W_L2_LINE])
            || lru_init(&w.itlb, cfg[W_ITLB_SETS], cfg[W_TLB_ASSOC],
                        cfg[W_PAGE_BYTES])
            || lru_init(&w.dtlb, cfg[W_DTLB_SETS], cfg[W_TLB_ASSOC],
                        cfg[W_PAGE_BYTES])
            || lru_init(&w.cc, cfg[W_CC_SETS], 4, 64)
            || lru_init(&w.tree, cfg[W_TREE] ? cfg[W_TREE_SETS] : 1, 4,
                        cfg[W_LINE_BYTES])
            || lru_init(&w.remap, cfg[W_REMAP] ? cfg[W_REMAP_SETS] : 1, 4,
                        64)
            || cal_init(&w.minor, 1 << 10)
            || cal_init(&w.chunk_writes, 1 << 10)
            || cal_init(&w.forward, 1 << 10)
            || cal_init(&w.reverse, 1 << 10)) {
        w.failed = -1;
        goto done;
    }
    for (k = 0; k < cfg[W_NUM_BANKS]; k++)
        w.open_rows[k] = -1;
    w.col[C_IF_FLAGS].p = (int64_t *)calloc((size_t)(n + 1), 8);
    w.col[C_IF_FLAGS].len = w.col[C_IF_FLAGS].cap = n;
    if (!w.col[C_IF_FLAGS].p) {
        w.failed = -1;
        goto done;
    }

    for (index = 0; index < n && !w.failed; index++) {
        int64_t pc = pcs[index], op = ops[index];
        if (index == warmup && warmup)
            /* hierarchy.reset_stats(): miss_summary covers the measured
             * region only. */
            memcpy(snapshot, w.hm, sizeof snapshot);
        if (pc / iline_bytes != cur_iline) {
            w.col[C_IF_FLAGS].p[index] = 1;
            walk_access(&w, &w.l1i, &w.itlb, HM_L1I, HM_ITLB, pc, 0);
            cur_iline = pc / iline_bytes;
        }
        if (op == OP_LOAD)
            walk_access(&w, &w.l1d, &w.dtlb, HM_L1D, HM_DTLB,
                        addrs[index], 0);
        else if (op == OP_STORE)
            walk_access(&w, &w.l1d, &w.dtlb, HM_L1D, HM_DTLB,
                        addrs[index], 1);
    }
    for (k = 0; k < 10; k++)
        out[S_HM + k] = w.hm[k] - snapshot[k];

done:
    for (c = 0; c < C_COLUMNS; c++) {
        out[2 * c] = (int64_t)(intptr_t)w.col[c].p;
        out[2 * c + 1] = w.col[c].len;
    }
    if (w.failed)
        repro_walk_free(out, -1);
    free(w.open_rows);
    lru_free(&w.l1i); lru_free(&w.l1d); lru_free(&w.l2);
    lru_free(&w.itlb); lru_free(&w.dtlb); lru_free(&w.cc);
    lru_free(&w.tree); lru_free(&w.remap);
    cal_free(&w.minor); cal_free(&w.chunk_writes);
    cal_free(&w.forward); cal_free(&w.reverse);
    return w.failed;
}

/* ---- trace generator: a draw-for-draw mirror of the Python loop
 * in tests/oracle/tracegen.py.  Every draw comes from the stream's own
 * MT19937 state as CPython's random.Random makes it: random() is
 * genrand_res53 and randrange(n) is _randbelow_with_getrandbits. */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int64_t index;
} mt_t;

static uint32_t mt_word(mt_t *r)
{
    uint32_t y;
    int kk;
    if (r->index >= MT_N) {           /* twist all N words in place */
        for (kk = 0; kk < MT_N; kk++) {
            y = (r->mt[kk] & 0x80000000U)
                | (r->mt[(kk + 1) % MT_N] & 0x7fffffffU);
            r->mt[kk] = r->mt[(kk + MT_M) % MT_N] ^ (y >> 1)
                        ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        r->index = 0;
    }
    y = r->mt[r->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

static double mt_random(mt_t *r)
{
    uint32_t a = mt_word(r) >> 5;
    uint32_t b = mt_word(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n) for 1 <= n < 2**63: getrandbits(n.bit_length()) until
 * below n; getrandbits fills 32-bit words low word first and shifts
 * the last one right by 32 - remaining. */
static int64_t mt_below(mt_t *r, int64_t n)
{
    int k = 0, rest;
    uint64_t v, word;
    for (v = (uint64_t)n; v; v >>= 1)
        k++;
    do {
        v = 0;
        for (rest = k; rest > 0; rest -= 32) {
            word = mt_word(r);
            if (rest < 32)
                word >>= 32 - rest;
            v |= word << (k - rest);
        }
    } while (v >= (uint64_t)n);
    return (int64_t)v;
}

/* Generator config blocks (mirror of tracegen._config). */
enum {
    G_P_LOAD, G_P_STORE, G_P_BRANCH, G_P_FP, G_P_MUL, G_HOT, G_STREAM,
    G_CHASE, G_MISPREDICT, G_DOUBLES
};
enum {
    G_DEPTH, G_CODE_BYTES, G_COLD_BASE, G_COLD_BYTES, G_HOT_BASE,
    G_HOT_BYTES, G_INTS
};

#define RECENT 64                     /* ring of recent dest registers */
#define RECENT_LOADS 16               /* ring of recent load dests */

typedef struct {
    mt_t r;
    const double *f;
    const int64_t *c;
    int64_t stream_ptr, next_reg;
    int64_t recent[RECENT], n_recent, recent_pos;
    int64_t loads[RECENT_LOADS], n_loads, loads_pos;
} gen_t;

static int64_t pick_src(gen_t *g)
{
    int64_t depth = g->n_recent < g->c[G_DEPTH] ? g->n_recent
                                                : g->c[G_DEPTH];
    if (!depth)
        return 0;
    return g->recent[(g->recent_pos - 1 - mt_below(&g->r, depth))
                     & (RECENT - 1)];
}

static int64_t pick_addr_src(gen_t *g)
{
    return NUM_REGS - 8 + mt_below(&g->r, 8);
}

static int64_t pick_dest(gen_t *g)
{
    g->next_reg = g->next_reg % (NUM_REGS - 9) + 1;
    return g->next_reg;
}

static int64_t pick_load_src(gen_t *g)
{
    int64_t depth = g->n_loads < 4 ? g->n_loads : 4;
    return g->loads[(g->loads_pos - 1 - mt_below(&g->r, depth))
                    & (RECENT_LOADS - 1)];
}

static int64_t data_address(gen_t *g)
{
    const int64_t cold_bytes = g->c[G_COLD_BYTES];
    if (mt_random(&g->r) < g->f[G_HOT])
        return g->c[G_HOT_BASE]
               + (mt_below(&g->r, g->c[G_HOT_BYTES]) & ~(int64_t)3);
    if (mt_random(&g->r) < g->f[G_STREAM]) {
        g->stream_ptr = (g->stream_ptr + 8) % cold_bytes;
        return g->c[G_COLD_BASE] + g->stream_ptr;
    }
    return g->c[G_COLD_BASE] + (mt_below(&g->r, cold_bytes) & ~(int64_t)3);
}

/* Generate n rows into the preallocated columns (src_val holds 2n) and
 * write the final MT state back; returns the number of sources. */
int64_t repro_tracegen(const double *f, const int64_t *c, int64_t *state,
                       int64_t n, int64_t *pcs, int64_t *ops,
                       int64_t *dests, int64_t *addrs,
                       int64_t *mispredicts, int64_t *src_off,
                       int64_t *src_val)
{
    gen_t g;
    const int64_t code_bytes = c[G_CODE_BYTES];
    int64_t i, k, s = 0, pc = 0, op, dest, addr, hop;
    memset(&g, 0, sizeof g);
    for (k = 0; k < MT_N; k++)
        g.r.mt[k] = (uint32_t)state[k];
    g.r.index = state[MT_N];
    g.f = f;
    g.c = c;
    g.stream_ptr = mt_below(&g.r, c[G_COLD_BYTES]) & ~(int64_t)63;
    g.recent[0] = g.loads[0] = g.next_reg = 1;
    g.n_recent = g.recent_pos = g.n_loads = g.loads_pos = 1;

    for (i = 0; i < n; i++) {
        double roll = mt_random(&g.r);
        dest = addr = -1;
        src_off[i] = s;
        mispredicts[i] = 0;
        if (roll < f[G_P_LOAD]) {
            op = OP_LOAD;
            dest = pick_dest(&g);
            if (mt_random(&g.r) < f[G_CHASE]) {
                src_val[s++] = pick_load_src(&g);
                addr = c[G_COLD_BASE]
                       + (mt_below(&g.r, c[G_COLD_BYTES]) & ~(int64_t)3);
            } else {
                src_val[s++] = pick_addr_src(&g);
                addr = data_address(&g);
            }
            g.loads[g.loads_pos] = dest;
            g.loads_pos = (g.loads_pos + 1) & (RECENT_LOADS - 1);
            if (g.n_loads < RECENT_LOADS)
                g.n_loads++;
        } else if (roll < f[G_P_STORE]) {
            op = OP_STORE;
            src_val[s++] = pick_addr_src(&g);
            src_val[s++] = pick_src(&g);
            addr = data_address(&g);
        } else if (roll < f[G_P_BRANCH]) {
            op = OP_BRANCH;
            if (mt_random(&g.r) < 0.5)
                src_val[s++] = pick_load_src(&g);
            src_val[s++] = pick_src(&g);
            mispredicts[i] = mt_random(&g.r) < f[G_MISPREDICT];
        } else if (roll < f[G_P_MUL]) {
            op = roll < f[G_P_FP] ? OP_FPU : OP_IMUL;
            dest = pick_dest(&g);
            src_val[s++] = pick_src(&g);
            src_val[s++] = pick_src(&g);
        } else if (mt_random(&g.r) < 0.30) {
            op = OP_IALU;                 /* induction update */
            dest = pick_addr_src(&g);
            src_val[s++] = dest;
        } else {
            op = OP_IALU;
            dest = pick_dest(&g);
            src_val[s++] = pick_src(&g);
            src_val[s++] = pick_src(&g);
        }
        pcs[i] = pc;
        ops[i] = op;
        dests[i] = dest;
        addrs[i] = addr;
        if (dest >= 0) {
            g.recent[g.recent_pos] = dest;
            g.recent_pos = (g.recent_pos + 1) & (RECENT - 1);
            if (g.n_recent < RECENT)
                g.n_recent++;
        }
        if (op == OP_BRANCH && mt_random(&g.r) < 0.45) {
            hop = (16 + mt_below(&g.r, 2032)) & ~(int64_t)3;
            if (mt_random(&g.r) < 0.7) {
                pc = (pc - hop) % code_bytes;   /* Python's floor-mod */
                if (pc < 0)
                    pc += code_bytes;
            } else {
                pc = (pc + hop) % code_bytes;
            }
        } else {
            pc = (pc + 4) % code_bytes;
        }
    }
    src_off[n] = s;
    for (k = 0; k < MT_N; k++)
        state[k] = g.r.mt[k];
    state[MT_N] = g.r.index;
    return s;
}

/* ---- trace bounds: one pass over a trace's columns for
 * PackedTrace._check, which has checked their lengths (n rows, n + 1
 * offsets, n_src sources).  Writes the B_* slots; an empty column's
 * minimum is INT64_MAX and its maximum INT64_MIN, and so is the
 * lowest load/store address of a trace without one. */
enum {
    B_PCS_MIN, B_OPS_MIN, B_OPS_MAX, B_DESTS_MIN, B_DESTS_MAX,
    B_SRC_VAL_MIN, B_SRC_VAL_MAX, B_SRC_OFF_MONOTONE, B_MEMORY_ADDR_MIN
};

void repro_trace_bounds(int64_t n, int64_t n_src, const int64_t *pcs,
                        const int64_t *ops, const int64_t *dests,
                        const int64_t *addrs, const int64_t *src_off,
                        const int64_t *src_val, int64_t *out)
{
    int64_t i;
    out[B_PCS_MIN] = out[B_OPS_MIN] = out[B_DESTS_MIN] = INT64_MAX;
    out[B_SRC_VAL_MIN] = out[B_MEMORY_ADDR_MIN] = INT64_MAX;
    out[B_OPS_MAX] = out[B_DESTS_MAX] = out[B_SRC_VAL_MAX] = INT64_MIN;
    out[B_SRC_OFF_MONOTONE] = 1;
    for (i = 0; i < n; i++) {
        if (pcs[i] < out[B_PCS_MIN])
            out[B_PCS_MIN] = pcs[i];
        if (ops[i] < out[B_OPS_MIN])
            out[B_OPS_MIN] = ops[i];
        if (ops[i] > out[B_OPS_MAX])
            out[B_OPS_MAX] = ops[i];
        if (dests[i] < out[B_DESTS_MIN])
            out[B_DESTS_MIN] = dests[i];
        if (dests[i] > out[B_DESTS_MAX])
            out[B_DESTS_MAX] = dests[i];
        if (src_off[i] > src_off[i + 1])
            out[B_SRC_OFF_MONOTONE] = 0;
        if ((ops[i] == OP_LOAD || ops[i] == OP_STORE)
                && addrs[i] < out[B_MEMORY_ADDR_MIN])
            out[B_MEMORY_ADDR_MIN] = addrs[i];
    }
    for (i = 0; i < n_src; i++) {
        if (src_val[i] < out[B_SRC_VAL_MIN])
            out[B_SRC_VAL_MIN] = src_val[i];
        if (src_val[i] > out[B_SRC_VAL_MAX])
            out[B_SRC_VAL_MAX] = src_val[i];
    }
}
"""


#: :func:`trace_bounds`' results, in the C source's B_* order.
TRACE_BOUNDS = ("pcs_min", "ops_min", "ops_max", "dests_min", "dests_max",
                "src_val_min", "src_val_max", "src_off_monotone",
                "memory_addr_min")

#: Config-block slots the stats assembly reads back (CFG_* enum above).
CFG_AUTH_ENABLED = 10
CFG_DUR_LINE = 11
CFG_DUR_META = 12
CFG_DUR_REMAP = 47

#: The walk's output columns, in the C source's C_* order; the output
#: block holds an (address, length) pair per column, then the S_*
#: scalars below, the measured hit/miss pairs and the tree walk depths.
WALK_COLUMNS = ("if_flags", "a_pre", "a_lvl", "a_ref", "a_wb", "m_wb",
                "m_counter", "m_tree", "m_backing", "m_remap", "m_prefetch",
                "d_bank", "d_cat")
WALK_SCALARS = ("cc_hits", "cc_misses", "cc_evictions", "cc_writebacks",
                "row_hits", "row_empty", "row_conflicts", "n_meta",
                "n_writes", "page_reencryptions", "tree_node_fetches",
                "tree_backing_hits", "remap_entry_fetches",
                "remap_reshuffles", "prefetch_issued")
_WALK_HM = 2 * len(WALK_COLUMNS) + len(WALK_SCALARS)
_WALK_DEPTH = _WALK_HM + 10
_WALK_SLOTS = _WALK_DEPTH + 64
#: miss_summary levels, in the order of the walk's hit/miss pairs.
MISS_LEVELS = ("l1i", "l1d", "l2", "itlb", "dtlb")

_lib = None
_load_error = None


def _ensure_compiled():
    """Compile the kernel into the cache dir; returns the .so path."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = (os.environ.get("REPRO_NATIVE_CACHE")
             or tempfile.gettempdir())
    so_path = os.path.join(cache, "repro-kernel-%s.so" % digest)
    if os.path.exists(so_path):
        return so_path
    import subprocess  # only a machine's first use compiles

    os.makedirs(cache, exist_ok=True)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache)
    tmp_so = c_path[:-2] + ".so"
    command = [os.environ.get("CC", "cc"), "-O2", "-shared", "-fPIC",
               "-o", tmp_so, c_path]
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        done = subprocess.run(command, capture_output=True, timeout=120)
        if done.returncode != 0:
            # One line, so the CLI's one-line error keeps the tail.
            tail = " ".join(done.stderr.decode(errors="replace").split())
            tail = tail[-400:]
            raise RuntimeError("compile `%s` exited with status %d%s"
                               % (" ".join(command), done.returncode,
                                  ": " + tail if tail else ""))
        os.replace(tmp_so, so_path)  # atomic: racing workers both win
    finally:
        for leftover in (c_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return so_path


def _load():
    """The loaded kernel (memoised); raises
    :class:`KernelUnavailableError` if it cannot load.

    The error names the failed step (the compile command with its exit
    status and stderr tail, or the dlopen failure) and chains the
    original exception.  A failure is memoised too, so a machine with
    no compiler tries once per process.
    """
    global _lib, _load_error
    if _lib is None and _load_error is None:
        try:
            lib = ctypes.CDLL(_ensure_compiled())
            lib.repro_replay.restype = ctypes.c_int64
            lib.repro_replay.argtypes = [ctypes.c_void_p] * 22
            lib.repro_walk.restype = ctypes.c_int64
            lib.repro_walk.argtypes = [ctypes.c_void_p] * 7
            lib.repro_walk_free.restype = None
            lib.repro_walk_free.argtypes = [ctypes.c_void_p, ctypes.c_int64]
            lib.repro_tracegen.restype = ctypes.c_int64
            lib.repro_tracegen.argtypes = ([ctypes.c_void_p] * 3
                                           + [ctypes.c_int64]
                                           + [ctypes.c_void_p] * 7)
            lib.repro_trace_bounds.restype = None
            lib.repro_trace_bounds.argtypes = ([ctypes.c_int64] * 2
                                               + [ctypes.c_void_p] * 7)
            _lib = lib
        except Exception as exc:  # no compiler, failed compile, bad .so
            _load_error = exc
    if _lib is None:
        raise KernelUnavailableError(
            "the native replay kernel could not be built or loaded: %s"
            % _load_error) from _load_error
    return _lib


def native_available():
    """Load (compiling at first use) the kernel and return True.

    Raises :class:`KernelUnavailableError` when it cannot load; callers
    use it to build the kernel ahead of timed work.
    """
    _load()
    return True


def reset():
    """Forget the memoised load state (tests toggle CC and the cache)."""
    global _lib, _load_error
    _lib = None
    _load_error = None


def _addr(arr):
    return arr.buffer_info()[0]


def _int64(column):
    """``column`` (an ``array('q')``), or a one-zero array in place of
    an empty one, whose buffer address may be NULL."""
    return column or array("q", [0])


def _buffers(prepass):
    """The replay's argument buffers, cached on the prepass: the trace's
    own int64 columns, then the walk's in :data:`WALK_COLUMNS` order."""
    buf = getattr(prepass, "_native", None)
    if buf is None:
        packed = prepass.packed
        buf = prepass._native = tuple(map(_int64, (
            packed.ops, packed.dests, packed.src_off, packed.src_val,
            packed.mispredicts,
            *(getattr(prepass, name) for name in WALK_COLUMNS))))
    return buf


def walk(cfg, pcs, ops, addrs, tree_bases, draws):
    """Run the structural walk; returns ``(columns, scalars, hits_misses,
    depths)``.

    ``cfg`` is the walk's config block (built by
    :func:`~repro.cpu.prepass.build_prepass`, in the C source's W_*
    order), ``pcs``/``ops``/``addrs`` the trace's columns as
    ``array('q')``, ``tree_bases`` the hash tree's per-level base
    addresses and ``draws`` the pre-drawn re-map slots.  ``columns``
    maps each :data:`WALK_COLUMNS` name to an ``array('q')``;
    ``scalars`` each :data:`WALK_SCALARS` name to an int;
    ``hits_misses`` holds the measured region's (hits, misses) per
    :data:`MISS_LEVELS` level, and ``depths[d]`` counts tree walks of
    depth ``d``.  Raises KernelUnavailableError when the kernel cannot
    load, RuntimeError when the walk needs more re-map draws than it
    was given, and MemoryError when its allocations fail.
    """
    lib = _load()
    out = array("q", bytes(8 * _WALK_SLOTS))
    rc = lib.repro_walk(_addr(cfg), _addr(_int64(pcs)), _addr(_int64(ops)),
                        _addr(_int64(addrs)), _addr(_int64(tree_bases)),
                        _addr(_int64(draws)), _addr(out))
    if rc == -2:
        raise RuntimeError("the structural walk needed more than its %d "
                           "pre-drawn re-map slots" % len(draws))
    if rc != 0:
        raise MemoryError("native structural walk failed to allocate its "
                          "working state (status %d)" % rc)
    columns = {}
    try:
        for index, name in enumerate(WALK_COLUMNS):
            length = out[2 * index + 1]
            column = array("q", [0]) * length
            if length:
                ctypes.memmove(_addr(column), out[2 * index], 8 * length)
            lib.repro_walk_free(_addr(out), index)  # one copy at a time
            columns[name] = column
    finally:
        lib.repro_walk_free(_addr(out), -1)
    base = 2 * len(WALK_COLUMNS)
    scalars = dict(zip(WALK_SCALARS, out[base:_WALK_HM]))
    hits_misses = [tuple(out[_WALK_HM + 2 * k:_WALK_HM + 2 * k + 2])
                   for k in range(len(MISS_LEVELS))]
    depths = list(out[_WALK_DEPTH:_WALK_SLOTS])
    while depths and not depths[-1]:
        depths.pop()
    return columns, scalars, hits_misses, depths


def config_block(prepass, policy, config):
    """The kernel's scalar config block, in the C source's CFG_* order.

    The one derivation of every scalar the replay consumes from
    ``(prepass, policy, config)``: the gate flags, the bus and MAC
    latencies they imply, and the core and cache geometry.
    """
    core = config.core
    secure = config.secure
    dram = config.dram
    auth = policy.authentication
    line_bytes = config.l2.line_bytes
    mac_rider = secure.mac_bits // 8 if auth else 0
    beat = dram.bus_multiplier
    cas = dram.cas_cycles
    if secure.mac_scheme == "gmac":
        mac_latency = secure.gmac_latency
        mac_throughput = max(1, secure.gmac_latency // 2)
    else:
        mac_latency = secure.hmac_latency
        mac_throughput = secure.mac_throughput
    return array("q", [
        prepass.num_instructions, prepass.warmup,
        prepass.n_accesses, prepass.n_misses,
        policy.gate_issue, policy.gate_commit,
        policy.gate_fetch, policy.gate_store,
        policy.gate_fetch and policy.fetch_mode == "precise",
        policy.gate_fetch and policy.fetch_mode == "drain",
        auth,
        -(-(line_bytes + mac_rider) // dram.bus_width_bytes) * beat,
        -(-line_bytes // dram.bus_width_bytes) * beat,
        cas, dram.rcd_cycles + cas,
        dram.rp_cycles + dram.rcd_cycles + cas,
        mac_latency, mac_throughput, secure.auth_queue_depth,
        secure.decrypt_latency,
        1,  # XOR latency: DecryptionEngine default, not config-routed
        config.l1i.latency, config.l1d.latency, config.l2.latency,
        dram.num_banks, max(1, config.mshr_entries),
        core.fetch_width, core.issue_width, core.commit_width,
        core.ruu_entries, core.lsq_entries, core.pipeline_depth,
        core.branch_mispredict_penalty, secure.store_buffer_entries,
        *(_UNIT_LATENCY.get(code, 0) for code in range(8)),
        _CALENDAR_PRUNE_INTERVAL,
        prepass.hash_tree, secure.hmac_latency,
        prepass.obfuscation, secure.remap_cache_latency,
        -(-secure.remap_entry_bytes // dram.bus_width_bytes) * beat,
        prepass.cbc, line_bytes // 16, prepass.prefetch_degree,
    ])


def replay(prepass, cfg):
    """Run the kernel over ``prepass``; returns the output payload dict.

    ``cfg`` is :func:`config_block` for the policy being replayed.
    Raises KernelUnavailableError when the kernel cannot load and
    MemoryError when the kernel's own allocations fail.
    """
    lib = _load()
    buf = _buffers(prepass)
    n_misses = prepass.n_misses
    lat_out = array("q", bytes(8 * (n_misses + 1)))
    gap_out = array("q", bytes(8 * (n_misses + 1)))
    out = array("q", bytes(8 * _OUT_SLOTS))
    rc = lib.repro_replay(
        _addr(cfg),
        *[_addr(column) for column in buf],
        _addr(lat_out), _addr(gap_out), _addr(out))
    if rc != 0:
        raise MemoryError("native replay kernel failed to allocate its "
                          "working state (status %d)" % rc)
    # Counted in C (Counter's _count_elements), keys in first-seen order.
    gap_buckets = (dict(Counter(gap_out[:out[11]]))
                   if cfg[CFG_AUTH_ENABLED] else {})
    return {
        "cycles": out[0] - out[1],
        "wait_cycles": out[2],
        "read_lat_buckets": dict(Counter(lat_out[:n_misses])),
        "gap_buckets": gap_buckets,
        "pad_hidden": out[3],
        "pad_exposed": out[4],
        "queue_full": out[5],
        "mshr_stalls": out[6],
        "auth_requests": out[11],
        "auth_commit_stall": out[7],
        "auth_issue_stall": out[8],
        "sb_full_stall": out[9],
        "branch_mispredicts": out[10],
    }


def tracegen(rng, doubles, ints, num_instructions):
    """Generate ``num_instructions`` rows in C; returns the
    :class:`~repro.workloads.trace.PackedTrace`.

    The mirror of the Python loop in ``tests/oracle/tracegen.py``,
    which is its oracle: ``doubles`` and ``ints`` are the blocks of
    :func:`repro.workloads.tracegen._config` (fields a
    :class:`~repro.workloads.spec.BenchmarkProfile` has validated), and
    the loop draws from ``rng``'s own MT19937 state (``getstate()``),
    which it leaves where the Python loop would (``setstate()``).  The
    C loop writes the preallocated columns directly; ``src_val`` is
    sized for two sources a row and cut to the count it returns.
    Raises ValueError for blocks of the wrong type or size or a
    negative length, and KernelUnavailableError when the kernel cannot
    load.
    """
    if ((doubles.typecode, len(doubles), ints.typecode, len(ints))
            != ("d", _GEN_DOUBLES, "q", _GEN_INTS)):
        raise ValueError("tracegen takes an array('d') of %d and an "
                         "array('q') of %d" % (_GEN_DOUBLES, _GEN_INTS))
    if num_instructions < 0:
        raise ValueError("num_instructions must be non-negative")
    lib = _load()
    version, words, gauss_next = rng.getstate()
    state = array("q", words)
    row_columns = [array("q", [0]) * num_instructions for _ in range(5)]
    src_off = array("q", [0]) * (num_instructions + 1)
    src_val = array("q", [0]) * (2 * num_instructions)
    count = lib.repro_tracegen(
        _addr(doubles), _addr(ints), _addr(state), num_instructions,
        *[_addr(column) for column in (*row_columns, src_off, src_val)])
    del src_val[count:]
    rng.setstate((version, tuple(state), gauss_next))
    return PackedTrace(*row_columns, src_off, src_val)


def trace_bounds(packed):
    """One C pass over a :class:`~repro.workloads.trace.PackedTrace`'s
    columns; returns a dict of the :data:`TRACE_BOUNDS` values.

    The value checks of ``PackedTrace._check``, which must have checked
    the columns' types and lengths first: each column's extremes
    (``sys.maxsize`` for the minimum and ``-sys.maxsize - 1`` for the
    maximum of an empty one), whether ``src_off`` never decreases, and
    the lowest load or store address (``sys.maxsize`` for none).
    Raises KernelUnavailableError when the kernel cannot load.
    """
    lib = _load()
    out = array("q", bytes(8 * len(TRACE_BOUNDS)))
    lib.repro_trace_bounds(
        len(packed.pcs), len(packed.src_val),
        *[_addr(_int64(column)) for column in (
            packed.pcs, packed.ops, packed.dests, packed.addrs,
            packed.src_off, packed.src_val)],
        _addr(out))
    return dict(zip(TRACE_BOUNDS, out))
