"""Native (C) shared timestamp kernel: the one replay of a prepass.

The decode-once/evaluate-many pipeline makes the per-policy replay the
hot loop of every multi-policy sweep: one
:class:`~repro.cpu.prepass.TracePrepass` is walked once per registered
policy, and the walk is pure int64 arithmetic over flat columns -- a
shape the system C compiler turns into code an order of magnitude
faster than the CPython interpreter loop.  This module carries that
loop as one C translation unit, a line-for-line mirror of
:meth:`repro.cpu.core.TimestampCore.run` and of the timing half of the
memory walk; compiles it at first use; and drives it through
:mod:`ctypes`.  :func:`config_block` is the one derivation of the
scalars it consumes.

Everything is integer arithmetic, so the replay is *bit-identical* to
the legacy simulator: the differential suite in ``tests/cpu/`` pins
native == legacy for every policy, and ``repro perf`` gates the pinned
goldens.  The kernel needs a C compiler (``CC``, default ``cc``).  When
none works, :func:`native_available` is False and the grouped executor
runs every member on the legacy simulator instead, with identical
results; ``REPRO_NATIVE=require`` turns an unavailable kernel into an
error, for CI jobs and benchmarks that must measure the native path.
``REPRO_NATIVE`` accepts only ``auto`` (the default) and ``require``.

The compiled object is cached as
``<cache>/repro-kernel-<source-hash>.so`` (``REPRO_NATIVE_CACHE``,
default the system temp dir); each machine compiles once and
process-pool workers just dlopen the cached object.  The prepass
columns are marshalled to flat int64 arrays once per trace
(``array('q')``; no third-party deps) and reused across all N policy
replays of a group.
"""

import ctypes
import hashlib
import os
import subprocess
import tempfile
from array import array

from repro.cpu.core import _CALENDAR_PRUNE_INTERVAL, _UNIT_LATENCY
from repro.errors import ConfigError

#: Output block size -- keep in lockstep with the OUT_* enum in the C
#: source (config_block() follows its CFG_* enum the same way).
_OUT_SLOTS = 12

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

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
    CFG_SLOTS
};

/* Scalar output block layout (mirror of replay() in native.py). */
enum {
    OUT_LAST_COMMIT, OUT_WARMUP_COMMIT, OUT_WAIT_CYCLES,
    OUT_PAD_HIDDEN, OUT_PAD_EXPOSED, OUT_QUEUE_FULL, OUT_MSHR_STALLS,
    OUT_AUTH_COMMIT_STALL, OUT_AUTH_ISSUE_STALL, OUT_SB_FULL_STALL,
    OUT_BRANCH_MISPRED, OUT_N_COMPLETIONS, OUT_SLOTS
};

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
    const int64_t *m_wb, *m_counter, *d_bank, *d_cat;
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
    int64_t auth_enabled;
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

/* One posted DRAM write (L1/L2 victim writeback burst member). */
static void posted_write(rs_t *rs, int64_t cycle)
{
    int64_t d = rs->dram_cursor++;
    int64_t bank = rs->d_bank[d];
    int64_t ready = rs->bank_ready[bank];
    int64_t bstart = cycle > ready ? cycle : ready;
    int64_t data_ready = bstart + rs->ras[rs->d_cat[d]];
    int64_t free_at = rs->bus_free;
    int64_t tstart = data_ready > free_at ? data_ready : free_at;
    int64_t done = tstart + rs->dur_line;
    rs->bus_free = done;
    rs->wait_cycles += tstart - data_ready;
    rs->bank_ready[bank] = done;
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
        posted_write(rs, cycle);
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
        int64_t fetch_cycle, slot_free, issue, mc, pad_start;
        int64_t d, bank, ready, bstart, data_ready, free_at, tstart;
        int64_t done, pad_done;
        for (w = 0; w < rs->m_wb[m]; w++)
            posted_write(rs, l2_cycle);
        /* MSHR backpressure, then the fetch gate. */
        fetch_cycle = l2_cycle;
        slot_free = rs->mshr_ring[rs->mshr_index];
        if (slot_free > fetch_cycle) {
            rs->mshr_stalls++;
            fetch_cycle = slot_free;
        }
        issue = fetch_cycle > gate_time ? fetch_cycle : gate_time;
        /* Counter-mode pad source. */
        mc = rs->m_counter[m];
        if (mc == 2) {
            d = rs->dram_cursor++;
            bank = rs->d_bank[d];
            ready = rs->bank_ready[bank];
            bstart = issue > ready ? issue : ready;
            data_ready = bstart + rs->ras[rs->d_cat[d]];
            free_at = rs->bus_free;
            tstart = data_ready > free_at ? data_ready : free_at;
            pad_start = tstart + rs->dur_meta;
            rs->bus_free = pad_start;
            rs->wait_cycles += tstart - data_ready;
            rs->bank_ready[bank] = pad_start;
        } else {
            pad_start = issue;
        }
        /* Main line fetch. */
        d = rs->dram_cursor++;
        bank = rs->d_bank[d];
        ready = rs->bank_ready[bank];
        bstart = issue > ready ? issue : ready;
        data_ready = bstart + rs->ras[rs->d_cat[d]];
        free_at = rs->bus_free;
        tstart = data_ready > free_at ? data_ready : free_at;
        done = tstart + rs->dur_line;
        rs->bus_free = done;
        rs->wait_cycles += tstart - data_ready;
        rs->bank_ready[bank] = done;
        rs->lat_out[m] = done - issue;
        /* Decrypt overlap. */
        pad_done = pad_start + rs->decrypt_latency;
        if (pad_done <= done) {
            rs->pad_hidden++;
            data_time = done + rs->xor_latency;
        } else {
            rs->pad_exposed += pad_done - done;
            data_time = pad_done + rs->xor_latency;
        }
        if (rs->auth_enabled) {
            /* AuthQueue.enqueue(done, 0, fetch_time=done); tag == m. */
            int64_t fetch_time = done, ready_time, qstart;
            if (rs->n_fetch_times
                    && fetch_time < rs->fetch_times[rs->n_fetch_times - 1])
                fetch_time = rs->fetch_times[rs->n_fetch_times - 1];
            rs->fetch_times[rs->n_fetch_times++] = fetch_time;
            ready_time = done;
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
            verify_time = qstart + rs->mac_latency;
            if (m && verify_time < rs->completions[rs->n_completions - 1])
                verify_time = rs->completions[rs->n_completions - 1];
            rs->last_start = qstart;
            rs->has_last_start = 1;
            rs->completions[rs->n_completions++] = verify_time;
            {
                int64_t gap = verify_time - data_time;
                if (gap < 0)
                    gap = 0;
                rs->gap_out[m] = gap;
            }
        } else {
            verify_time = data_time;
        }
        rs->mshr_ring[rs->mshr_index] = done;
        rs->mshr_index++;
        if (rs->mshr_index == rs->mshr_len)
            rs->mshr_index = 0;
        rs->miss_data[m] = data_time;
        rs->miss_verify[m] = verify_time;
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

    int64_t reg_ready[64] = {0};
    int64_t reg_frontier[64] = {0};
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
"""


#: Config-block slots the stats assembly reads back (CFG_* enum above).
CFG_AUTH_ENABLED = 10
CFG_DUR_LINE = 11
CFG_DUR_META = 12

_lib = None
_load_error = None


def _mode():
    """``auto`` (the default) or ``require``, from ``REPRO_NATIVE``."""
    raw = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if raw in ("", "auto"):
        return "auto"
    if raw == "require":
        return "require"
    raise ConfigError(
        "REPRO_NATIVE=%r: expected 'auto' (the default) or 'require'"
        % os.environ["REPRO_NATIVE"])


def _ensure_compiled():
    """Compile the kernel into the cache dir; returns the .so path."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = (os.environ.get("REPRO_NATIVE_CACHE")
             or tempfile.gettempdir())
    so_path = os.path.join(cache, "repro-kernel-%s.so" % digest)
    if os.path.exists(so_path):
        return so_path
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
            tail = done.stderr.decode(errors="replace").strip()[-400:]
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
    """The loaded kernel (memoised); raises RuntimeError if it cannot load.

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
            lib.repro_replay.argtypes = [ctypes.c_void_p] * 18
            _lib = lib
        except Exception as exc:  # no compiler, failed compile, bad .so
            _load_error = exc
    if _lib is None:
        raise RuntimeError("the native replay kernel could not be built "
                           "or loaded: %s" % _load_error) from _load_error
    return _lib


def native_available():
    """True when the compiled kernel is (or can be made) loadable.

    Under ``REPRO_NATIVE=require`` an unloadable kernel raises instead
    of returning False, so a job that must measure the native path
    cannot quietly run on the legacy simulator.
    """
    mode = _mode()
    try:
        _load()
    except RuntimeError as exc:
        if mode == "require":
            raise RuntimeError("REPRO_NATIVE=require, but %s" % exc) \
                from exc.__cause__
        return False
    return True


def reset():
    """Forget the memoised load state (tests toggle CC and the cache)."""
    global _lib, _load_error
    _lib = None
    _load_error = None


def _addr(arr):
    return arr.buffer_info()[0]


def _buffers(prepass):
    """Flat int64 marshalling of one prepass, built once and cached.

    The conversion is paid once per trace and amortised over every
    policy replay of the group (the whole point of decode-once).
    """
    buf = getattr(prepass, "_native", None)
    if buf is not None:
        return buf
    packed = prepass.packed
    n = prepass.num_instructions
    flat = []
    src_off = array("q", bytes(8 * (n + 1)))
    offset = 0
    for i, srcs in enumerate(packed.srcss):
        offset += len(srcs)
        src_off[i + 1] = offset
        flat.extend(srcs)
    buf = (
        array("q", packed.ops),
        array("q", packed.dests),
        src_off,
        array("q", flat or [0]),
        array("q", (1 if m else 0 for m in packed.mispredicts)),
        # if_flags is a bytearray; array('q', bytearray) would reinterpret
        # raw bytes, so convert element-wise.
        array("q", (1 if f else 0 for f in prepass.if_flags)),
        array("q", prepass.a_pre),
        array("q", prepass.a_lvl),
        array("q", prepass.a_ref),
        array("q", prepass.a_wb),
        array("q", prepass.m_wb or [0]),
        array("q", prepass.m_counter or [0]),
        array("q", prepass.d_bank or [0]),
        array("q", prepass.d_cat or [0]),
    )
    prepass._native = buf
    return buf


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
    ])


def replay(prepass, cfg):
    """Run the kernel over ``prepass``; returns the output payload dict.

    ``cfg`` is :func:`config_block` for the policy being replayed.
    Raises RuntimeError when the kernel cannot load and MemoryError
    when the kernel's own allocations fail.
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
    read_lat_buckets = {}
    for m in range(n_misses):
        lat = lat_out[m]
        read_lat_buckets[lat] = read_lat_buckets.get(lat, 0) + 1
    gap_buckets = {}
    if cfg[CFG_AUTH_ENABLED]:
        for m in range(out[11]):
            gap = gap_out[m]
            gap_buckets[gap] = gap_buckets.get(gap, 0) + 1
    return {
        "cycles": out[0] - out[1],
        "wait_cycles": out[2],
        "read_lat_buckets": read_lat_buckets,
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
