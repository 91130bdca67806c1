"""Policy-independent structural prepass over one decoded trace.

The decode-once/evaluate-many pipeline rests on one observation: every
*structural* decision the memory system makes -- TLB and cache hit/miss
outcomes, LRU evictions and dirty writebacks, counter-cache probes,
counter-prediction draws, SDRAM bank/row classification -- depends only
on the address stream and its order, never on the policy's gating terms.
Policies change *when* things happen (cycle arithmetic), not *what*
happens.  So the walk over caches and banks can run once per trace, and
each policy evaluation replays only the timing arithmetic over the
recorded outcomes (:mod:`repro.cpu.shared_kernel`, which runs the C
kernel of :mod:`repro.cpu.native`).

:func:`build_prepass` performs that walk.  It mirrors, decision for
decision, the structural half of ``hierarchy._l1_access`` /
``hierarchy._l2_miss`` / ``engine.fetch_line`` / ``engine.write_line``
and records the outcomes on flat per-access / per-miss / per-DRAM-op
columns (the same structure-of-arrays discipline as
:class:`~repro.workloads.trace.PackedTrace`).  The differential
equivalence suite (``tests/cpu/test_shared_kernel.py``) and the perf
goldens pin the mirror bit-identically against the legacy path.

Supported configurations are gated by :func:`prepass_supported`; the
grouped executor runs the legacy per-policy path for the rest (CBC
mode, hash trees, address obfuscation, prefetching), and builds no
prepass at all when the native kernel cannot be built.
"""

from repro.secure.metadata import MetadataLayout

#: Sentinel row id meaning "bank precharged/idle" (rows are >= 0).
_NO_ROW = -1

# DRAM page-status categories recorded per op (index into the kernel's
# RAS-latency table).
ROW_HIT = 0
ROW_EMPTY = 1
ROW_CONFLICT = 2

# L1 lookup outcomes recorded per access.
LVL_L1_HIT = 0
LVL_L2_HIT = 1
LVL_MISS = 2


def prepass_supported(config):
    """Can this configuration be evaluated through the shared kernel?

    The structural walk mirrors the counter-mode fetch path only; the
    exotic configurations keep their legacy per-policy path (they are
    exercised by dedicated experiments, not the broad sweeps).
    """
    secure = config.secure
    return (secure.encryption_mode == "ctr"
            and not secure.obfuscation_enabled
            and not secure.hash_tree_enabled
            and config.prefetch_degree == 0)


def policy_supported(policy):
    """Can ``policy`` be replayed over a shared prepass?

    Obfuscating policies restructure the engine (re-map table accesses
    interleave with data fetches), so they keep the legacy path.
    """
    return not policy.obfuscation


class TracePrepass:
    """Recorded structural outcomes of one (trace, config, warmup) walk.

    Column semantics (all parallel lists of ints):

    - per instruction: ``if_flags[i]`` is 1 when instruction ``i``
      fetches a new I-line (the ``iline != cur_iline`` test);
    - per memory access, in global access order (I-fetch then D-side per
      instruction): ``a_pre`` (TLB miss latency to add), ``a_lvl`` (one
      of the ``LVL_*`` outcomes), ``a_ref`` (for an L1 hit: index of the
      access that filled the line; for an L2 hit: index of the *miss*
      that filled it, or -1 for a line installed by an L1 writeback; for
      a miss: its miss index), ``a_wb`` (posted DRAM writes issued by
      the L1 victim writeback, incl. re-encryption bursts);
    - per L2 demand miss: ``m_wb`` (posted DRAM writes from the L2
      victim writeback), ``m_counter`` (0 = counter-cache hit, 1 =
      predicted, 2 = counter block fetched from memory);
    - per DRAM op, in issue order: ``d_bank`` and ``d_cat`` (``ROW_*``).

    Plus the policy-independent stat totals and the post-warmup
    ``miss_summary`` the replay hands through unchanged.
    """

    __slots__ = (
        "num_instructions", "warmup", "packed", "if_flags",
        "a_pre", "a_lvl", "a_ref", "a_wb",
        "m_wb", "m_counter",
        "d_bank", "d_cat",
        "n_accesses", "n_misses", "n_meta", "n_writes",
        "cc_hits", "cc_misses", "cc_evictions", "cc_writebacks",
        "row_hits", "row_empty", "row_conflicts",
        "page_reencryptions", "miss_summary",
        "_native",   # lazily-built flat buffers for repro.cpu.native
    )

    @property
    def dram_ops(self):
        """Total DRAM accesses (= bus transfers)."""
        return len(self.d_bank)


def build_prepass(trace, config, warmup=0,
                  protected_bytes=256 * 1024 * 1024):
    """Run the structural walk; returns a :class:`TracePrepass`.

    Must only be called for configurations passing
    :func:`prepass_supported`; the walk assumes the counter-mode fast
    path's structure.
    """
    packed = trace.packed()
    num_insts = len(packed)
    warmup = min(warmup, num_insts)

    secure = config.secure
    layout = MetadataLayout(
        protected_bytes=protected_bytes,
        line_bytes=config.l2.line_bytes,
        counter_bytes=secure.counter_bytes,
        mac_bits=secure.mac_bits,
        hash_bytes=secure.hash_bytes,
    )
    wrap = layout.protected_bytes
    counter_base = layout.counter_base
    if secure.split_counters:
        counter_div = 4096
        counter_step = layout.line_bytes
    else:
        counter_div = layout.line_bytes
        counter_step = layout.counter_bytes

    # ---- mirrored cache state (dict insertion order == recency) ------
    l1i_cfg, l1d_cfg, l2_cfg = config.l1i, config.l1d, config.l2
    l1i_sets = [dict() for _ in range(l1i_cfg.num_sets)]
    l1d_sets = [dict() for _ in range(l1d_cfg.num_sets)]
    l2_sets = [dict() for _ in range(l2_cfg.num_sets)]
    l2_num_sets = l2_cfg.num_sets
    l2_line_bytes = l2_cfg.line_bytes
    l2_assoc = l2_cfg.associativity
    page_bytes = config.page_bytes
    tlb_assoc = config.tlb_associativity
    itlb_num_sets = max(1, config.itlb_entries // tlb_assoc)
    dtlb_num_sets = max(1, config.dtlb_entries // tlb_assoc)
    itlb_sets = [dict() for _ in range(itlb_num_sets)]
    dtlb_sets = [dict() for _ in range(dtlb_num_sets)]
    tlb_miss_latency = config.tlb_miss_latency

    # Counter cache: 64B lines, 4-way (CounterCache's fixed geometry).
    cc_line_bytes = 64
    cc_assoc = 4
    cc_num_sets = max(1, secure.counter_cache_bytes
                      // (cc_line_bytes * cc_assoc))
    cc_sets = [dict() for _ in range(cc_num_sets)]
    minor_counts = {}
    minor_limit = 1 << secure.minor_counter_bits
    split_counters = secure.split_counters
    lines_per_page = 4096 // layout.line_bytes
    line_bytes = layout.line_bytes

    # Counter-prediction LCG (SecureMemoryEngine._predict).
    predict_state = 0x2545F4914F6CDD1D
    predict_threshold = int(secure.counter_prediction_rate * (1 << 16))

    # SDRAM bank/row state.
    dram_cfg = config.dram
    num_banks = dram_cfg.num_banks
    interleave = dram_cfg.interleave_bytes
    row_div = num_banks * dram_cfg.row_bytes
    open_rows = [_NO_ROW] * num_banks

    # ---- output columns ----------------------------------------------
    if_flags = bytearray(num_insts)
    a_pre = []
    a_lvl = []
    a_ref = []
    a_wb = []
    m_wb = []
    m_counter = []
    d_bank = []
    d_cat = []

    # ---- structural counters -----------------------------------------
    counts = {
        "cc_hits": 0, "cc_misses": 0, "cc_evictions": 0,
        "cc_writebacks": 0,
        "row_hits": 0, "row_empty": 0, "row_conflicts": 0,
        "n_meta": 0, "n_writes": 0, "reencrypts": 0,
    }
    # Per-level hit/miss pairs for miss_summary (reset at warmup).
    hm = {"l1i": [0, 0], "l1d": [0, 0], "l2": [0, 0],
          "itlb": [0, 0], "dtlb": [0, 0]}

    def dram_op(addr):
        """Classify one DRAM access against the mirrored bank state."""
        bank = (addr // interleave) % num_banks
        row = addr // row_div
        prev = open_rows[bank]
        if prev == row:
            cat = ROW_HIT
            counts["row_hits"] += 1
        elif prev == _NO_ROW:
            cat = ROW_EMPTY
            counts["row_empty"] += 1
        else:
            cat = ROW_CONFLICT
            counts["row_conflicts"] += 1
        open_rows[bank] = row
        d_bank.append(bank)
        d_cat.append(cat)

    def cc_bump(caddr):
        """CounterCache.bump: probe-as-write, fill-as-write on miss."""
        cline = caddr // cc_line_bytes
        cset = cc_sets[cline % cc_num_sets]
        ctag = cline // cc_num_sets
        entry = cset.get(ctag)
        if entry is not None:
            counts["cc_hits"] += 1
            del cset[ctag]
            cset[ctag] = True  # dirty
            return
        counts["cc_misses"] += 1
        if len(cset) >= cc_assoc:
            victim_dirty = cset.pop(next(iter(cset)))
            counts["cc_evictions"] += 1
            if victim_dirty:
                counts["cc_writebacks"] += 1
        cset[ctag] = True

    def engine_write(addr):
        """SecureMemoryEngine.write_line, structurally; returns the
        number of posted DRAM writes it issued."""
        nonlocal predict_state
        if split_counters:
            caddr = counter_base + (addr // 4096) * line_bytes
        else:
            caddr = counter_base + (addr // line_bytes) * secure.counter_bytes
        cc_bump(caddr)
        ops = 0
        if split_counters:
            line = addr // line_bytes
            count = minor_counts.get(line, 0) + 1
            if count < minor_limit:
                minor_counts[line] = count
            else:
                page_base = (addr // 4096) * 4096
                first_line = page_base // line_bytes
                for index in range(lines_per_page):
                    minor_counts[first_line + index] = 0
                    dram_op(page_base + index * line_bytes)
                ops += lines_per_page
                counts["reencrypts"] += 1
        dram_op(addr)
        counts["n_writes"] += ops + 1
        return ops + 1

    def l1_writeback(victim_addr):
        """MemoryHierarchy._l1_writeback, structurally; returns the
        number of posted DRAM writes it issued."""
        vline = victim_addr // l2_line_bytes
        vset = l2_sets[vline % l2_num_sets]
        vtag = vline // l2_num_sets
        entry = vset.get(vtag)
        if entry is not None:
            hm["l2"][0] += 1
            del vset[vtag]
            vset[vtag] = entry
            entry[1] = True  # mark dirty
            return 0
        hm["l2"][1] += 1
        ops = 0
        if len(vset) >= l2_assoc:
            victim = vset.pop(next(iter(vset)))
            if victim[1]:
                ops = engine_write(((victim[2] * l2_num_sets
                                     + vline % l2_num_sets)
                                    * l2_line_bytes) % wrap)
        vset[vtag] = [-1, True, vtag]
        return ops

    def l2_miss(addr):
        """MemoryHierarchy._l2_miss + engine.fetch_line, structurally;
        returns the number of posted DRAM writes from the L2 victim."""
        nonlocal predict_state
        miss_index = len(m_counter)
        mline = addr // l2_line_bytes
        set_index = mline % l2_num_sets
        mset = l2_sets[set_index]
        mtag = mline // l2_num_sets
        hm["l2"][1] += 1
        wb_ops = 0
        victim = None
        if len(mset) >= l2_assoc:
            victim = mset.pop(next(iter(mset)))
        mset[mtag] = [miss_index, False, mtag]
        if victim is not None and victim[1]:
            wb_ops = engine_write(((victim[2] * l2_num_sets + set_index)
                                   * l2_line_bytes) % wrap)
        target = mline * l2_line_bytes % wrap
        # Counter-mode pad source: counter cache, prediction, or memory.
        caddr = counter_base + (target // counter_div) * counter_step
        cline = caddr // cc_line_bytes
        cset = cc_sets[cline % cc_num_sets]
        ctag = cline // cc_num_sets
        entry = cset.get(ctag)
        if entry is not None:
            counts["cc_hits"] += 1
            del cset[ctag]
            cset[ctag] = entry
            mc = 0
        else:
            counts["cc_misses"] += 1
            if len(cset) >= cc_assoc:
                victim_dirty = cset.pop(next(iter(cset)))
                counts["cc_evictions"] += 1
                if victim_dirty:
                    counts["cc_writebacks"] += 1
            cset[ctag] = False
            predict_state = (
                predict_state * 6364136223846793005 + 1442695040888963407
            ) & (2**64 - 1)
            if (predict_state >> 33) & 0xFFFF < predict_threshold:
                mc = 1
            else:
                mc = 2
                counts["n_meta"] += 1
                dram_op(caddr)
        dram_op(target)
        m_counter.append(mc)
        m_wb.append(wb_ops)
        return miss_index

    def make_access(l1_sets_, l1_num_sets, l1_line_bytes, l1_assoc,
                    tlb_sets_, tlb_num_sets, level_key, tlb_key, is_write):
        l1_hm = hm[level_key]
        tlb_hm = hm[tlb_key]

        def access(addr):
            acc_index = len(a_lvl)
            # TLB probe (Tlb.translate_latency).
            page = addr // page_bytes
            tset = tlb_sets_[page % tlb_num_sets]
            ttag = page // tlb_num_sets
            if ttag in tset:
                tlb_hm[0] += 1
                del tset[ttag]
                tset[ttag] = True
                pre = 0
            else:
                tlb_hm[1] += 1
                if len(tset) >= tlb_assoc:
                    tset.pop(next(iter(tset)))
                tset[ttag] = True
                pre = tlb_miss_latency
            # L1 probe (Cache.hit_line).
            line_addr = addr // l1_line_bytes
            set_index = line_addr % l1_num_sets
            cache_set = l1_sets_[set_index]
            tag = line_addr // l1_num_sets
            line = cache_set.get(tag)
            if line is not None:
                l1_hm[0] += 1
                del cache_set[tag]
                cache_set[tag] = line
                if is_write:
                    line[1] = True
                a_pre.append(pre)
                a_lvl.append(LVL_L1_HIT)
                a_ref.append(line[0])
                a_wb.append(0)
                return
            # L1 miss: evict, write back, probe L2.
            l1_hm[1] += 1
            wb_ops = 0
            if len(cache_set) >= l1_assoc:
                victim = cache_set.pop(next(iter(cache_set)))
                if victim[1]:
                    wb_ops = l1_writeback(
                        (victim[2] * l1_num_sets + set_index) * l1_line_bytes)
            cache_set[tag] = [acc_index, is_write, tag]
            l2_line_addr = addr // l2_line_bytes
            l2_set = l2_sets[l2_line_addr % l2_num_sets]
            l2_tag = l2_line_addr // l2_num_sets
            l2_line = l2_set.get(l2_tag)
            if l2_line is not None:
                hm["l2"][0] += 1
                del l2_set[l2_tag]
                l2_set[l2_tag] = l2_line
                a_lvl.append(LVL_L2_HIT)
                a_ref.append(l2_line[0])
            else:
                a_lvl.append(LVL_MISS)
                a_ref.append(l2_miss(addr))
            a_pre.append(pre)
            a_wb.append(wb_ops)

        return access

    ifetch = make_access(
        l1i_sets, l1i_cfg.num_sets, l1i_cfg.line_bytes,
        l1i_cfg.associativity, itlb_sets, itlb_num_sets,
        "l1i", "itlb", False)
    load = make_access(
        l1d_sets, l1d_cfg.num_sets, l1d_cfg.line_bytes,
        l1d_cfg.associativity, dtlb_sets, dtlb_num_sets,
        "l1d", "dtlb", False)
    store = make_access(
        l1d_sets, l1d_cfg.num_sets, l1d_cfg.line_bytes,
        l1d_cfg.associativity, dtlb_sets, dtlb_num_sets,
        "l1d", "dtlb", True)

    # ---- the walk ----------------------------------------------------
    iline_bytes = config.l1i.line_bytes
    op_load = 3  # Op.LOAD
    op_store = 4  # Op.STORE
    cur_iline = -1
    warmup_snapshot = None

    pcs = packed.pcs
    ops = packed.ops
    addrs = packed.addrs
    for index in range(num_insts):
        if index == warmup and warmup:
            # hierarchy.reset_stats(): the per-level groups restart here,
            # so miss_summary covers the measured region only.
            warmup_snapshot = {key: list(pair) for key, pair in hm.items()}
        pc = pcs[index]
        iline = pc // iline_bytes
        if iline != cur_iline:
            if_flags[index] = 1
            ifetch(pc)
            cur_iline = iline
        op = ops[index]
        if op == op_load:
            load(addrs[index])
        elif op == op_store:
            store(addrs[index])

    if warmup_snapshot is None:
        warmup_snapshot = {key: [0, 0] for key in hm}
    miss_summary = {}
    for key in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        hits = hm[key][0] - warmup_snapshot[key][0]
        misses = hm[key][1] - warmup_snapshot[key][1]
        total = hits + misses
        miss_summary[key] = misses / total if total else 0.0

    pre = TracePrepass()
    pre.num_instructions = num_insts
    pre.warmup = warmup
    pre.packed = packed
    pre.if_flags = if_flags
    pre.a_pre = a_pre
    pre.a_lvl = a_lvl
    pre.a_ref = a_ref
    pre.a_wb = a_wb
    pre.m_wb = m_wb
    pre.m_counter = m_counter
    pre.d_bank = d_bank
    pre.d_cat = d_cat
    pre.n_accesses = len(a_lvl)
    pre.n_misses = len(m_counter)
    pre.n_meta = counts["n_meta"]
    pre.n_writes = counts["n_writes"]
    pre.cc_hits = counts["cc_hits"]
    pre.cc_misses = counts["cc_misses"]
    pre.cc_evictions = counts["cc_evictions"]
    pre.cc_writebacks = counts["cc_writebacks"]
    pre.row_hits = counts["row_hits"]
    pre.row_empty = counts["row_empty"]
    pre.row_conflicts = counts["row_conflicts"]
    pre.page_reencryptions = counts["reencrypts"]
    pre.miss_summary = miss_summary
    return pre
