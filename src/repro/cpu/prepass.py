"""Policy-independent structural prepass over one decoded trace.

The decode-once/evaluate-many pipeline rests on one observation: every
*structural* decision the memory system makes -- TLB and cache hit/miss
outcomes, LRU evictions and dirty writebacks, counter-cache probes,
counter-prediction draws, hash-tree node-cache walks, re-map cache
probes and chunk reshuffles, SDRAM bank/row classification -- depends
only on the address stream and its order, never on the policy's gating
terms.  Policies change *when* things happen (cycle arithmetic), not
*what* happens.  So the walk over caches and banks can run once per
trace and structure, and each policy evaluation replays only the timing
arithmetic over the recorded outcomes (:mod:`repro.cpu.shared_kernel`).

:func:`build_prepass` performs that walk in the C kernel of
:mod:`repro.cpu.native`, which mirrors, decision for decision, the
structural half of ``hierarchy._l1_access`` / ``hierarchy._l2_miss`` /
``engine.fetch_line`` / ``engine.write_line``, including the CHTree
node walk (``HashTreeTiming``) and address obfuscation
(``AddressObfuscator``) when the configuration enables them.  It
records the outcomes on flat int64 per-access / per-miss / per-DRAM-op
columns (the same structure-of-arrays discipline as
:class:`~repro.workloads.trace.PackedTrace`), which the replay reads
as they are.  The column pins (``tests/cpu``), the
lockstep oracle property and the perf goldens hold the walk
bit-identical to the legacy simulator.

A policy's effective structure (:meth:`~repro.config.SimConfig.for_policy`)
decides which walk it replays, so one group walks at most once per
distinct structure.  :func:`prepass_supported` gates the rest: CBC mode
and prefetching keep the legacy per-policy path, and no prepass is
built at all when the native kernel cannot be built.
"""

from array import array

from repro.config import CacheConfig
from repro.cpu import native
from repro.errors import ConfigError
from repro.secure.metadata import MetadataLayout
from repro.util.rng import DeterministicRng
from repro.workloads.trace import int64_array

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

    The walk mirrors the counter-mode fetch path without prefetching;
    CBC mode and the prefetcher keep their legacy per-policy path.
    """
    return (config.secure.encryption_mode == "ctr"
            and config.prefetch_degree == 0)


class TracePrepass:
    """Recorded structural outcomes of one (trace, config, warmup) walk.

    Column semantics (all ``array('q')``):

    - per instruction: ``if_flags[i]`` is 1 when instruction ``i``
      fetches a new I-line (the ``iline != cur_iline`` test);
    - per memory access, in global access order (I-fetch then D-side per
      instruction): ``a_pre`` (TLB miss latency to add), ``a_lvl`` (one
      of the ``LVL_*`` outcomes), ``a_ref`` (for an L1 hit: index of the
      access that filled the line; for an L2 hit: index of the *miss*
      whose timestamps the line holds, or -1 for a line installed by an
      L1 writeback or a tree-node fill; for a miss: its miss index),
      ``a_wb`` (posted DRAM writes issued by the L1 victim writeback,
      incl. re-encryption and reshuffle bursts);
    - per L2 demand miss: ``m_wb`` (posted DRAM writes from the L2
      victim writeback), ``m_counter`` (0 = counter-cache hit, 1 =
      predicted, 2 = counter block fetched from memory); for a tree
      walk also ``m_tree`` (tree nodes fetched from memory) and
      ``m_backing`` (1 when an L2-resident node ended the walk), and
      under obfuscation ``m_remap`` (1 when the re-map entry was
      fetched from memory) -- empty for walks without that structure;
    - per DRAM op, in issue order: ``d_bank`` and ``d_cat`` (``ROW_*``).

    Plus the policy-independent stat totals (``cc_*`` are the engine's
    shared hits/misses/evictions/writebacks counters: the counter cache,
    and the tree-node and re-map caches when present), the structure
    flags ``hash_tree`` / ``obfuscation``, the tree walk depth counts
    ``tree_depths`` (index = depth) and the post-warmup ``miss_summary``
    the replay hands through unchanged.
    """

    __slots__ = (
        "num_instructions", "warmup", "packed", "if_flags",
        "a_pre", "a_lvl", "a_ref", "a_wb",
        "m_wb", "m_counter", "m_tree", "m_backing", "m_remap",
        "d_bank", "d_cat",
        "n_accesses", "n_misses", "n_meta", "n_writes",
        "cc_hits", "cc_misses", "cc_evictions", "cc_writebacks",
        "row_hits", "row_empty", "row_conflicts",
        "page_reencryptions", "hash_tree", "obfuscation",
        "tree_node_fetches", "tree_backing_hits", "tree_depths",
        "remap_entry_fetches", "remap_reshuffles", "miss_summary",
        "trace_columns",  # int64_columns(packed), shared by like= walks
        "_native",   # the replay's buffers, built by its first replay
    )

    @property
    def dram_ops(self):
        """Total DRAM accesses (= bus transfers)."""
        return len(self.d_bank)


def _remap_draws(config, num_chunks, num_insts):
    """The ``"remap"`` stream's ``randrange(num_chunks)`` draws, in order.

    Only ``RemapTable.reshuffle`` draws from that stream (one draw per
    reshuffle), and a run makes at most three engine writebacks per
    instruction, each counting towards one chunk's reshuffle period, so
    ``4n // shuffle_period + 1`` draws always suffice.
    """
    rng = DeterministicRng(config.seed).stream("remap")
    count = 4 * num_insts // config.secure.remap_shuffle_period + 1
    return array("q", (rng.randrange(num_chunks) for _ in range(count)))


def build_prepass(trace, config, warmup=0,
                  protected_bytes=256 * 1024 * 1024, like=None):
    """Run the structural walk; returns a :class:`TracePrepass`.

    ``config`` is the structure the walk mirrors: pass a policy's
    :meth:`~repro.config.SimConfig.for_policy` configuration, so the
    hash tree is walked only for authenticating policies and the
    re-map layer for obfuscating ones.  ``like`` is another walk of
    the same trace whose int64 trace columns the replay shares.  Must
    only be called for configurations passing :func:`prepass_supported`.
    Raises RuntimeError when the native kernel cannot load.
    """
    packed = trace.packed()
    if like is not None and like.packed is not packed:
        raise ValueError("like= must be a walk of the same trace")
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
    line_bytes = layout.line_bytes
    tree = secure.hash_tree_enabled
    remap = secure.obfuscation_enabled
    tree_bases = array("q")
    tree_sets = remap_sets = num_chunks = 0
    if tree:
        if layout.tree_levels >= 64:
            raise ConfigError("hash tree deeper than the walk's 64 levels")
        tree_bases = array("q", (layout.tree_node_addr(level, 0)
                                 for level in range(layout.tree_levels)))
        tree_sets = CacheConfig("tree_cache", secure.hash_tree_cache_bytes,
                                line_bytes, 4, 1).num_sets
    draws = array("q")
    if remap:
        if secure.remap_chunk_bytes % line_bytes:
            raise ValueError("chunk must be a whole number of lines")
        remap_sets = CacheConfig("remap_cache", secure.remap_cache_bytes,
                                 64, 4, secure.remap_cache_latency).num_sets
        num_chunks = layout.protected_bytes // secure.remap_chunk_bytes
        draws = _remap_draws(config, num_chunks, num_insts)

    l1i, l1d, l2, dram = config.l1i, config.l1d, config.l2, config.dram
    tlb_assoc = config.tlb_associativity
    cfg = array("q", [
        num_insts, warmup,
        l1i.num_sets, l1i.associativity, l1i.line_bytes,
        l1d.num_sets, l1d.associativity, l1d.line_bytes,
        l2.num_sets, l2.associativity, l2.line_bytes,
        max(1, config.itlb_entries // tlb_assoc),
        max(1, config.dtlb_entries // tlb_assoc),
        tlb_assoc, config.page_bytes, config.tlb_miss_latency,
        # Counter cache: 64B lines, 4-way (CounterCache's fixed geometry).
        max(1, secure.counter_cache_bytes // (64 * 4)),
        layout.protected_bytes, line_bytes, layout.counter_base,
        secure.counter_bytes, secure.split_counters,
        1 << secure.minor_counter_bits,
        int(secure.counter_prediction_rate * (1 << 16)),
        dram.num_banks, dram.interleave_bytes,
        dram.num_banks * dram.row_bytes,
        tree, tree_sets, len(tree_bases), layout.tree_arity,
        remap, remap_sets, layout.remap_base, secure.remap_entry_bytes,
        secure.remap_chunk_bytes, secure.remap_shuffle_period, len(draws),
    ])
    columns, scalars, hits_misses, depths = native.walk(
        cfg, int64_array(packed.pcs), int64_array(packed.ops),
        int64_array(packed.addrs), tree_bases, draws)

    pre = TracePrepass()
    pre.num_instructions = num_insts
    pre.warmup = warmup
    pre.packed = packed
    pre.trace_columns = {} if like is None else like.trace_columns
    for name, column in columns.items():
        setattr(pre, name, column)
    for name, value in scalars.items():
        setattr(pre, name, value)
    pre.n_accesses = len(pre.a_lvl)
    pre.n_misses = len(pre.m_counter)
    pre.hash_tree = tree
    pre.obfuscation = remap
    pre.tree_depths = depths
    pre.miss_summary = {
        level: misses / (hits + misses) if hits + misses else 0.0
        for level, (hits, misses) in zip(native.MISS_LEVELS, hits_misses)}
    return pre
