"""Lockstep oracle: the native kernel against the legacy simulator.

The legacy per-policy simulator is the reference model; the native
structural walk plus the timestamp replay is the optimised copy.  Two
copies of one machine, run in lockstep on the same input, must agree
exactly -- the two-copy property of contract shadow logic.  Hypothesis
draws the machine (counter mode or CBC, stream prefetch degree 0 to 4,
hash tree and address obfuscation on or off, cache, TLB, core, queue,
counter and DRAM geometry and timing, warmup), a registered policy and
a trace -- a SPEC2000 profile with a drawn seed, or hand-written rows
aimed at same-set thrash, page re-encryption, chunk reshuffles, row
conflicts and sequential streams -- and asserts equal cycles,
``stats.as_dict()`` and ``miss_summary``.

Tier-1 runs a derandomised profile of about ten seconds; CI's native
differential step adds ``--hypothesis-profile=oracle-long``
(registered in ``tests/conftest.py``) for a longer run.  A failure is a
kernel bug: pin the counterexample below as an ``@example``.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, CoreConfig, DramConfig, SimConfig
from repro.cpu.prepass import build_prepass
from repro.cpu.shared_kernel import replay_policy
from repro.policies import available_policies, make_policy
from repro.sim.runner import build_simulator
from repro.workloads.spec import fp_benchmarks, get_profile, int_benchmarks
from repro.workloads.trace import Op
from repro.workloads.tracegen import generate_trace
from tests.traces import row, trace_from_rows


def _pow2(low, high):
    return st.integers(low, high).map(lambda exp: 1 << exp)


@st.composite
def configs(draw):
    """A machine: any encryption mode, prefetch degree and structure."""
    l2_line = draw(_pow2(5, 7))
    l2_assoc = draw(st.sampled_from((1, 2, 4, 8)))
    l2 = CacheConfig("l2", draw(_pow2(0, 10)) * l2_line * l2_assoc,
                     l2_line, l2_assoc, draw(st.sampled_from((1, 4, 8))))

    def l1(name, max_line):
        line = draw(_pow2(4, max_line))
        ways = draw(st.sampled_from((1, 2, 4)))
        return CacheConfig(name, draw(_pow2(0, 9)) * line * ways, line,
                           ways, draw(st.integers(1, 3)))

    tlb_assoc = draw(st.sampled_from((1, 2, 4)))
    secure = dict(
        encryption_mode=draw(st.sampled_from(("ctr", "cbc"))),
        hash_tree_enabled=draw(st.booleans()),
        hash_tree_cache_bytes=draw(_pow2(0, 5)) * 4 * l2_line,
        obfuscation_enabled=draw(st.booleans()),
        remap_cache_bytes=draw(_pow2(0, 10)) * 4 * 64,
        remap_entry_bytes=draw(st.sampled_from((4, 8, 16))),
        remap_cache_latency=draw(st.integers(1, 4)),
        remap_chunk_bytes=l2_line * draw(_pow2(0, 6)),
        remap_shuffle_period=draw(st.sampled_from((1, 2, 3, 16, 64))),
        auth_queue_depth=draw(st.integers(1, 32)),
        split_counters=draw(st.booleans()),
        minor_counter_bits=draw(st.integers(1, 8)),
        counter_cache_bytes=draw(_pow2(0, 7)) * 256,
        counter_prediction_rate=draw(
            st.sampled_from((0.0, 0.5, 0.93, 1.0))),
        mac_scheme=draw(st.sampled_from(("hmac", "gmac"))),
        hmac_latency=draw(st.integers(1, 120)),
        decrypt_latency=draw(st.integers(1, 120)),
        store_buffer_entries=draw(st.integers(1, 32)),
    )
    dram = DramConfig(
        bus_multiplier=draw(st.integers(1, 5)),
        bus_width_bytes=draw(st.sampled_from((4, 8, 16))),
        cas_bus_clocks=draw(st.integers(1, 20)),
        rcd_bus_clocks=draw(st.integers(0, 7)),
        rp_bus_clocks=draw(st.integers(0, 7)),
        num_banks=draw(_pow2(0, 4)),
        row_bytes=draw(_pow2(8, 13)),
        interleave_bytes=draw(_pow2(5, 12)),
    )
    core = CoreConfig(ruu_entries=draw(st.integers(8, 128)),
                      lsq_entries=draw(st.integers(1, 64)))
    return replace(
        SimConfig(), core=core, l1i=l1("l1i", 7), l1d=l1("l1d", 5), l2=l2,
        dram=dram, mshr_entries=draw(st.integers(1, 16)),
        prefetch_degree=draw(st.sampled_from((0, 1, 2, 4))),
        tlb_associativity=tlb_assoc,
        itlb_entries=tlb_assoc * draw(_pow2(0, 5)),
        dtlb_entries=tlb_assoc * draw(_pow2(0, 5)),
        tlb_miss_latency=draw(st.integers(0, 40)),
    ).with_secure(**secure)


#: Where 64-byte-line configurations put the hash tree's level 0: a
#: demand access there can hit a tree node the verification walk
#: installed in the L2.
TREE_REGION = 320 << 20


@st.composite
def corner_rows(draw):
    """Store-heavy rows over a few conflicting lines and pages: dirty
    victims, minor-counter overflows, chunk reshuffles, row conflicts,
    demand hits on L2-resident tree nodes, and a line-stride sequential
    stream interleaved with them, so stream detection fires and
    prefetches evict dirty lines."""
    stride = draw(st.sampled_from((64, 4096, 1 << 14, 1 << 18, 1 << 22)))
    slots = draw(st.integers(1, 24))
    line_stride = draw(st.sampled_from((0, 32, 64, 128)))
    streamed = 0
    rows = []
    pc = 0x1000
    for _ in range(draw(st.integers(1, 300))):
        kind = draw(st.sampled_from(("load", "store", "store", "alu",
                                     "branch")))
        if (line_stride and kind in ("load", "store")
                and draw(st.booleans())):
            addr = streamed * line_stride
            streamed += 1
        else:
            addr = (draw(st.sampled_from((0, 0, 0, TREE_REGION)))
                    + draw(st.integers(0, slots - 1)) * stride
                    + draw(st.sampled_from((0, 8, 32, 64, 128))))
        dest = draw(st.integers(-1, 7))
        srcs = tuple(draw(st.lists(st.integers(0, 7), max_size=2)))
        if kind == "load":
            rows.append(row(pc, Op.LOAD, dest, srcs, addr))
        elif kind == "store":
            rows.append(row(pc, Op.STORE, -1, srcs, addr))
        elif kind == "alu":
            rows.append(row(pc, Op.IALU, dest, srcs))
        else:
            rows.append(row(pc, Op.BRANCH, -1, srcs,
                            mispredict=draw(st.booleans())))
            if draw(st.booleans()):
                pc = draw(st.sampled_from((0x1000, 0x9000, 0x41000)))
                continue
        pc += 4
    return trace_from_rows(rows)


profile_traces = st.builds(
    lambda name, n, seed: generate_trace(get_profile(name), n, seed=seed),
    st.sampled_from(int_benchmarks() + fp_benchmarks()),
    st.integers(1, 2000), st.integers(0, 2 ** 16))


def assert_lockstep(config, policy_name, trace, warmup):
    """Kernel (walk of the policy's structure + replay) == legacy."""
    policy = make_policy(policy_name)
    core, hierarchy = build_simulator(config, policy_name)
    legacy = core.run(trace, warmup=warmup)
    prepass = build_prepass(trace, config.for_policy(policy), warmup=warmup)
    kernel = replay_policy(prepass, policy, config)
    assert kernel.cycles == legacy.cycles
    assert kernel.instructions == legacy.instructions
    assert kernel.stats.as_dict() == legacy.stats.as_dict()
    assert kernel.miss_summary == legacy.miss_summary
    return kernel


def _recycled_node_case():
    """A direct-mapped L2 where the tree walk's backing fill of node 0
    evicts the demand line it just installed: ``Cache.fill`` recycles
    that ``LineState`` and ``_l2_miss`` stamps the fetch's timestamps on
    it, so a later demand hit on the node sees the miss's data time."""
    config = replace(SimConfig(), l2=CacheConfig("l2", 1024 * 64, 64, 1, 4)
                     ).with_secure(hash_tree_enabled=True)
    rows = [row(0x1000, Op.LOAD, 1, (), 0),
            row(0x1004, Op.LOAD, 2, (), TREE_REGION)]
    rows += [row(0x1008 + 4 * i, Op.IMUL, 2, (2,)) for i in range(10)]
    return {"config": config, "trace": trace_from_rows(rows),
            "warmup_share": 0.0}


def _recycled_prefetch_case():
    """The same recycling for a prefetched line: line 8191's miss finds
    line 8190 resident and prefetches line 8192, whose tree walk misses
    the node cache at a level-0 node that maps to the prefetched line's
    own set of a direct-mapped L2.  The node inherits the prefetch's
    timestamps, which the demand load of that node then reads."""
    config = replace(SimConfig(), l2=CacheConfig("l2", 1024 * 64, 64, 1, 4),
                     prefetch_degree=1).with_secure(
                         hash_tree_enabled=True, hash_tree_cache_bytes=256)
    rows = [row(0x1000, Op.LOAD, 1, (), 8190 * 64),
            row(0x1004, Op.LOAD, 1, (), 8191 * 64),
            row(0x1008, Op.LOAD, 2, (), TREE_REGION + 1024 * 64)]
    rows += [row(0x100c + 4 * i, Op.IMUL, 2, (2,)) for i in range(10)]
    return {"config": config, "trace": trace_from_rows(rows),
            "warmup_share": 0.0}


def _queue_full_case():
    """A one-entry authentication queue under mcf's misses: a line's
    verification waits for the one before it (``auth_queue_full``)."""
    return {"config": SimConfig().with_secure(auth_queue_depth=1),
            "trace": generate_trace(get_profile("mcf"), 2000, seed=1),
            "warmup_share": 0.0}


def _reshuffle_case():
    """Stores to eight pages through a two-line L2 under address
    obfuscation: every second writeback of a chunk reshuffles it
    (``remap_reshuffles``)."""
    config = replace(SimConfig(), l2=CacheConfig("l2", 2 * 64, 64, 2, 4)
                     ).with_secure(obfuscation_enabled=True,
                                   remap_shuffle_period=2)
    rows = [row(0x1000 + 4 * i, Op.STORE, -1, (), (i % 8) * 4096)
            for i in range(64)]
    return {"config": config, "trace": trace_from_rows(rows),
            "warmup_share": 0.0}


#: The issue calendar's first capacity in the kernel (``cal_init``).
CALENDAR_SLOTS = 1 << 14


def _calendar_growth_case():
    """A dependent multiply chain longer than the issue calendar's first
    capacity: each issues in its own cycle, far ahead of the fetch
    frontier, so a prune keeps nearly every slot and the calendar
    doubles."""
    rows = [row(0x1000 + 4 * (i % 256), Op.IMUL, 1, (1,))
            for i in range(CALENDAR_SLOTS + 116)]
    return {"config": SimConfig(), "trace": trace_from_rows(rows),
            "warmup_share": 0.0}


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@example(policy_name="lazy", **_recycled_node_case())
@example(policy_name="authen-then-issue", **_recycled_node_case())
@example(policy_name="lazy", **_recycled_prefetch_case())
@example(policy_name="authen-then-issue", **_recycled_prefetch_case())
@example(policy_name="authen-then-commit", **_queue_full_case())
@example(policy_name="authen-then-write", **_reshuffle_case())
@example(policy_name="authen-then-commit", **_calendar_growth_case())
@given(config=configs(), policy_name=st.sampled_from(available_policies()),
       trace=st.one_of(profile_traces, corner_rows()),
       warmup_share=st.sampled_from((0.0, 0.25, 0.5, 1.0)))
def test_kernel_equals_legacy(config, policy_name, trace, warmup_share):
    assert_lockstep(config, policy_name, trace,
                    int(len(trace) * warmup_share))


@pytest.mark.parametrize("case, counter", [
    (_queue_full_case, "auth_queue_full"),
    (_reshuffle_case, "remap_reshuffles"),
], ids=["queue-full", "reshuffle"])
def test_pinned_cases_reach_their_mechanism(case, counter):
    """The examples above run the kernel paths no drawn case reaches in
    a derandomised run, and both models count them."""
    case = case()
    kernel = assert_lockstep(case["config"], "authen-then-commit",
                             case["trace"], 0)
    assert kernel.stats[counter].value > 0
