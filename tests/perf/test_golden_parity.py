"""Golden timing-parity suite.

The hot-path optimisations (packed traces, O(1) LRU, issue-calendar
pruning) must be *timing-neutral*: cycle counts, IPC and every StatGroup
counter bit-identical to the pinned reference.  These tests re-run the
golden matrix and the beyond-default cells cell by cell, the hash-tree
and obfuscation cells through the native kernel too.
"""

import pytest

from repro.config import SimConfig
from repro.cpu import native
from repro.exec.cache import cached_trace
from repro.perf.golden import (
    GOLDEN_CYCLES,
    GOLDEN_DIGESTS,
    GOLDEN_INSTRUCTIONS,
    GOLDEN_WARMUP,
    LEGACY_ONLY_CYCLES,
    LEGACY_ONLY_DIGESTS,
    golden_cells,
    legacy_only_cells,
    stats_digest,
)
from repro.perf.bench import shared_legacy_only_cells
from repro.policies import make_policy
from repro.sim.runner import build_simulator

CELLS = list(golden_cells())
LEGACY_ONLY = list(legacy_only_cells())


def run_cell(bench, policy, config=None):
    config = config or SimConfig()
    trace = cached_trace(bench, GOLDEN_INSTRUCTIONS + GOLDEN_WARMUP,
                         config.seed)
    core, hier = build_simulator(config, policy)
    result = core.run(trace, warmup=GOLDEN_WARMUP)
    return result, hier


class TestGoldenParity:
    @pytest.mark.parametrize("bench,policy", CELLS,
                             ids=["%s/%s" % cell for cell in CELLS])
    def test_cycles_bit_identical(self, bench, policy):
        result, _ = run_cell(bench, policy)
        key = "%s/%s" % (bench, policy)
        assert result.cycles == GOLDEN_CYCLES[key]
        assert result.instructions == GOLDEN_INSTRUCTIONS

    @pytest.mark.parametrize("bench,policy",
                             [("mcf", "authen-then-commit"),
                              ("swim", "decrypt-only"),
                              ("twolf", "authen-then-write")])
    def test_full_stats_digest(self, bench, policy):
        """Beyond cycles: every counter and histogram bucket must match."""
        result, hier = run_cell(bench, policy)
        key = "%s/%s" % (bench, policy)
        digest = stats_digest(result.stats.as_dict(), hier.miss_summary())
        assert digest == GOLDEN_DIGESTS[key]

    @pytest.mark.parametrize("key,bench,config,policy", LEGACY_ONLY,
                             ids=[cell[0] for cell in LEGACY_ONLY])
    def test_legacy_only_cell(self, key, bench, config, policy):
        """Hash tree, prefetching, CBC and obfuscation through the
        legacy simulator; its walk is pinned here."""
        result, hier = run_cell(bench, policy, config)
        assert result.cycles == LEGACY_ONLY_CYCLES[key]
        assert stats_digest(result.stats.as_dict(),
                            hier.miss_summary()) == LEGACY_ONLY_DIGESTS[key]

    @pytest.mark.skipif(not native.native_available(),
                        reason="the kernel needs a C compiler")
    @pytest.mark.parametrize("key,bench,config,policy",
                             [cell for cell in LEGACY_ONLY
                              if cell[0] in shared_legacy_only_cells()],
                             ids=shared_legacy_only_cells())
    def test_legacy_only_cell_through_kernel(self, key, bench, config,
                                             policy):
        """The hash-tree and obfuscation cells replay from the walk of
        the policy's structure to the same pins."""
        from repro.cpu.prepass import build_prepass
        from repro.cpu.shared_kernel import replay_policy

        trace = cached_trace(bench, GOLDEN_INSTRUCTIONS + GOLDEN_WARMUP,
                             config.seed)
        member = make_policy(policy)
        prepass = build_prepass(trace, config.for_policy(member),
                                warmup=GOLDEN_WARMUP)
        result = replay_policy(prepass, member, config)
        assert result.cycles == LEGACY_ONLY_CYCLES[key]
        assert stats_digest(result.stats.as_dict(),
                            result.miss_summary) == LEGACY_ONLY_DIGESTS[key]

    def test_check_goldens_is_clean(self):
        from repro.perf.bench import check_goldens

        assert check_goldens() == []

    def test_digest_is_sensitive_to_counter_drift(self):
        """A single off-by-one in any counter must change the digest."""
        result, hier = run_cell("swim", "decrypt-only")
        stats = result.stats.as_dict()
        reference = stats_digest(stats, hier.miss_summary())
        name = sorted(k for k, v in stats.items()
                      if isinstance(v, int))[0]
        stats[name] += 1
        assert stats_digest(stats, hier.miss_summary()) != reference
