"""Timing-parity verification.

``repro perf`` re-verifies that the simulator still reproduces the
pinned golden cycle counts and stats digests bit-identically, through
both the legacy and the shared-pass path.  Throughput is measured by the
``bench/`` harness.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.perf.golden": ("GOLDEN_BENCHMARKS", "GOLDEN_CYCLES",
                          "GOLDEN_DIGESTS", "GOLDEN_INSTRUCTIONS",
                          "GOLDEN_POLICIES", "GOLDEN_WARMUP",
                          "LEGACY_ONLY_CYCLES", "LEGACY_ONLY_DIGESTS",
                          "golden_cells", "legacy_only_cells",
                          "stats_digest"),
    "repro.perf.bench": ("check_goldens",),
})
