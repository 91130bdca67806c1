"""Golden timing-parity check behind ``repro perf``.

:func:`check_goldens` re-runs the pinned golden matrix *through both
paths* -- the legacy simulator and the decode-once shared pass, whose
replay is the native kernel -- plus the beyond-default cells (through
the shared pass too where the envelope covers them), and compares cycle
counts and full stats digests against the pinned values.  That is the
bit-identical timing-neutrality contract every hot-path change must
keep.  On a machine where the native kernel cannot be built the shared
column is skipped, and ``repro perf`` says so; ``REPRO_NATIVE=require``
makes that an error instead.  Throughput is measured by the ``bench/``
harness, not here.
"""

from repro.config import SimConfig
from repro.cpu.native import native_available
from repro.cpu.prepass import build_prepass, prepass_supported
from repro.cpu.shared_kernel import replay_policy
from repro.exec.cache import cached_trace
from repro.perf.golden import (
    GOLDEN_BENCHMARKS,
    GOLDEN_CYCLES,
    GOLDEN_DIGESTS,
    GOLDEN_INSTRUCTIONS,
    GOLDEN_POLICIES,
    GOLDEN_WARMUP,
    LEGACY_ONLY_CYCLES,
    LEGACY_ONLY_DIGESTS,
    legacy_only_cells,
    stats_digest,
)
from repro.policies import make_policy
from repro.sim.runner import build_simulator


def _verify_cell(key, path, cycles, digest, pinned_cycles, pinned_digest):
    """Compare one (cell, path) outcome against its pinned values."""
    if cycles != pinned_cycles:
        return ["%s [%s]: cycles %d != golden %d"
                % (key, path, cycles, pinned_cycles)]
    if digest != pinned_digest:
        return ["%s [%s]: cycles match but stats digest drifted "
                "(%s != %s)"
                % (key, path, digest[:16], pinned_digest[:16])]
    return []


def _run_legacy(config, policy, trace):
    """Legacy ``build_simulator`` + ``core.run``; ``(cycles, digest)``."""
    core, hier = build_simulator(config, policy)
    result = core.run(trace, warmup=GOLDEN_WARMUP)
    return result.cycles, stats_digest(result.stats.as_dict(),
                                       hier.miss_summary())


def shared_legacy_only_cells():
    """Keys of the legacy-only cells the shared pass also evaluates."""
    return [key for key, _bench, config, _policy in legacy_only_cells()
            if prepass_supported(config)]


def check_goldens():
    """Re-run the pinned golden cells; returns a list of mismatches.

    Every golden-matrix cell is evaluated twice -- once through the
    legacy ``build_simulator`` + ``core.run`` path and once through the
    decode-once shared pass (:func:`~repro.cpu.prepass.build_prepass` +
    :func:`~repro.cpu.shared_kernel.replay_policy`, the path a
    :class:`~repro.exec.job.MultiPolicySimJob` takes) -- and both
    outcomes must reproduce the pinned cycle count *and* full stats
    digest bit-identically.  The legacy-only cells
    (:func:`~repro.perf.golden.legacy_only_cells`) are checked through
    the legacy path, and those inside the envelope -- the hash tree and
    address obfuscation, walked for the policy's own structure -- through
    the shared pass too, against the same pins; CBC and prefetching stay
    legacy-only.  The shared column is
    checked only when :func:`~repro.cpu.native.native_available`, and
    ``repro perf`` reports a skipped column.  An empty list means clean;
    each mismatch is a human-readable string naming the cell, the path
    that drifted and what drifted.
    """
    config = SimConfig()
    mismatches = []
    total = GOLDEN_INSTRUCTIONS + GOLDEN_WARMUP
    shared_column = native_available()
    shared_cells = shared_legacy_only_cells()
    for bench in GOLDEN_BENCHMARKS:
        trace = cached_trace(bench, total, config.seed)
        if shared_column:
            prepass = build_prepass(trace, config, warmup=GOLDEN_WARMUP)
        for policy in GOLDEN_POLICIES:
            key = "%s/%s" % (bench, policy)
            pinned = GOLDEN_CYCLES[key], GOLDEN_DIGESTS[key]
            mismatches += _verify_cell(
                key, "legacy", *_run_legacy(config, policy, trace), *pinned)
            if not shared_column:
                continue
            shared = replay_policy(prepass, make_policy(policy), config,
                                   trace_name=getattr(trace, "name",
                                                      "trace"))
            mismatches += _verify_cell(
                key, "shared", shared.cycles,
                stats_digest(shared.stats.as_dict(), shared.miss_summary),
                *pinned)
    for key, bench, cell_config, policy in legacy_only_cells():
        trace = cached_trace(bench, total, cell_config.seed)
        pinned = LEGACY_ONLY_CYCLES[key], LEGACY_ONLY_DIGESTS[key]
        mismatches += _verify_cell(
            key, "legacy", *_run_legacy(cell_config, policy, trace),
            *pinned)
        if not shared_column or key not in shared_cells:
            continue
        member = make_policy(policy)
        prepass = build_prepass(trace, cell_config.for_policy(member),
                                warmup=GOLDEN_WARMUP)
        shared = replay_policy(prepass, member, cell_config,
                               trace_name=getattr(trace, "name", "trace"))
        mismatches += _verify_cell(
            key, "shared", shared.cycles,
            stats_digest(shared.stats.as_dict(), shared.miss_summary),
            *pinned)
    return mismatches

