"""Golden timing-parity check behind ``repro perf``.

:func:`check_goldens` re-runs the pinned golden matrix and the
beyond-default cells *through both paths* -- the legacy simulator and
the decode-once shared pass, whose replay is the native kernel -- and
compares cycle counts and full stats digests against the pinned
values.  That is the
bit-identical timing-neutrality contract every hot-path change must
keep.  Both columns are always checked: a kernel that cannot be built
raises :class:`~repro.errors.KernelUnavailableError`, and ``repro
perf`` fails.  Throughput is measured by the ``bench/`` harness, not
here.
"""

from repro.config import SimConfig
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
from repro.sim.runner import build_simulator, evaluate_trace


def _verify_cell(key, path, result, pinned_cycles, pinned_digest):
    """Compare one (cell, path) result against its pinned values."""
    if result.cycles != pinned_cycles:
        return ["%s [%s]: cycles %d != golden %d"
                % (key, path, result.cycles, pinned_cycles)]
    digest = stats_digest(result.stats.as_dict(), result.miss_summary)
    if digest != pinned_digest:
        return ["%s [%s]: cycles match but stats digest drifted "
                "(%s != %s)"
                % (key, path, digest[:16], pinned_digest[:16])]
    return []


def _run_legacy(config, policy, trace):
    """Legacy ``build_simulator`` + ``core.run``."""
    core, _ = build_simulator(config, policy)
    return core.run(trace, warmup=GOLDEN_WARMUP)


def _run_shared(config, policies, trace):
    """The kernel through :func:`~repro.sim.runner.evaluate_trace`."""
    results = list(evaluate_trace(trace, config, policies,
                                  warmup=GOLDEN_WARMUP))
    if any(result.accounting["path"] != "native" for result in results):
        raise RuntimeError("the shared column fell back to the legacy "
                           "simulator")
    return results


def check_goldens():
    """Re-run the pinned golden cells; returns a list of mismatches.

    Every golden-matrix cell and every beyond-default cell
    (:func:`~repro.perf.golden.legacy_only_cells`: the hash tree,
    prefetching, CBC and address obfuscation) is evaluated twice -- once
    through the legacy ``build_simulator`` + ``core.run`` path and once
    through the decode-once shared pass
    (:func:`~repro.sim.runner.evaluate_trace` on the kernel, the path
    every untraced job and public helper takes) -- and both outcomes
    must reproduce the pinned cycle count *and* full stats digest
    bit-identically.  An empty list means clean; each mismatch is a
    human-readable string naming the cell, the path that drifted and
    what drifted.
    """
    config = SimConfig()
    mismatches = []
    total = GOLDEN_INSTRUCTIONS + GOLDEN_WARMUP
    for bench in GOLDEN_BENCHMARKS:
        trace = cached_trace(bench, total, config.seed)
        shared = _run_shared(config, GOLDEN_POLICIES, trace)
        for index, policy in enumerate(GOLDEN_POLICIES):
            key = "%s/%s" % (bench, policy)
            pinned = GOLDEN_CYCLES[key], GOLDEN_DIGESTS[key]
            mismatches += _verify_cell(
                key, "legacy", _run_legacy(config, policy, trace), *pinned)
            mismatches += _verify_cell(key, "shared", shared[index],
                                       *pinned)
    for key, bench, cell_config, policy in legacy_only_cells():
        trace = cached_trace(bench, total, cell_config.seed)
        pinned = LEGACY_ONLY_CYCLES[key], LEGACY_ONLY_DIGESTS[key]
        mismatches += _verify_cell(
            key, "legacy", _run_legacy(cell_config, policy, trace),
            *pinned)
        [shared] = _run_shared(cell_config, [policy], trace)
        mismatches += _verify_cell(key, "shared", shared, *pinned)
    return mismatches
