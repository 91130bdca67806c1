"""Assemble and run one simulation: config + policy + trace -> RunResult."""

from contextlib import nullcontext

from repro.config import SimConfig
from repro.cpu.core import TimestampCore
from repro.cpu.hierarchy import MemoryHierarchy
from repro.exec.cache import cached_trace
from repro.policies.registry import make_policy
from repro.util.rng import DeterministicRng
from repro.util.statistics import StatGroup


def build_simulator(config=None, policy="decrypt-only", tracer=None):
    """Build a fresh (core, hierarchy) pair for one run.

    ``policy`` may be a name or an :class:`~repro.policies.base.AuthPolicy`
    instance.  Every run gets private caches, DRAM state, and an
    authentication queue -- no state leaks between runs.  ``tracer`` (a
    :class:`~repro.obs.tracer.Tracer`) is threaded through every layer;
    None keeps the zero-overhead disabled path.
    """
    config = config or SimConfig()
    if isinstance(policy, str):
        policy = make_policy(policy)
    stats = StatGroup("sim")
    rng = DeterministicRng(config.seed).stream("remap")
    hierarchy = MemoryHierarchy(config, policy, rng=rng, stats=stats,
                                tracer=tracer)
    core = TimestampCore(config, policy, hierarchy, stats=stats,
                         tracer=tracer)
    return core, hierarchy


def evaluate_trace(trace, config, policies, warmup=0, tracer=None,
                   profiler=None):
    """Evaluate ``trace`` under each of ``policies``; yields RunResults.

    The one evaluation function behind every entry point, and the one
    place that picks the path: the native kernel (one structural walk
    per distinct effective structure,
    :meth:`~repro.config.SimConfig.for_policy`, alive from its first
    policy to its last, then one replay per policy), or, for an enabled
    ``tracer`` only, the legacy simulator per policy (only it emits the
    machine's events).  The two are bit-identical.
    A native run raises :class:`~repro.errors.KernelUnavailableError`
    when the kernel cannot be built.  Each result carries its
    :class:`~repro.sim.metrics.RunMetrics` and ``accounting["path"]``
    (``"native"`` or ``"legacy"``); a policy runs when its result is
    requested.
    """
    # Looked up at call time, never bound at import: the benchmark
    # harness wraps these module attributes to time each layer.
    from repro.cpu import prepass as walks
    from repro.cpu import shared_kernel
    from repro.sim import metrics

    policies = [make_policy(p) if isinstance(p, str) else p
                for p in policies]
    path = "legacy" if tracer is not None and tracer.enabled else "native"
    member_configs = [config.for_policy(policy) for policy in policies]
    prepasses = {}  # effective SecureConfig -> its walk, while needed
    for position, policy in enumerate(policies):
        if path == "native":
            structure = member_configs[position].secure
            prepass = prepasses.get(structure)
            if prepass is None:
                with _phase(profiler, "prepass"):
                    prepass = prepasses[structure] = walks.build_prepass(
                        trace, member_configs[position], warmup=warmup)
            if all(later.secure != structure
                   for later in member_configs[position + 1:]):
                del prepasses[structure]
            result = shared_kernel.replay_policy(
                prepass, policy, config,
                trace_name=getattr(trace, "name", "trace"),
                profiler=profiler)
        else:
            core, _ = build_simulator(config, policy, tracer=tracer)
            result = core.run(trace, warmup=warmup, profiler=profiler)
        with _phase(profiler, "metrics"):
            result.metrics = metrics.collect_metrics(result)
        result.accounting = {"path": path}
        yield result


def _phase(profiler, name):
    return profiler.phase(name) if profiler is not None else nullcontext()


def run_trace(trace, config=None, policy="decrypt-only", tracer=None,
              profiler=None, warmup=0):
    """Run ``trace`` under ``policy`` (:func:`evaluate_trace`)."""
    [result] = evaluate_trace(trace, config or SimConfig(), [policy],
                              warmup=warmup, tracer=tracer,
                              profiler=profiler)
    return result


def run_benchmark(benchmark, num_instructions=20_000, config=None,
                  policy="decrypt-only", seed=None, tracer=None,
                  profiler=None, warmup=0):
    """Generate the named benchmark's trace and run it under ``policy``.

    The trace comes from the process-wide cache
    (:mod:`repro.exec.cache`), so repeated runs of the same
    ``(benchmark, scale, seed)`` generate it once.
    """
    config = config or SimConfig()
    trace = cached_trace(benchmark, num_instructions + warmup,
                         seed if seed is not None else config.seed,
                         profiler=profiler)
    return run_trace(trace, config, policy, tracer=tracer,
                     profiler=profiler, warmup=warmup)
