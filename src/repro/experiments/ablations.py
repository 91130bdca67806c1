"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper -- these probe the knobs the paper fixes:

- ``mac_latency_sweep``: how the decrypt-to-verify gap (the HMAC latency)
  scales each scheme's overhead;
- ``queue_depth_sweep``: backpressure from a shallow authentication queue;
- ``store_buffer_sweep``: authen-then-write's sensitivity to the store
  buffer that holds unverified stores;
- ``fetch_variant_comparison``: the tag variant vs the drain variant of
  authen-then-fetch (Section 4.2.4 describes both);
- ``lazy_comparison``: lazy authentication (Yan et al. [25]) against the
  gated schemes -- it should cost nearly nothing and protect nothing.

Every grid accepts ``executor=`` (one backend, and therefore one warm
worker pool, shared across its configurations); a grid point whose jobs
all failed under a skipping failure policy reports None and renders as
``--``.
"""

from repro.config import SimConfig
from repro.exec import executor_scope
from repro.sim.sweep import PolicySweep

DEFAULT_BENCHMARKS = ("mcf", "twolf", "swim", "mgrid", "ammp", "gcc")


def _sweep(benchmarks, policies, config, num_instructions, warmup,
           executor, include_baseline=True):
    """One grid point through the shared executor."""
    return PolicySweep(list(benchmarks), list(policies), config=config,
                       num_instructions=num_instructions,
                       warmup=warmup).run(include_baseline=include_baseline,
                                          executor=executor)


def _average(config, policy, benchmarks, num_instructions, warmup,
             executor=None):
    sweep = _sweep(benchmarks, [policy], config, num_instructions,
                   warmup, executor)
    return sweep.average_normalized(policy)


def mac_latency_sweep(latencies=(20, 74, 150, 300),
                      policy="authen-then-commit",
                      benchmarks=DEFAULT_BENCHMARKS,
                      num_instructions=8000, warmup=8000, executor=None):
    """Normalized IPC of ``policy`` as the MAC latency grows.

    Every grid function here shares one executor (and therefore one
    warm worker pool) across its configurations, and the trace cache
    means each benchmark's trace is generated once for the whole grid,
    not once per latency.
    """
    out = {}
    with executor_scope(executor) as ex:
        for latency in latencies:
            config = SimConfig().with_secure(hmac_latency=latency)
            out[latency] = _average(config, policy, benchmarks,
                                    num_instructions, warmup, executor=ex)
    return out


def queue_depth_sweep(depths=(2, 4, 16, 64),
                      policy="authen-then-commit",
                      benchmarks=DEFAULT_BENCHMARKS,
                      num_instructions=8000, warmup=8000, executor=None):
    """Normalized IPC vs authentication-queue depth (backpressure)."""
    out = {}
    with executor_scope(executor) as ex:
        for depth in depths:
            config = SimConfig().with_secure(auth_queue_depth=depth)
            out[depth] = _average(config, policy, benchmarks,
                                  num_instructions, warmup, executor=ex)
    return out


def store_buffer_sweep(entries=(2, 8, 32),
                       benchmarks=DEFAULT_BENCHMARKS,
                       num_instructions=8000, warmup=8000, executor=None):
    """authen-then-write vs the unverified-store buffer size."""
    out = {}
    with executor_scope(executor) as ex:
        for count in entries:
            config = SimConfig().with_secure(store_buffer_entries=count)
            out[count] = _average(config, "authen-then-write", benchmarks,
                                  num_instructions, warmup, executor=ex)
    return out


def fetch_variant_comparison(benchmarks=DEFAULT_BENCHMARKS,
                             num_instructions=8000, warmup=8000,
                             executor=None):
    """Tag vs drain vs precise variants of authen-then-fetch.

    A noteworthy (and initially counter-intuitive) finding: the
    dependency-tracking *precise* variant is often **slower** than the
    LastRequest-tag simplification on branchy code.  Control dependence
    is transitive, so once a branch tests a freshly loaded (not yet
    verified) value, every subsequent fetch inherits that load's
    verification frontier -- whereas the tag variant only waits on blocks
    that had physically arrived before the triggering instruction issued.
    Precise wins only on stream codes with rare, predictable branches
    (e.g. swim).  The paper's claim that the simple variants "sufficiently
    satisfy all the requirements" thus comes with no performance penalty.
    """
    sweep = _sweep(benchmarks,
                   ["authen-then-fetch", "authen-then-fetch-drain",
                    "authen-then-fetch-precise"],
                   None, num_instructions, warmup, executor)
    return {
        "tag": sweep.average_normalized("authen-then-fetch"),
        "drain": sweep.average_normalized("authen-then-fetch-drain"),
        "precise": sweep.average_normalized("authen-then-fetch-precise"),
    }


def encryption_mode_comparison(benchmarks=DEFAULT_BENCHMARKS,
                               policies=("decrypt-only",
                                         "authen-then-issue",
                                         "authen-then-commit"),
                               num_instructions=8000, warmup=8000,
                               executor=None):
    """Counter mode + HMAC vs CBC + CBC-MAC (Table 1, as performance).

    Returns ``{mode: {policy: avg IPC}}`` (absolute IPC, shared traces).
    Expected shape, and why the paper prefers counter mode: CBC's serial
    per-chunk decryption puts 100+ cycles on every miss's critical path,
    so its *absolute* IPC is far lower even though the full-line
    decrypt-to-verify gap is zero.  Early chunks still wait for the
    line's CBC-MAC, so gated policies pay under CBC too.
    """
    out = {}
    with executor_scope(executor) as ex:
        for mode in ("ctr", "cbc"):
            config = SimConfig().with_secure(encryption_mode=mode)
            sweep = _sweep(benchmarks, policies, config,
                           num_instructions, warmup, ex,
                           include_baseline=False)
            out[mode] = {
                policy: sum(sweep.ipc(b, policy) for b in benchmarks)
                / len(benchmarks)
                for policy in policies
            }
    return out


def mac_scheme_comparison(benchmarks=DEFAULT_BENCHMARKS,
                          policies=("authen-then-issue",
                                    "authen-then-commit",
                                    "commit+fetch"),
                          num_instructions=8000, warmup=8000,
                          executor=None):
    """HMAC vs GMAC verification (the direction later work took).

    A Galois MAC closes the decrypt-to-verify gap to a few cycles, which
    collapses the cost of *every* control point -- even authen-then-issue
    becomes nearly free.  Returns ``{scheme: {policy: normalized IPC}}``.
    """
    out = {}
    with executor_scope(executor) as ex:
        for scheme in ("hmac", "gmac"):
            config = SimConfig().with_secure(mac_scheme=scheme)
            sweep = _sweep(benchmarks, policies, config,
                           num_instructions, warmup, ex)
            out[scheme] = {p: sweep.average_normalized(p)
                           for p in policies}
    return out


def prefetch_sweep(degrees=(0, 2, 4),
                   policies=("decrypt-only", "authen-then-issue",
                             "authen-then-commit"),
                   benchmarks=("swim", "mgrid", "applu"),
                   num_instructions=8000, warmup=8000, executor=None):
    """Stream prefetching vs the authentication gap.

    Prefetched lines start verification the moment they arrive, usually
    *before* the demand access that would expose the gap -- so a stream
    prefetcher disproportionately helps the strict policies.  Returns
    ``{degree: {policy: avg absolute IPC}}`` on the stream benchmarks.
    """
    import dataclasses

    out = {}
    with executor_scope(executor) as ex:
        for degree in degrees:
            config = dataclasses.replace(SimConfig(),
                                         prefetch_degree=degree)
            sweep = _sweep(benchmarks, policies, config,
                           num_instructions, warmup, ex,
                           include_baseline=False)
            out[degree] = {
                policy: sum(sweep.ipc(b, policy) for b in benchmarks)
                / len(benchmarks)
                for policy in policies
            }
    return out


def split_counter_comparison(benchmarks=DEFAULT_BENCHMARKS,
                             policy="authen-then-commit",
                             num_instructions=8000, warmup=8000,
                             executor=None):
    """Monolithic vs split (major/minor) counters, with prediction off so
    the counter-cache coverage difference is visible.

    Reports *absolute* average IPC: split counters speed up the
    decryption path itself (fewer counter fetches), which benefits the
    baseline and every policy alike, so normalized IPC would hide it.
    """
    out = {}
    with executor_scope(executor) as ex:
        for split in (False, True):
            config = SimConfig().with_secure(split_counters=split,
                                             counter_prediction_rate=0.0)
            sweep = _sweep(benchmarks, [policy], config,
                           num_instructions, warmup, ex,
                           include_baseline=False)
            out["split" if split else "monolithic"] = sum(
                sweep.ipc(b, policy) for b in benchmarks) \
                / len(benchmarks)
    return out


def lazy_comparison(benchmarks=DEFAULT_BENCHMARKS,
                    num_instructions=8000, warmup=8000, executor=None):
    """Lazy authentication vs commit gating (performance side of [25])."""
    sweep = _sweep(benchmarks, ["lazy", "authen-then-commit"], None,
                   num_instructions, warmup, executor)
    return {
        "lazy": sweep.average_normalized("lazy"),
        "authen-then-commit": sweep.average_normalized(
            "authen-then-commit"),
    }


def emit(*, executor=None, num_instructions=8000, warmup=8000,
         benchmarks=None):
    """Both artifact forms for ``repro figures``: ``(text, series)``.

    Covers the three grids DESIGN.md leans on most -- MAC latency,
    authentication-queue depth and the lazy-vs-gated comparison -- under
    one shared executor, over ``benchmarks`` (default
    :data:`DEFAULT_BENCHMARKS`).  The exhaustive grids remain importable
    functions; this keeps the regenerated artifact bounded.
    """
    from repro.obs.export import build_figure_series, series_panel
    from repro.sim.report import render_table

    if benchmarks is None:
        benchmarks = DEFAULT_BENCHMARKS
    scale = dict(benchmarks=benchmarks, num_instructions=num_instructions,
                 warmup=warmup)
    with executor_scope(executor) as ex:
        grids = [
            ("mac-latency", "MAC latency sweep", "hmac_latency",
             mac_latency_sweep(executor=ex, **scale)),
            ("queue-depth", "Authentication-queue depth sweep",
             "queue_depth", queue_depth_sweep(executor=ex, **scale)),
            ("lazy", "Lazy authentication vs commit gating", "policy",
             lazy_comparison(executor=ex, **scale)),
        ]
    title = ("Ablations -- normalized IPC of authen-then-commit "
             "(averaged over %s)" % ", ".join(benchmarks))
    out = [title]
    panels = []
    for name, grid_title, x_label, grid in grids:
        out += ["", grid_title + ":",
                render_table([x_label, "normalized ipc"],
                             [[key, grid[key]] for key in sorted(grid)])]
        panels.append(series_panel(
            name, grid_title,
            [{"name": "normalized ipc",
              "points": [{"x": key, "y": grid[key]}
                         for key in sorted(grid)]}],
            x_label=x_label))
    return "\n".join(out), build_figure_series("ablations", title, panels)
