"""Sensitivity studies (Section 5.2: "we conduct sensitivity study to
capture different variations and design scenarios").

Each sweep varies one reference-implementation parameter and reports the
average normalized IPC of a representative policy set, so the robustness
of the Figure 7 conclusions can be checked directly.

Every sweep accepts ``executor=`` (a :func:`repro.exec.make_executor`
backend) to fan the underlying policy sweeps out over worker processes;
results are bit-identical to the serial default.
"""

from repro.config import SimConfig
from repro.policies.registry import policy_set
from repro.sim.sweep import PolicySweep

POLICIES = policy_set("sensitivity")
BENCHMARKS = ("mcf", "twolf", "swim", "mgrid")


def _averages(config, benchmarks, num_instructions, warmup,
              policies=POLICIES, executor=None):
    sweep = PolicySweep(list(benchmarks), list(policies), config=config,
                        num_instructions=num_instructions,
                        warmup=warmup).run(executor=executor)
    return {p: sweep.average_normalized(p) for p in policies}


def decrypt_latency_sweep(latencies=(40, 80, 160),
                          benchmarks=BENCHMARKS,
                          num_instructions=8000, warmup=8000,
                          executor=None):
    """AES pipeline latency: mostly hidden behind the fetch, so the
    policy ranking should barely move."""
    return {
        latency: _averages(
            SimConfig().with_secure(decrypt_latency=latency),
            benchmarks, num_instructions, warmup, executor=executor)
        for latency in latencies
    }


def memory_speed_sweep(cas_values=(10, 20, 40),
                       benchmarks=BENCHMARKS,
                       num_instructions=8000, warmup=8000,
                       executor=None):
    """Memory CAS latency (bus clocks): slower memory widens every
    miss but shrinks verification's *relative* share."""
    import dataclasses

    out = {}
    for cas in cas_values:
        config = SimConfig()
        config = dataclasses.replace(
            config, dram=dataclasses.replace(config.dram,
                                             cas_bus_clocks=cas))
        out[cas] = _averages(config, benchmarks, num_instructions, warmup,
                             executor=executor)
    return out


def mshr_sweep(entries=(2, 8, 16),
               benchmarks=BENCHMARKS,
               num_instructions=8000, warmup=8000, executor=None):
    """Outstanding-miss slots: fewer MSHRs serialise misses, which makes
    fetch gating relatively cheaper (the misses were serial anyway)."""
    import dataclasses

    out = {}
    for count in entries:
        config = dataclasses.replace(SimConfig(), mshr_entries=count)
        out[count] = _averages(config, benchmarks, num_instructions,
                               warmup, executor=executor)
    return out


def ruu_sweep(sizes=(32, 64, 128, 256),
              benchmarks=BENCHMARKS,
              num_instructions=8000, warmup=8000, executor=None):
    """Window size beyond the paper's 128/64 pair."""
    return {
        size: _averages(SimConfig().with_ruu(size), benchmarks,
                        num_instructions, warmup, executor=executor)
        for size in sizes
    }


def emit(*, executor=None, num_instructions=8000, warmup=8000,
         benchmarks=None):
    """Both artifact forms for ``repro figures``: all four sensitivity
    sweeps over ``benchmarks`` (default :data:`BENCHMARKS`) under one
    shared executor, one table per varied parameter; returns
    ``(text, series)``."""
    from repro.exec import executor_scope
    from repro.obs.export import build_figure_series, series_panel
    from repro.sim.report import render_table

    if benchmarks is None:
        benchmarks = BENCHMARKS
    scale = dict(benchmarks=benchmarks, num_instructions=num_instructions,
                 warmup=warmup)
    with executor_scope(executor) as ex:
        grids = [
            ("decrypt latency (cycles)",
             decrypt_latency_sweep(executor=ex, **scale)),
            ("memory CAS (bus clocks)",
             memory_speed_sweep(executor=ex, **scale)),
            ("MSHR entries", mshr_sweep(executor=ex, **scale)),
            ("RUU size", ruu_sweep(executor=ex, **scale)),
        ]
    title = ("Sensitivity -- average normalized IPC per policy "
             "(benchmarks: %s)" % ", ".join(benchmarks))
    out = [title]
    panels = []
    for grid_title, grid in grids:
        values = sorted(grid)
        out += ["", "%s:" % grid_title,
                render_table([grid_title] + list(POLICIES),
                             [[value] + [grid[value][p] for p in POLICIES]
                              for value in values])]
        panels.append(series_panel(
            grid_title, grid_title,
            [{"name": policy,
              "points": [{"x": value, "y": grid[value][policy]}
                         for value in values]}
             for policy in POLICIES],
            x_label=grid_title))
    return "\n".join(out), build_figure_series("sensitivity", title,
                                               panels)
