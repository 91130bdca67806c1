"""Simulation drivers: assembly, runners, sweeps and report rendering."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.sim.runner": ("run_trace", "run_benchmark"),
    "repro.sim.sweep": ("PolicySweep", "normalized_ipc_table",
                        "speedup_over"),
    "repro.sim.report": ("render_table",),
    "repro.sim.metrics": ("RunMetrics", "collect_metrics",
                          "run_with_metrics"),
})
