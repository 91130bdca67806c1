"""Simulation drivers: assembly, runners, sweeps and report rendering."""

from repro.sim.metrics import RunMetrics, collect_metrics, run_with_metrics
from repro.sim.report import render_table
from repro.sim.runner import run_benchmark, run_trace
from repro.sim.sweep import PolicySweep, normalized_ipc_table, speedup_over

__all__ = [
    "run_trace",
    "run_benchmark",
    "PolicySweep",
    "normalized_ipc_table",
    "speedup_over",
    "render_table",
    "RunMetrics",
    "collect_metrics",
    "run_with_metrics",
]
