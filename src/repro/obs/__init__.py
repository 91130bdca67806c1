"""Observability: event tracing, run manifests, metrics, profiling.

See ``docs/observability.md`` for the event taxonomy, sink formats,
manifest schema and the fleet-telemetry metric taxonomy.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    __name__: ("events",),
    "repro.obs.tracer": ("Tracer", "NULL_TRACER"),
    "repro.obs.sinks": ("Sink", "MemorySink", "JsonlSink", "ChromeTraceSink"),
    "repro.obs.profile": ("PhaseProfiler",),
    "repro.obs.metrics": ("MetricsRegistry", "NULL_REGISTRY", "JobMetrics",
                          "write_metrics"),
    "repro.obs.progress": ("ProgressLine", "ProgressLog", "make_progress"),
    "repro.obs.report": ("build_report", "render_report"),
    "repro.obs.export": ("build_run_manifest", "build_run_set_manifest",
                         "build_sweep_manifest", "write_json",
                         "write_sweep_csv"),
    "repro.obs.timeline": ("render_gap_timeline", "render_jobs_summary",
                           "render_lane_census"),
})
