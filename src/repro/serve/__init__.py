"""Simulation-as-a-service: HTTP figure/sweep serving over the store.

The serving tier turns the simulator into the memoized slow tier of a
request/response stack: warm figures and result-tier sweep cells are
answered straight from disk artifacts, cold ones enqueue one
regeneration through the normal executor path and answer 202 until it
lands.  :class:`~repro.serve.service.FigureService` holds the state
machine, :mod:`repro.serve.http` is the stdlib HTTP skin, and
:mod:`repro.serve.diff` compares the per-figure JSON artifacts two
runs produced.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.serve.service": ("FigureService", "RETRY_AFTER_SECONDS"),
    "repro.serve.diff": ("diff_figures", "load_series_dir", "render_diff"),
    "repro.serve.http": ("make_server", "serve_forever"),
})
