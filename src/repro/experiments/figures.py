"""Regenerate paper artifacts as text files: ``repro figures``.

One registry maps every artifact the reproduction produces -- the three
tables, the five figure families, and the ablation / variance /
sensitivity studies -- to the driver module whose ``emit`` renders it.
:func:`run_figures` regenerates any subset under **one** shared
executor (``executor_scope`` spans all requested figures, so a warm
worker pool and the trace cache are reused across them), writes
``<out>/<name>.txt`` per artifact plus one combined
``figures-manifest.json`` recording the backend and every job outcome.

Results are bit-identical across backends: the text artifacts produced
with ``--jobs 8`` are byte-for-byte the artifacts produced serially,
and the manifests differ only in the recorded ``backend`` (and
phases/git metadata).

Failure handling mirrors the sweep CLI: under a skipping
:class:`~repro.exec.retry.FailurePolicy` a terminally-failed job leaves
``--`` cells in its table, a failure footer in the artifact, and a
non-zero failure count in the manifest -- the other figures still
regenerate.
"""

import os
import time

from repro import experiments
from repro.exec import executor_scope
from repro.exec.retry import STATUS_FAILED, JobResult
from repro.experiments import ANALYTIC, DRIVERS
# Called through the module, never bound at import: the benchmark
# harness wraps its functions to time the export layer.
from repro.obs import export


class _OutcomeRecorder:
    """Executor proxy that audits one figure's jobs.

    Delegates ``run()`` to the shared inner executor, injects the
    figure-level failure policy into every call, and accumulates every
    job's outcome across the (possibly many) sweeps a single figure
    runs.  This keeps per-figure bookkeeping and failure handling out of
    the experiment modules: they just thread ``executor=`` through.
    """

    def __init__(self, inner, failure_policy=None, metrics=None):
        self._inner = inner
        self._failure_policy = failure_policy
        self._metrics = metrics
        self.outcomes = {}   # job_id -> JobResult
        self.job_keys = {}   # job_id -> (benchmark, policy)

    def run(self, jobs, **kwargs):
        jobs = list(jobs)
        kwargs["failure_policy"] = self._failure_policy
        if kwargs.get("metrics") is None:
            kwargs["metrics"] = self._metrics
        results = self._inner.run(jobs, **kwargs)
        for job in jobs:
            # A grouped job settles as its member jobs (one outcome per
            # member job_id), so audit the members, not the group.
            for member in getattr(job, "member_jobs", (job,)):
                self.job_keys[member.job_id] = (member.benchmark,
                                                member.policy)
        self.outcomes.update(self._inner.last_outcomes)
        return results

    @property
    def last_outcomes(self):
        return self._inner.last_outcomes

    def describe(self):
        return self._inner.describe()

    def close(self):
        """No-op: the inner executor's scope is owned by run_figures."""

    def failure_lines(self):
        """Human-readable terminal failures, sorted by (bench, policy)."""
        lines = []
        for job_id, outcome in self.outcomes.items():
            if outcome.status != STATUS_FAILED:
                continue
            benchmark, policy = self.job_keys.get(job_id, (job_id, "?"))
            lines.append("  %s/%s: %s after %d attempt(s)"
                         % (benchmark, policy, outcome.error,
                            outcome.attempts))
        return sorted(lines)

    def manifest_jobs(self):
        """Outcome dicts sorted by job_id, volatile fields stripped.

        Wall time, cache hits and peak RSS differ between a serial and
        a parallel regeneration of the same artifacts (and between
        machines); dropping them keeps the combined manifest comparable
        across backends.
        """
        jobs = []
        for job_id in sorted(self.outcomes):
            outcome = self.outcomes[job_id].as_dict()
            for field in JobResult.VOLATILE_FIELDS:
                outcome.pop(field, None)
            benchmark, policy = self.job_keys.get(job_id, (None, None))
            outcome["benchmark"] = benchmark
            outcome["policy"] = policy
            jobs.append(outcome)
        return jobs

    def rollup(self):
        """Per-figure outcome rollup (backend-identical by construction:
        derived from statuses and attempt counts only)."""
        counts = {"total": len(self.outcomes), "ok": 0, "resumed": 0,
                  "failed": 0, "retried": 0}
        for outcome in self.outcomes.values():
            if outcome.status in counts:
                counts[outcome.status] += 1
            if outcome.attempts > 1:
                counts["retried"] += 1
        return counts


#: Every regenerable artifact, in :data:`~repro.experiments.ARTIFACT_NAMES`
#: order, mapped to its driver module.  Each driver's ``emit`` runs the
#: artifact's workload once and returns ``(text, series)`` -- the
#: ``.txt`` render and its machine-readable figure-series twin.  It is
#: looked up at call time, so a wrapper installed on a driver's ``emit``
#: (the benchmark harness times ``table2.emit``) sees every call.
ARTIFACTS = {name: getattr(experiments, module)
             for name, module in DRIVERS.items()}


def run_figures(names, out_dir, num_instructions=12_000, warmup=12_000,
                jobs=None, executor=None, failure_policy=None,
                benchmarks=None, log=None, metrics=None,
                emit_json=False):
    """Regenerate ``names`` (artifact keys) into ``out_dir``.

    All figures share one executor: a borrowed ``executor`` is used and
    left open, otherwise one is built for ``jobs`` workers and closed on
    exit.  ``benchmarks`` (optional sequence) shrinks every sweep-backed
    figure to that benchmark set -- used by tests and the chaos smoke.

    Writes ``<out_dir>/<name>.txt`` per artifact (with a failure footer
    when jobs failed terminally under a skipping ``failure_policy``) and
    ``<out_dir>/figures-manifest.json``.  With ``emit_json`` each
    artifact additionally gets its machine-readable figure-series twin
    at ``<out_dir>/<name>.json`` (written atomically, so a concurrent
    reader -- the figure server -- never sees a torn file; the text
    artifact is complete before the JSON appears, making the JSON the
    figure's warm marker).  Returns a dict with ``entries`` (per-figure
    manifest entries), ``manifest_path``, ``artifact_paths`` and
    ``total_failures``.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) is
    threaded through every sweep and additionally receives one
    ``repro_figure_jobs_total{figure,status}`` rollup per artifact.
    """
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        raise KeyError("unknown artifact(s): %s (choose from %s)"
                       % (", ".join(unknown), ", ".join(ARTIFACTS)))
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    artifact_paths = {}
    with executor_scope(executor, jobs=jobs) as inner:
        for name in ARTIFACTS:   # registry order, not request order
            if name not in names:
                continue
            started = time.perf_counter()
            recorder = _OutcomeRecorder(inner,
                                        failure_policy=failure_policy,
                                        metrics=metrics)
            scale = {} if name in ANALYTIC else dict(
                executor=recorder, num_instructions=num_instructions,
                warmup=warmup, benchmarks=benchmarks)
            text, series = ARTIFACTS[name].emit(**scale)
            failures = recorder.failure_lines()
            if failures:
                text += ("\n\n%d job(s) failed terminally and are "
                         "shown as --:\n" % len(failures)
                         + "\n".join(failures))
            path = os.path.join(out_dir, "%s.txt" % name)
            with open(path, "w") as handle:
                handle.write(text + "\n")
            artifact_paths[name] = path
            series_artifact = None
            if emit_json:
                series_artifact = "%s.json" % name
                export.write_json_atomic(
                    series, os.path.join(out_dir, series_artifact))
            manifest_jobs = recorder.manifest_jobs()
            entries.append({
                "name": name,
                "artifact": "%s.txt" % name,
                "series_artifact": series_artifact,
                "jobs": manifest_jobs,
                "rollup": recorder.rollup(),
                "failures": [job for job in manifest_jobs
                             if job["status"] == STATUS_FAILED],
            })
            if metrics is not None and metrics.enabled:
                figure_jobs = metrics.counter(
                    "repro_figure_jobs_total",
                    "Figure-regeneration jobs settled, by artifact and "
                    "terminal status", ("figure", "status"))
                for outcome in recorder.outcomes.values():
                    figure_jobs.labels(name, outcome.status).inc()
            if log is not None:
                log("%-12s -> %s (%d job(s), %d failed, %.2fs)"
                    % (name, path, len(manifest_jobs), len(failures),
                       time.perf_counter() - started))
        backend = inner.describe()
    manifest = export.build_figures_manifest(
        entries, backend=backend, num_instructions=num_instructions,
        warmup=warmup)
    manifest_path = os.path.join(out_dir, "figures-manifest.json")
    export.write_json(manifest, manifest_path)
    return {
        "entries": entries,
        "manifest_path": manifest_path,
        "artifact_paths": artifact_paths,
        "total_failures": manifest["total_failures"],
    }
