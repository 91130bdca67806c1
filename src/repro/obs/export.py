"""Run manifests and machine-readable result export.

A *manifest* is a self-describing JSON artifact for one run (or one
sweep): the full configuration, policy, seed, git revision, wall-clock
phase timings, the complete :class:`~repro.util.statistics.StatGroup`
snapshot and the derived :class:`~repro.sim.metrics.RunMetrics`.  Two
manifests are comparable without knowing how they were produced, which is
what regression dashboards and the perf work on ROADMAP.md key off.
"""

import dataclasses
import json
import os
import subprocess

MANIFEST_VERSION = 1


def config_to_dict(config):
    """Flatten a (possibly nested) frozen-dataclass config to plain data."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return dict(config)


def git_describe():
    """Best-effort ``git describe`` of the working tree (None offline)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def build_run_manifest(result, metrics=None, config=None, seed=None,
                       profiler=None, extra=None):
    """Manifest for one :class:`~repro.sim.result.RunResult`."""
    manifest = {
        "format_version": MANIFEST_VERSION,
        "kind": "run",
        "benchmark": result.name,
        "policy": result.policy_name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "seed": seed,
        "git": git_describe(),
        "config": config_to_dict(config),
        "phases": profiler.as_dict() if profiler is not None else {},
        "stats": result.stats.as_dict(),
        "miss_rates": dict(result.miss_summary),
        "metrics": metrics.as_dict() if metrics is not None else None,
    }
    if extra:
        manifest.update(extra)
    return manifest


def build_run_set_manifest(runs, config=None, seed=None, profiler=None,
                           benchmark=None):
    """Manifest for several policies over one benchmark trace.

    ``runs`` is a list of ``(result, metrics-or-None)`` pairs.
    """
    return {
        "format_version": MANIFEST_VERSION,
        "kind": "run-set",
        "benchmark": benchmark or (runs[0][0].name if runs else None),
        "seed": seed,
        "git": git_describe(),
        "config": config_to_dict(config),
        "phases": profiler.as_dict() if profiler is not None else {},
        "runs": [
            {
                "policy": result.policy_name,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "ipc": result.ipc,
                "stats": result.stats.as_dict(),
                "miss_rates": dict(result.miss_summary),
                "metrics": metrics.as_dict() if metrics is not None
                else None,
            }
            for result, metrics in runs
        ],
    }


def build_sweep_manifest(sweep, profiler=None):
    """Manifest for a finished :class:`~repro.sim.sweep.PolicySweep`.

    ``policies`` lists what actually ran, in the sweep's deterministic
    execution order (so an injected baseline always shows up, last), and
    ``policy_labels`` resolves each name through the registry -- the
    manifest records the resolved policy set, not just the request.
    Each run carries its :class:`~repro.exec.job.SimJob` ``job_id`` and
    the top level records the executor ``backend``, which is how two
    manifests produced by different backends stay comparable.
    """
    from repro.policies.registry import policy_label

    job_ids = getattr(sweep, "job_ids", {})
    outcomes = getattr(sweep, "job_outcomes", {})
    runs = []
    for (benchmark, policy), result in sorted(sweep.results.items()):
        job_id = job_ids.get((benchmark, policy))
        outcome = outcomes.get(job_id)
        runs.append({
            "benchmark": benchmark,
            "policy": policy,
            "policy_label": policy_label(policy),
            "job_id": job_id,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "ipc": result.ipc,
            # Fault-tolerance provenance: how many attempts this run
            # took and whether it was simulated or journal-resumed.
            "attempts": outcome.attempts if outcome is not None else None,
            "status": outcome.status if outcome is not None else None,
            # Per-job resource accounting (wall/tracegen seconds, cache
            # hit, peak RSS).  Volatile by design -- backend- and
            # machine-dependent -- so bit-identical manifest
            # comparisons must strip this key (and the wall_time /
            # cache_hit / peak_rss_kb fields inside "failures" entries;
            # see JobResult.VOLATILE_FIELDS).
            "accounting": getattr(result, "accounting", None),
            "stats": result.stats.as_dict(),
            "miss_rates": dict(result.miss_summary),
            "metrics": (result.metrics.as_dict()
                        if getattr(result, "metrics", None) is not None
                        else None),
        })
    failures = [
        outcome.as_dict()
        for outcome in sorted(outcomes.values(), key=lambda o: o.job_id)
        if outcome.status == "failed"
    ]
    return {
        "format_version": MANIFEST_VERSION,
        "kind": "sweep",
        "benchmarks": list(sweep.benchmarks),
        "policies": list(getattr(sweep, "executed_policies",
                                 sweep.policies)),
        "policy_labels": {
            name: policy_label(name)
            for name in getattr(sweep, "executed_policies",
                                sweep.policies)
        },
        "num_instructions": sweep.num_instructions,
        "warmup": sweep.warmup,
        "seed": sweep.seed,
        "backend": getattr(sweep, "backend", None),
        "git": git_describe(),
        "config": config_to_dict(sweep.config),
        "phases": profiler.as_dict() if profiler is not None else {},
        "failures": failures,
        "runs": runs,
    }


def build_figures_manifest(entries, backend=None, num_instructions=None,
                           warmup=None, profiler=None):
    """Combined manifest for one ``repro figures`` invocation.

    ``entries`` is a list of dicts -- one per regenerated artifact --
    each carrying ``name``, ``artifact`` (the text file written),
    ``jobs`` (per-job outcome dicts, sorted by job_id) and ``failures``
    (the terminal-failure subset).  The top level records the shared
    executor ``backend``, so a serial and a parallel regeneration of
    the same artifact set differ only in that field (and phases/git).
    """
    total_jobs = sum(len(entry.get("jobs", ())) for entry in entries)
    total_failures = sum(len(entry.get("failures", ()))
                         for entry in entries)
    return {
        "format_version": MANIFEST_VERSION,
        "kind": "figures",
        "artifacts": [entry["name"] for entry in entries],
        "num_instructions": num_instructions,
        "warmup": warmup,
        "backend": backend,
        "git": git_describe(),
        "phases": profiler.as_dict() if profiler is not None else {},
        "total_jobs": total_jobs,
        "total_failures": total_failures,
        "figures": entries,
    }


FIGURE_SERIES_VERSION = 1


def series_from_rows(rows, columns):
    """Series list from sweep-table rows ``[(x, {column: value})]``.

    One series per column (the policies, in the given order), one point
    per row (the benchmarks).  A failed cell's None survives as-is --
    it renders as ``--`` in the text table and as JSON null here.
    """
    return [
        {"name": column,
         "points": [{"x": x, "y": values.get(column)}
                    for x, values in rows]}
        for column in columns
    ]


def series_from_matrix(headers, rows):
    """Series list from a plain list-of-lists table.

    ``headers[0]`` labels the x axis; each remaining header becomes one
    series whose points walk the rows (``row[0]`` is x).
    """
    return [
        {"name": header,
         "points": [{"x": row[0], "y": row[index + 1]} for row in rows]}
        for index, header in enumerate(headers[1:])
    ]


def series_panel(name, title, series, x_label="benchmark"):
    """One panel of a figure-series artifact."""
    return {"name": name, "title": title, "x_label": x_label,
            "series": series}


def build_figure_series(figure, title, panels, extra=None):
    """The machine-readable twin of one figure/table text artifact.

    Same numbers as the ``.txt`` render, structured: a list of panels
    (a single-table figure has one), each a list of named series of
    ``{"x", "y"}`` points.  ``extra`` carries figure-specific scalars
    that are not series-shaped (fig6's cycle advantage, variance's
    ordering verdict).  Serialise with :func:`write_json_atomic` so
    serial and parallel regenerations -- and the figure server -- stay
    byte-identical.
    """
    payload = {
        "format_version": FIGURE_SERIES_VERSION,
        "kind": "figure-series",
        "figure": figure,
        "title": title,
        "panels": panels,
    }
    if extra:
        payload["extra"] = extra
    return payload


#: Manifests' encoder: sorted keys, compact.  Without ``indent`` it is
#: the C encoder, several times faster than the pure-Python one that
#: ``indent`` (or ``json.dump``'s streaming) forces.
_MANIFEST_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                     default=str)


def write_json(payload, path):
    """Write any manifest to ``path``: compact JSON, sorted keys.

    The text is what ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"), default=str)`` returns, written one
    top-level value, and one item of a top-level list, at a time: a
    sweep manifest's text is never held whole next to the manifest.
    """
    encode = _MANIFEST_ENCODER.encode
    with open(path, "w") as handle:
        if not (isinstance(payload, dict)
                and all(isinstance(key, str) for key in payload)):
            handle.write(encode(payload))
            return path
        handle.write("{")
        for index, key in enumerate(sorted(payload)):
            value = payload[key]
            handle.write("%s%s:" % ("," if index else "", encode(key)))
            if isinstance(value, (list, tuple)):
                handle.write("[")
                for position, item in enumerate(value):
                    if position:
                        handle.write(",")
                    handle.write(encode(item))
                handle.write("]")
            else:
                handle.write(encode(value))
        handle.write("}")
    return path


def write_json_atomic(payload, path):
    """Write ``payload`` to ``path`` via rename, for files a server may
    be reading: ``indent=1``, sorted keys.

    These are the figure-series artifacts, whose bytes are pinned and
    served verbatim, so their layout stays as it is.  The tmp-write +
    ``os.replace`` means a concurrent reader sees the old complete file
    or the new complete file, never a torn one.
    """
    from repro.sim.checkpoint import atomic_write_text

    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    atomic_write_text(path, text)
    return path


def write_sweep_csv(sweep, path, baseline="decrypt-only"):
    """Flatten a sweep to CSV: one row per (benchmark, policy) job.

    Completed runs carry their numbers plus a ``status`` column
    (``ok``/``resumed``); jobs that failed terminally under a skipping
    failure policy still get a row -- status ``failed``, numeric fields
    empty -- so a partial sweep's CSV names every grid point instead of
    raising KeyError on the missing ones.
    """
    import csv

    from repro.exec.retry import STATUS_FAILED

    outcomes = getattr(sweep, "job_outcomes", {})
    job_ids = getattr(sweep, "job_ids", {})
    miss_keys = ("l1i", "l1d", "l2", "itlb", "dtlb")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["benchmark", "policy", "status", "instructions",
                         "cycles", "ipc", "ipc_normalized"]
                        + ["miss_%s" % key for key in miss_keys])
        for (benchmark, policy), result in sorted(sweep.results.items()):
            if (benchmark, baseline) in sweep.results:
                base = sweep.results[(benchmark, baseline)].ipc
                normalized = result.ipc / base if base else 0.0
            else:
                normalized = ""
            outcome = outcomes.get(job_ids.get((benchmark, policy)))
            writer.writerow(
                [benchmark, policy,
                 outcome.status if outcome is not None else "ok",
                 result.instructions, result.cycles,
                 "%.6f" % result.ipc,
                 "%.6f" % normalized if normalized != "" else ""]
                + ["%.6f" % result.miss_summary.get(key, 0.0)
                   for key in miss_keys])
        failed = (sweep.failed_jobs()
                  if hasattr(sweep, "failed_jobs") else {})
        for (benchmark, policy), outcome in sorted(failed.items()):
            writer.writerow([benchmark, policy, STATUS_FAILED,
                             "", "", "", ""] + [""] * len(miss_keys))
    return path
