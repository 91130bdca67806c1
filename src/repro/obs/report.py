"""Run health reports: ``repro report``.

Answers "what happened to that sweep?" after the fact, from the
artifacts a run leaves behind -- no re-simulation.  Feed it any mix of:

- a sweep manifest (``repro sweep --emit-json``),
- a figures manifest (``repro figures``),
- a run / run-set manifest (``repro run --emit-json``),
- a chaos report (``repro chaos --emit-json``),
- a metrics snapshot (``--metrics-out``),

plus optionally the job journal (``--journal``), which contributes the
per-job resource accounting (wall/tracegen seconds, cache hits, peak
RSS, evaluation path) that powers the slowest-jobs table, the
distributions and the count of jobs per path (native kernel or legacy
simulator).

The report has two forms: :func:`render_report` (text, table style
shared with the sweep tables) and the raw :func:`build_report` dict
(``--json``).  Empty distributions render as ``--``, never 0: a report
over a failed run must not invent numbers.
"""

import json
import os

from repro.errors import ReproError
from repro.obs.metrics import HistogramMetric

#: Artifact kinds build_report understands (sniffed from the payload).
KNOWN_KINDS = ("sweep", "figures", "run", "run-set", "chaos", "metrics")


def sniff_kind(payload):
    """Classify one loaded JSON artifact; raises ReproError if unknown."""
    kind = payload.get("kind")
    if kind in KNOWN_KINDS:
        return kind
    if "families" in payload:
        return "metrics"
    raise ReproError(
        "unrecognised artifact (no kind field and no known shape); "
        "expected one of: %s" % ", ".join(KNOWN_KINDS))


def _new_report():
    return {
        "kind": "report",
        "sources": [],
        "jobs": {"total": 0, "ok": 0, "resumed": 0, "failed": 0,
                 "retried": 0},
        "cells": [],        # per benchmark x policy outcome rows
        "journal": None,    # {"records", "skipped_lines"}
        "slowest": [],      # from journal accounting
        "wall": None,       # {"count", "mean", "p50", "p95", "max"}
        "rss": None,        # {"count", "mean_kb", "max_kb"}
        "cache": None,      # {"hits", "misses", "hit_rate", ...}
        "store": None,      # artifact-store traffic (hits, bytes, ...)
        "paths": None,      # evaluated jobs per path ("native", "legacy")
        "hosts": None,      # dist backend host health (per-host merges)
        "chaos": [],        # per campaign: verdict, counters, gates
        "degradations": [],
        "metrics_families": None,
    }


def _count_status(jobs, status, attempts):
    jobs["total"] += 1
    if status in ("ok", "resumed", "failed"):
        jobs[status] += 1
    else:
        jobs["ok"] += 1  # legacy manifests without a status field
    if attempts and attempts > 1:
        jobs["retried"] += 1


def _add_cell(report, benchmark, policy, status, attempts, error,
              figure=None):
    cell = {"benchmark": benchmark, "policy": policy,
            "status": status or "ok", "attempts": attempts,
            "error": error}
    if figure is not None:
        cell["figure"] = figure
    report["cells"].append(cell)


def _ingest_sweep(report, payload):
    for run in payload.get("runs", ()):
        status = run.get("status") or "ok"
        attempts = run.get("attempts")
        _count_status(report["jobs"], status, attempts)
        _add_cell(report, run.get("benchmark"), run.get("policy"),
                  status, attempts, None)
    for failure in payload.get("failures", ()):
        _count_status(report["jobs"], "failed", failure.get("attempts"))
        _add_cell(report, failure.get("job_id"), None, "failed",
                  failure.get("attempts"), failure.get("error"))
    backend = payload.get("backend") or {}
    if backend.get("pool_rebuilds"):
        report["degradations"].append(
            "worker pool rebuilt %d time(s) after worker loss"
            % backend["pool_rebuilds"])
    if backend.get("degraded"):
        report["degradations"].append(
            "backend degraded to serial execution mid-run")


def _ingest_figures(report, payload):
    for entry in payload.get("figures", ()):
        for job in entry.get("jobs", ()):
            status = job.get("status") or "ok"
            attempts = job.get("attempts")
            _count_status(report["jobs"], status, attempts)
            _add_cell(report, job.get("benchmark"), job.get("policy"),
                      status, attempts, job.get("error"),
                      figure=entry.get("name"))
    backend = payload.get("backend") or {}
    if backend.get("pool_rebuilds"):
        report["degradations"].append(
            "worker pool rebuilt %d time(s) after worker loss"
            % backend["pool_rebuilds"])
    if backend.get("degraded"):
        report["degradations"].append(
            "backend degraded to serial execution mid-run")


def _ingest_run(report, payload):
    _count_status(report["jobs"], "ok", None)
    _add_cell(report, payload.get("benchmark"), payload.get("policy"),
              "ok", None, None)


def _ingest_run_set(report, payload):
    for run in payload.get("runs", ()):
        _count_status(report["jobs"], "ok", None)
        _add_cell(report, payload.get("benchmark"), run.get("policy"),
                  "ok", None, None)


def _ingest_chaos(report, payload, key_names):
    """Fold a chaos report in; ``key_names`` maps job_id -> (bench,
    policy) when a journal was supplied (chaos reports only carry ids).
    Every campaign has the same shape, so counters and gates fold in
    generically.
    """
    failures = {f.get("job_id"): f for f in payload.get("failures", ())}
    for job_id, count in sorted((payload.get("attempts") or {}).items()):
        failure = failures.get(job_id)
        status = "failed" if failure else "ok"
        _count_status(report["jobs"], status, count)
        benchmark, policy = key_names.get(job_id, (job_id, None))
        _add_cell(report, benchmark, policy, status, count,
                  failure.get("error") if failure else None)
    counters = payload.get("counters") or {}
    report["jobs"]["resumed"] += counters.get("resumed", 0)
    for target, kind in sorted((payload.get("injected") or {}).items()):
        report["degradations"].append(
            "chaos: injected %s into %s" % (kind, target))
    for note in payload.get("notes", ()):
        report["degradations"].append("chaos: %s" % note)
    report["chaos"].append({
        "campaign": payload.get("campaign"),
        "identical": payload.get("identical"),
        "counters": counters,
        "gates": payload.get("gates") or {},
    })


def _ingest_metrics(report, payload):
    families = payload.get("families") or {}
    summary = {}
    for name, family in families.items():
        samples = family.get("samples", ())
        if family.get("type") == "histogram":
            total = sum(s.get("count", 0) for s in samples)
        else:
            total = sum(s.get("value", 0) for s in samples)
        summary[name] = {"type": family.get("type"), "total": total}
    report["metrics_families"] = summary

    def counter(name):
        return summary.get(name, {}).get("total", 0)

    if report["cache"] is not None:
        # The journal knows per-job hits but not evictions (those are
        # process-wide, not per-job); the metrics snapshot fills the gap.
        if report["cache"].get("evictions") is None:
            report["cache"]["evictions"] = counter(
                "repro_trace_cache_evictions_total")
    elif (counter("repro_trace_cache_hits_total")
            or counter("repro_trace_cache_misses_total")):
        hits = counter("repro_trace_cache_hits_total")
        misses = counter("repro_trace_cache_misses_total")
        report["cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else None,
            "evictions": counter("repro_trace_cache_evictions_total"),
            "saved_seconds": counter("repro_trace_cache_saved_seconds")
            or None,
        }
    if (counter("repro_store_hits_total")
            or counter("repro_store_misses_total")
            or counter("repro_jobs_store_hits_total")):
        store = report["store"] or {}
        store.update({
            "hits": counter("repro_store_hits_total"),
            "misses": counter("repro_store_misses_total"),
            "bytes_read": counter("repro_store_bytes_read_total"),
            "bytes_written": counter("repro_store_bytes_written_total"),
            "quarantined": counter("repro_store_quarantined_total"),
            "lock_waits": counter("repro_store_lock_waits_total"),
        })
        store.setdefault("result_short_circuits",
                         counter("repro_jobs_store_hits_total"))
        report["store"] = store
    if counter("repro_store_quarantined_total"):
        line = ("artifact store quarantined %d corrupt entr%s"
                % (counter("repro_store_quarantined_total"),
                   "y" if counter("repro_store_quarantined_total") == 1
                   else "ies"))
        if line not in report["degradations"]:
            report["degradations"].append(line)
    by_host = {}
    for sample in families.get("repro_dist_jobs_total",
                               {}).get("samples", ()):
        host = (sample.get("labels") or {}).get("host")
        if host:
            by_host[host] = (by_host.get(host, 0)
                             + sample.get("value", 0))
    if (by_host or counter("repro_dist_host_lost_total")
            or counter("repro_dist_lease_breaks_total")):
        report["hosts"] = {
            "live": counter("repro_dist_hosts"),
            "lost": counter("repro_dist_host_lost_total"),
            "lease_breaks": counter("repro_dist_lease_breaks_total"),
            "jobs_by_host": by_host,
        }
    if counter("repro_dist_host_lost_total"):
        lost = counter("repro_dist_host_lost_total")
        line = ("%d worker host(s) lost mid-run; leases released and "
                "their jobs re-claimed" % lost)
        if line not in report["degradations"]:
            report["degradations"].append(line)
    if counter("repro_pool_rebuilds_total"):
        line = ("worker pool rebuilt %d time(s) after worker loss"
                % counter("repro_pool_rebuilds_total"))
        if line not in report["degradations"]:
            report["degradations"].append(line)
    if counter("repro_backend_degraded_total"):
        line = "backend degraded to serial execution mid-run"
        if line not in report["degradations"]:
            report["degradations"].append(line)
    if counter("repro_journal_degraded_total"):
        line = ("journal append failed mid-run (%d event(s)); run "
                "finished unjournaled"
                % counter("repro_journal_degraded_total"))
        if line not in report["degradations"]:
            report["degradations"].append(line)


def _ingest_journal(report, journal_path, top):
    """Mine the journal's per-job accounting for cost tables (read-only:
    a report counts bad lines, it never repairs the run's evidence)."""
    from repro.sim.checkpoint import JournalTail

    if not os.path.exists(journal_path):
        # A missing journal reads as an empty one (that is how first
        # runs start); for a report that would silently hide a typo'd
        # path, so fail loudly instead.
        raise ReproError("journal not found: %s" % journal_path)
    tail = JournalTail(journal_path)
    records = {record["job_id"]: record
               for _, _, record, _ in tail.lines(final=True)
               if record is not None}
    report["journal"] = {"records": len(records),
                         "skipped_lines": tail.bad_lines}
    if tail.bad_lines:
        report["degradations"].append(
            "journal: %d line(s) skipped (corrupt or another format)"
            % tail.bad_lines)
    key_names = {job_id: (info["benchmark"], info["policy"])
                 for job_id, info in records.items()}
    wall_hist = HistogramMetric(resolution=1e-3)
    rss_hist = HistogramMetric(resolution=1.0)
    tracegen_hist = HistogramMetric(resolution=1e-3)
    hits = misses = store_hits = 0
    paths = {}
    costed = []
    for job_id, info in records.items():
        accounting = info.get("accounting")
        if not accounting:
            continue
        wall = accounting.get("wall_seconds")
        if wall is not None:
            wall_hist.observe(wall)
            costed.append((wall, job_id, info, accounting))
        rss = accounting.get("peak_rss_kb")
        if rss:
            rss_hist.observe(rss)
        path = accounting.get("path")
        if path:
            paths[path] = paths.get(path, 0) + 1
        if accounting.get("store_hit"):
            # Result served straight from the artifact store: the job
            # never consulted the trace cache, so it belongs in neither
            # the hit nor the miss column.
            store_hits += 1
        elif accounting.get("cache_hit"):
            hits += 1
        else:
            misses += 1
            tracegen_hist.observe(accounting.get("tracegen_seconds")
                                  or 0.0)
    costed.sort(key=lambda item: (-item[0], item[1]))
    report["slowest"] = [
        {
            "job_id": job_id,
            "benchmark": info["benchmark"],
            "policy": info["policy"],
            "wall_seconds": wall,
            "tracegen_seconds": accounting.get("tracegen_seconds"),
            "cache_hit": accounting.get("cache_hit"),
            "store_hit": accounting.get("store_hit"),
            "peak_rss_kb": accounting.get("peak_rss_kb"),
        }
        for wall, job_id, info, accounting in costed[:top]
    ]
    report["wall"] = {
        "count": wall_hist.count,
        "mean": round(wall_hist.mean(), 6) if wall_hist.count else None,
        "p50": wall_hist.percentile(50),
        "p95": wall_hist.percentile(95),
        "max": wall_hist.max_value(),
    }
    report["rss"] = {
        "count": rss_hist.count,
        "mean_kb": round(rss_hist.mean()) if rss_hist.count else None,
        "max_kb": rss_hist.max_value(),
    }
    if hits or misses:
        saved = (round(hits * tracegen_hist.mean(), 6)
                 if tracegen_hist.count else None)
        report["cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4),
            # Evictions are process-wide, not per-job, so the journal
            # cannot supply them; _ingest_metrics fills this in when a
            # --metrics snapshot is given.
            "evictions": None,
            "saved_seconds": saved,
        }
    if store_hits:
        report["store"] = {"result_short_circuits": store_hits}
    if paths:
        report["paths"] = dict(sorted(paths.items()))
    return key_names


def build_report(paths, journal=None, top=10):
    """Build the health-report dict from artifact ``paths``.

    ``paths`` is a sequence of JSON artifacts (kinds sniffed per file);
    ``journal`` optionally names the run's job journal.  Raises
    :class:`~repro.errors.ReproError` for unreadable or unrecognised
    inputs.
    """
    report = _new_report()
    payloads = []
    for path in paths:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ReproError("cannot read %s: %s" % (path, exc))
        except ValueError as exc:
            raise ReproError("%s is not valid JSON: %s" % (path, exc))
        if not isinstance(payload, dict):
            raise ReproError("%s: expected a JSON object" % path)
        kind = sniff_kind(payload)
        report["sources"].append({"path": os.fspath(path), "kind": kind})
        payloads.append((kind, payload))

    key_names = {}
    if journal:
        key_names = _ingest_journal(report, journal, top)
        report["sources"].append({"path": os.fspath(journal),
                                  "kind": "journal"})

    for kind, payload in payloads:
        if kind == "sweep":
            _ingest_sweep(report, payload)
        elif kind == "figures":
            _ingest_figures(report, payload)
        elif kind == "run":
            _ingest_run(report, payload)
        elif kind == "run-set":
            _ingest_run_set(report, payload)
        elif kind == "chaos":
            _ingest_chaos(report, payload, key_names)
        elif kind == "metrics":
            _ingest_metrics(report, payload)
    return report


def _fmt(value, pattern="%.3f"):
    """Format a possibly-absent number; ``--`` for None."""
    if value is None:
        return "--"
    return pattern % value


#: Above this many grid cells the text health table keeps only the
#: interesting rows (non-ok or retried); --json always carries all.
_CELL_TABLE_LIMIT = 30


def render_report(report, top=10):
    """Text form of a :func:`build_report` dict."""
    from repro.sim.report import render_table  # lazy: leaf-module style

    lines = ["run health report"]
    if report["sources"]:
        lines.append("sources: " + ", ".join(
            "%s (%s)" % (src["path"], src["kind"])
            for src in report["sources"]))
    jobs = report["jobs"]
    lines.append("")
    lines.append("jobs: %d total | %d ok | %d resumed | %d failed | "
                 "%d retried"
                 % (jobs["total"], jobs["ok"], jobs["resumed"],
                    jobs["failed"], jobs["retried"]))

    cells = report["cells"]
    if cells:
        shown = cells
        note = ""
        if len(cells) > _CELL_TABLE_LIMIT:
            shown = [cell for cell in cells
                     if cell["status"] != "ok"
                     or (cell.get("attempts") or 1) > 1]
            note = (" (showing %d interesting of %d cells; --json has "
                    "all)" % (len(shown), len(cells)))
        if shown:
            has_figures = any("figure" in cell for cell in shown)
            headers = (["figure"] if has_figures else []) + \
                ["benchmark", "policy", "status", "attempts", "error"]
            rows = []
            for cell in shown:
                row = ([cell.get("figure", "--")] if has_figures
                       else [])
                row += [cell.get("benchmark") or "--",
                        cell.get("policy") or "--",
                        cell["status"],
                        cell.get("attempts"),
                        _shorten(cell.get("error"))]
                rows.append(row)
            lines.append("")
            lines.append("health by benchmark x policy%s:" % note)
            lines.extend("  " + line for line
                         in render_table(headers, rows).splitlines())

    if report["slowest"]:
        lines.append("")
        lines.append("slowest %d job(s) (journal accounting):"
                     % min(top, len(report["slowest"])))
        rows = [
            [entry["benchmark"] or entry["job_id"],
             entry["policy"] or "--",
             entry["wall_seconds"],          # floats/ints/None go in raw:
             entry["tracegen_seconds"],      # render_table right-aligns
             "store" if entry.get("store_hit")   # numbers, formats them
             else ("hit" if entry["cache_hit"]
                   else ("miss" if entry["cache_hit"] is not None
                         else "--")),
             entry["peak_rss_kb"]]
            for entry in report["slowest"][:top]
        ]
        table = render_table(
            ["benchmark", "policy", "wall s", "tracegen s", "cache",
             "rss KB"], rows)
        lines.extend("  " + line for line in table.splitlines())

    wall = report["wall"]
    if wall is not None:
        lines.append("")
        lines.append("wall time per job: n=%d mean=%s p50=%s p95=%s "
                     "max=%s (seconds)"
                     % (wall["count"], _fmt(wall["mean"]),
                        _fmt(wall["p50"]), _fmt(wall["p95"]),
                        _fmt(wall["max"])))
    rss = report["rss"]
    if rss is not None and rss["count"]:
        lines.append("peak rss: mean=%s max=%s KB"
                     % (_fmt(rss["mean_kb"], "%d"),
                        _fmt(rss["max_kb"], "%d")))

    cache = report["cache"]
    if cache is not None:
        rate = ("%.0f%%" % (100.0 * cache["hit_rate"])
                if cache.get("hit_rate") is not None else "--")
        saved = cache.get("saved_seconds")
        evictions = cache.get("evictions")
        lines.append("trace cache: %d hit(s) / %d miss(es), %s hit rate"
                     "%s%s" % (cache["hits"], cache["misses"], rate,
                               ", %d eviction(s)" % evictions
                               if evictions is not None else "",
                               ", ~%ss tracegen saved" % _fmt(saved)
                               if saved else ""))

    paths = report.get("paths")
    if paths:
        lines.append("evaluation path: " + ", ".join(
            "%d %s" % (count, path) for path, count in paths.items()))

    store = report.get("store")
    if store is not None:
        parts = []
        if store.get("result_short_circuits") is not None:
            parts.append("%d job(s) served without simulation"
                         % store["result_short_circuits"])
        if store.get("hits") is not None:
            parts.append("%d entry hit(s) / %d miss(es)"
                         % (store["hits"], store.get("misses", 0)))
        if store.get("bytes_read"):
            parts.append("%d KB read" % (store["bytes_read"] // 1024))
        if store.get("bytes_written"):
            parts.append("%d KB written"
                         % (store["bytes_written"] // 1024))
        if parts:
            lines.append("artifact store: " + ", ".join(parts))

    hosts = report.get("hosts")
    if hosts is not None:
        lines.append("")
        lines.append("host health: %d live at last census | %d lost | "
                     "%d lease break(s)"
                     % (hosts.get("live", 0), hosts.get("lost", 0),
                        hosts.get("lease_breaks", 0)))
        for host, merged in sorted(hosts.get("jobs_by_host",
                                             {}).items()):
            lines.append("  %-24s %d job(s) merged" % (host, merged))

    for chaos in report["chaos"]:
        lines.append("")
        lines.append("chaos campaign %s: %s"
                     % (chaos["campaign"], "bit-identical"
                        if chaos["identical"] else "DIVERGED"))
        if chaos["counters"]:
            lines.append("  counters: " + ", ".join(
                "%s=%s" % item for item in sorted(chaos["counters"].items())))
        lines.append("  gates: " + (", ".join(
            "%s %s" % (name, "ok" if held else "FAILED")
            for name, held in chaos["gates"].items()) or "none"))

    lines.append("")
    if report["degradations"]:
        lines.append("degradations:")
        lines.extend("  - " + entry
                     for entry in report["degradations"])
    else:
        lines.append("degradations: none")

    families = report["metrics_families"]
    if families:
        lines.append("")
        lines.append("metrics snapshot: %d famil%s"
                     % (len(families),
                        "y" if len(families) == 1 else "ies"))
        for name in sorted(families):
            info = families[name]
            lines.append("  %-40s %-9s total=%s"
                         % (name, info["type"], info["total"]))
    return "\n".join(lines)


def _shorten(text, limit=48):
    if not text:
        return None if text is None else text
    text = str(text)
    return text if len(text) <= limit else text[:limit - 3] + "..."
