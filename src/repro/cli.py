"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table1 | table2 | table3 | fig6 | fig7 | fig8 | fig9 | fig10 | fig12``
    Regenerate a paper table/figure (text form).
``figures``
    Regenerate any subset of the paper artifacts (default: all of them,
    plus the ablation/variance/sensitivity studies) through the job
    executor: ``--jobs N`` shares one worker pool across every figure
    with byte-identical artifacts, ``--timeout/--retries/--on-error``
    govern fault tolerance, ``--out DIR`` collects ``<name>.txt`` files
    and one combined ``figures-manifest.json``.
``run BENCH``
    Simulate one benchmark under one or more policies.  ``--trace-out``
    records a Chrome trace-event file (open in Perfetto); ``--emit-json``
    writes the run manifest (config, seed, phase timings, stats);
    ``--jobs N`` fans the policies out over N worker processes.
``sweep BENCH [BENCH ...]``
    Run a benchmarks x policies sweep through the job executor:
    ``--jobs N`` parallelises over processes with bit-identical results,
    ``--checkpoint FILE`` makes the sweep resumable (completed jobs are
    skipped on rerun), ``--emit-json``/``--csv`` export the results.
``trace BENCH``
    Record one run and render the decrypt-to-verify gap timeline as text.
``report FILE [FILE ...]``
    Render a run health report (job totals, per-cell outcomes, slowest
    jobs, cache savings, degradations) from any mix of sweep/figures/
    run/chaos manifests and metrics snapshots, plus ``--journal`` for
    per-job resource accounting.
``attack NAME``
    Run one exploit against one policy and report leak/detection.
``store stats|verify|gc``
    Inspect or maintain the persistent artifact store: tier sizes,
    CRC verification with quarantine, LRU eviction to ``--max-bytes``.
``worker``
    Run one work-stealing daemon against a shared ``--spool``
    directory: claim job units via exclusive leases, heartbeat them,
    append results to this host's journal segment.  ``--stop`` asks
    every worker on the spool to drain and exit.
``list``
    Show available benchmarks, policies and attacks.

``run``, ``sweep`` and ``figures`` all accept ``--metrics-out FILE`` to
dump the run's fleet-telemetry snapshot (JSON, or Prometheus text when
the file ends in ``.prom``/``.txt``), ``--store [DIR]`` to reuse
traces and finished results through the persistent
content-addressed artifact store (bare ``--store`` resolves
``$REPRO_STORE`` or ``~/.cache/repro/store``), and ``--spool DIR`` to
execute through the multi-host work-stealing backend: the driver spools
job units to DIR and merges results journaled by ``repro worker``
daemons (falling back to in-process execution if no worker ever shows
up).
"""

import argparse
import math
import os
import sys

from repro.errors import KernelUnavailableError
from repro.policies.registry import available_policies, policy_set
from repro.workloads.spec import SPEC2000_PROFILES


def _add_scale(parser, default_n=12_000):
    parser.add_argument("-n", "--instructions", type=int, default=default_n,
                        help="measured instructions per run")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup instructions (default: same as -n)")


def _scale(args):
    warmup = args.warmup if args.warmup is not None else args.instructions
    return dict(num_instructions=args.instructions, warmup=warmup)


def _cmd_figure(args):
    from repro.experiments import (fig6, fig7, fig8, fig9, fig10_11,
                                   fig12_13, table1, table2, table3)

    name = args.command
    if name == "table1":
        print(table1.render(memory_fetch_latency=args.memory_latency))
    elif name == "table2":
        print(table2.render(empirical=not args.static))
    elif name == "table3":
        print(table3.render())
    elif name == "fig6":
        print(fig6.render(compute_latency=args.compute_latency))
    elif name == "fig7":
        print(fig7.render(**_scale(args)))
    elif name == "fig8":
        print(fig8.render(**_scale(args)))
    elif name == "fig9":
        print(fig9.render(**_scale(args)))
    elif name == "fig10":
        print(fig10_11.render(args.ruu, **_scale(args)))
    elif name == "fig12":
        print(fig12_13.render(**_scale(args)))
    return 0


_DEFAULT_POLICIES = list(policy_set("cli-default"))


def _metrics_registry(args):
    """The run's MetricsRegistry, or None when telemetry is off.

    Telemetry turns on when the user asked for a snapshot
    (``--metrics-out``) or for live progress (the TTY progress line
    feeds on the wall-time histogram).  Off means the executor sees
    ``metrics=None`` and every recording site degrades to the shared
    no-op metric -- the PR-1 invariant that observability must cost
    nothing when unused.
    """
    if getattr(args, "metrics_out", None) or getattr(args, "progress",
                                                     False):
        from repro.obs import MetricsRegistry
        return MetricsRegistry()
    return None


def _write_metrics(metrics, args):
    if getattr(args, "metrics_out", None):
        from repro.obs import write_metrics

        write_metrics(metrics, args.metrics_out)
        print("metrics snapshot written to %s" % args.metrics_out)


def _activate_store(args, metrics=None):
    """Turn on the persistent artifact store when ``--store`` was given.

    Exports :data:`~repro.exec.store.STORE_ENV` so forked pool workers
    resolve the same store after fork (the same propagation path
    ``REPRO_JOBS`` uses), and binds the parent's store
    to the run's metrics registry so store traffic shows up in
    ``--metrics-out`` snapshots.
    """
    import os

    target = getattr(args, "store", None)
    if not target:
        return None
    from repro.exec.store import (STORE_ENV, ArtifactStore,
                                  default_store_path, set_active_store)

    path = default_store_path() if target == "auto" else target
    store = ArtifactStore(path, metrics=metrics)
    os.environ[STORE_ENV] = os.fspath(store.root)
    set_active_store(store)
    print("artifact store: %s" % store.root, file=sys.stderr)
    return store


def _add_store(parser):
    parser.add_argument("--store", metavar="DIR", nargs="?", const="auto",
                        help="reuse traces and results through a "
                             "persistent content-addressed store at DIR "
                             "(bare --store: $REPRO_STORE or "
                             "~/.cache/repro/store)")


def _add_spool(parser):
    parser.add_argument("--spool", metavar="DIR", default=None,
                        help="execute through the multi-host "
                             "work-stealing backend: spool job units "
                             "to DIR and merge results from `repro "
                             "worker --spool DIR` daemons (degrades to "
                             "in-process execution if no worker "
                             "appears)")


def _dist_executor(args):
    """The DistExecutor ``--spool`` asks for (None when absent)."""
    spool = getattr(args, "spool", None)
    if not spool:
        return None
    from repro.exec import DistExecutor

    print("dist backend: spooling job units to %s (serve with "
          "`repro worker --spool %s`)" % (spool, spool), file=sys.stderr)
    return DistExecutor(spool)


def _cmd_run(args):
    import time

    from repro.config import SimConfig
    from repro.exec import (MultiPolicySimJob, ParallelExecutor,
                            SerialExecutor, execute_job)
    from repro.obs import (ChromeTraceSink, JobMetrics, PhaseProfiler,
                           Tracer, build_run_manifest,
                           build_run_set_manifest, write_json)

    config = SimConfig().with_l2_size(args.l2 * 1024)
    if args.hash_tree:
        config = config.with_secure(hash_tree_enabled=True)
    policies = list(dict.fromkeys(args.policy or _DEFAULT_POLICIES))
    scale = _scale(args)
    profiler = PhaseProfiler()
    try:
        chrome = ChromeTraceSink(args.trace_out) if args.trace_out else None
        if args.emit_json:  # fail before the simulation, not after it
            open(args.emit_json, "a").close()
    except OSError as exc:
        print("error: cannot write output file: %s" % exc, file=sys.stderr)
        return 2
    tracer = Tracer([chrome]) if chrome is not None else None

    # One group: the trace is decoded once and fanned out to every
    # requested policy, results keyed per member job.
    group = MultiPolicySimJob(args.benchmark, policies, config=config,
                              num_instructions=scale["num_instructions"],
                              warmup=scale["warmup"])
    jobs = group.member_jobs
    num_workers = args.jobs
    if chrome is not None and (num_workers > 1 or args.spool):
        print("note: --trace-out records per-run events, which only the "
              "serial backend supports; running with --jobs 1",
              file=sys.stderr)
        num_workers = 1
        args.spool = None
    metrics = _metrics_registry(args)
    _activate_store(args, metrics)
    dist = _dist_executor(args)
    if chrome is not None:
        # Traced: one member at a time, because each member's events
        # must land in its own Chrome process, opened before it runs.
        results = {}
        jm = JobMetrics(metrics)
        jm.pending.set(len(jobs))
        for job in jobs:
            chrome.begin_process("%s/%s" % (args.benchmark, job.policy))
            job_started = time.perf_counter()
            result = execute_job(job, tracer=tracer, profiler=profiler)
            results[job] = result
            jm.observe_completed(result,
                                 time.perf_counter() - job_started)
            jm.pending.dec()
    else:
        executor = dist or (ParallelExecutor(num_workers)
                            if num_workers > 1 else SerialExecutor())
        with executor:
            results = executor.run([group], profiler=profiler,
                                   metrics=metrics)

    baseline = None
    recorded = []
    print("%-26s %10s %10s" % ("policy", "IPC", "normalized"))
    for job in jobs:
        result = results[job]
        recorded.append((result, result.metrics))
        if baseline is None:
            baseline = result.ipc
        print("%-26s %10.4f %10.3f"
              % (job.policy, result.ipc, result.ipc / baseline))
    if tracer is not None:
        tracer.close()
        print("chrome trace written to %s (open in Perfetto)"
              % args.trace_out)
    if args.emit_json:
        if len(recorded) == 1:
            manifest = build_run_manifest(
                recorded[0][0], recorded[0][1], config=config,
                seed=config.seed, profiler=profiler,
                extra={"job_id": jobs[0].job_id})
        else:
            manifest = build_run_set_manifest(
                recorded, config=config, seed=config.seed,
                profiler=profiler, benchmark=args.benchmark)
        write_json(manifest, args.emit_json)
        print("run manifest written to %s" % args.emit_json)
    _write_metrics(metrics, args)
    if args.trace_out or args.emit_json:
        print(profiler.render())
    return 0


def _failure_policy(args):
    """Build the FailurePolicy the sweep/figures/chaos flags describe.

    ``--retries N`` promotes *any* non-retrying ``--on-error`` mode to
    ``retry-then-skip`` (asking for retries while in ``skip`` mode used
    to be silently ignored); when a promotion happens, the resolved
    policy is printed so the run records what actually governed it.
    """
    from repro.exec import (FAIL_FAST, RETRY_THEN_SKIP, SKIP_AND_REPORT,
                            FailurePolicy)

    mode = {"fail": FAIL_FAST, "skip": SKIP_AND_REPORT,
            "retry": RETRY_THEN_SKIP}[args.on_error]
    if args.retries and mode != RETRY_THEN_SKIP:
        # --retries implies retrying, whatever the terminal mode was.
        mode = RETRY_THEN_SKIP
        print("note: --retries %d promotes --on-error %s to %s"
              % (args.retries, args.on_error, mode), file=sys.stderr)
    return FailurePolicy(mode=mode, max_attempts=max(1, args.retries + 1),
                         timeout=args.timeout)


def _cmd_sweep(args):
    import time

    from repro.config import SimConfig
    from repro.exec import make_executor
    from repro.obs import PhaseProfiler, build_sweep_manifest, write_json
    from repro.sim.checkpoint import JobJournal
    from repro.sim.report import failure_footer, render_table, series_rows
    from repro.sim.sweep import BASELINE, PolicySweep, normalized_ipc_table

    config = SimConfig().with_l2_size(args.l2 * 1024)
    if args.hash_tree:
        config = config.with_secure(hash_tree_enabled=True)
    policies = args.policy or list(_DEFAULT_POLICIES)
    scale = _scale(args)
    profiler = PhaseProfiler()
    if args.compact and not args.checkpoint:
        print("error: --compact requires --checkpoint", file=sys.stderr)
        return 2

    sweep = PolicySweep(args.benchmark, policies, config=config,
                        num_instructions=scale["num_instructions"],
                        warmup=scale["warmup"], seed=args.seed)

    journal = None
    if args.checkpoint:
        journal = JobJournal(args.checkpoint)
        if journal.quarantined_lines:
            print("journal: quarantined %d corrupt line(s) to %s"
                  % (journal.quarantined_lines, journal.rej_path))
        if journal.incompatible_lines:
            print("journal: ignored %d line(s) from an incompatible "
                  "journal version" % journal.incompatible_lines)
        if args.compact:
            keep = {job.job_id
                    for job in sweep.jobs(not args.no_baseline)}
            dropped = journal.compact(keep_ids=keep)
            print("journal: compacted %s (%d stale line(s) dropped, %d "
                  "record(s) kept)"
                  % (args.checkpoint, dropped, len(journal)))
        if len(journal):
            print("resuming from %s: %d completed job(s) will be skipped"
                  % (args.checkpoint, len(journal)))

    metrics = _metrics_registry(args)
    _activate_store(args, metrics)
    progress = None
    if args.progress:
        # A real TTY gets the single rewriting status line (done/total,
        # ETA, retries, cache hit rate); pipes keep line-per-job logs.
        from repro.obs import make_progress
        progress = make_progress(sys.stderr, metrics=metrics)

    start = time.perf_counter()
    try:
        with _dist_executor(args) or make_executor(args.jobs) as executor:
            sweep.run(include_baseline=not args.no_baseline,
                      profiler=profiler, executor=executor,
                      journal=journal, progress=progress,
                      failure_policy=_failure_policy(args),
                      metrics=metrics)
    finally:
        if progress is not None:
            progress.close()
    elapsed = time.perf_counter() - start

    failed = sweep.failed_jobs()
    policies_run = sweep.executed_policies
    headers = ["benchmark"] + policies_run
    if failed:
        print("WARNING: %d job(s) failed terminally and were skipped:"
              % len(failed), file=sys.stderr)
        for (benchmark, policy), outcome in sorted(failed.items()):
            print("  %s/%s: %s after %d attempt(s)"
                  % (benchmark, policy, outcome.error, outcome.attempts),
                  file=sys.stderr)
    # Failed cells render as "--" and drop out of averages; the table
    # itself always prints, however partial the sweep came back.
    if BASELINE in policies_run:
        rows = normalized_ipc_table(sweep, policies_run)
        print("normalized IPC (baseline: %s)" % BASELINE)
        print(render_table(headers, series_rows(rows, policies_run)))
    else:
        print("absolute IPC")
        print(render_table(headers, [
            [benchmark] + [sweep.ipc_or_none(benchmark, p)
                           for p in policies_run]
            for benchmark in sweep.benchmarks], "%.4f"))
    if failed:
        print(failure_footer(sweep))
    backend = sweep.backend or {}
    retried = sum(1 for outcome in sweep.job_outcomes.values()
                  if outcome.attempts > 1)
    suffix = ", %d retried" % retried if retried else ""
    print("%d jobs in %.2fs (backend=%s, workers=%s%s)"
          % (len(sweep.results), elapsed,
             backend.get("backend"), backend.get("jobs"), suffix))
    if args.emit_json:
        write_json(build_sweep_manifest(sweep, profiler=profiler),
                   args.emit_json)
        print("sweep manifest written to %s" % args.emit_json)
    if args.csv:
        sweep.write_csv(args.csv)
        print("sweep CSV written to %s" % args.csv)
    _write_metrics(metrics, args)
    return 1 if failed else 0


def _cmd_figures(args):
    from repro.experiments.figures import ARTIFACTS, run_figures

    if args.only and args.all:
        print("error: --only and --all are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.only:
        names = [name.strip() for name in args.only.split(",")
                 if name.strip()]
        unknown = sorted(set(names) - set(ARTIFACTS))
        if unknown:
            print("error: unknown artifact(s) %s (choose from %s)"
                  % (", ".join(unknown), ", ".join(ARTIFACTS)),
                  file=sys.stderr)
            return 2
    else:
        names = list(ARTIFACTS)
    scale = _scale(args)
    metrics = _metrics_registry(args)
    _activate_store(args, metrics)
    dist = _dist_executor(args)
    try:
        summary = run_figures(names, args.out,
                              num_instructions=scale["num_instructions"],
                              warmup=scale["warmup"], jobs=args.jobs,
                              executor=dist,
                              failure_policy=_failure_policy(args),
                              log=lambda line: print(line, file=sys.stderr),
                              metrics=metrics, emit_json=args.emit_json)
    finally:
        if dist is not None:
            dist.close()
    print("figures manifest written to %s" % summary["manifest_path"])
    _write_metrics(metrics, args)
    if summary["total_failures"]:
        print("WARNING: %d job(s) failed terminally; affected cells "
              "are shown as -- in the artifacts"
              % summary["total_failures"], file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args):
    from repro.obs import MetricsRegistry
    from repro.serve import FigureService, serve_forever

    # /metricsz always has something to say, so the registry is
    # unconditional here (unlike the batch commands, where telemetry
    # is opt-in).
    metrics = MetricsRegistry()
    store = _activate_store(args, metrics)
    scale = _scale(args)
    log = (lambda message: print(message, file=sys.stderr)) \
        if not args.quiet else None
    service = FigureService(args.out, store=store,
                            num_instructions=scale["num_instructions"],
                            warmup=scale["warmup"], jobs=args.jobs,
                            failure_policy=_failure_policy(args),
                            metrics=metrics, log=log)
    if args.warm:
        names = [name.strip() for name in args.warm.split(",")
                 if name.strip()]
        from repro.experiments.figures import run_figures
        run_figures(names, args.out,
                    num_instructions=scale["num_instructions"],
                    warmup=scale["warmup"], jobs=args.jobs,
                    failure_policy=_failure_policy(args),
                    metrics=metrics, emit_json=True)
    return serve_forever(service, args.host, args.port,
                         log=lambda message: print(message,
                                                   file=sys.stderr))


def _cmd_diff(args):
    import json

    from repro.serve import diff_figures, render_diff

    only = None
    if args.only:
        only = {name.strip() for name in args.only.split(",")
                if name.strip()}
    report = diff_figures(args.dir_a, args.dir_b, atol=args.atol,
                          rtol=args.rtol, only=only)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_diff(report))
    if (not report["compared"] and not report["only_a"]
            and not report["only_b"]):
        print("error: no figure-series artifacts found under %s or %s "
              "(generate them with repro figures --emit-json)"
              % (args.dir_a, args.dir_b), file=sys.stderr)
        return 2
    return 0 if report["identical"] else 1


def _cmd_chaos(args):
    from repro.errors import ReproError
    from repro.exec.chaos import run_campaign
    from repro.obs import write_json

    faults = None
    if args.faults is not None:
        faults = tuple(f.strip() for f in args.faults.split(",")
                       if f.strip())
    try:
        report = run_campaign(args.campaign, benchmarks=args.benchmark,
                              policies=args.policy, faults=faults,
                              seed=args.seed, workers=args.jobs,
                              hang_seconds=args.hang_seconds,
                              timeout=args.timeout, workdir=args.workdir,
                              **_scale(args))
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(report.render())
    if args.emit_json:
        write_json(report.as_dict(), args.emit_json)
        print("chaos report written to %s" % args.emit_json)
    return 0 if report.identical else 1


def _cmd_trace(args):
    from repro.config import SimConfig
    from repro.obs import (MemorySink, Tracer, render_gap_timeline,
                           render_jobs_summary, render_lane_census)
    from repro.sim.runner import run_benchmark

    sink = MemorySink(capacity=args.buffer)
    tracer = Tracer([sink])
    result = run_benchmark(args.benchmark, args.instructions,
                           config=SimConfig(), policy=args.policy,
                           tracer=tracer)
    print("%s under %s: %d instructions, %d cycles, ipc=%.4f"
          % (args.benchmark, args.policy, result.instructions,
             result.cycles, result.ipc))
    if sink.dropped:
        print("(ring buffer dropped %d oldest events; raise --buffer)"
              % sink.dropped)
    print()
    print(render_lane_census(sink.events))
    jobs_summary = render_jobs_summary(sink.events)
    if jobs_summary is not None:  # single-run traces omit the section
        print()
        print(jobs_summary)
    print()
    print(render_gap_timeline(sink.events, limit=args.limit))
    return 0


def _cmd_report(args):
    import json

    from repro.errors import ReproError
    from repro.obs import build_report, render_report

    if not args.artifact and not args.journal:
        print("error: nothing to report on; pass at least one manifest/"
              "snapshot file or --journal", file=sys.stderr)
        return 2
    try:
        report = build_report(args.artifact, journal=args.journal,
                              top=args.top)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report, top=args.top))
    return 0


def _cmd_attack(args):
    from repro.attacks.harness import ALL_ATTACKS, run_attack

    attacks = [args.attack] if args.attack != "all" else list(ALL_ATTACKS)
    failures = 0
    for attack in attacks:
        result = run_attack(attack, args.policy)
        status = "LEAKED" if result.leaked else "blocked"
        detected = "detected" if result.detected else "undetected"
        print("%-26s vs %-22s %-8s (%s)"
              % (attack, args.policy, status, detected))
        failures += int(result.leaked)
    return 1 if failures and args.fail_on_leak else 0


def _cmd_perf(args):
    from repro.perf.bench import check_goldens
    from repro.perf.golden import GOLDEN_CYCLES, LEGACY_ONLY_CYCLES

    mismatches = check_goldens()
    if mismatches:
        print("golden parity FAILED (%d cell(s)):" % len(mismatches),
              file=sys.stderr)
        for line in mismatches:
            print("  " + line, file=sys.stderr)
        return 1
    print("golden parity OK: %d cells and %d beyond-default cells "
          "bit-identical through both the legacy and the shared-pass path"
          % (len(GOLDEN_CYCLES), len(LEGACY_ONLY_CYCLES)))
    return 0


def _parse_size(text):
    """Parse ``500M``-style size strings into bytes (K/M/G suffixes).

    The size must be a finite, non-negative number: a negative cap
    would evict every unpinned entry.
    """
    text = str(text).strip()
    multiplier = 1
    suffixes = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    if text and text[-1].lower() in suffixes:
        multiplier = suffixes[text[-1].lower()]
        text = text[:-1]
    try:
        size = float(text) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError("invalid size: %r" % text)
    if not math.isfinite(size) or size < 0:
        raise argparse.ArgumentTypeError(
            "size must be finite and non-negative: %r" % text)
    return int(size)


def _cmd_store(args):
    import json

    from repro.exec.store import ArtifactStore, default_store_path

    path = args.dir or default_store_path()
    store = ArtifactStore(path)
    if args.action == "stats":
        payload = store.stats()
    elif args.action == "verify":
        payload = store.verify()
        payload["root"] = str(store.root)
    else:  # gc
        payload = store.gc(args.max_bytes)
        payload["root"] = str(store.root)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.action == "stats":
        print("artifact store %s" % payload["root"])
        for tier in sorted(payload["tiers"]):
            info = payload["tiers"][tier]
            print("  %-8s %6d entr%s %12d bytes"
                  % (tier, info["entries"],
                     "y " if info["entries"] == 1 else "ies",
                     info["bytes"]))
        print("  total    %19d bytes" % payload["total_bytes"])
        if payload["quarantined_entries"]:
            print("  quarantined: %d entr%s (see quarantine.rej)"
                  % (payload["quarantined_entries"],
                     "y" if payload["quarantined_entries"] == 1
                     else "ies"))
    elif args.action == "verify":
        print("verified %d entr%s: %d ok, %d corrupt (quarantined), "
              "%d stale"
              % (payload["checked"],
                 "y" if payload["checked"] == 1 else "ies",
                 payload["ok"], payload["corrupt"], payload["stale"]))
    else:
        print("gc: evicted %d entr%s (%d bytes freed), kept %d "
              "(%d bytes, %d recently-touched pinned)"
              % (payload["evicted"],
                 "y" if payload["evicted"] == 1 else "ies",
                 payload["freed_bytes"], payload["kept"],
                 payload["kept_bytes"], payload["pinned"]))
    if args.action == "verify" and payload["corrupt"]:
        return 1
    return 0


def _cmd_worker(args):
    from repro.exec import run_worker
    from repro.exec.dist import ensure_spool, request_stop

    if args.stop:
        ensure_spool(args.spool)
        request_stop(args.spool)
        print("stop requested: workers on %s will drain and exit"
              % args.spool)
        return 0
    _activate_store(args)
    summary = run_worker(args.spool, host_id=args.host_id,
                         poll=args.poll,
                         lease_timeout=args.lease_timeout,
                         idle_exit=args.idle_exit,
                         max_units=args.max_units,
                         log=lambda line: print(line, file=sys.stderr))
    print("worker %s: %d unit(s), %d member result(s), %d error(s)"
          % (summary["host_id"], summary["units"], summary["members"],
             summary["errors"]))
    return 1 if summary["errors"] else 0


def _cmd_list(args):
    from repro.attacks.harness import ALL_ATTACKS

    print("benchmarks: " + ", ".join(sorted(SPEC2000_PROFILES)))
    print("policies:   " + ", ".join(available_policies()))
    print("attacks:    " + ", ".join(ALL_ATTACKS) + ", all")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Authentication control points for secure processors "
                    "(MICRO 2006 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table1", "table2", "table3", "fig6", "fig7", "fig8",
                 "fig9", "fig10", "fig12"):
        p = sub.add_parser(name, help="regenerate %s" % name)
        _add_scale(p)
        if name == "table1":
            p.add_argument("--memory-latency", type=int, default=200)
        if name == "table2":
            p.add_argument("--static", action="store_true",
                           help="skip the empirical attack runs")
        if name == "fig6":
            p.add_argument("--compute-latency", type=int, default=30)
        if name == "fig10":
            p.add_argument("--ruu", type=int, default=64)
        p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("run", help="simulate one benchmark")
    p.add_argument("benchmark", choices=sorted(SPEC2000_PROFILES))
    p.add_argument("-p", "--policy", action="append",
                   choices=available_policies())
    p.add_argument("--l2", type=int, default=256, help="L2 size in KB")
    p.add_argument("--hash-tree", action="store_true")
    p.add_argument("--trace-out", metavar="FILE",
                   help="record a Chrome trace-event JSON (Perfetto)")
    p.add_argument("--emit-json", metavar="FILE",
                   help="write the run manifest (config, seed, phase "
                        "timings, full stats snapshot)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes (default 1: serial backend)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the fleet-telemetry snapshot (JSON, or "
                        "Prometheus text for .prom/.txt)")
    _add_store(p)
    _add_spool(p)
    _add_scale(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep",
                       help="run a benchmarks x policies sweep through "
                            "the job executor")
    p.add_argument("benchmark", nargs="+",
                   choices=sorted(SPEC2000_PROFILES))
    p.add_argument("-p", "--policy", action="append",
                   choices=available_policies())
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes (default 1: serial backend; "
                        "results are bit-identical either way)")
    p.add_argument("--seed", type=int, default=None,
                   help="trace-generation seed (default: config seed)")
    p.add_argument("--l2", type=int, default=256, help="L2 size in KB")
    p.add_argument("--hash-tree", action="store_true")
    p.add_argument("--no-baseline", action="store_true",
                   help="do not inject the decrypt-only baseline")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="JSONL job journal; rerunning with the same "
                        "file skips already-completed jobs")
    p.add_argument("--csv", metavar="FILE",
                   help="write one CSV row per (benchmark, policy) run")
    p.add_argument("--emit-json", metavar="FILE",
                   help="write the sweep manifest (per-job ids, backend "
                        "metadata, full stats snapshots)")
    p.add_argument("--progress", action="store_true",
                   help="live progress on stderr: a rewriting status "
                        "line (done/total, ETA, retries, cache hit "
                        "rate) on a TTY, per-job lines otherwise")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the fleet-telemetry snapshot (JSON, or "
                        "Prometheus text for .prom/.txt)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECS",
                   help="per-attempt wall-clock budget for one job")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="re-run a failed/timed-out job up to N more "
                        "times (with backoff) before giving up")
    p.add_argument("--on-error", choices=("fail", "skip", "retry"),
                   default="fail",
                   help="terminal-failure policy: abort the sweep "
                        "(fail, default), skip the job and report it "
                        "(skip), or retry then skip (retry)")
    p.add_argument("--compact", action="store_true",
                   help="before running, rewrite --checkpoint keeping "
                        "only records for this sweep's job grid")
    _add_store(p)
    _add_spool(p)
    _add_scale(p, default_n=6000)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figures",
                       help="regenerate paper artifacts (all or a "
                            "subset) through the job executor, with a "
                            "combined manifest")
    p.add_argument("--only", metavar="CSV", default=None,
                   help="comma-separated artifact names (default: all); "
                        "e.g. fig7,table1,ablations")
    p.add_argument("--all", action="store_true",
                   help="regenerate every artifact (the default; "
                        "mutually exclusive with --only)")
    p.add_argument("--out", metavar="DIR", default="figures-out",
                   help="output directory for <name>.txt artifacts and "
                        "figures-manifest.json (default: figures-out)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes shared by every figure "
                        "(default 1: serial backend; artifacts are "
                        "byte-identical either way)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECS",
                   help="per-attempt wall-clock budget for one job")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="re-run a failed/timed-out job up to N more "
                        "times (with backoff) before giving up")
    p.add_argument("--on-error", choices=("fail", "skip", "retry"),
                   default="fail",
                   help="terminal-failure policy: abort (fail, "
                        "default), skip the job and render -- cells "
                        "(skip), or retry then skip (retry)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the fleet-telemetry snapshot (JSON, or "
                        "Prometheus text for .prom/.txt)")
    p.add_argument("--emit-json", action="store_true",
                   help="also write each artifact's machine-readable "
                        "figure-series twin to <name>.json (the format "
                        "repro serve and repro diff consume)")
    _add_store(p)
    _add_spool(p)
    _add_scale(p)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("serve",
                       help="HTTP figure/sweep server over the artifact "
                            "store: warm requests answer from disk, "
                            "cold ones simulate once and 202 until "
                            "ready")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8178,
                   help="bind port (default 8178; 0 picks a free one)")
    p.add_argument("--out", metavar="DIR", default="serve-out",
                   help="artifact directory served and regenerated "
                        "into (default: serve-out)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes per regeneration (default 1)")
    p.add_argument("--warm", metavar="CSV", default=None,
                   help="regenerate these figures synchronously before "
                        "binding (e.g. fig8,table1)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECS",
                   help="per-attempt wall-clock budget for one job")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="re-run a failed/timed-out job up to N more "
                        "times (with backoff) before giving up")
    p.add_argument("--on-error", choices=("fail", "skip", "retry"),
                   default="skip",
                   help="terminal-failure policy for regenerations "
                        "(default skip: a bad cell renders -- instead "
                        "of wedging the server)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request/regeneration log lines")
    _add_store(p)
    _add_scale(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("diff",
                       help="compare per-figure JSON artifacts between "
                            "two output directories; exit 0 identical, "
                            "1 differences, 2 nothing to compare")
    p.add_argument("dir_a", help="baseline directory of <figure>.json "
                                 "artifacts (repro figures --emit-json)")
    p.add_argument("dir_b", help="candidate directory to compare")
    p.add_argument("--only", metavar="CSV", default=None,
                   help="restrict to these figures")
    p.add_argument("--atol", type=float, default=0.0,
                   help="absolute tolerance for numeric cells "
                        "(default 0: exact)")
    p.add_argument("--rtol", type=float, default=0.0,
                   help="relative tolerance for numeric cells "
                        "(default 0: exact)")
    p.add_argument("--json", action="store_true",
                   help="print the structured diff report instead of "
                        "the changed-cells table")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("chaos",
                       help="fault-injection harness: run a campaign of "
                            "injected faults and verify bit-identical "
                            "recovery against a fault-free serial run")
    p.add_argument("--campaign", default="sweep",
                   choices=("sweep", "group", "figures", "store", "dist"),
                   help="sweep (default): worker kills, hangs, a broken "
                        "pool, ENOSPC and a corrupted journal; group: a "
                        "mid-group kill and exact resume; figures: a "
                        "worker kill mid fig8; store: corrupt entries "
                        "and a stale lock; dist: host death, a split "
                        "journal and a vanished fleet")
    p.add_argument("--benchmark", action="append", default=None,
                   choices=sorted(SPEC2000_PROFILES),
                   help="benchmark(s) to sweep (default: the "
                        "campaign's grid)")
    p.add_argument("-p", "--policy", action="append",
                   choices=available_policies())
    p.add_argument("--seed", type=int, default=0,
                   help="chaos schedule seed (default 0)")
    p.add_argument("--faults", metavar="CSV", default=None,
                   help="sweep campaign only: comma-separated fault "
                        "kinds (default: all): worker-kill, "
                        "job-exception, hang, journal-truncate, "
                        "journal-bitflip, pool-init-failure, "
                        "journal-enospc")
    p.add_argument("-j", "--jobs", type=int, default=2,
                   help="worker processes for the faulty phase "
                        "(default 2)")
    p.add_argument("--hang-seconds", type=float, default=2.0,
                   help="how long the injected hang sleeps")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-attempt timeout (default: 0.75 for sweep, "
                        "which breaks the hang; 30 for group and "
                        "figures)")
    p.add_argument("--workdir", metavar="DIR", default=None,
                   help="keep journal/sidecar artifacts here instead "
                        "of a temp dir")
    p.add_argument("--emit-json", metavar="FILE",
                   help="write the chaos report as JSON")
    _add_scale(p, default_n=1500)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("trace",
                       help="record one run and render the decrypt-to-"
                            "verify gap timeline")
    p.add_argument("benchmark", choices=sorted(SPEC2000_PROFILES))
    p.add_argument("-p", "--policy", default="authen-then-commit",
                   choices=available_policies())
    p.add_argument("-n", "--instructions", type=int, default=4000)
    p.add_argument("--limit", type=int, default=32,
                   help="max windows rendered in the timeline")
    p.add_argument("--buffer", type=int, default=None,
                   help="ring-buffer capacity (default: unbounded)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("report",
                       help="render a run health report from sweep/"
                            "figures/run/chaos manifests, metrics "
                            "snapshots and the job journal")
    p.add_argument("artifact", nargs="*", metavar="FILE",
                   help="manifest / metrics-snapshot / chaos-report "
                        "JSON files (kinds are sniffed per file)")
    p.add_argument("--journal", metavar="FILE",
                   help="job journal (--checkpoint file) to mine for "
                        "per-job wall/RSS/cache accounting")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows in the slowest-jobs table (default 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("attack", help="run an exploit against a policy")
    p.add_argument("attack")
    p.add_argument("-p", "--policy", default="authen-then-commit",
                   choices=available_policies())
    p.add_argument("--fail-on-leak", action="store_true")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("perf",
                       help="verify timing parity against the pinned "
                            "goldens (cycles and full stats digests)")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser("store",
                       help="inspect or maintain the persistent "
                            "artifact store (stats, verify, gc)")
    p.add_argument("action", choices=("stats", "verify", "gc"),
                   help="stats: tier sizes and counters; verify: CRC-"
                        "check every entry (corrupt ones are "
                        "quarantined); gc: evict least-recently-used "
                        "entries down to --max-bytes")
    p.add_argument("--dir", metavar="DIR", default=None,
                   help="store directory (default: $REPRO_STORE or "
                        "~/.cache/repro/store)")
    p.add_argument("--max-bytes", type=_parse_size, default="1G",
                   metavar="SIZE",
                   help="gc target size; accepts K/M/G suffixes "
                        "(default 1G)")
    p.add_argument("--json", action="store_true",
                   help="emit the result as JSON")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser("worker",
                       help="run one work-stealing daemon against a "
                            "shared --spool directory (claim units via "
                            "leases, heartbeat, journal results)")
    p.add_argument("--spool", metavar="DIR", required=True,
                   help="the shared spool directory drivers submit "
                        "job units to")
    p.add_argument("--host-id", metavar="NAME", default=None,
                   help="name for this worker's journal segment and "
                        "census entry (default: <hostname>-<pid>)")
    p.add_argument("--poll", type=float, default=0.25, metavar="SECS",
                   help="idle claim-loop poll interval (default 0.25)")
    p.add_argument("--lease-timeout", type=float, default=5.0,
                   metavar="SECS",
                   help="lease heartbeat budget; the driver reclaims a "
                        "unit whose lease goes this long without a "
                        "heartbeat (default 5.0; must match the "
                        "driver's)")
    p.add_argument("--idle-exit", type=float, default=None,
                   metavar="SECS",
                   help="exit after this long with nothing claimable "
                        "(default: run until --stop)")
    p.add_argument("--max-units", type=int, default=None, metavar="N",
                   help="exit after executing N job units")
    p.add_argument("--stop", action="store_true",
                   help="ask every worker on the spool to drain and "
                        "exit, then return")
    _add_store(p)
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("list", help="list benchmarks/policies/attacks")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro trace ... | head``).  Point
        # stdout at devnull so the interpreter's exit-time flush cannot
        # fail again, and exit non-zero without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except KernelUnavailableError as exc:
        # A machine without a working C compiler: say why in one line.
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
