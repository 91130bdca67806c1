"""Job execution backends: one pipeline, serial or multiprocess.

The unit of work is a :class:`~repro.exec.job.MultiPolicySimJob`: one
benchmark trace evaluated under N policies.  :meth:`Executor.run`
normalises every plain :class:`~repro.exec.job.SimJob` into its
one-member group at entry, so :func:`iter_group_results` is the single
place a job becomes a :class:`~repro.sim.result.RunResult`: one cached
trace handed to :func:`~repro.sim.runner.evaluate_trace`.  It is a pure
function of the group (all simulator state is private to the call),
which is what makes the
backends interchangeable: :class:`SerialExecutor` runs groups in-order
in-process, :class:`ParallelExecutor` fans them out over a
``ProcessPoolExecutor`` -- and both produce bit-identical cycle counts
and stats for the same job set.

Each member evaluation is journaled as the plain
:class:`~repro.exec.job.SimJob` it stands for, under the identical
job_id, so resume/retry/chaos/telemetry see one per-job stream whatever
the grouping; the serial backend journals members incrementally, so a
kill mid-group re-runs only the unfinished evaluations.

Fault tolerance: both backends drive every member through the
:class:`~repro.exec.retry.FailurePolicy` handed to :meth:`Executor.run`
-- per-attempt timeouts, bounded retries with deterministic backoff, and
skip-and-report semantics -- and record a per-job
:class:`~repro.exec.retry.JobResult` in ``executor.last_outcomes``.
The parallel backend additionally survives killed workers: a broken
pool is torn down and rebuilt with every incomplete group resubmitted,
and after :data:`MAX_POOL_REBUILDS` consecutive pool losses the
remaining groups degrade to in-process serial execution instead of
aborting the sweep.  Because execution is pure, none of this perturbs
results.

Observability: each completed job emits a ``JOB_DONE`` event on the
``jobs`` lane of the supplied tracer and credits the profiler; retries,
terminal failures and backend degradation emit ``JOB_RETRY``,
``JOB_FAILED`` and ``BACKEND_DEGRADED`` on the same lane; a journal
append or group fsync that dies (ENOSPC) emits ``JOURNAL_DEGRADED`` and
the run continues without the journal rather than aborting.  The parallel
backend cannot thread a tracer into workers (sinks do not cross
processes), so per-run events are only recorded by the serial backend.
"""

import os
import sys
import time
from contextlib import contextmanager

from repro.errors import JobTimeoutError
from repro.exec.cache import GLOBAL_CACHE, cached_trace
from repro.exec.job import MultiPolicySimJob
from repro.exec.retry import (
    FAIL_FAST,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RESUMED,
    FailurePolicy,
    JobResult,
    attempt_deadline,
)
from repro.exec.store import active_store
from repro.obs.events import (
    BACKEND_DEGRADED,
    HOST_LOST,
    JOB_DONE,
    JOB_FAILED,
    JOB_RETRY,
    JOURNAL_DEGRADED,
    LANE_JOBS,
)
from repro.obs.metrics import JobMetrics
# The evaluation path, imported here so that forked pool workers inherit
# it loaded instead of each importing it again.
from repro.sim.runner import evaluate_trace

#: Optional fault-injection hook called as ``hook(job, attempt)`` at the
#: start of every attempt (in the worker process for the pool backend).
#: Installed by the chaos harness; None in production runs.
_ATTEMPT_HOOK = None

#: Consecutive pool losses :class:`ParallelExecutor` absorbs before it
#: finishes the run in-process.
MAX_POOL_REBUILDS = 2


def set_attempt_hook(hook):
    """Install ``hook(job, attempt)`` for this process; returns the old
    hook so callers can restore it.  Pass None to clear."""
    global _ATTEMPT_HOOK
    previous = _ATTEMPT_HOOK
    _ATTEMPT_HOOK = hook
    return previous


def _peak_rss_kb():
    """Peak RSS of this process in KB (None where unavailable).

    Linux reports ``ru_maxrss`` in KB, macOS in bytes (normalised
    here).  This is a process high-water mark, not a per-job delta:
    for pool workers it approximates the job well, for the serial
    backend it is the driver's footprint.
    """
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return rss


def _store_hit_accounting(started):
    """Accounting for a result served from the artifact store.

    ``cache_hit`` is None, not False: the trace cache was never
    consulted, so neither verdict would be true.
    """
    return {
        "wall_seconds": round(time.perf_counter() - started, 6),
        "tracegen_seconds": 0.0,
        "cache_hit": None,
        "store_hit": True,
        "path": "store",
        "peak_rss_kb": _peak_rss_kb(),
    }


def execute_job(job, tracer=None, profiler=None, cache=None):
    """Run one plain job as its one-member group; returns its RunResult.

    A convenience over :func:`iter_group_results` for single runs: no
    retries and no journal, but the same store, trace cache and
    evaluation path every executor takes.
    """
    [(_, result)] = iter_group_results(job.as_group(), tracer=tracer,
                                       profiler=profiler, cache=cache)
    return result


def iter_group_results(group, skip=(), tracer=None, profiler=None,
                       cache=None, attempt_of=None):
    """Execute a :class:`MultiPolicySimJob`; yields ``(member, result)``.

    One decode serves every member: the trace comes from the cache once
    and :func:`~repro.sim.runner.evaluate_trace`, which picks the kernel
    or the legacy path, evaluates it under the members' policies.  This
    adds what a job needs around it: store lookups and saves, the trace
    cache, the attempt hook and accounting.

    ``skip`` is a set of member job_ids to leave out (mid-group resume:
    the retry loop passes the members already journaled).

    The attempt hook fires once per *member*, right before its
    evaluation, so fault injection keyed by a member's job_id or
    (benchmark, policy) cell lands on that member whatever group
    carries it.  ``attempt_of(member)`` supplies the attempt number the
    hook reports (default: 1).

    Resource accounting rides along on each ``result.accounting`` --
    wall and tracegen seconds, whether the trace came from cache,
    whether the result was a store hit, the evaluation ``path``
    (``"native"``, ``"legacy"``, or ``"store"`` for a stored result)
    and the process's peak RSS -- measured here, inside the worker for
    the pool backend, because it has to cross the pickle boundary with
    the result.  The first executed member carries the group's shared
    tracegen cost and the cache-lookup verdict, and a walk's cost lands
    on the first member of its structure; every later member is a pure
    cache reuse (``cache_hit`` True, zero tracegen), which
    :meth:`~repro.exec.cache.TraceCache.count_group_reuse` also charges
    to the cache counters.

    The artifact store (when active) resolves members *before* the
    shared decode: members with a stored result are yielded without
    evaluation (``store_hit`` accounting, no attempt hook -- the same
    "settled elsewhere" semantics journal-resumed members have), and if
    every member resolves the trace is never touched.  A traced run is
    never served from the store (a stored result carries no machine
    events): it looks a member up only after simulating it, to save what
    the store lacks.  Walks are built in-process and never
    stored: a native walk costs less than reading one back.  Saved
    lines are fsynced once, when the group ends (exception or not).
    """
    skip = set(skip)
    members = [m for m in group.member_jobs if m.job_id not in skip]
    if not members:
        return
    store = active_store()
    stored = {}
    tracing = tracer is not None and tracer.enabled
    if store is not None and not tracing:
        for member in members:
            lookup_start = time.perf_counter()
            hit = store.load_result(member)
            if hit is not None:
                hit.accounting = _store_hit_accounting(lookup_start)
                stored[member.job_id] = hit
    to_run = [m for m in members if m.job_id not in stored]
    cache_hit = False
    tracegen = 0.0
    shared_seconds = 0.0
    if to_run:
        started = time.perf_counter()
        active_cache = cache if cache is not None else GLOBAL_CACHE
        hits_before = active_cache.hits
        gen_before = active_cache.gen_seconds
        trace = cached_trace(group.benchmark, group.trace_length,
                             group.seed, profiler=profiler,
                             cache=active_cache)
        cache_hit = active_cache.hits > hits_before
        tracegen = active_cache.gen_seconds - gen_before
        active_cache.count_group_reuse(len(to_run) - 1)
        results = evaluate_trace(trace, group.config,
                                 [m.policy for m in to_run],
                                 warmup=group.warmup, tracer=tracer,
                                 profiler=profiler)
        shared_seconds = time.perf_counter() - started
    try:
        for member in members:
            hit = stored.get(member.job_id)
            if hit is not None:
                yield member, hit
                continue
            if _ATTEMPT_HOOK is not None:
                _ATTEMPT_HOOK(member,
                              attempt_of(member) if attempt_of is not None
                              else 1)
            member_start = time.perf_counter()
            result = next(results)
            result.accounting = {
                "wall_seconds": round(time.perf_counter() - member_start
                                      + shared_seconds, 6),
                "tracegen_seconds": round(tracegen, 6),
                "cache_hit": cache_hit,
                "store_hit": False,
                "path": result.accounting["path"],
                "peak_rss_kb": _peak_rss_kb(),
            }
            # Later members reuse the first one's decode.
            shared_seconds, tracegen, cache_hit = 0.0, 0.0, True
            if store is not None and (not tracing
                                      or store.load_result(member) is None):
                store.save_result(member, result)
            yield member, result
    finally:
        if store is not None:
            store.sync_results()


def _pool_worker_group(group, attempt=1):
    """Pool entry: runs every member of ``group``, returns the list.

    The ``[(member_job_id, result), ...]`` list crosses the pickle
    boundary whole, so a pool group attempt is all-or-nothing: a worker
    death mid-group yields no partial results and the retry re-runs the
    full group (bit-identically, since execution is pure).  Incremental
    mid-group journaling is the serial/degraded path's province.  The
    attempt hook fires per member (inside ``iter_group_results``), all
    reporting the group attempt number.
    """
    return group.job_id, [
        (member.job_id, result)
        for member, result in iter_group_results(
            group, attempt_of=lambda member: attempt)
    ]


class Executor:
    """Common driver: journal skip/record, retries, progress, results."""

    backend = "abstract"
    jobs = 1

    def __init__(self):
        self.last_outcomes = {}

    def run(self, jobs, journal=None, tracer=None, profiler=None,
            progress=None, failure_policy=None, metrics=None):
        """Execute ``jobs``; returns ``{job: RunResult}``.

        ``jobs`` may mix plain :class:`~repro.exec.job.SimJob` jobs and
        :class:`~repro.exec.job.MultiPolicySimJob` groups; either way
        the mapping is keyed per member job (a plain job keys itself).

        ``journal`` (a :class:`~repro.sim.checkpoint.JobJournal`) makes
        the call resumable: jobs whose ``job_id`` the journal already
        holds are skipped and their results rebuilt from disk; every
        fresh completion is appended before the next job starts, so an
        interrupted sweep loses at most the in-flight jobs.

        ``failure_policy`` (default: fail-fast, no timeout -- exactly
        the historical behaviour) governs retries, per-attempt timeouts
        and whether a terminal failure aborts or skips.  Jobs skipped
        this way are *absent* from the returned mapping; inspect
        ``self.last_outcomes`` / ``self.failures`` for the report.

        ``progress(job, result, done, total)`` fires per completion in
        the calling process, after the journal append.

        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        receives the standard execution-layer families -- jobs settled
        by status, wall-time/backoff histograms, queue depth, cache and
        degradation counters.  None (the default) routes every record
        through the shared null registry: a no-op per event, and
        nothing that can perturb simulated cycle counts.
        """
        jobs = list(jobs)
        results = {}
        pending = []
        outcomes = {}
        total = 0

        def resume(job):
            done = journal.result(job) if journal is not None else None
            if done is None:
                return False
            results[job] = done
            outcomes[job.job_id] = JobResult(
                job_id=job.job_id, status=STATUS_RESUMED, attempts=0,
                cache_hit=(done.accounting or {}).get("cache_hit"),
                store_hit=(done.accounting or {}).get("store_hit"),
                peak_rss_kb=(done.accounting or {}).get("peak_rss_kb"))
            return True

        for job in jobs:
            # The one type test: a plain job runs as its one-member
            # group, whose member equals the job, so results and
            # outcomes stay keyed as the caller submitted them.
            group = (job if isinstance(job, MultiPolicySimJob)
                     else job.as_group())
            # Groups resume member-wise: journaled members come back
            # from disk and the group is trimmed to the rest, so a
            # rerun pays only the evaluations that never finished.
            total += len(group.policies)
            remaining = [member.policy for member in group.member_jobs
                         if not resume(member)]
            if remaining:
                pending.append(group
                               if len(remaining) == len(group.policies)
                               else group.subset(remaining))
        pending_units = sum(len(group.policies) for group in pending)
        state = _RunState(total, total - pending_units, journal,
                          tracer, profiler, progress,
                          failure_policy or FailurePolicy(), outcomes,
                          metrics=metrics)
        for outcome in outcomes.values():
            state.jm.jobs.labels(STATUS_RESUMED).inc()
        state.jm.pending.set(pending_units)
        self.last_outcomes = outcomes
        if pending:
            try:
                self._execute(pending, results, state)
            finally:
                state.sync_journal()
        return results

    @property
    def failures(self):
        """Failed JobResults from the last run, keyed by job_id."""
        return {job_id: outcome
                for job_id, outcome in self.last_outcomes.items()
                if outcome.status == STATUS_FAILED}

    def _execute(self, pending, results, state):
        raise NotImplementedError

    def _run_group(self, group, results, state, run_tracer=None,
                   cache=None, prior_attempts=0, started=None):
        """In-process attempt loop for one group under the failure policy.

        Shared by the serial backend and the pool and dist backends'
        degraded paths; ``prior_attempts``/``started`` carry bookkeeping
        from attempts a pool or fleet already spent on the group.

        Members are journaled incrementally (``state.complete`` fires
        after each member, before the next starts), so a kill mid-group
        loses only the in-flight member, and a retry after a mid-group
        fault re-runs only the members that never completed.  The
        journal is fsynced once, when the group settles.

        Retries are charged *per member*, not per group: a pass aborts
        at its first failing member (members execute in order, so that
        is the first member not yet settled), that member alone is
        charged the attempt, and the next pass resumes from it.  A
        member that exhausts the failure policy is failed individually
        and the rest of the group still runs -- the same semantics N
        one-member groups would have had.
        """
        policy = state.policy
        start = started if started is not None else time.perf_counter()
        done_ids = set()   # settled members: completed or failed
        counts = {}        # member job_id -> failed attempts so far

        def attempt_of(member):
            return (prior_attempts + counts.get(member.job_id, 0) + 1)

        while True:
            try:
                with attempt_deadline(policy.timeout):
                    for member, result in iter_group_results(
                            group, skip=done_ids, tracer=run_tracer,
                            profiler=state.profiler, cache=cache,
                            attempt_of=attempt_of):
                        results[member] = result
                        done_ids.add(member.job_id)
                        state.complete(member, result,
                                       attempts=attempt_of(member),
                                       wall=(time.perf_counter()
                                             - start))
            except Exception as exc:
                victim = next(member for member in group.member_jobs
                              if member.job_id not in done_ids)
                count = attempt_of(victim)
                counts[victim.job_id] = (counts.get(victim.job_id, 0)
                                         + 1)
                if policy.should_retry(count):
                    delay = policy.backoff(victim.job_id, count)
                    state.retry(victim, count, exc, delay)
                    if delay:
                        time.sleep(delay)
                    continue
                state.fail(victim, count,
                           time.perf_counter() - start, exc)
                done_ids.add(victim.job_id)
                continue
            # Settled: one fsync for the group's journal lines (a
            # fail-fast raise is synced by Executor.run).
            state.sync_journal()
            return

    def describe(self):
        """Backend metadata for manifests ({"backend": ..., "jobs": ...})."""
        return {"backend": self.backend, "jobs": self.jobs}

    def close(self):
        """Release backend resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _RunState:
    """Per-run completion bookkeeping shared by the backends.

    ``jm`` holds the standard metric families: real ones when the run
    was handed a registry, the shared null metric otherwise, so every
    code path below records unconditionally.
    """

    def __init__(self, total, done, journal, tracer, profiler, progress,
                 policy, outcomes, metrics=None):
        self.total = total
        self.done = done
        self.journal = journal
        self.tracer = tracer
        self.profiler = profiler
        self.progress = progress
        self.policy = policy
        self.outcomes = outcomes
        self.jm = JobMetrics(metrics)
        self.journaled = None   # job_id of the last journal append

    def complete(self, job, result, attempts=1, wall=0.0):
        self.done += 1
        accounting = getattr(result, "accounting", None) or {}
        self.outcomes[job.job_id] = JobResult(
            job_id=job.job_id, status=STATUS_OK, attempts=attempts,
            wall_time=wall, cache_hit=accounting.get("cache_hit"),
            store_hit=accounting.get("store_hit"),
            peak_rss_kb=accounting.get("peak_rss_kb"))
        self.jm.observe_completed(result, wall, status=STATUS_OK)
        self.jm.pending.set(self.total - self.done)
        if self.journal is not None:
            try:
                self.journal.record(job, result)
                self.journaled = job.job_id
            except OSError as exc:
                self._journal_failed(job.job_id, exc)
        if self.tracer is not None:
            self.tracer.emit(JOB_DONE, LANE_JOBS, self.done,
                             job_id=job.job_id, benchmark=job.benchmark,
                             policy=job.policy, cycles=result.cycles,
                             attempts=attempts, completed=self.done,
                             total=self.total)
        if self.progress is not None:
            self.progress(job, result, self.done, self.total)

    def sync_journal(self):
        """fsync the journal's lines since the last sync: once per
        settled group, so a power loss costs at most one group."""
        if self.journal is None:
            return
        try:
            self.journal.sync()
        except OSError as exc:
            self._journal_failed(self.journaled, exc)

    def _journal_failed(self, job_id, exc):
        # A journal append or sync failing (ENOSPC, dead filesystem)
        # must not take the sweep down with it: the results are already
        # in memory.  Drop the journal -- this run just loses
        # resumability from here on -- and say so.
        self.journal = None
        self.jm.journal_degraded.inc()
        if self.tracer is not None:
            self.tracer.emit(JOURNAL_DEGRADED, LANE_JOBS, self.done,
                             job_id=job_id, error=repr(exc))

    def retry(self, job, attempt, exc, delay):
        self.jm.retries.inc()
        self.jm.backoff.observe(delay)
        if isinstance(exc, JobTimeoutError):
            self.jm.timeouts.inc()
        if self.tracer is not None:
            self.tracer.emit(JOB_RETRY, LANE_JOBS, self.done,
                             job_id=job.job_id, attempt=attempt,
                             error=repr(exc), delay=round(delay, 6))

    def fail(self, job, attempts, wall, exc):
        """Record a terminal failure; re-raises under fail-fast."""
        self.done += 1
        outcome = JobResult(
            job_id=job.job_id, status=STATUS_FAILED, attempts=attempts,
            wall_time=wall, error=repr(exc))
        self.outcomes[job.job_id] = outcome
        self.jm.jobs.labels(STATUS_FAILED).inc()
        self.jm.pending.set(self.total - self.done)
        if isinstance(exc, JobTimeoutError):
            self.jm.timeouts.inc()
        if self.tracer is not None:
            self.tracer.emit(JOB_FAILED, LANE_JOBS, self.done,
                             job_id=job.job_id, benchmark=job.benchmark,
                             policy=job.policy, attempts=attempts,
                             error=repr(exc))
        if self.progress is not None:
            # Failures advance the same done/total cursor completions
            # do; the renderer receives the failed JobResult (no
            # ``.cycles``) and must render a FAILED marker.  Fired
            # before the fail-fast raise so the status line reflects
            # the terminal job even when the run aborts here.
            self.progress(job, outcome, self.done, self.total)
        if self.policy.mode == FAIL_FAST:
            raise exc

    def degraded(self, reason, remaining):
        self.jm.degraded.inc()
        if self.tracer is not None:
            self.tracer.emit(BACKEND_DEGRADED, LANE_JOBS, self.done,
                             reason=reason, remaining=remaining)

    def host_lost(self, host_id, job_id, lease_age):
        """A dist worker host stopped heartbeating while holding a job."""
        self.jm.host_lost.inc()
        if self.tracer is not None:
            self.tracer.emit(HOST_LOST, LANE_JOBS, self.done,
                             host=host_id, job_id=job_id,
                             lease_age=round(lease_age, 3))


class SerialExecutor(Executor):
    """In-process, in-order execution (the reference backend).

    The only backend that can thread a tracer into the runs themselves,
    so single-run recordings and gap timelines go through it.  Timeouts
    are enforced with ``SIGALRM`` (POSIX main thread only; see
    :func:`~repro.exec.retry.attempt_deadline`).
    """

    backend = "serial"
    jobs = 1

    def __init__(self, cache=None):
        super().__init__()
        self._cache = cache

    def _execute(self, pending, results, state):
        # Evictions can only be observed driver-side (pool workers'
        # caches live in other processes), so this delta is the serial
        # backend's contribution alone.
        cache = self._cache if self._cache is not None else GLOBAL_CACHE
        evictions_before = cache.evictions
        for group in pending:
            self._run_group(group, results, state, run_tracer=state.tracer,
                            cache=self._cache)
        state.jm.cache_evictions.inc(cache.evictions - evictions_before)


class ParallelExecutor(Executor):
    """``ProcessPoolExecutor`` fan-out over ``jobs`` worker processes.

    Workers regenerate traces through their own per-process cache (see
    :mod:`repro.exec.cache`) and return each group's pickled
    ``RunResult``s; results are keyed by member job, so output is deterministic no matter which worker
    finishes first.  The pool is created lazily and reused across
    ``run`` calls until :meth:`close`, so ablation grids amortise the
    fork cost over the whole parameter grid.

    Crash isolation: a worker death (OOM kill, segfault, chaos
    injection) breaks the whole ``ProcessPoolExecutor``; this backend
    responds by killing the stragglers, rebuilding the pool and
    resubmitting every incomplete group -- no attempt is charged,
    because the pool cannot say whose worker died.  A group that
    outlives the policy timeout *is* charged an attempt: its deadline
    identifies it, the pool is rebuilt around the hung worker and the
    group re-enters the retry loop.  After :data:`MAX_POOL_REBUILDS`
    consecutive pool losses the remaining groups run serially in-process
    (``BACKEND_DEGRADED``), so a persistently hostile environment slows
    a sweep down rather than aborting it.

    ``initializer``/``initargs`` are forwarded to every worker process
    (the chaos harness uses this to install its fault plan).
    """

    backend = "process"

    def __init__(self, jobs=None, initializer=None, initargs=()):
        super().__init__()
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self.rebuilds = 0
        self.degraded = False
        self._initializer = initializer
        self._initargs = initargs
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=self._initializer,
                initargs=self._initargs)
        return self._pool

    def _break_pool(self):
        """Tear down the pool, killing any worker that is still alive."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _execute(self, pending, results, state):
        from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                        wait)

        policy = state.policy
        start = time.perf_counter()
        attempts = {}
        first_start = {}
        queue = list(pending)
        inflight = {}  # future -> (job, deadline or None)
        rebuilds = 0
        try:
            while queue or inflight:
                pool = self._ensure_pool()
                # Cap in-flight submissions at the worker count so a
                # per-attempt deadline measures the attempt, not time
                # spent queued behind other jobs.
                while queue and len(inflight) < self.jobs:
                    job = queue[0]
                    attempt = attempts.get(job.job_id, 0) + 1
                    try:
                        future = pool.submit(_pool_worker_group, job,
                                             attempt)
                    except RuntimeError:  # pool broke under us
                        break
                    queue.pop(0)
                    attempts[job.job_id] = attempt
                    first_start.setdefault(job.job_id,
                                           time.perf_counter())
                    deadline = (time.monotonic() + policy.timeout
                                if policy.timeout else None)
                    inflight[future] = (job, deadline)
                if not inflight:
                    # Submission failed before anything was in flight:
                    # rebuild and retry (or degrade).
                    self._break_pool()
                    rebuilds += 1
                    if self._maybe_degrade(rebuilds, queue, results,
                                           state, attempts, first_start):
                        return
                    continue

                deadlines = [dl for (_, dl) in inflight.values()
                             if dl is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)

                broke = False
                for future in done:
                    job, _ = inflight.pop(future)
                    try:
                        _, result = future.result()
                    except BrokenExecutor:
                        # A worker died; nobody can tell whose job did
                        # it, so requeue without charging an attempt.
                        broke = True
                        attempts[job.job_id] -= 1
                        queue.append(job)
                    except Exception as exc:
                        self._attempt_failed(job, exc, attempts,
                                             first_start, queue, state)
                    else:
                        wall = (time.perf_counter()
                                - first_start[job.job_id])
                        members = {member.job_id: member
                                   for member in job.member_jobs}
                        for member_id, member_result in result:
                            member = members[member_id]
                            results[member] = member_result
                            state.complete(member, member_result,
                                           attempts=attempts[job.job_id],
                                           wall=wall)
                        state.sync_journal()

                now = time.monotonic()
                expired = [future
                           for future, (job, dl) in inflight.items()
                           if dl is not None and now >= dl]
                for future in expired:
                    job, _ = inflight.pop(future)
                    broke = True  # its worker is wedged; rebuild
                    victim = job.member_jobs[0].job_id
                    exc = JobTimeoutError(
                        "job %s attempt %d exceeded %.3fs timeout"
                        % (victim, attempts[job.job_id], policy.timeout),
                        job_id=victim, attempts=attempts[job.job_id])
                    self._attempt_failed(job, exc, attempts, first_start,
                                         queue, state)

                if broke:
                    for future, (job, _) in inflight.items():
                        attempts[job.job_id] -= 1
                        queue.append(job)
                    inflight.clear()
                    self._break_pool()
                    rebuilds += 1
                    if self._maybe_degrade(rebuilds, queue, results,
                                           state, attempts, first_start):
                        return
        finally:
            self.rebuilds += rebuilds
            state.jm.pool_rebuilds.inc(rebuilds)
            if state.profiler is not None:
                state.profiler.add("execute",
                                   time.perf_counter() - start)

    def _attempt_failed(self, group, exc, attempts, first_start, queue,
                        state):
        """Route one failed group attempt through the policy.

        A pool attempt is all-or-nothing, so no member has settled: the
        retry is charged to the first member -- the first unsettled one,
        as ``_run_group`` and the dist driver charge it -- and a terminal
        failure fails every member under its own job_id.
        """
        count = attempts[group.job_id]
        victim = group.member_jobs[0]
        policy = state.policy
        if policy.should_retry(count):
            delay = policy.backoff(victim.job_id, count)
            state.retry(victim, count, exc, delay)
            if delay:
                time.sleep(delay)
            queue.append(group)
        else:
            wall = time.perf_counter() - first_start[group.job_id]
            for member in group.member_jobs:
                state.fail(member, count, wall, exc)

    def _maybe_degrade(self, rebuilds, queue, results, state, attempts,
                       first_start):
        """After too many pool losses, finish the run serially."""
        if rebuilds <= MAX_POOL_REBUILDS:
            return False
        self.degraded = True
        state.degraded("process pool broke %d times" % rebuilds,
                       remaining=len(queue))
        while queue:
            group = queue.pop(0)
            self._run_group(group, results, state,
                            prior_attempts=attempts.get(group.job_id, 0),
                            started=first_start.get(group.job_id))
        return True

    def describe(self):
        info = {"backend": self.backend, "jobs": self.jobs}
        if self.rebuilds:
            info["pool_rebuilds"] = self.rebuilds
        if self.degraded:
            info["degraded"] = True
        return info

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def default_jobs():
    """Worker count when none is given: ``REPRO_JOBS`` env var, else 1.

    Serial is the default on purpose -- tests and small runs should not
    pay pool startup -- while ``REPRO_JOBS=8`` turns every sweep in a
    process parallel without touching call sites.
    """
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def make_executor(jobs=None):
    """Backend for ``jobs`` workers (None: :func:`default_jobs`)."""
    jobs = default_jobs() if jobs is None else jobs
    if jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)


@contextmanager
def executor_scope(executor=None, jobs=None):
    """Yield ``executor``, or a fresh one that is closed on exit.

    Callers that accept an optional executor use this so a borrowed
    executor (and its warm worker pool) survives the call while a
    default-constructed one is cleaned up.
    """
    if executor is not None:
        yield executor
        return
    executor = make_executor(jobs)
    try:
        yield executor
    finally:
        executor.close()
