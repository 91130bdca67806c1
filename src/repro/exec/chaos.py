"""Chaos harness: deterministically inject faults, prove recovery.

The paper argues a secure processor must keep producing correct results
while memory misbehaves; this module holds the sweep infrastructure to
the same standard.  Instead of hoping the retry/journal/store/spool
machinery works, a campaign *injects* the failure modes from a seeded
schedule, then compares what came back against a fault-free serial
reference -- sha256 digests of every job's cycles, IPC inputs and stats
(or of every artifact's bytes) must match exactly.

Every campaign is one row of :data:`CAMPAIGNS` driven by one runner,
:func:`run_campaign`: fault schedule x backend x gate, where the gate is
digest equality with the serial reference plus the row's named gates.
A row supplies only what differs -- its default grid, its fault phases
and its gates; the runner validates the grid, computes the reference,
sets up the workdir and the retry-then-skip policy, diffs every result
set the phases produced and hashes them into ``stats_digest``:

- ``sweep``: killed workers, raised exceptions, hangs, a pool
  initializer that dies and a journal append hitting ENOSPC, then a torn
  and bit-flipped journal the healing run must resume from;
- ``group``: a worker kill against a mid-group member of the grouped
  (decode once, evaluate N) path, then a mid-group abort whose resume
  must re-run only the unfinished members;
- ``figures``: a worker kill mid ``fig8`` regeneration, gated on
  byte-identical artifacts;
- ``store``: truncated and bit-flipped artifact-store entries plus a
  stale single-flight lock from a dead process;
- ``dist``: a worker daemon SIGKILLed mid-unit, a journal segment two
  daemons appended concurrently (then torn), and a vanished fleet.

Every row carries a ``fault_fired`` gate backed by evidence the phases
collect (a retried target, a pool rebuild, a ``JOURNAL_DEGRADED`` event,
a quarantine), so a campaign whose faults never fired fails instead of
passing vacuously.

Determinism is the point: a :class:`ChaosPlan` is a pure function of
``(job list, seed, fault kinds)``, so a failing chaos run is exactly
reproducible with the same seed.  Fault injection rides the executors'
attempt hook (installed in pool workers via the pool initializer, and in
the driver for serial/degraded execution); job faults fire on a job's
*first* attempt only, so the retry path -- not luck -- is what heals the
sweep.
"""

import collections
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import shutil
import signal
import socket
import time

from repro.errors import ReproError
from repro.exec.executor import (
    ParallelExecutor,
    SerialExecutor,
    set_attempt_hook,
)
from repro.exec.job import build_job_groups, build_jobs
from repro.exec.retry import (
    RETRY_THEN_SKIP,
    STATUS_FAILED,
    STATUS_RESUMED,
    FailurePolicy,
)
from repro.obs.events import (
    BACKEND_DEGRADED,
    JOB_FAILED,
    JOB_RETRY,
    JOURNAL_DEGRADED,
)
from repro.util.rng import DeterministicRng


class InjectedFault(ReproError):
    """The exception a chaos schedule raises inside a job attempt."""


# ---- fault kinds ------------------------------------------------------

FAULT_WORKER_KILL = "worker-kill"          # SIGKILL the worker process
FAULT_JOB_EXCEPTION = "job-exception"      # raise InjectedFault
FAULT_HANG = "hang"                        # sleep past the timeout
FAULT_JOURNAL_TRUNCATE = "journal-truncate"  # tear the journal tail
FAULT_JOURNAL_BITFLIP = "journal-bitflip"    # flip one stored digit
FAULT_POOL_INIT = "pool-init-failure"      # first pool's initializer dies
FAULT_JOURNAL_ENOSPC = "journal-enospc"    # journal append raises ENOSPC

JOB_FAULTS = (FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG)
JOURNAL_FAULTS = (FAULT_JOURNAL_TRUNCATE, FAULT_JOURNAL_BITFLIP)
#: Infrastructure faults: not tied to one job.  ``pool-init-failure``
#: breaks the first worker pool while it is still being populated (the
#: rebuild must heal it); ``journal-enospc`` makes a mid-sweep journal
#: append raise ``OSError(ENOSPC)`` (the sweep must finish unjournaled).
INFRA_FAULTS = (FAULT_POOL_INIT, FAULT_JOURNAL_ENOSPC)
ALL_FAULTS = JOB_FAULTS + JOURNAL_FAULTS + INFRA_FAULTS

#: Attempts the retry-then-skip policy grants every campaign job.
MAX_ATTEMPTS = 4
#: Heartbeat age past which the dist driver declares a worker host dead.
LEASE_TIMEOUT = 1.0


class ChaosPlan:
    """A seeded, picklable fault schedule (the executors' attempt hook).

    ``job_faults`` maps job_id -> fault kind, fired on that job's first
    attempt only.  The plan records the driver's pid so a worker-kill
    fault never kills the driver itself: executed in-process (serial
    backend or degraded pool) it downgrades to an :class:`InjectedFault`.
    """

    def __init__(self, seed, job_faults, hang_seconds=2.0,
                 journal_faults=(), infra_faults=()):
        self.seed = seed
        self.job_faults = dict(job_faults)
        self.hang_seconds = hang_seconds
        self.journal_faults = tuple(journal_faults)
        self.infra_faults = tuple(infra_faults)
        self.init_sentinel = None
        self.init_slots = 0
        self.driver_pid = os.getpid()

    def fault_for(self, job, attempt):
        """The fault to fire for this attempt (None for no fault).

        Keys in ``job_faults`` may be job_ids or ``benchmark/policy``
        pairs -- the latter lets a campaign target a grid cell without
        precomputing its configuration-dependent job_id.  Grouped
        execution keeps this targeting surface: the executors fire the
        attempt hook once per *member* evaluation, so a fault keyed by a
        member's job_id or cell lands inside whichever grouped job
        carries it.
        """
        if attempt != 1:
            return None
        kind = self.job_faults.get(job.job_id)
        if kind is None:
            kind = self.job_faults.get("%s/%s"
                                       % (job.benchmark, job.policy))
        return kind

    def arm_init_fault(self, sentinel_dir, workers):
        """Arm ``pool-init-failure`` for a pool of ``workers``.

        The first ``workers`` initializers -- the whole first pool --
        each claim one slot file in ``sentinel_dir`` and raise, so that
        pool breaks before any worker can run a job, however few groups
        the grid has; every later initializer finds the slots taken and
        succeeds.  A worker the rebuild kills before its initializer ran
        leaves its slot to the rebuilt pool, which then breaks once more
        (within ``MAX_POOL_REBUILDS``)."""
        os.makedirs(sentinel_dir, exist_ok=True)
        self.init_sentinel = sentinel_dir
        self.init_slots = workers

    def init_fault(self):
        """Fire the armed pool-initializer fault (worker side)."""
        if (FAULT_POOL_INIT not in self.infra_faults
                or self.init_sentinel is None):
            return
        for slot in range(self.init_slots):
            try:
                open(os.path.join(self.init_sentinel, str(slot)),
                     "x").close()
            except FileExistsError:
                continue
            raise InjectedFault("injected pool-initializer failure "
                                "(first pool only)")

    def __call__(self, job, attempt):
        kind = self.fault_for(job, attempt)
        if kind is None:
            return
        if kind == FAULT_WORKER_KILL:
            if os.getpid() == self.driver_pid:
                raise InjectedFault(
                    "worker-kill downgraded to exception in-process "
                    "(job %s)" % job.job_id)
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == FAULT_HANG:
            time.sleep(self.hang_seconds)
            raise InjectedFault(
                "hang outlived its %.2fs sleep without being timed out "
                "(job %s)" % (self.hang_seconds, job.job_id))
        elif kind == FAULT_JOB_EXCEPTION:
            raise InjectedFault("injected exception (job %s, attempt %d)"
                                % (job.job_id, attempt))


def _not_injected(record):
    """Logging filter: False for a record of an :class:`InjectedFault`."""
    return not (record.exc_info
                and isinstance(record.exc_info[1], InjectedFault))


def _install_in_worker(plan):
    """Pool initializer: arm the plan in a freshly forked worker.

    Also the injection point for ``pool-init-failure``: the raise
    happens here, while the pool is still being populated, which is the
    exact window a real initializer bug (bad import, missing mount)
    would hit.  ``concurrent.futures`` logs a failed initializer's
    traceback at CRITICAL; the worker's logger drops that record for the
    injected fault only, so a healed campaign prints none, while any
    other initializer exception is still logged.
    """
    logging.getLogger("concurrent.futures").addFilter(_not_injected)
    set_attempt_hook(plan)
    plan.init_fault()


def build_plan(jobs, seed, faults=ALL_FAULTS, hang_seconds=2.0):
    """Derive the deterministic fault schedule for ``jobs``.

    Each requested job-fault kind is assigned to one distinct job,
    chosen by a named RNG stream off ``seed`` -- same inputs, same
    schedule, on every machine.  Asking for more job faults than there
    are jobs is an error: the surplus faults could never fire.
    """
    unknown = set(faults) - set(ALL_FAULTS)
    if unknown:
        raise ReproError("unknown fault kind(s): %s (expected %s)"
                         % (", ".join(sorted(unknown)),
                            ", ".join(ALL_FAULTS)))
    requested = [kind for kind in JOB_FAULTS if kind in faults]
    if len(requested) > len(jobs):
        raise ReproError("%d job fault(s) requested (%s) but the grid has "
                         "only %d job(s); each job fault needs a job of "
                         "its own" % (len(requested), ", ".join(requested),
                                      len(jobs)))
    rng = DeterministicRng(seed).stream("chaos.targets")
    available = [job.job_id for job in jobs]
    job_faults = {}
    for kind in requested:
        job_faults[available.pop(rng.randrange(len(available)))] = kind
    journal_faults = tuple(k for k in JOURNAL_FAULTS if k in faults)
    infra_faults = tuple(k for k in INFRA_FAULTS if k in faults)
    return ChaosPlan(seed, job_faults, hang_seconds=hang_seconds,
                     journal_faults=journal_faults,
                     infra_faults=infra_faults)


def corrupt_journal(path, faults, seed):
    """Apply the journal faults to ``path``; returns what was done.

    ``journal-truncate`` replays a mid-write kill: the final record is
    cut in half.  ``journal-bitflip`` replays silent media corruption:
    one digit somewhere in a seed-chosen record gets its low bit
    flipped -- the payload may stay syntactically valid JSON, which is
    exactly the case only the CRC32 field can catch.
    """
    applied = []
    if not os.path.exists(path):
        return applied
    rng = DeterministicRng(seed).stream("chaos.journal")
    if FAULT_JOURNAL_TRUNCATE in faults:
        with open(path, "rb") as handle:
            data = handle.read()
        stripped = data.rstrip(b"\n")
        line_start = stripped.rfind(b"\n") + 1
        line_len = len(stripped) - line_start
        if line_len > 2:
            cut = line_start + line_len // 2
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            applied.append("truncated final record to %d of %d bytes"
                           % (line_len // 2, line_len))
    if FAULT_JOURNAL_BITFLIP in faults:
        with open(path) as handle:
            lines = handle.read().splitlines()
        if lines:
            target = rng.randrange(len(lines))
            line = lines[target]
            digits = [i for i, ch in enumerate(line) if ch.isdigit()]
            if digits:
                at = digits[rng.randrange(len(digits))]
                lines[target] = (line[:at] + chr(ord(line[at]) ^ 1)
                                 + line[at + 1:])
                with open(path, "w") as handle:
                    handle.write("\n".join(lines) + "\n")
                applied.append("flipped low bit of byte %d in record %d"
                               % (at, target))
    return applied


def _enospc_journal(path, fail_at=2):
    """A ``JobJournal`` whose ``fail_at``-th append raises ``ENOSPC``.

    Replays a full disk mid-sweep.  Only that one append raises: the
    executor is expected to drop the journal on the first ``OSError``
    (emitting ``JOURNAL_DEGRADED``) and finish the sweep from memory,
    so a later append would be a bug, not a heal.
    """
    import errno

    from repro.sim.checkpoint import JobJournal

    class EnospcJournal(JobJournal):
        def __init__(self, journal_path):
            super().__init__(journal_path)
            self._appends = 0

        def record(self, job, result):
            self._appends += 1
            if self._appends == fail_at:
                raise OSError(errno.ENOSPC,
                              "injected: no space left on device")
            return super().record(job, result)

    return EnospcJournal(path)


def result_digest(result):
    """sha256 over everything a run asserts: cycles, IPC inputs, stats."""
    payload = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stats": result.stats.as_dict(),
        "miss_rates": dict(result.miss_summary),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _digests(results):
    """``{job_id: digest}`` for an executor's ``{job: RunResult}``."""
    return {job.job_id: result_digest(result)
            for job, result in results.items()}


# ---- the report --------------------------------------------------------

@dataclasses.dataclass
class ChaosReport:
    """Outcome of one campaign -- the same shape for every row."""

    campaign: str
    identical: bool         # no mismatch, no failure, every gate held
    seed: int
    benchmarks: tuple
    policies: tuple
    total_jobs: int
    injected: dict          # target -> fault kind
    attempts: dict          # job_id -> most attempts any phase needed
    failures: list          # JobResult dicts for terminal failures
    mismatches: list        # "phase:key" whose digest diverged/went missing
    notes: list             # what the fault phases did, in order
    counters: dict          # evidence name -> int
    gates: dict             # gate name -> bool
    stats_digest: str       # sha256 over every produced digest, in order
    kind: str = "chaos"

    def as_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = ["chaos campaign %s: seed=%d, %d benchmark(s) x %d "
                 "policies, %d job(s)"
                 % (self.campaign, self.seed, len(self.benchmarks),
                    len(self.policies), self.total_jobs)]
        lines.append("  injected: %s" % (
            ", ".join("%s->%s" % (kind, target)
                      for target, kind in sorted(self.injected.items(),
                                                 key=lambda kv: kv[1]))
            or "none"))
        lines.extend("  %s" % note for note in self.notes)
        retried = sum(1 for n in self.attempts.values() if n > 1)
        lines.append("  %d job(s) retried" % retried)
        if self.counters:
            lines.append("  counters: " + ", ".join(
                "%s=%d" % item for item in sorted(self.counters.items())))
        lines.append("  gates: " + ", ".join(
            "%s %s" % (name, "ok" if held else "FAILED")
            for name, held in self.gates.items()))
        if self.failures:
            lines.append("  TERMINAL FAILURES: %s" % self.failures)
        lines.append("  stats digest: %s" % self.stats_digest)
        failed_gates = [name for name, held in self.gates.items()
                        if not held]
        lines.append("verdict: %s" % (
            "bit-identical to the fault-free serial run"
            if self.identical else
            "DIVERGED from the fault-free serial run: %s"
            % (self.mismatches or failed_gates or "(terminal failures)")))
        return "\n".join(lines)


# ---- the shared runner -------------------------------------------------

class _Run:
    """One campaign in flight: inputs for its phases, evidence for its
    report.  Phases append to ``injected``/``notes`` and fill
    ``counters``/``gates``; :meth:`settle` folds executor outcomes in."""

    def __init__(self, benchmarks, policies, jobs, num_instructions,
                 warmup, seed, plan, workers, policy, workdir):
        self.benchmarks = benchmarks
        self.policies = policies
        self.jobs = jobs
        self.job_ids = [job.job_id for job in jobs]
        self.num_instructions = num_instructions
        self.warmup = warmup
        self.seed = seed
        self.plan = plan
        self.workers = workers
        self.policy = policy
        self.workdir = workdir
        self.injected = {}
        self.attempts = {}
        self.failures = []
        self.notes = []
        self.counters = {}
        self.gates = {}

    def path(self, name):
        """``workdir/name``, cleared of whatever an earlier campaign in
        the same workdir left there."""
        path = os.path.join(self.workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
        return path

    def groups(self):
        return build_job_groups(list(self.benchmarks), list(self.policies),
                                num_instructions=self.num_instructions,
                                warmup=self.warmup)

    def count_pool(self, executor):
        """Record a pool's losses as counters; returns its rebuilds."""
        self.counters["pool_rebuilds"] = getattr(executor, "rebuilds", 0)
        self.counters["degraded"] = int(getattr(executor, "degraded",
                                                False))
        return self.counters["pool_rebuilds"]

    def settle(self, executor):
        """Fold one executor run's outcomes into the report."""
        for job_id, outcome in executor.last_outcomes.items():
            self.attempts[job_id] = max(self.attempts.get(job_id, 0),
                                        outcome.attempts)
            if outcome.status == STATUS_FAILED:
                self.failures.append(outcome.as_dict())


@contextlib.contextmanager
def _armed(plan, workers):
    """Arm ``plan`` in this process and in every pool worker; yields a
    pool executor for ``workers > 1``, else a serial one."""
    previous = set_attempt_hook(plan)
    try:
        if workers > 1:
            executor = ParallelExecutor(workers,
                                        initializer=_install_in_worker,
                                        initargs=(plan,))
        else:
            executor = SerialExecutor()
        with executor:
            yield executor
    finally:
        set_attempt_hook(previous)


def _serial_reference(run):
    return _digests(SerialExecutor().run(run.jobs))


@dataclasses.dataclass(frozen=True)
class Campaign:
    """One row of :data:`CAMPAIGNS`: only what differs between campaigns.

    ``phases(run)`` injects the faults, records evidence on ``run`` and
    returns ``[(phase label, {key: digest})]`` -- every result set the
    campaign produced, each diffed against ``reference(run)``.
    """

    benchmarks: tuple       # default grid
    policies: tuple         # () -- the campaign fixes its own policies
    phases: object
    reference: object = _serial_reference
    faults: tuple = ()      # selectable fault kinds (fixed when empty)
    timeout: float = None   # default per-attempt budget, seconds
    min_grid: tuple = (1, 1)   # (benchmarks, policies) the phases need
    why: str = ""


def run_campaign(campaign="sweep", benchmarks=None, policies=None,
                 num_instructions=1500, warmup=750, seed=0, faults=None,
                 workers=2, hang_seconds=2.0, timeout=None, workdir=None):
    """Run one row of :data:`CAMPAIGNS`; returns a :class:`ChaosReport`.

    ``None`` for ``benchmarks``, ``policies``, ``faults`` or ``timeout``
    takes the row's default.  Raises :class:`ReproError` before any
    simulation for an unknown campaign, an undersized grid or a fault
    request the row cannot honour.
    """
    row = CAMPAIGNS.get(campaign)
    if row is None:
        raise ReproError("unknown campaign %r (choose from %s)"
                         % (campaign, ", ".join(CAMPAIGNS)))
    if policies and not row.policies:
        raise ReproError("campaign %s fixes its own policies; -p/--policy "
                         "does not apply" % campaign)
    if faults is not None and not row.faults:
        raise ReproError("campaign %s injects a fixed fault schedule; "
                         "--faults applies only to the sweep campaign"
                         % campaign)
    benchmarks = tuple(benchmarks or row.benchmarks)
    policies = tuple(policies or row.policies)
    min_benchmarks, min_policies = row.min_grid
    if len(benchmarks) < min_benchmarks or (
            row.policies and len(policies) < min_policies):
        raise ReproError("campaign %s needs >= %d benchmark(s) and >= %d "
                         "policies: %s" % (campaign, min_benchmarks,
                                           min_policies, row.why))
    faults = tuple(row.faults if faults is None else faults)
    if row.faults and not faults:
        raise ReproError("campaign %s needs at least one fault kind"
                         % campaign)
    jobs = build_jobs(list(benchmarks), list(policies),
                      num_instructions=num_instructions, warmup=warmup)
    plan = (build_plan(jobs, seed, faults, hang_seconds=hang_seconds)
            if faults else None)

    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-chaos-%s-" % campaign)
    os.makedirs(workdir, exist_ok=True)
    policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=MAX_ATTEMPTS,
                           timeout=row.timeout if timeout is None
                           else timeout,
                           backoff_base=0.01, backoff_max=0.05,
                           jitter_seed=seed)
    run = _Run(benchmarks, policies, jobs, num_instructions, warmup, seed,
               plan, workers, policy, workdir)
    reference = row.reference(run)
    produced = row.phases(run)

    mismatches = []
    digests = []
    for label, results in produced:
        for key, want in reference.items():
            got = results.get(key)
            if got is not None:
                digests.append(got)
            if got != want:
                mismatches.append("%s:%s" % (label, key))
    return ChaosReport(
        campaign=campaign,
        identical=(not mismatches and not run.failures
                   and all(run.gates.values())),
        seed=seed,
        benchmarks=run.benchmarks,
        policies=run.policies,
        total_jobs=len(run.job_ids),
        injected=run.injected,
        attempts=run.attempts,
        failures=run.failures,
        mismatches=mismatches,
        notes=run.notes,
        counters=run.counters,
        gates=run.gates,
        stats_digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
    )


# ---- sweep: job faults, infra faults, journal corruption ---------------

def _sweep_phases(run):
    """Run the grid with the seeded faults armed against a journal, tear
    and flip the journal, then heal serially by resuming from it --
    quarantined and lost records must re-simulate, the rest resume."""
    from repro.obs import MemorySink, Tracer
    from repro.sim.checkpoint import JobJournal

    plan = run.plan
    journal_path = run.path("chaos.journal")
    run.path("chaos.journal.rej")   # and its quarantine sidecar
    if FAULT_POOL_INIT in plan.infra_faults:
        plan.arm_init_fault(run.path("pool-init"), run.workers)
    if FAULT_JOURNAL_ENOSPC in plan.infra_faults:
        journal = _enospc_journal(journal_path)
    else:
        journal = JobJournal(journal_path)
    run.injected.update(plan.job_faults)
    sink = MemorySink()
    tracer = Tracer([sink])
    with _armed(plan, run.workers) as executor:
        executor.run(run.jobs, journal=journal, tracer=tracer,
                     failure_policy=run.policy)
        run.settle(executor)
        rebuilds = run.count_pool(executor)
    faulted_attempts = dict(run.attempts)

    corruption = corrupt_journal(journal_path, plan.journal_faults,
                                 run.seed)
    run.notes.extend("journal: %s" % note for note in corruption)
    journal = JobJournal(journal_path)
    healer = SerialExecutor()
    final = healer.run(run.jobs, journal=journal, tracer=tracer,
                       failure_policy=run.policy)
    run.settle(healer)

    events = collections.Counter(event.kind for event in sink.events)
    resumed = sum(1 for outcome in healer.last_outcomes.values()
                  if outcome.status == STATUS_RESUMED)
    if events[JOURNAL_DEGRADED]:
        run.notes.append("journal degraded mid-sweep (%d event(s)): "
                         "append failed, run finished unjournaled"
                         % events[JOURNAL_DEGRADED])
    run.counters.update(
        retry_events=events[JOB_RETRY], failed_events=events[JOB_FAILED],
        degraded_events=events[BACKEND_DEGRADED],
        journal_degraded_events=events[JOURNAL_DEGRADED],
        quarantined=journal.quarantined_lines, resumed=resumed,
        reexecuted=len(run.jobs) - resumed)

    fired = {kind: faulted_attempts.get(job_id, 0) > 1
             for job_id, kind in plan.job_faults.items()}
    fired[FAULT_JOURNAL_TRUNCATE] = any(
        note.startswith("truncated") for note in corruption)
    fired[FAULT_JOURNAL_BITFLIP] = any(
        note.startswith("flipped") for note in corruption)
    fired[FAULT_POOL_INIT] = rebuilds >= 1
    fired[FAULT_JOURNAL_ENOSPC] = events[JOURNAL_DEGRADED] >= 1
    requested = (tuple(plan.job_faults.values()) + plan.journal_faults
                 + plan.infra_faults)
    silent = [kind for kind in requested if not fired[kind]]
    if silent:
        run.notes.append("never fired: %s" % ", ".join(silent))
    run.gates["fault_fired"] = not silent
    return [("heal", _digests(final))]


# ---- group: mid-group kill, exact resume -------------------------------

def _group_phases(run):
    """Grouped path under a mid-group member fault, twice.

    1. *Worker kill*: the grouped sweep runs on the pool with a
       ``worker-kill`` armed against the victim member (second policy of
       the first group).  A killed worker never charges an attempt, so
       the pool keeps dying until the executor degrades to in-process
       execution, where the kill downgrades to an :class:`InjectedFault`
       the retry policy heals.
    2. *Mid-group abort*: the grouped sweep runs serially under
       fail-fast with an exception armed against the same member; the
       abort leaves a journal holding exactly the members finished
       before it.  Resuming from it must re-run **only** the unfinished
       members (the ``resume_exact`` gate).
    """
    from repro.sim.checkpoint import JobJournal

    groups = run.groups()
    victim_index = 1   # second member: mid-group, never the first
    victim = groups[0].member_jobs[victim_index].job_id
    cell = "%s/%s" % (run.benchmarks[0], run.policies[victim_index])
    run.injected["%s (pool)" % cell] = FAULT_WORKER_KILL
    run.injected["%s (mid-group)" % cell] = FAULT_JOB_EXCEPTION

    with _armed(ChaosPlan(run.seed, {victim: FAULT_WORKER_KILL}),
                run.workers) as executor:
        killed = executor.run(
            groups, journal=JobJournal(run.path("group-kill.journal")),
            failure_policy=run.policy)
        run.settle(executor)
        rebuilds = run.count_pool(executor)
    kill_fired = rebuilds >= 1 or run.attempts.get(victim, 0) > 1

    resume_path = run.path("group-resume.journal")
    aborted = False
    with _armed(ChaosPlan(run.seed, {victim: FAULT_JOB_EXCEPTION}),
                1) as executor:
        try:
            executor.run(groups, journal=JobJournal(resume_path),
                         failure_policy=FailurePolicy())
        except InjectedFault:
            aborted = True
    journaled = set(JobJournal(resume_path).completed_ids)
    expected = {member.job_id for member
                in groups[0].member_jobs[:victim_index]}

    healer = SerialExecutor()
    final = healer.run(groups, journal=JobJournal(resume_path),
                       failure_policy=run.policy)
    run.settle(healer)
    resumed = {job_id for job_id, outcome in healer.last_outcomes.items()
               if outcome.status == STATUS_RESUMED}
    reexecuted = set(healer.last_outcomes) - resumed
    run.counters.update(journaled_before_kill=len(journaled),
                        resumed=len(resumed), reexecuted=len(reexecuted))
    run.gates["fault_fired"] = kill_fired and aborted
    run.gates["resume_exact"] = (
        journaled == expected and resumed == journaled
        and reexecuted == set(run.job_ids) - journaled)
    return [("pool", _digests(killed)), ("resume", _digests(final))]


# ---- figures: worker kill mid-regeneration -----------------------------

def _artifact_digests(summary):
    digests = {}
    for name, path in summary["artifact_paths"].items():
        with open(path, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _regenerate_fig8(run, out, **kwargs):
    from repro.experiments.figures import run_figures

    return run_figures(("fig8",), run.path(out),
                       num_instructions=run.num_instructions,
                       warmup=run.warmup, benchmarks=run.benchmarks,
                       **kwargs)


def _figures_reference(run):
    """Serial ``fig8``; its manifest names the jobs fig8 really runs."""
    summary = _regenerate_fig8(run, "reference", jobs=1)
    jobs = summary["entries"][0]["jobs"]
    run.job_ids = sorted(job["job_id"] for job in jobs)
    run.policies = tuple(sorted({job["policy"] for job in jobs}))
    return _artifact_digests(summary)


def _figures_phases(run):
    """Regenerate ``fig8`` on the pool with a worker kill armed against
    one of its own jobs (seed-chosen from the reference manifest, so the
    target always exists); artifacts must come back byte-identical."""
    rng = DeterministicRng(run.seed).stream("chaos.targets")
    target = run.job_ids[rng.randrange(len(run.job_ids))]
    run.injected[target] = FAULT_WORKER_KILL
    with _armed(ChaosPlan(run.seed, {target: FAULT_WORKER_KILL}),
                run.workers) as executor:
        faulted = _regenerate_fig8(run, "faulted", executor=executor,
                                   failure_policy=run.policy)
        rebuilds = run.count_pool(executor)
    for job in faulted["entries"][0]["jobs"]:
        run.attempts[job["job_id"]] = job["attempts"]
        if job["status"] == STATUS_FAILED:
            run.failures.append(job)
    run.gates["fault_fired"] = (rebuilds >= 1
                                or run.attempts.get(target, 0) > 1)
    return [("faulted", _artifact_digests(faulted))]


# ---- store: torn entry, flipped bit, stale lock ------------------------

def _exit_immediately():
    """Target whose prompt death leaves a provably-dead lock owner pid."""


def _store_phases(run):
    """Populate a store cold, sabotage one job's entries, heal.

    All serial: the store's cross-process behaviour is exercised through
    real files, not a pool.  The victim's result line gets a flipped
    bit (forcing a re-simulation), its trace entry is truncated (forcing
    regeneration) and a single-flight lock with a dead owner pid is
    planted on that trace.  The heal run must quarantine both, break
    the lock and serve every other job from the result tier.
    """
    import multiprocessing

    from repro.exec.cache import TraceCache
    from repro.exec.store import ArtifactStore, set_active_store

    store_dir = run.path("store")

    def run_jobs(store):
        previous = set_active_store(store)
        try:
            executor = SerialExecutor(cache=TraceCache())
            results = executor.run(run.jobs, failure_policy=run.policy)
        finally:
            set_active_store(previous)
        run.settle(executor)
        return executor, results

    populate_store = ArtifactStore(store_dir)
    _, populated = run_jobs(populate_store)

    victim = run.jobs[0]
    trace_entry = populate_store.trace_name(
        victim.benchmark, victim.trace_length, victim.seed)
    trace_path = os.path.join(store_dir, "traces", trace_entry)
    with open(trace_path, "r+b") as handle:
        handle.truncate(max(os.path.getsize(trace_path) // 3, 40))
    result_path, at, length = populate_store._index.entries[victim.job_id]
    at += length // 2   # the middle of the victim's line
    with open(result_path, "r+b") as handle:
        handle.seek(at)
        flipped = handle.read(1)[0] ^ 0x01
        handle.seek(at)
        handle.write(bytes([flipped]))
    proc = multiprocessing.Process(target=_exit_immediately)
    proc.start()
    proc.join()
    lock_path = os.path.join(store_dir, "locks",
                             "traces-%s.lock" % trace_entry)
    with open(lock_path, "w") as handle:
        # Recording our own hostname keeps the pid-liveness check in
        # play: locks from *foreign* hosts age out instead (their pids
        # mean nothing here), which is its own satellite-tested path.
        json.dump({"pid": proc.pid, "host": socket.gethostname(),
                   "created": time.time()}, handle)
    run.injected.update({trace_entry: "entry-truncate",
                         "result:" + victim.job_id: "entry-bitflip",
                         os.path.basename(lock_path): "stale-lock"})

    heal_store = ArtifactStore(store_dir)
    healer, healed = run_jobs(heal_store)
    store_hits = sum(1 for outcome in healer.last_outcomes.values()
                     if outcome.store_hit)
    quarantined = heal_store.counters["quarantined"]
    lock_breaks = heal_store.counters["lock_breaks"]
    run.counters.update(quarantined=quarantined, lock_breaks=lock_breaks,
                        store_hits=store_hits,
                        regenerated=len(run.jobs) - store_hits)
    run.gates.update({
        "fault_fired": quarantined >= 1,
        "quarantined>=2": quarantined >= 2,
        "lock_breaks>=1": lock_breaks >= 1,
        "store_hits==total_jobs-1": store_hits == len(run.jobs) - 1,
    })
    return [("populate", _digests(populated)), ("heal", _digests(healed))]


# ---- dist: host death, split journal, vanished fleet -------------------

def _dist_worker_main(spool, host_id, die_after=None):
    """Child-process entry for the dist campaign's worker daemons.

    ``die_after=N`` SIGKILLs the process right after its Nth journal
    append -- mid-unit by construction when units are multi-member
    groups -- which is exactly the host-death fault: the lease is left
    behind with a heartbeat that will never refresh again.
    """
    from repro.exec import dist

    state = {"records": 0}

    def on_record(member, result):
        state["records"] += 1
        if state["records"] >= die_after:
            os.kill(os.getpid(), signal.SIGKILL)

    dist.run_worker(spool, host_id=host_id, poll=0.05,
                    lease_timeout=LEASE_TIMEOUT,
                    on_record=on_record if die_after is not None
                    else None)


def _dist_phases(run):
    """Three fault phases over real worker processes and spools.

    1. *Host death*: a victim worker claims a group, journals exactly
       one member and SIGKILLs itself; a survivor plus the driver must
       detect the expired lease (``HOST_LOST``), re-claim the unit, skip
       the member the victim already published, and finish -- every
       member executed *exactly once* across all journal segments.
    2. *Split journal*: two daemons share one ``--host-id`` so their
       appends interleave in a single segment, which then gets a torn
       partial record appended.  Opening it as a journal (one poll of
       its index) must log exactly the tear, in place, and a serial heal
       run must resume every member from it.
    3. *Degrade to local*: a driver over an empty spool with no workers
       must degrade to in-process execution.
    """
    import multiprocessing

    from repro.exec import dist
    from repro.sim.checkpoint import JobJournal, SegmentIndex

    groups = run.groups()
    member_ids = set(run.job_ids)

    def reap(proc, timeout=60):
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()

    def drive(spool, workers, degrade_after=120.0):
        for worker in workers:
            worker.start()
        driver = dist.DistExecutor(spool, poll=0.05,
                                   lease_timeout=LEASE_TIMEOUT,
                                   degrade_after=degrade_after)
        try:
            results = driver.run(groups, failure_policy=run.policy)
        finally:
            if workers:
                dist.request_stop(spool)
            for worker in workers:
                reap(worker)
        run.settle(driver)
        return driver, results

    def worker(spool, host_id, **kwargs):
        return multiprocessing.Process(target=_dist_worker_main,
                                       args=(spool, host_id), kwargs=kwargs)

    # Phase 1: host death.
    spool_death = run.path("spool-death")
    dist.ensure_spool(spool_death)
    dist.spool_jobs(spool_death, groups)
    victim = worker(spool_death, "victim", die_after=1)
    victim.start()
    reap(victim)   # it SIGKILLs itself after its first journal append
    run.injected["victim"] = "host-death"
    driver, death_results = drive(spool_death,
                                  [worker(spool_death, "survivor")])
    counts = collections.Counter()
    victim_records = 0
    index = SegmentIndex()
    for host_id, path in dist.segments(spool_death):
        journaled = index.poll([path])   # every sound line's job_id
        counts.update(journaled)
        if host_id == "victim":
            victim_records = len(journaled)
    duplicates = sorted(job_id for job_id, n in counts.items() if n > 1)
    if duplicates:
        run.notes.append("executed more than once: %s"
                         % ", ".join(duplicates))

    # Phase 2: split journal.
    spool_split = run.path("spool-split")
    dist.ensure_spool(spool_split)
    _, split_results = drive(spool_split, [worker(spool_split, "shared"),
                                           worker(spool_split, "shared")])
    segment = dist.segment_path(spool_split, "shared")
    with open(segment, "ab") as handle:
        # A mid-write kill: valid prefix of a record, no newline.
        handle.write(b'{"journal_version": 2, "job_id": "torn-wri')
    run.injected["shared.journal"] = "torn-append"
    journal = JobJournal(segment)   # logs the tear, rewrites nothing
    split_quarantined = journal.quarantined_lines
    healer = SerialExecutor()
    healed = healer.run(run.jobs, journal=journal,
                        failure_policy=run.policy)
    run.settle(healer)
    split_resumed = sum(1 for outcome in healer.last_outcomes.values()
                        if outcome.status == STATUS_RESUMED)

    # Phase 3: degrade to local.
    run.injected["fleet"] = "vanished"
    local, local_results = drive(run.path("spool-local"), [],
                                 degrade_after=0.3)

    run.counters.update(host_losses=driver.host_losses,
                        lease_breaks=driver.lease_breaks,
                        victim_records=victim_records,
                        duplicates=len(duplicates),
                        split_records=len(journal),
                        split_quarantined=split_quarantined,
                        split_resumed=split_resumed,
                        degraded=int(local.degraded))
    run.gates.update({
        "fault_fired": (driver.host_losses >= 1 and split_quarantined >= 1
                        and local.degraded),
        "victim_records>=1": victim_records >= 1,
        "exactly_once": set(counts) == member_ids and not duplicates,
        "split_quarantined==1": split_quarantined == 1,
        "split_resumed==total_jobs": split_resumed == len(run.jobs),
    })
    return [("host-death", _digests(death_results)),
            ("split-journal", _digests(split_results)),
            ("split-heal", _digests(healed)),
            ("degrade-to-local", _digests(local_results))]


_POLICIES = ("decrypt-only", "authen-then-commit", "authen-then-issue")

#: Every chaos campaign, by ``repro chaos --campaign`` name.
CAMPAIGNS = {
    "sweep": Campaign(("gzip",), _POLICIES, _sweep_phases,
                      faults=ALL_FAULTS, timeout=0.75),
    "group": Campaign(("gzip", "mcf"), _POLICIES + ("authen-then-write",),
                      _group_phases, timeout=30.0, min_grid=(1, 3),
                      why="the fault must land mid-group, after the "
                          "first member and before the last"),
    "figures": Campaign(("gzip", "mcf"), (), _figures_phases,
                        reference=_figures_reference, timeout=30.0),
    "store": Campaign(("gzip", "mcf"), _POLICIES, _store_phases),
    "dist": Campaign(("gzip", "mcf"), _POLICIES, _dist_phases,
                     min_grid=(2, 2),
                     why="the survivor must have work while the victim "
                         "dies, and the victim must die mid-group"),
}
