"""Experiment sweeps: benchmarks x policies through the job pipeline.

A :class:`PolicySweep` describes one benchmark x policy grid, expands it
into one :class:`~repro.exec.job.MultiPolicySimJob` per benchmark --
decode the trace once, evaluate every policy against it through the
shared timestamp kernel -- and hands them to an
:class:`~repro.exec.executor.Executor`: serial by default, or a process
pool via ``run(executor=...)`` / the ``REPRO_JOBS`` env var.  Each
(benchmark, policy) cell journals under its own plain-job job_id.
Results normalise against the decrypt-only baseline (the paper's
Figure 7 presentation) or against authen-then-issue (Figures 8/11/13).
"""

from repro.config import SimConfig
from repro.exec import executor_scope
from repro.exec.job import build_job_groups

BASELINE = "decrypt-only"


class PolicySweep:
    """Run a set of benchmarks under a set of policies."""

    def __init__(self, benchmarks, policies, config=None,
                 num_instructions=20_000, seed=None, warmup=None):
        # Deduped (first occurrence wins): a duplicated benchmark would
        # collapse to one normalized_series entry anyway, and keeping
        # the duplicate used to deflate average_normalized, which
        # divided by the raw list length.
        self.benchmarks = list(dict.fromkeys(benchmarks))
        self.policies = list(policies)
        self.config = config or SimConfig()
        self.num_instructions = num_instructions
        self.warmup = warmup if warmup is not None else num_instructions // 3
        self.seed = seed if seed is not None else self.config.seed
        self.results = {}       # (benchmark, policy) -> RunResult
        self.job_ids = {}       # (benchmark, policy) -> job_id
        self.job_outcomes = {}  # job_id -> JobResult (attempts, status)
        self.executed_policies = list(self.policies)
        self.backend = None     # executor.describe() of the last run

    def policy_order(self, include_baseline=True):
        """Deterministic execution order for the sweep's policies.

        Duplicates are dropped (first occurrence wins) and the baseline,
        when requested and absent, is appended *last* -- always, so the
        order recorded in manifests does not depend on how or when
        ``run`` was called.
        """
        policies = list(dict.fromkeys(self.policies))
        if include_baseline and BASELINE not in policies:
            policies.append(BASELINE)
        return policies

    def jobs(self, include_baseline=True):
        """The sweep's per-cell job list (benchmark-major, deterministic).

        This is the journal-facing view: one :class:`SimJob` id per
        (benchmark, policy) cell -- the members of :meth:`job_groups`.
        """
        return _members(self.job_groups(include_baseline))

    def job_groups(self, include_baseline=True):
        """One grouped job per benchmark covering the whole policy set."""
        return build_job_groups(self.benchmarks,
                                self.policy_order(include_baseline),
                                config=self.config,
                                num_instructions=self.num_instructions,
                                warmup=self.warmup, seed=self.seed)

    def run(self, include_baseline=True, profiler=None, tracer=None,
            executor=None, journal=None, progress=None,
            failure_policy=None, metrics=None):
        """Execute the sweep; returns self for chaining.

        ``executor`` picks the backend (default: serial, or whatever
        ``REPRO_JOBS`` selects); a borrowed executor is left open for
        the caller, a default one is closed.  ``journal`` (a
        :class:`~repro.sim.checkpoint.JobJournal`) makes the sweep
        resumable: completed job_ids are skipped.  ``failure_policy``
        (a :class:`~repro.exec.retry.FailurePolicy`) governs retries,
        timeouts and skip-vs-abort; per-job attempt counts land in
        ``self.job_outcomes`` and the sweep manifest.  Jobs that failed
        terminally under a skipping policy are absent from
        ``self.results`` (see :meth:`failed_jobs`).  ``profiler``
        accumulates phase wall clock over the whole sweep; ``tracer``
        receives per-run events (serial backend only) plus one
        ``JOB_DONE`` progress event per completed job; ``progress`` is
        called as ``progress(job, result, done, total)``; ``metrics``
        (a :class:`~repro.obs.metrics.MetricsRegistry`) receives the
        execution-layer families plus a per-cell
        ``repro_sweep_cells_total{benchmark,policy,status}`` rollup.
        """
        # The cells are the groups' own members, so each job_id is
        # hashed once, where the executor also reads it.
        groups = self.job_groups(include_baseline)
        jobs = _members(groups)
        with executor_scope(executor) as active:
            results = active.run(groups, journal=journal, tracer=tracer,
                                 profiler=profiler, progress=progress,
                                 failure_policy=failure_policy,
                                 metrics=metrics)
            self.backend = active.describe()
            self.job_outcomes.update(active.last_outcomes)
        self.executed_policies = self.policy_order(include_baseline)
        for job in jobs:
            self.job_ids[(job.benchmark, job.policy)] = job.job_id
            if job in results:
                self.results[(job.benchmark, job.policy)] = results[job]
        if metrics is not None and metrics.enabled:
            cells = metrics.counter(
                "repro_sweep_cells_total",
                "Sweep grid cells settled, by benchmark, policy and "
                "terminal status", ("benchmark", "policy", "status"))
            for job in jobs:
                outcome = self.job_outcomes.get(job.job_id)
                if outcome is not None:
                    cells.labels(job.benchmark, job.policy,
                                 outcome.status).inc()
        return self

    def failed_jobs(self):
        """``{(benchmark, policy): JobResult}`` for terminal failures."""
        from repro.exec.retry import STATUS_FAILED

        failed = {}
        for key, job_id in self.job_ids.items():
            outcome = self.job_outcomes.get(job_id)
            if outcome is not None and outcome.status == STATUS_FAILED:
                failed[key] = outcome
        return failed

    def write_manifest(self, path, profiler=None):
        """Write the sweep's JSON manifest (see repro.obs.export)."""
        from repro.obs.export import build_sweep_manifest, write_json

        return write_json(build_sweep_manifest(self, profiler=profiler),
                          path)

    def write_csv(self, path, baseline=BASELINE):
        """Write one CSV row per (benchmark, policy) run."""
        from repro.obs.export import write_sweep_csv

        return write_sweep_csv(self, path, baseline=baseline)

    def ipc(self, benchmark, policy):
        """IPC of one run; raises KeyError if the run is absent."""
        return self.results[(benchmark, policy)].ipc

    def ipc_or_none(self, benchmark, policy):
        """IPC of one run, or None when the job failed terminally under
        a skipping failure policy (absent from ``results``)."""
        result = self.results.get((benchmark, policy))
        return None if result is None else result.ipc

    def normalized(self, benchmark, policy, baseline=BASELINE):
        """IPC of ``policy`` normalised to ``baseline`` for a benchmark.

        None when either run is missing (a terminal failure under
        ``skip-and-report``/``retry-then-skip``); renderers show such
        cells as ``--`` and averages exclude them.
        """
        base = self.ipc_or_none(benchmark, baseline)
        ipc = self.ipc_or_none(benchmark, policy)
        if base is None or ipc is None:
            return None
        return ipc / base if base else 0.0

    def normalized_series(self, policy, baseline=BASELINE):
        """Per-benchmark normalised IPC for one policy (None: failed)."""
        return {
            benchmark: self.normalized(benchmark, policy, baseline)
            for benchmark in self.benchmarks
        }

    def average_normalized(self, policy, baseline=BASELINE):
        """Average over the benchmarks that completed (None: none did)."""
        values = [v for v in self.normalized_series(policy,
                                                    baseline).values()
                  if v is not None]
        if not values:
            return None
        return sum(values) / len(values)


def _members(groups):
    """The per-cell jobs of ``groups``, benchmark-major."""
    return [member for group in groups for member in group.member_jobs]


def normalized_ipc_table(sweep, policies=None, baseline=BASELINE):
    """Rows of (benchmark, {policy: normalized ipc}) plus an average row.

    Cells whose job (or baseline) failed terminally under a skipping
    failure policy hold None -- rendered as ``--`` -- and the average
    row covers only the benchmarks that completed.
    """
    policies = policies or sweep.policies
    rows = []
    for benchmark in sweep.benchmarks:
        rows.append((
            benchmark,
            {p: sweep.normalized(benchmark, p, baseline) for p in policies},
        ))
    rows.append((
        "average",
        {p: sweep.average_normalized(p, baseline) for p in policies},
    ))
    return rows


def speedup_over(sweep, reference, policies=None):
    """Figure 8/11/13 presentation: IPC speedup over ``reference``.

    Returns rows of (benchmark, {policy: speedup}) where speedup is
    ``ipc(policy) / ipc(reference)``.  Cells with a failed run (policy
    or reference) hold None and are excluded from the average row.
    """
    policies = policies or [p for p in sweep.policies if p != reference]
    rows = []
    for benchmark in sweep.benchmarks:
        ref = sweep.ipc_or_none(benchmark, reference)
        cells = {}
        for p in policies:
            ipc = sweep.ipc_or_none(benchmark, p)
            if ref is None or ipc is None:
                cells[p] = None
            else:
                cells[p] = ipc / ref if ref else 0.0
        rows.append((benchmark, cells))
    averages = {}
    for p in policies:
        values = [row[1][p] for row in rows if row[1][p] is not None]
        averages[p] = sum(values) / len(values) if values else None
    rows.append(("average", averages))
    return rows
