"""Job-based execution layer: config -> job -> executor -> result.

Every experiment in this repository is a Cartesian product of
benchmark x policy x config.  This package gives that product one
pipeline: describe each point as a frozen :class:`SimJob` (or one
benchmark under N policies as a :class:`MultiPolicySimJob`, the unit
every executor runs), and drive whole sets through an
:class:`Executor` -- serial in-process or fanned out over a process
pool -- with optional resume via a
:class:`~repro.sim.checkpoint.JobJournal`.  See
``docs/architecture.md`` ("The execution layer").
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "repro.exec.job": ("SimJob", "MultiPolicySimJob", "build_jobs",
                       "build_job_groups"),
    "repro.exec.executor": ("execute_job", "iter_group_results", "Executor",
                            "SerialExecutor", "ParallelExecutor",
                            "make_executor", "default_jobs",
                            "executor_scope", "set_attempt_hook"),
    "repro.exec.dist": ("DistExecutor", "run_worker"),
    "repro.exec.cache": ("TraceCache", "GLOBAL_CACHE", "cached_trace"),
    "repro.exec.retry": ("FailurePolicy", "JobResult", "FAIL_FAST",
                         "SKIP_AND_REPORT", "RETRY_THEN_SKIP", "STATUS_OK",
                         "STATUS_RESUMED", "STATUS_FAILED"),
    "repro.exec.store": ("ArtifactStore", "active_store", "set_active_store",
                         "default_store_path", "code_fingerprint"),
})
