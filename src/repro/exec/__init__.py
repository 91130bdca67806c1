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

from repro.exec.cache import GLOBAL_CACHE, TraceCache, cached_trace
from repro.exec.dist import DistExecutor, run_worker
from repro.exec.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_jobs,
    execute_job,
    executor_scope,
    iter_group_results,
    make_executor,
    set_attempt_hook,
)
from repro.exec.job import (
    MultiPolicySimJob,
    SimJob,
    build_job_groups,
    build_jobs,
)
from repro.exec.retry import (
    FAIL_FAST,
    RETRY_THEN_SKIP,
    SKIP_AND_REPORT,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RESUMED,
    FailurePolicy,
    JobResult,
)
from repro.exec.store import (
    ArtifactStore,
    active_store,
    code_fingerprint,
    default_store_path,
    set_active_store,
)

__all__ = [
    "SimJob",
    "MultiPolicySimJob",
    "build_jobs",
    "build_job_groups",
    "execute_job",
    "iter_group_results",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "DistExecutor",
    "run_worker",
    "make_executor",
    "default_jobs",
    "executor_scope",
    "set_attempt_hook",
    "TraceCache",
    "GLOBAL_CACHE",
    "cached_trace",
    "FailurePolicy",
    "JobResult",
    "FAIL_FAST",
    "SKIP_AND_REPORT",
    "RETRY_THEN_SKIP",
    "STATUS_OK",
    "STATUS_RESUMED",
    "STATUS_FAILED",
    "ArtifactStore",
    "active_store",
    "set_active_store",
    "default_store_path",
    "code_fingerprint",
]
