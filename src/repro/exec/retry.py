"""Failure policies for job execution: retries, backoff, timeouts.

A sweep is only as reliable as its flakiest job: one OOM-killed worker,
hung trace or transient exception used to abort a multi-hour grid.  A
:class:`FailurePolicy` tells the executors what to do instead:

- ``fail-fast`` (the default, and the pre-existing behaviour): the first
  terminal error propagates and aborts the run.
- ``skip-and-report``: the failing job is dropped from the result set
  and recorded as a failed :class:`JobResult`; the sweep continues.
- ``retry-then-skip``: the job is retried up to ``max_attempts`` times
  with exponential backoff plus *deterministic* jitter (derived from the
  job_id, so reruns sleep the same schedule), then skipped and reported.

Every job -- succeeded, resumed from a journal, or failed -- gets a
:class:`JobResult` recording its attempts, wall time and terminal error;
executors expose them as ``executor.last_outcomes`` and sweeps persist
the attempt counts into their manifests.
"""

import dataclasses
import hashlib
import signal
import threading
import time
from contextlib import contextmanager

from repro.errors import ConfigError, JobTimeoutError

# ---- policy modes -----------------------------------------------------

FAIL_FAST = "fail-fast"
SKIP_AND_REPORT = "skip-and-report"
RETRY_THEN_SKIP = "retry-then-skip"

MODES = (FAIL_FAST, SKIP_AND_REPORT, RETRY_THEN_SKIP)

# ---- job outcome statuses ---------------------------------------------

STATUS_OK = "ok"            # simulated in this run
STATUS_RESUMED = "resumed"  # rebuilt from the checkpoint journal
STATUS_FAILED = "failed"    # exhausted the failure policy


@dataclasses.dataclass(frozen=True)
class FailurePolicy:
    """What an executor does when a job attempt raises or hangs.

    ``timeout`` bounds one *attempt* in wall-clock seconds (None: no
    bound).  ``max_attempts`` only matters in ``retry-then-skip`` mode;
    the other modes always use a single attempt.  Backoff before retry
    ``k`` is ``backoff_base * backoff_factor**(k-1)`` capped at
    ``backoff_max``, plus up to ``jitter`` of itself derived from
    ``(jitter_seed, job_id, attempt)`` -- deterministic, so two runs of
    the same failing sweep sleep identically.
    """

    mode: str = FAIL_FAST
    max_attempts: int = 3
    timeout: float = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    jitter_seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError("unknown failure mode %r (expected one of "
                              "%s)" % (self.mode, ", ".join(MODES)))
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("timeout must be positive or None")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")

    def should_retry(self, attempt):
        """True when attempt number ``attempt`` failing allows another."""
        return self.mode == RETRY_THEN_SKIP and attempt < self.max_attempts

    def backoff(self, job_id, attempt):
        """Deterministic delay (seconds) before retrying ``attempt``."""
        delay = min(self.backoff_max,
                    self.backoff_base * self.backoff_factor ** (attempt - 1))
        if self.jitter and delay:
            digest = hashlib.sha256(
                ("%d:%s:%d" % (self.jitter_seed, job_id, attempt)).encode()
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            delay += delay * self.jitter * fraction
        return delay


@dataclasses.dataclass
class JobResult:
    """Per-job execution outcome (success, resume or terminal failure).

    ``attempts`` counts attempts actually started in this run (0 for a
    journal resume); ``wall_time`` spans first attempt to settlement,
    backoff sleeps included; ``error`` is the terminal error's repr
    (None unless ``status`` is failed).

    ``cache_hit``, ``store_hit`` and ``peak_rss_kb`` carry the per-job
    resource accounting measured inside ``iter_group_results`` (None
    when the job never produced a result, e.g. terminal failures or old
    journal records).  Like ``wall_time`` they are *volatile*: backend-,
    machine- and store-state-dependent, so manifest comparisons must
    strip them.
    """

    job_id: str
    status: str = STATUS_OK
    attempts: int = 1
    wall_time: float = 0.0
    error: str = None
    cache_hit: bool = None
    store_hit: bool = None
    peak_rss_kb: int = None

    #: as_dict keys that vary across backends/machines (stripped from
    #: byte-identical manifest comparisons).
    VOLATILE_FIELDS = ("wall_time", "cache_hit", "store_hit",
                       "peak_rss_kb")

    def as_dict(self):
        return dataclasses.asdict(self)


@contextmanager
def attempt_deadline(seconds):
    """Bound the block to ``seconds`` wall clock via ``SIGALRM``.

    Raises :class:`~repro.errors.JobTimeoutError` when the interval
    timer fires.  Only enforceable on POSIX main threads (the only
    place Python delivers signals); elsewhere -- and for ``seconds``
    None/0 -- the block runs unbounded.  The process-pool backend does
    not need this: it enforces deadlines from the parent by rebuilding
    the pool around a hung worker.

    Nestable: a pre-existing ``ITIMER_REAL`` timer (an outer deadline)
    is captured from ``setitimer``'s return value and re-armed on exit
    with whatever budget it has left, so an inner deadline never
    silently disarms an outer one.  An outer timer that would already
    have expired is re-armed with an epsilon delay and fires at the
    first opportunity.
    """
    if (not seconds or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expired(signum, frame):
        raise JobTimeoutError(
            "job attempt exceeded %.3fs timeout" % seconds)

    previous = signal.signal(signal.SIGALRM, _expired)
    outer_delay, outer_interval = signal.setitimer(signal.ITIMER_REAL,
                                                   seconds)
    entered = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - entered)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6),
                             outer_interval)
