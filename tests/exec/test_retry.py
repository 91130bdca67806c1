"""Failure-policy tests: retries, timeouts, skip/fail semantics."""

import pytest

from repro.errors import ConfigError, JobTimeoutError
from repro.exec import (
    FAIL_FAST,
    RETRY_THEN_SKIP,
    SKIP_AND_REPORT,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RESUMED,
    FailurePolicy,
    ParallelExecutor,
    SerialExecutor,
    build_job_groups,
    build_jobs,
    set_attempt_hook,
)
from repro.exec.retry import JobResult
from repro.obs import MemorySink, Tracer
from repro.obs.events import JOB_FAILED, JOB_RETRY
from repro.sim.checkpoint import JobJournal

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit"],
                  num_instructions=600, warmup=300)


class Boom(RuntimeError):
    """Deterministic injected failure."""


class FailFirst:
    """Attempt hook: fail the first ``n`` attempts of chosen job_ids."""

    def __init__(self, n, job_ids=None):
        self.n = n
        self.job_ids = set(job_ids) if job_ids is not None else None
        self.calls = []

    def __call__(self, job, attempt):
        if self.job_ids is not None and job.job_id not in self.job_ids:
            return
        self.calls.append((job.job_id, attempt))
        if attempt <= self.n:
            raise Boom("injected failure on attempt %d" % attempt)


@pytest.fixture
def hook():
    """Install-and-restore wrapper around set_attempt_hook."""
    installed = []

    def install(fn):
        installed.append(set_attempt_hook(fn))
        return fn

    yield install
    while installed:
        set_attempt_hook(installed.pop())


class TestFailurePolicyValidation:
    def test_defaults_are_fail_fast_single_attempt(self):
        policy = FailurePolicy()
        assert policy.mode == FAIL_FAST
        assert policy.timeout is None
        assert not policy.should_retry(1)

    @pytest.mark.parametrize("kwargs", [
        {"mode": "never-heard-of-it"},
        {"max_attempts": 0},
        {"timeout": 0},
        {"timeout": -1.0},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FailurePolicy(**kwargs)

    def test_should_retry_only_in_retry_mode_below_cap(self):
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        assert not FailurePolicy(mode=SKIP_AND_REPORT).should_retry(1)


class TestBackoff:
    def test_deterministic_and_bounded(self):
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, backoff_base=0.1,
                               backoff_factor=2.0, backoff_max=0.3,
                               jitter=0.5, jitter_seed=7)
        first = policy.backoff("abc", 1)
        assert first == policy.backoff("abc", 1)  # same inputs, same delay
        assert 0.1 <= first <= 0.15
        # Growth is capped at backoff_max (plus its jitter share).
        assert policy.backoff("abc", 9) <= 0.3 * 1.5
        # Different jobs and attempts jitter differently.
        assert policy.backoff("abc", 2) != policy.backoff("abd", 2)

    def test_zero_jitter_is_pure_exponential(self):
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, backoff_base=0.05,
                               backoff_factor=2.0, backoff_max=10.0,
                               jitter=0.0)
        assert policy.backoff("x", 1) == 0.05
        assert policy.backoff("x", 2) == 0.1
        assert policy.backoff("x", 3) == 0.2


class TestSerialFailurePolicy:
    def test_fail_fast_propagates_and_records(self, hook):
        hook(FailFirst(99, job_ids={JOBS[0].job_id}))
        executor = SerialExecutor()
        with pytest.raises(Boom):
            executor.run(JOBS)
        outcome = executor.last_outcomes[JOBS[0].job_id]
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 1

    def test_skip_and_report_continues_past_failure(self, hook):
        hook(FailFirst(99, job_ids={JOBS[0].job_id}))
        executor = SerialExecutor()
        results = executor.run(
            JOBS, failure_policy=FailurePolicy(mode=SKIP_AND_REPORT))
        assert JOBS[0] not in results
        assert JOBS[1] in results
        assert set(executor.failures) == {JOBS[0].job_id}

    def test_retry_then_skip_heals_transient_failure(self, hook):
        fails = hook(FailFirst(2))
        executor = SerialExecutor()
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=4,
                               backoff_base=0.0, jitter=0.0)
        results = executor.run(JOBS, failure_policy=policy)
        assert set(results) == set(JOBS)
        for job in JOBS:
            outcome = executor.last_outcomes[job.job_id]
            assert outcome.status == STATUS_OK
            assert outcome.attempts == 3
        # Each job saw exactly attempts 1..3.
        for job in JOBS:
            assert [a for j, a in fails.calls if j == job.job_id] == \
                [1, 2, 3]

    def test_retry_exhaustion_skips_and_reports(self, hook):
        hook(FailFirst(99, job_ids={JOBS[0].job_id}))
        sink = MemorySink()
        executor = SerialExecutor()
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=3,
                               backoff_base=0.0, jitter=0.0)
        results = executor.run(JOBS, tracer=Tracer([sink]),
                               failure_policy=policy)
        assert JOBS[0] not in results
        outcome = executor.failures[JOBS[0].job_id]
        assert outcome.attempts == 3
        assert "Boom" in outcome.error
        retries = [e for e in sink.events if e.kind == JOB_RETRY]
        failed = [e for e in sink.events if e.kind == JOB_FAILED]
        assert len(retries) == 2  # attempts 1 and 2 retried, 3 terminal
        assert len(failed) == 1
        assert failed[0].args["job_id"] == JOBS[0].job_id

    def test_timeout_bounds_one_attempt(self, hook):
        def hang(job, attempt):
            if job.job_id == JOBS[0].job_id and attempt == 1:
                import time

                time.sleep(5.0)

        hook(hang)
        executor = SerialExecutor()
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=2,
                               timeout=0.2, backoff_base=0.0, jitter=0.0)
        results = executor.run(JOBS, failure_policy=policy)
        assert set(results) == set(JOBS)  # attempt 2 ran unhindered
        assert executor.last_outcomes[JOBS[0].job_id].attempts == 2

    def test_timeout_exhaustion_is_a_job_timeout_error(self, hook):
        def hang(job, attempt):
            import time

            time.sleep(5.0)

        hook(hang)
        executor = SerialExecutor()
        with pytest.raises(JobTimeoutError):
            executor.run(JOBS[:1],
                         failure_policy=FailurePolicy(timeout=0.2))

    def test_resumed_jobs_report_zero_attempts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(JOBS, journal=JobJournal(path))
        executor = SerialExecutor()
        executor.run(JOBS, journal=JobJournal(path))
        for job in JOBS:
            outcome = executor.last_outcomes[job.job_id]
            assert outcome.status == STATUS_RESUMED
            assert outcome.attempts == 0


class TestPoolFailurePolicy:
    def test_group_retry_is_charged_to_a_member(self):
        """A failed pool attempt of a group retries under a member's
        job_id -- the id outcomes, journals and reports carry -- never
        under the group's own."""
        group, = build_job_groups(
            ["gzip"], ["decrypt-only", "authen-then-commit",
                       "authen-then-issue"],
            num_instructions=600, warmup=300)
        victim = group.member_jobs[1]
        sink = MemorySink()
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=2,
                               backoff_base=0.0)
        with ParallelExecutor(
                2, initializer=set_attempt_hook,
                initargs=(FailFirst(1, [victim.job_id]),)) as executor:
            results = executor.run([group], tracer=Tracer([sink]),
                                   failure_policy=policy)
        member_ids = {member.job_id for member in group.member_jobs}
        retries = [e for e in sink.events if e.kind == JOB_RETRY]
        assert len(retries) == 1
        assert retries[0].args["job_id"] in member_ids
        assert set(results) == set(group.member_jobs)
        assert {job_id: outcome.attempts for job_id, outcome
                in executor.last_outcomes.items()} == \
            dict.fromkeys(member_ids, 2)


class TestAttemptDeadlineNesting:
    """A nested deadline must re-arm the outer timer's remainder on
    exit -- restoring only the handler used to silently disarm the
    outer deadline."""

    def test_outer_deadline_survives_inner_block(self):
        import time

        from repro.exec.retry import attempt_deadline

        with pytest.raises(JobTimeoutError):
            with attempt_deadline(0.2):
                with attempt_deadline(10.0):
                    pass  # generous inner deadline, exits untriggered
                # The outer 0.2s must still be armed here.
                time.sleep(1.0)

    def test_expired_inner_leaves_outer_rearmed_then_clean(self):
        import signal
        import time

        from repro.exec.retry import attempt_deadline

        with attempt_deadline(10.0):
            with pytest.raises(JobTimeoutError):
                with attempt_deadline(0.05):
                    time.sleep(1.0)
            # Outer remainder re-armed by the inner exit path.
            armed, _ = signal.getitimer(signal.ITIMER_REAL)
            assert armed > 0
        # Both exited: nothing may still be ticking.
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_single_deadline_disarms_on_exit(self):
        import signal

        from repro.exec.retry import attempt_deadline

        with attempt_deadline(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestJobResultDict:
    @pytest.mark.parametrize("outcome", [
        JobResult(job_id="abc"),
        JobResult(job_id="def", status="failed", attempts=3,
                  wall_time=1.5, error="OSError()", cache_hit=False,
                  store_hit=True, peak_rss_kb=2048),
    ])
    def test_as_dict_matches_asdict(self, outcome):
        import dataclasses

        assert outcome.as_dict() == dataclasses.asdict(outcome)
        assert list(outcome.as_dict()) == [
            field.name for field in dataclasses.fields(outcome)]
