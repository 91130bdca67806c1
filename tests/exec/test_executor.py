"""Executor backend tests: parity, trace cache, progress hooks."""

import pickle

import pytest

from repro.exec import (
    SKIP_AND_REPORT,
    FailurePolicy,
    ParallelExecutor,
    SerialExecutor,
    TraceCache,
    build_jobs,
    cached_trace,
    execute_job,
    make_executor,
    set_attempt_hook,
)
from repro.obs import MemorySink, PhaseProfiler, Tracer
from repro.obs.events import JOB_DONE
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressLine

JOBS = build_jobs(["gzip", "mcf"],
                  ["decrypt-only", "authen-then-commit"],
                  num_instructions=800, warmup=400)


@pytest.fixture(scope="module")
def serial_results():
    return SerialExecutor().run(JOBS)


class TestSerialParallelParity:
    def test_identical_cycles_and_stats(self, serial_results):
        with ParallelExecutor(2) as executor:
            parallel = executor.run(JOBS)
        assert set(parallel) == set(serial_results)
        for job in JOBS:
            a, b = serial_results[job], parallel[job]
            assert a.cycles == b.cycles
            assert a.instructions == b.instructions
            assert a.stats.as_dict() == b.stats.as_dict()
            assert a.miss_summary == b.miss_summary

    def test_parallel_results_keyed_deterministically(self):
        with ParallelExecutor(2) as executor:
            results = executor.run(JOBS)
        # Result mapping covers exactly the submitted jobs, regardless
        # of which worker finished first.
        assert list(results[job].policy_name for job in JOBS) == \
            [job.policy for job in JOBS]

    def test_pool_reused_across_runs(self):
        executor = ParallelExecutor(2)
        try:
            executor.run(JOBS[:1])
            pool = executor._pool
            executor.run(JOBS[1:2])
            assert executor._pool is pool
        finally:
            executor.close()
        assert executor._pool is None


class TestPickleRoundTrip:
    def test_run_result_and_stats(self, serial_results):
        result = serial_results[JOBS[1]]
        clone = pickle.loads(pickle.dumps(result))
        assert clone.cycles == result.cycles
        assert clone.ipc == result.ipc
        assert clone.stats.as_dict() == result.stats.as_dict()
        assert clone.miss_summary == result.miss_summary
        assert clone.metrics.as_dict() == result.metrics.as_dict()


class TestExecuteJob:
    def test_attaches_metrics(self, serial_results):
        result = serial_results[JOBS[1]]
        assert result.metrics is not None
        assert result.metrics.ipc == result.ipc

    def test_pure_wrt_order(self):
        # Running the same job twice, or after other jobs, is identical.
        job = JOBS[3]
        assert execute_job(job).cycles == execute_job(job).cycles

    def test_profiler_phases(self):
        # An in-envelope plain job takes the shared path, like any
        # one-member group: decode, prepass, replay, metrics.
        profiler = PhaseProfiler()
        execute_job(JOBS[0], profiler=profiler, cache=TraceCache())
        for phase in ("tracegen", "prepass", "replay", "metrics"):
            assert profiler.seconds(phase) > 0.0


class TestTraceCache:
    def test_hit_on_second_policy_same_benchmark(self):
        cache = TraceCache()
        SerialExecutor(cache=cache).run(JOBS)
        # 2 benchmarks -> 2 generations; the other policy runs hit.
        assert cache.misses == 2
        assert cache.hits == 2

    def test_identity_hit(self):
        cache = TraceCache()
        a = cached_trace("gzip", 1200, 7, cache=cache)
        b = cached_trace("gzip", 1200, 7, cache=cache)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_keys_miss(self):
        cache = TraceCache()
        cached_trace("gzip", 1200, 7, cache=cache)
        cached_trace("gzip", 1200, 8, cache=cache)
        cached_trace("gzip", 1300, 7, cache=cache)
        cached_trace("mcf", 1200, 7, cache=cache)
        assert cache.misses == 4 and cache.hits == 0

    def test_lru_eviction(self):
        cache = TraceCache(capacity=2)
        cached_trace("gzip", 100, 1, cache=cache)
        cached_trace("mcf", 100, 1, cache=cache)
        cached_trace("gcc", 100, 1, cache=cache)  # evicts gzip
        assert len(cache) == 2
        cached_trace("gzip", 100, 1, cache=cache)
        assert cache.misses == 4

    def test_tracegen_phase_only_charged_on_miss(self):
        cache = TraceCache()
        profiler = PhaseProfiler()
        cached_trace("gzip", 1200, 7, profiler=profiler, cache=cache)
        generated = profiler.seconds("tracegen")
        cached_trace("gzip", 1200, 7, profiler=profiler, cache=cache)
        assert profiler.seconds("tracegen") == generated

    def test_clear_resets_counters_with_entries(self):
        cache = TraceCache()
        cached_trace("gzip", 1200, 7, cache=cache)
        cached_trace("gzip", 1200, 7, cache=cache)
        cache.clear()
        # A cleared cache must not report phantom hit rates for
        # entries that no longer exist.
        stats = cache.stats()
        assert len(cache) == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["hit_rate"] == 0.0
        assert stats["gen_seconds"] == 0.0
        # And it still works as a fresh cache afterwards.
        cached_trace("gzip", 1200, 7, cache=cache)
        assert cache.stats()["misses"] == 1

    def test_reset_stats_keeps_entries(self):
        cache = TraceCache()
        trace = cached_trace("gzip", 1200, 7, cache=cache)
        cache.reset_stats()
        assert len(cache) == 1
        assert cache.stats()["misses"] == 0
        assert cached_trace("gzip", 1200, 7, cache=cache) is trace
        assert cache.stats()["hits"] == 1


class TestProgressHooks:
    def test_job_done_events_on_tracer(self):
        sink = MemorySink()
        SerialExecutor().run(JOBS, tracer=Tracer([sink]))
        done = [e for e in sink.events if e.kind == JOB_DONE]
        assert len(done) == len(JOBS)
        assert [e.args["completed"] for e in done] == [1, 2, 3, 4]
        assert done[0].args["total"] == len(JOBS)
        assert {e.args["job_id"] for e in done} == \
            {job.job_id for job in JOBS}

    def test_progress_callback(self):
        seen = []
        SerialExecutor().run(
            JOBS[:2],
            progress=lambda job, result, done, total:
                seen.append((job.policy, done, total)))
        assert seen == [("decrypt-only", 1, 2),
                        ("authen-then-commit", 2, 2)]

    def test_parallel_emits_job_done_in_parent(self):
        sink = MemorySink()
        with ParallelExecutor(2) as executor:
            executor.run(JOBS[:2], tracer=Tracer([sink]))
        done = [e for e in sink.events if e.kind == JOB_DONE]
        assert len(done) == 2


class TestMakeExecutor:
    def test_serial_for_one(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_for_many(self):
        executor = make_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3
        executor.close()

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        executor = make_executor()
        assert isinstance(executor, ParallelExecutor)
        executor.close()
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert isinstance(make_executor(), SerialExecutor)


class Boom(RuntimeError):
    """Deterministic injected failure."""


@pytest.fixture
def fail_hook():
    """Install-and-restore wrapper around set_attempt_hook."""
    installed = []

    def install(fn):
        installed.append(set_attempt_hook(fn))
        return fn

    yield install
    while installed:
        set_attempt_hook(installed.pop())


class _TtyStream:
    def __init__(self):
        import io
        self._buf = io.StringIO()

    def write(self, text):
        self._buf.write(text)

    def flush(self):
        pass

    def isatty(self):
        return True

    def getvalue(self):
        return self._buf.getvalue()


class TestFailureProgress:
    """Failed jobs advance the status line like completions do."""

    def test_skip_run_ends_with_full_cursor_and_failed_segment(
            self, fail_hook):
        jobs = build_jobs(["gzip", "mcf"], ["decrypt-only"],
                          num_instructions=600, warmup=300)
        bad = jobs[0].job_id

        def explode(job, attempt):
            if job.job_id == bad:
                raise Boom("injected")

        fail_hook(explode)
        reg = MetricsRegistry()
        stream = _TtyStream()
        progress = ProgressLine(stream, metrics=reg)
        results = SerialExecutor().run(
            jobs, progress=progress,
            failure_policy=FailurePolicy(mode=SKIP_AND_REPORT),
            metrics=reg)
        progress.close()
        text = stream.getvalue()
        last = text.rstrip("\n").split("\r")[-1]
        # the failed job advanced the same done/total cursor, so the
        # run finishes at [N/N] -- not one short, as before the fix
        assert "[2/2]" in last
        assert "failed 1" in last
        assert "FAILED (Boom" in text
        assert len(results) == 1  # only the surviving job completed

    def test_fail_fast_fires_progress_before_the_raise(self, fail_hook):
        jobs = build_jobs(["gzip"],
                          ["decrypt-only", "authen-then-commit"],
                          num_instructions=600, warmup=300)

        def explode(job, attempt):
            raise Boom("injected")

        fail_hook(explode)
        seen = []
        with pytest.raises(Boom):
            SerialExecutor().run(
                jobs,
                progress=lambda job, result, done, total:
                    seen.append((done, total, result.status)))
        assert seen == [(1, 2, "failed")]

    def test_fail_fast_line_is_terminated_by_the_cli_finally(
            self, fail_hook):
        jobs = build_jobs(["gzip"], ["decrypt-only"],
                          num_instructions=600, warmup=300)

        def explode(job, attempt):
            raise Boom("injected")

        fail_hook(explode)
        stream = _TtyStream()
        progress = ProgressLine(stream)
        try:
            with pytest.raises(Boom):
                SerialExecutor().run(jobs, progress=progress)
        finally:
            progress.close()  # what the CLI's finally block does
        text = stream.getvalue()
        assert "[1/1]" in text
        assert "FAILED (Boom" in text
        assert text.endswith("\n")
