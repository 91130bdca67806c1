"""Crash/resume tests: real SIGKILLs against driver and workers.

The journal's contract is that a hard kill -- of a worker process or of
the whole driver -- costs at most the in-flight jobs: rerunning the same
sweep against the same journal file resumes the completed jobs from disk
and re-simulates only the rest, bit-identically.
"""

import json
import os
import signal
import subprocess
import sys

from repro.exec import ParallelExecutor, SerialExecutor, build_jobs
from repro.exec.chaos import FAULT_WORKER_KILL, ChaosPlan, _install_in_worker
from repro.exec.retry import RETRY_THEN_SKIP, STATUS_RESUMED, FailurePolicy
from repro.sim.checkpoint import JobJournal

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit",
                             "authen-then-issue"],
                  num_instructions=600, warmup=300)

# A driver that SIGKILLs itself after its first job completes -- the
# harshest interruption a sweep can see (no atexit, no flush beyond what
# the journal already forced).
_DRIVER = """
import os, signal, sys
from repro.exec import SerialExecutor, build_jobs
from repro.sim.checkpoint import JobJournal

jobs = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit",
                             "authen-then-issue"],
                  num_instructions=600, warmup=300)

def die_after_first(job, result, done, total):
    if done >= 1:
        os.kill(os.getpid(), signal.SIGKILL)

SerialExecutor().run(jobs, journal=JobJournal(sys.argv[1]),
                     progress=die_after_first)
raise SystemExit("driver outlived its own SIGKILL")
"""


class TestDriverCrashResume:
    def test_sigkilled_driver_resumes_bit_identical(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), "..", "..", "src")])
        proc = subprocess.run(
            [sys.executable, "-c", _DRIVER, str(path)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL

        # The kill landed after >= 1 completed job; the journal kept it.
        journal = JobJournal(path)
        completed = len(journal)
        assert 1 <= completed < len(JOBS)
        assert journal.quarantined_lines == 0  # flush beat the kill

        resumed = SerialExecutor()
        results = resumed.run(JOBS, journal=journal)
        statuses = [resumed.last_outcomes[j.job_id].status for j in JOBS]
        assert statuses.count(STATUS_RESUMED) == completed

        clean = SerialExecutor().run(JOBS)
        for job in JOBS:
            assert results[job].cycles == clean[job].cycles
            assert results[job].stats.as_dict() == \
                clean[job].stats.as_dict()

    def test_torn_tail_after_kill_is_quarantined(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(JOBS[:2], journal=JobJournal(path))
        # Replay a kill mid-append: binary-truncate the last record.
        data = path.read_bytes().rstrip(b"\n")
        cut = data.rfind(b"\n") + 1
        path.write_bytes(data[:cut + (len(data) - cut) // 2])
        torn = path.read_bytes()

        journal = JobJournal(path)
        assert journal.quarantined_lines == 1
        assert len(journal) == 1
        rej = json.loads(
            (tmp_path / "journal.jsonl.rej").read_text().splitlines()[0])
        assert "unparseable" in rej["reason"]
        assert rej["offset"] == cut

        results = SerialExecutor().run(JOBS, journal=journal)
        clean = SerialExecutor().run(JOBS)
        for job in JOBS:
            assert results[job].cycles == clean[job].cycles
        # The resume only appended: the tear stays, ended by a newline.
        assert path.read_bytes().startswith(torn + b"\n")
        assert len(JobJournal(path)) == len(JOBS)


class TestWorkerCrashResume:
    def test_sigkilled_worker_heals_and_journals(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = ChaosPlan(0, {JOBS[1].job_id: FAULT_WORKER_KILL})
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=4,
                               backoff_base=0.0, jitter=0.0)
        with ParallelExecutor(2, initializer=_install_in_worker,
                              initargs=(plan,)) as executor:
            results = executor.run(JOBS, journal=JobJournal(path),
                                   failure_policy=policy)
            assert executor.rebuilds >= 1
        assert set(results) == set(JOBS)
        assert executor.failures == {}

        # Everything the faulty run journaled resumes bit-identically.
        resumed = SerialExecutor()
        after = resumed.run(JOBS, journal=JobJournal(path))
        for job in JOBS:
            assert resumed.last_outcomes[job.job_id].status == \
                STATUS_RESUMED
            assert after[job].cycles == results[job].cycles
            assert after[job].stats.as_dict() == \
                results[job].stats.as_dict()
