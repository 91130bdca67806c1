"""JobJournal v2 under concurrent appenders (the split-journal case).

Two dist workers sharing one ``--host-id`` append to the *same*
journal segment.  The v2 append path writes each CRC-sealed record as
one ``os.write`` on an ``O_APPEND`` fd, so concurrent appends
interleave at line granularity: a reload must see every record intact,
and only a genuinely torn line (a mid-write kill) may be quarantined --
logged, and left where it is.
"""

import multiprocessing
import os
import socket

from repro.exec import SerialExecutor, build_jobs
from repro.exec.chaos import result_digest
from repro.exec.retry import STATUS_RESUMED
from repro.sim.checkpoint import JobJournal, parse_record, tmp_suffix

N = 800
WARMUP = 400


def _jobs_for(benchmark):
    return build_jobs([benchmark],
                      ["decrypt-only", "authen-then-commit",
                       "authen-then-issue"],
                      num_instructions=N, warmup=WARMUP)


def _append_results(path, benchmark, barrier):
    """Child process: run one benchmark's jobs, append each result."""
    journal = JobJournal(path)
    jobs = _jobs_for(benchmark)
    results = SerialExecutor().run(jobs)
    barrier.wait()   # line both writers up so their appends interleave
    for job in jobs:
        journal.record(job, results[job])


def _fill_concurrently(path):
    barrier = multiprocessing.Barrier(2)
    writers = [multiprocessing.Process(target=_append_results,
                                       args=(path, benchmark, barrier))
               for benchmark in ("gzip", "mcf")]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
        assert writer.exitcode == 0
    return _jobs_for("gzip") + _jobs_for("mcf")


class TestConcurrentAppend:
    def test_no_record_loss_across_two_writers(self, tmp_path):
        path = str(tmp_path / "shared.journal")
        jobs = _fill_concurrently(path)
        journal = JobJournal(path)
        assert journal.quarantined_lines == 0
        assert len(journal) == len(jobs)
        for job in jobs:
            assert job.job_id in journal

    def test_torn_tail_quarantines_only_the_tear(self, tmp_path):
        path = str(tmp_path / "shared.journal")
        jobs = _fill_concurrently(path)
        with open(path, "ab") as handle:
            handle.write(b'{"journal_version": 2, "job_id": "torn')
        with open(path, "rb") as handle:
            before = handle.read()
        journal = JobJournal(path)
        assert journal.quarantined_lines == 1
        assert len(journal) == len(jobs)
        assert os.path.exists(journal.rej_path)
        with open(path, "rb") as handle:
            assert handle.read() == before + b"\n"

    def test_compact_then_resume_bit_identical(self, tmp_path):
        path = str(tmp_path / "shared.journal")
        jobs = _fill_concurrently(path)
        reference = {job.job_id: result_digest(result)
                     for job, result in SerialExecutor().run(jobs).items()}
        journal = JobJournal(path)
        dropped = journal.compact(keep_ids={job.job_id for job in jobs})
        assert dropped == 0
        assert len(journal) == len(jobs)
        healer = SerialExecutor()
        healed = healer.run(jobs, journal=JobJournal(path))
        resumed = sum(1 for outcome in healer.last_outcomes.values()
                      if outcome.status == STATUS_RESUMED)
        assert resumed == len(jobs)   # nothing re-simulated
        for job in jobs:
            assert result_digest(healed[job]) == reference[job.job_id]


class TestTmpSuffix:
    def test_names_host_pid_and_counts_up(self):
        first, second = tmp_suffix(), tmp_suffix()
        assert first != second
        assert socket.gethostname() in first
        assert str(os.getpid()) in first

    def test_parse_record_round_trip(self, tmp_path):
        path = str(tmp_path / "j.journal")
        job = _jobs_for("gzip")[0]
        result = SerialExecutor().run([job])[job]
        JobJournal(path).record(job, result)
        with open(path) as handle:
            raw = handle.readline().strip()
        record, reason = parse_record(raw)
        assert reason is None
        assert record["job_id"] == job.job_id
        bad, why = parse_record(raw[:-5])
        assert bad is None and why
