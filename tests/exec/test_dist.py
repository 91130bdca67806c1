"""Multi-host work-stealing backend: spool, leases, merge, recovery.

Everything here runs on one machine -- worker daemons are plain
threads or child processes sharing a tmp_path spool -- but the
protocol under test is the cross-host one: exclusive lease claims,
heartbeats, per-host journal segments, driver-side merge, and the
failure ladder (worker error -> retry -> skip; lost host -> lease
reaped, unit re-claimed; empty fleet -> degrade to local).  The
invariant every test holds is the repo-wide one: results bit-identical
to ``SerialExecutor``.
"""

import collections
import json
import os
import threading
import time

import pytest

from repro.exec import (
    DistExecutor,
    SerialExecutor,
    build_job_groups,
    build_jobs,
    run_worker,
)
from repro.exec.chaos import result_digest, run_campaign
from repro.exec.dist import (
    ensure_spool,
    lease_age,
    release_lease,
    request_stop,
    segment_path,
    segments,
    spool_jobs,
    try_claim,
)
from repro.exec.retry import RETRY_THEN_SKIP, FailurePolicy
from repro.sim import checkpoint
from repro.sim.checkpoint import JOURNAL_VERSION, JobJournal, SegmentIndex

N = 800
WARMUP = 400
BENCHMARKS = ["gzip", "mcf"]
POLICIES = ["decrypt-only", "authen-then-commit"]


def _jobs():
    return build_jobs(BENCHMARKS, POLICIES,
                      num_instructions=N, warmup=WARMUP)


def _groups():
    return build_job_groups(BENCHMARKS, POLICIES,
                            num_instructions=N, warmup=WARMUP)


@pytest.fixture(scope="module")
def reference():
    jobs = _jobs()
    results = SerialExecutor().run(jobs)
    return {job.job_id: result_digest(results[job]) for job in jobs}


def _assert_identical(results, reference):
    assert {job.job_id for job in results} == set(reference)
    for job, result in results.items():
        assert result_digest(result) == reference[job.job_id]


class TestSpoolProtocol:
    def test_spool_and_claim_are_exclusive(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        groups = _groups()
        ids = spool_jobs(spool, groups)
        assert len(ids) == len(groups)
        # Second spool of the same units is a no-op (resubmit-safe).
        assert spool_jobs(spool, groups) == []
        lease = try_claim(spool, ids[0], "worker-a")
        assert lease is not None
        assert try_claim(spool, ids[0], "worker-b") is None
        assert lease_age(lease) is not None
        release_lease(lease)
        assert lease_age(lease) is None
        assert try_claim(spool, ids[0], "worker-b") is not None

    def test_worker_max_units_and_done_ids(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        groups = _groups()
        spool_jobs(spool, groups)
        summary = run_worker(spool, host_id="solo", poll=0.01,
                             lease_timeout=1.0, max_units=1)
        assert summary["units"] == 1
        assert summary["members"] == len(POLICIES)
        done = SegmentIndex()
        done.poll(path for _, path in segments(spool))
        assert len(done.entries) == len(POLICIES)
        # The claimed unit's job file is gone, its lease released.
        remaining = os.listdir(os.path.join(spool, "jobs"))
        assert len(remaining) == len(groups) - 1
        assert os.listdir(os.path.join(spool, "leases")) == []

    def test_worker_checks_each_segment_line_once(self, tmp_path,
                                                  monkeypatch):
        """The skip set is an index polled before each claim: a segment
        line is checked once, however many units the worker claims."""
        spool = ensure_spool(tmp_path / "spool")
        groups = build_job_groups(BENCHMARKS + ["gcc"], POLICIES,
                                  num_instructions=N, warmup=WARMUP)
        seeded = groups[0].member_jobs
        results = SerialExecutor().run(seeded)
        other = JobJournal(segment_path(spool, "other"))
        for job in seeded:
            other.record(job, results[job])
        with open(segment_path(spool, "other"), "rb") as handle:
            seeded_lines = handle.read().splitlines(keepends=True)
        spool_jobs(spool, groups)
        checked = collections.Counter()
        check_line = checkpoint.check_line

        def counting(raw):
            checked[bytes(raw)] += 1
            return check_line(raw)

        monkeypatch.setattr(checkpoint, "check_line", counting)
        summary = run_worker(spool, host_id="solo", poll=0.01,
                             lease_timeout=1.0, max_units=3)
        assert summary["units"] == 3
        # The seeded group's members were skipped, not re-run.
        assert summary["members"] == 2 * len(POLICIES)
        assert all(checked[line] == 1 for line in seeded_lines)
        # The second claim's own lines were checked by the third's poll.
        assert sum(checked.values()) == len(seeded_lines) + len(POLICIES)
        assert set(checked.values()) == {1}


class TestSegmentPolls:
    def test_incremental_polls_and_torn_tail(self, tmp_path):
        jobs = _jobs()[:2]
        results = SerialExecutor().run(jobs)
        path = str(tmp_path / "seg.journal")
        journal = JobJournal(path)
        journal.record(jobs[0], results[jobs[0]])
        index = SegmentIndex()
        assert index.poll([path]) == [jobs[0].job_id]
        assert index.poll([path]) == []   # nothing new
        journal.record(jobs[1], results[jobs[1]])
        assert index.poll([path]) == [jobs[1].job_id]
        record, _ = index.read(index.entries[jobs[1].job_id])
        assert record["policy"] == jobs[1].policy

    def test_unterminated_line_waits_corrupt_line_counts(self, tmp_path):
        path = str(tmp_path / "seg.journal")
        index = SegmentIndex(str(tmp_path / "seg.rej"))
        assert index.poll([path]) == []   # missing file: nothing yet
        with open(path, "ab") as handle:
            handle.write(b'{"journal_version": 2, "job_id": "half')
        assert index.poll([path]) == []   # write in flight: wait
        assert index.skipped == 0
        with open(path, "ab") as handle:
            handle.write(b'"}\n')
        assert index.poll([path]) == []   # complete but CRC-less
        assert (index.skipped, index.rejected) == (1, 1)
        [evidence] = [json.loads(line)
                      for line in open(tmp_path / "seg.rej")]
        assert (evidence["entry"], evidence["offset"]) == ("seg.journal", 0)
        # Another reader meets the line again; it is logged once.
        again = SegmentIndex(str(tmp_path / "seg.rej"))
        assert again.poll([path]) == [] and again.rejected == 0


class TestWorkerSegment:
    """A worker only ever appends to the segment the driver tails."""

    @staticmethod
    def _seeded_segment(spool):
        seeded = _jobs()[0]
        result = SerialExecutor().run([seeded])[seeded]
        segment = segment_path(spool, "h")
        JobJournal(segment).record(seeded, result)
        return seeded, segment

    def test_restarted_worker_keeps_a_bad_line_in_place(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        seeded, segment = self._seeded_segment(spool)
        with open(segment, "ab") as handle:   # CRC-bad, newline-ended
            handle.write(json.dumps({"journal_version": JOURNAL_VERSION,
                                     "job_id": "bad", "crc32": 0})
                         .encode() + b"\n")
        index = SegmentIndex()
        assert index.poll([segment]) == [seeded.job_id]
        assert index.skipped == 1
        with open(segment, "rb") as handle:
            before = handle.read()
        spool_jobs(spool, _groups())
        summary = run_worker(spool, host_id="h", poll=0.01,
                             lease_timeout=1.0, max_units=1)
        assert summary["members"] > 0
        with open(segment, "rb") as handle:
            assert handle.read().startswith(before)
        assert len(index.poll([segment])) == summary["members"]
        assert index.skipped == 1

    def test_restarted_worker_terminates_a_torn_tail(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        seeded, segment = self._seeded_segment(spool)
        with open(segment, "ab") as handle:
            handle.write(b'{"journal_version": 2, "job_')
        index = SegmentIndex()
        assert index.poll([segment]) == [seeded.job_id]
        spool_jobs(spool, _groups())
        summary = run_worker(spool, host_id="h", poll=0.01,
                             lease_timeout=1.0, max_units=1)
        assert summary["members"] > 0
        assert len(index.poll([segment])) == summary["members"]
        assert index.skipped == 1    # the torn line, now terminated


class TestDistExecutor:
    def test_worker_thread_and_driver_merge_bit_identical(
            self, tmp_path, reference):
        spool = str(tmp_path / "spool")
        worker = threading.Thread(
            target=run_worker, args=(spool,),
            kwargs=dict(host_id="thread-a", poll=0.01, lease_timeout=1.0))
        worker.start()
        executor = DistExecutor(spool, poll=0.01, lease_timeout=1.0,
                                degrade_after=60.0)
        try:
            results = executor.run(_groups())
        finally:
            request_stop(spool)
            worker.join(timeout=30)
        assert not worker.is_alive()
        _assert_identical(results, reference)
        assert not executor.degraded
        assert "thread-a" in executor.hosts_seen
        assert os.path.exists(segment_path(spool, "thread-a"))
        assert executor.describe()["backend"] == "dist"

    def test_degrades_to_local_when_no_worker_appears(
            self, tmp_path, reference):
        executor = DistExecutor(str(tmp_path / "spool"), poll=0.01,
                                lease_timeout=0.5, degrade_after=0.1)
        results = executor.run(_groups())
        _assert_identical(results, reference)
        assert executor.degraded
        assert executor.describe()["degraded"]

    def test_preexisting_segment_records_are_merged_not_rerun(
            self, tmp_path, reference):
        spool = ensure_spool(tmp_path / "spool")
        jobs = _jobs()
        seeded = jobs[0]
        result = SerialExecutor().run([seeded])[seeded]
        JobJournal(segment_path(spool, "pre")).record(seeded, result)
        executor = DistExecutor(spool, poll=0.01, lease_timeout=0.5,
                                degrade_after=0.1)
        results = executor.run(_groups())
        _assert_identical(results, reference)
        index = SegmentIndex()
        assert index.poll([segment_path(spool, "pre")]) == [seeded.job_id]

    def test_worker_errors_charge_retries_then_skip(self, tmp_path):
        spool = str(tmp_path / "spool")
        groups = _groups()
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=2,
                               backoff_base=0.0, backoff_max=0.0)
        executor = DistExecutor(spool, poll=0.01, lease_timeout=5.0,
                                degrade_after=60.0)
        victim_id = groups[0].job_id
        box = {}

        def drive():
            box["results"] = executor.run(groups, failure_policy=policy)

        # Pin the victim's lease so the helper worker can only claim
        # the other units (workers never break leases, whatever their
        # age); the lease outlives the test's ~2s, so the driver never
        # reaps it into the attempt accounting either.
        ensure_spool(spool)
        pin = try_claim(spool, victim_id, "pinner")
        assert pin is not None
        driver = threading.Thread(target=drive)
        driver.start()
        job_path = os.path.join(spool, "jobs", victim_id + ".job")
        deadline = time.monotonic() + 30
        while not os.path.exists(job_path):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # Two reported attempt failures exhaust max_attempts=2; the
        # other unit is satisfied from a worker segment so the run
        # can finish without any live host.
        others = [g for g in groups if g.job_id != victim_id]
        worker = threading.Thread(
            target=run_worker, args=(spool,),
            kwargs=dict(host_id="helper", poll=0.01, lease_timeout=5.0,
                        max_units=len(others)))
        worker.start()
        with open(os.path.join(spool, "errors", victim_id + ".err"),
                  "a") as handle:
            for attempt in (1, 2):
                handle.write(json.dumps(
                    {"job_id": victim_id, "host_id": "helper",
                     "error": "boom %d" % attempt}) + "\n")
        driver.join(timeout=60)
        worker.join(timeout=30)
        release_lease(pin)
        assert not driver.is_alive() and not worker.is_alive()
        results = box["results"]
        member_ids = {m.job_id for m in groups[0].member_jobs}
        assert member_ids == set(executor.failures)
        assert {job.job_id for job in results} == {
            m.job_id for g in others for m in g.member_jobs}
        assert os.path.exists(
            os.path.join(spool, "skip", victim_id + ".skip"))


class TestDistChaos:
    def test_campaigns_heal_bit_identically(self, tmp_path):
        report = run_campaign("dist", num_instructions=N, warmup=WARMUP,
                              seed=1, workdir=str(tmp_path / "chaos"))
        assert report.identical, report.render()
        assert report.counters["host_losses"] >= 1
        assert report.counters["victim_records"] >= 1
        assert report.gates["exactly_once"]
        assert report.counters["split_quarantined"] == 1
        assert report.counters["split_resumed"] == report.total_jobs
        assert report.counters["degraded"] == 1
        assert all(report.gates.values())
