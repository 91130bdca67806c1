"""Checkpoint-journal resume tests: skip completed jobs, rebuild results."""

import json

import pytest

from repro.exec import SerialExecutor, build_jobs
from repro.sim.checkpoint import JOURNAL_VERSION, JobJournal
from repro.util.statistics import StatGroup

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit"],
                  num_instructions=600, warmup=300)


class CountingExecutor(SerialExecutor):
    """Serial backend that counts how many jobs actually simulate."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def _execute(self, pending, results, state):
        self.executed += len(pending)
        super()._execute(pending, results, state)


class TestJournalResume:
    def test_completed_jobs_are_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = CountingExecutor()
        before = first.run(JOBS, journal=JobJournal(path))
        assert first.executed == len(JOBS)

        second = CountingExecutor()
        after = second.run(JOBS, journal=JobJournal(path))
        assert second.executed == 0
        for job in JOBS:
            assert after[job].cycles == before[job].cycles
            assert after[job].ipc == before[job].ipc
            assert after[job].stats.as_dict() == \
                before[job].stats.as_dict()
            assert after[job].miss_summary == before[job].miss_summary

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CountingExecutor().run(JOBS[:1], journal=JobJournal(path))

        resumed = CountingExecutor()
        results = resumed.run(JOBS, journal=JobJournal(path))
        assert resumed.executed == len(JOBS) - 1
        assert set(results) == set(JOBS)

    def test_changed_spec_changes_id_and_reruns(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CountingExecutor().run(JOBS, journal=JobJournal(path))
        bigger = build_jobs(["gzip"], ["decrypt-only"],
                            num_instructions=700, warmup=300)
        rerun = CountingExecutor()
        rerun.run(bigger, journal=JobJournal(path))
        assert rerun.executed == 1  # different job_id -> not skipped

    def test_rebuilt_stats_are_live_statgroups(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(JOBS, journal=JobJournal(path))
        result = JobJournal(path).result(JOBS[1])
        assert isinstance(result.stats, StatGroup)
        assert result.stats["auth_requests"].value > 0
        # Histogram bucket keys survive the JSON round trip as ints.
        gap = result.stats["decrypt_verify_gap"]
        assert gap.total > 0
        assert all(isinstance(k, int) for k in gap.buckets)
        assert gap.mean() > 0

    def test_truncated_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(JOBS, journal=JobJournal(path))
        with open(path, "a") as handle:
            handle.write('{"journal_version": %d, "job_id": "dead'
                         % JOURNAL_VERSION)  # killed mid-write
        journal = JobJournal(path)
        assert len(journal) == len(JOBS)
        assert journal.skipped_lines == 1

    def test_unterminated_last_record_survives_the_next_append(
            self, tmp_path):
        # A crash after a record landed but before its newline: the
        # reopened journal must terminate the line, or the next append
        # fuses onto it and both records are quarantined.
        path = tmp_path / "journal.jsonl"
        results = SerialExecutor().run(JOBS[:2])
        JobJournal(path).record(JOBS[0], results[JOBS[0]])
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reopened = JobJournal(path)
        assert len(reopened) == 1
        reopened.record(JOBS[1], results[JOBS[1]])
        journal = JobJournal(path)
        assert journal.quarantined_lines == 0
        assert journal.completed_ids == {JOBS[0].job_id, JOBS[1].job_id}

    def test_incompatible_version_lines_are_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {"journal_version": JOURNAL_VERSION + 1,
                  "job_id": JOBS[0].job_id}
        path.write_text(json.dumps(record) + "\n")
        journal = JobJournal(path)
        assert len(journal) == 0
        assert journal.skipped_lines == 1
        assert journal.result(JOBS[0]) is None

    def test_result_none_for_unknown_job(self, tmp_path):
        journal = JobJournal(tmp_path / "missing.jsonl")
        assert journal.result(JOBS[0]) is None
        assert len(journal) == 0


class TestStatGroupFromDict:
    def test_round_trip(self):
        group = StatGroup("g")
        group.counter("hits").add(5)
        group.histogram("gap").add(3, 2)
        group.histogram("gap").add(7)
        snapshot = group.as_dict()
        # Simulate the JSON round trip (keys become strings).
        snapshot = json.loads(json.dumps(snapshot))
        rebuilt = StatGroup.from_dict(snapshot, name="g")
        assert rebuilt.as_dict() == group.as_dict()
        assert rebuilt["gap"].percentile(50) == group["gap"].percentile(50)

    def test_non_numeric_histogram_keys_kept(self):
        rebuilt = StatGroup.from_dict({"h": {"label": 4}})
        assert rebuilt["h"].buckets == {"label": 4}

    def test_mixed_histogram_keys_round_trip(self):
        """One non-digit key keeps itself; the digit keys still come
        back as ints, negative ones included."""
        group = StatGroup("g")
        for key in (3, -2, "label"):
            group.histogram("h").add(key, 2)
        snapshot = json.loads(json.dumps(group.as_dict()))
        rebuilt = StatGroup.from_dict(snapshot, name="g")
        assert rebuilt["h"].buckets == {3: 2, -2: 2, "label": 2}


class TestJournalIntegrity:
    """v2 hardening: CRC32 seals, quarantine sidecar, compaction."""

    def _flip_crc_protected_digit(self, line):
        # Flip a digit INSIDE the cycles value (never its first digit,
        # which could make invalid leading-zero JSON and take the
        # unparseable path instead of the CRC path this test pins).
        at = line.find('"cycles": ') + len('"cycles": ') + 1
        assert line[at].isdigit()
        return line[:at] + chr(ord(line[at]) ^ 1) + line[at + 1:]

    def test_bitflip_caught_by_crc_and_quarantined(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(JOBS, journal=JobJournal(path))
        lines = path.read_text().splitlines()
        lines[0] = self._flip_crc_protected_digit(lines[0])
        path.write_text("\n".join(lines) + "\n")

        journal = JobJournal(path)
        assert journal.quarantined_lines == 1
        assert len(journal) == len(JOBS) - 1
        rej = json.loads(
            (tmp_path / "journal.jsonl.rej").read_text().splitlines()[0])
        assert "crc32 mismatch" in rej["reason"]
        # The journal itself was rewritten clean: reopening sees no
        # corruption and the sidecar preserves the evidence.
        assert JobJournal(path).skipped_lines == 0

    def test_missing_crc_is_quarantined(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {"journal_version": JOURNAL_VERSION, "job_id": "abc"}
        path.write_text(json.dumps(record) + "\n")
        journal = JobJournal(path)
        assert journal.quarantined_lines == 1
        assert len(journal) == 0

    def test_incompatible_lines_survive_on_disk(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        foreign = json.dumps({"journal_version": JOURNAL_VERSION + 1,
                              "job_id": "future"})
        path.write_text(foreign + "\n")
        SerialExecutor().run(JOBS[:1], journal=JobJournal(path))
        # Ignored in place -- a newer build's records are not destroyed.
        journal = JobJournal(path)
        assert journal.incompatible_lines == 1
        assert foreign in path.read_text()

    def test_metrics_round_trip(self, tmp_path):
        from repro.sim.metrics import RunMetrics

        path = tmp_path / "journal.jsonl"
        live = SerialExecutor().run(JOBS, journal=JobJournal(path))
        for job in JOBS:
            rebuilt = JobJournal(path).result(job)
            assert isinstance(rebuilt.metrics, RunMetrics)
            assert rebuilt.metrics.as_dict() == \
                live[job].metrics.as_dict()

    def test_compact_drops_stale_and_foreign_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps(
            {"journal_version": JOURNAL_VERSION - 1, "job_id": "old"})
            + "\n")
        SerialExecutor().run(JOBS, journal=JobJournal(path))

        journal = JobJournal(path)
        keep = {JOBS[0].job_id}
        dropped = journal.compact(keep_ids=keep)
        assert dropped == 2  # one foreign line + one superseded record
        assert journal.completed_ids == keep
        reopened = JobJournal(path)
        assert reopened.completed_ids == keep
        assert reopened.skipped_lines == 0
        assert reopened.result(JOBS[0]).cycles > 0

    def test_compact_without_keep_ids_keeps_all_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        SerialExecutor().run(JOBS, journal=JobJournal(path))
        journal = JobJournal(path)
        assert journal.compact() == 0
        assert JobJournal(path).completed_ids == \
            {job.job_id for job in JOBS}
