"""Atomic write-then-rename tests for checkpoint persistence."""

import pytest


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_tmp(self, tmp_path):
        from repro.sim.checkpoint import atomic_write_text

        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        import os as _os

        from repro.sim import checkpoint

        path = tmp_path / "out.json"
        checkpoint.atomic_write_text(path, "precious")

        def refuse(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(checkpoint.os, "replace", refuse)
        with pytest.raises(OSError):
            checkpoint.atomic_write_text(path, "torn")
        assert path.read_text() == "precious"


def _result(metrics=False):
    """A small finished run whose stats hold a histogram keyed 9, 10
    and 100: as text those sort "10" < "100" < "9"."""
    from repro.cpu.core import RunResult
    from repro.sim.metrics import RunMetrics
    from repro.util.statistics import StatGroup

    stats = StatGroup("sim")
    stats.counter("line_reads").add(42)
    gaps = stats.histogram("verify_gap")
    for key, count in ((100, 1), (9, 3), (10, 2)):
        gaps.add(key, count)
    stats.counter("auth_requests").add(7)
    result = RunResult("gzip", "authen-then-commit", 1000, 2500, stats,
                       {"l1d": 0.125, "l2": 0.5})
    if metrics:
        result.metrics = RunMetrics(cycles=2500, instructions=1000,
                                    ipc=0.4, miss_rates={"l2": 0.5},
                                    p50_verify_gap=10)
    return result


def _job():
    from repro.exec import SimJob

    return SimJob("gzip", "authen-then-commit", num_instructions=1000,
                  warmup=500)


JOURNAL_LINE = (
    '{"accounting": {"cache_hit": true, "path": "native", '
    '"peak_rss_kb": 1024, "store_hit": false, "tracegen_seconds": 0.0, '
    '"wall_seconds": 0.25}, "benchmark": "gzip", "crc32": 3727047651, '
    '"cycles": 2500, "instructions": 1000, "ipc": 0.4, '
    '"job_id": "63149eeab90dee6f", "journal_version": 2, '
    '"metrics": null, "miss_rates": {"l1d": 0.125, "l2": 0.5}, '
    '"name": "gzip", "policy": "authen-then-commit", '
    '"policy_name": "authen-then-commit", "seed": 2006, '
    '"stats": {"auth_requests": 7, "line_reads": 42, '
    '"verify_gap": {"10": 2, "100": 1, "9": 3}}, "warmup": 500}')

STORE_LINE = (
    '{"benchmark": "gzip", "crc32": 1499520918, "cycles": 2500, '
    '"fingerprint": "0123456789abcdef", "instructions": 1000, '
    '"ipc": 0.4, "job_id": "63149eeab90dee6f", "journal_version": 2, '
    '"metrics": {"auth_queue_full": 0, "auth_requests": 0, '
    '"bus_utilisation": 0.0, "cycles": 2500, "dram_metadata": 0, '
    '"dram_reads": 0, "dram_writes": 0, "instructions": 1000, '
    '"ipc": 0.4, "max_verify_gap": 0, "mean_bus_wait": 0.0, '
    '"mean_read_latency": 0.0, "mean_verify_gap": 0.0, '
    '"miss_rates": {"l2": 0.5}, "p50_verify_gap": 10, '
    '"p95_verify_gap": 0, "reads_per_kinst": 0.0, '
    '"row_hit_rate": 0.0}, "miss_rates": {"l1d": 0.125, "l2": 0.5}, '
    '"name": "gzip", "policy": "authen-then-commit", '
    '"policy_name": "authen-then-commit", "seed": 2006, '
    '"stats": {"auth_requests": 7, "line_reads": 42, '
    '"verify_gap": {"10": 2, "100": 1, "9": 3}}, "warmup": 500}')


def _line(job, result, **envelope):
    from repro.sim.checkpoint import completion_line

    return completion_line(job, result, **envelope)


class TestCompletionLine:
    """The exact bytes every tier writes per finished job.

    Journals and store segments already on disk hold lines in this
    encoding, and the CRC covers the text, so the literals are pinned.
    """

    ACCOUNTING = {"wall_seconds": 0.25, "tracegen_seconds": 0.0,
                  "cache_hit": True, "store_hit": False,
                  "path": "native", "peak_rss_kb": 1024}

    def test_journal_envelope(self):
        line = _line(_job(), _result(), journal_version=2,
                     accounting=self.ACCOUNTING)
        assert line == JOURNAL_LINE

    def test_store_envelope_with_metrics(self):
        line = _line(_job(), _result(metrics=True), journal_version=2,
                     fingerprint="0123456789abcdef")
        assert line == STORE_LINE

    def test_histogram_keys_sort_as_text(self):
        line = _line(_job(), _result(), journal_version=2)
        assert '"verify_gap": {"10": 2, "100": 1, "9": 3}' in line
        assert '"metrics": null' in line

    def test_line_passes_its_own_crc(self):
        from repro.sim.checkpoint import parse_record

        line = _line(_job(), _result(metrics=True), journal_version=2,
                     accounting=None)
        record, reason = parse_record(line)
        assert reason is None
        assert record["stats"]["verify_gap"] == {"9": 3, "10": 2,
                                                 "100": 1}
