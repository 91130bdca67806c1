"""Checkpoint persistence: atomic writes, the completion line and its
one decoder."""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


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
    from repro.sim.metrics import RunMetrics
    from repro.sim.result import RunResult
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


#: Text a name may hold: quotes, backslashes, control characters and
#: non-ASCII all reach the line as JSON escapes.
_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_ACCOUNTING = st.none() | st.dictionaries(
    st.sampled_from(("cache_hit", "cycles", "instructions", "name",
                     "path", "policy_name", "wall_seconds")),
    st.none() | st.booleans() | st.integers() | _NAMES
    | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def finished_runs(draw):
    """A run with drawn names, counts, stats, miss rates and metrics."""
    from repro.sim.metrics import RunMetrics
    from repro.sim.result import RunResult
    from repro.util.statistics import StatGroup

    stats = StatGroup("sim")
    for name, value in draw(st.dictionaries(
            st.sampled_from(("auth_requests", "line_reads", "name")),
            st.integers(0, 2 ** 40))).items():
        stats.counter(name).add(value)
    for key, count in draw(st.dictionaries(st.integers(0, 500),
                                           st.integers(1, 9))).items():
        stats.histogram("verify_gap").add(key, count)
    rates = st.dictionaries(_NAMES, st.floats(0, 1), max_size=3)
    result = RunResult(draw(_NAMES), draw(_NAMES),
                       draw(st.integers(0, 2 ** 40)),
                       draw(st.integers(0, 2 ** 40)), stats, draw(rates))
    if draw(st.booleans()):
        result.metrics = RunMetrics(cycles=result.cycles,
                                    instructions=result.instructions,
                                    ipc=result.ipc, miss_rates=draw(rates))
    return result


def _reseal(line):
    """``line`` with its ``crc32`` field recomputed over its new text."""
    head, rest = line.split(b'"crc32": ', 1)
    tail = rest.split(b", ", 1)[1]
    return b'%s"crc32": %d, %s' % (head, zlib.crc32(head + tail), tail)


class TestReadResult:
    """:func:`read_result` against a full parse of the same line."""

    @settings(max_examples=150, deadline=None)
    @given(result=finished_runs(), store=st.booleans(),
           accounting=_ACCOUNTING)
    def test_text_fields_equal_a_full_parse(self, result, store,
                                            accounting):
        from repro.exec.chaos import result_digest
        from repro.sim.checkpoint import read_result

        envelope = ({"fingerprint": "0123456789abcdef"} if store
                    else {"accounting": accounting})
        raw = _line(_job(), result, journal_version=2, **envelope).encode()
        record = json.loads(raw)
        hit, reason = read_result(raw, _job().job_id,
                                  envelope.get("fingerprint"))
        assert reason is None
        assert (hit.name, hit.policy_name, hit.instructions, hit.cycles) \
            == (record["name"], record["policy_name"],
                record["instructions"], record["cycles"])
        assert result_digest(hit) == result_digest(result)
        assert hit.metrics == result.metrics
        assert hit.accounting == record.get("accounting")

    def test_first_access_decodes_once(self, monkeypatch):
        from repro.sim.checkpoint import read_result
        from repro.util.statistics import StatGroup

        hit, _ = read_result(JOURNAL_LINE.encode(), _job().job_id)
        calls = []
        loads, from_dict = json.loads, StatGroup.from_dict.__func__
        monkeypatch.setattr(json, "loads", lambda *args: calls.append(
            "loads") or loads(*args))
        monkeypatch.setattr(StatGroup, "from_dict", classmethod(
            lambda cls, *args, **kwargs: calls.append("from_dict")
            or from_dict(cls, *args, **kwargs)))
        hit.accounting = {"path": "store"}
        assert hit.stats["line_reads"].value == 42
        assert calls == ["loads", "from_dict"]
        assert hit.miss_summary == {"l1d": 0.125, "l2": 0.5}
        assert hit.stats["verify_gap"].buckets == {9: 3, 10: 2, 100: 1}
        assert calls == ["loads", "from_dict"]
        assert hit.accounting == {"path": "store"}

    def test_checks_are_made_on_the_bytes(self):
        from repro.sim.checkpoint import read_result

        line = STORE_LINE.encode()
        job_id = _job().job_id
        assert read_result(line, job_id, "0123456789abcdef")[1] is None
        assert read_result(line, job_id, "fedcba9876543210") == (None, None)
        assert read_result(line, "0" * 16) == (None, None)
        assert read_result(JOURNAL_LINE.encode(), job_id,
                           "0123456789abcdef") == (None, None)
        bad = line.replace(b'"cycles": 2500', b'"cycles": 2501')
        assert read_result(bad, job_id)[1].startswith("crc32 mismatch")
        renamed = _reseal(line.replace(b'"name": ', b'"nom": '))
        assert read_result(renamed, job_id) == (None, "malformed record")

    def test_a_crc_collision_over_broken_json_fails_at_first_access(self):
        """The one late failure: sealed bytes that are not JSON pass
        every byte check, so only the decode can refuse them."""
        from repro.sim.checkpoint import read_result

        broken = _reseal(JOURNAL_LINE.encode().replace(
            b'"line_reads": 42', b'"line_reads": 4 2'))
        hit, reason = read_result(broken, _job().job_id)
        assert reason is None and hit.cycles == 2500
        with pytest.raises(ValueError):
            hit.stats
