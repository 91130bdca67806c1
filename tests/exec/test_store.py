"""Artifact-store tests: round trips, bit-identity, corruption, locks."""

import json
import multiprocessing
import os
import socket
import threading
import time
import zlib

import pytest

from repro.config import SimConfig
from repro.cpu import native
from repro.cpu.prepass import build_prepass
from repro.exec import (
    ArtifactStore,
    ParallelExecutor,
    SerialExecutor,
    TraceCache,
    build_job_groups,
    build_jobs,
    execute_job,
    set_active_store,
)
from repro.exec.chaos import result_digest
from repro.exec.store import (
    _FINGERPRINT_FILES,
    _PREAMBLE,
    _PREAMBLE_LEN,
    STORE_ENV,
    _fingerprint_files,
    code_fingerprint,
    default_store_path,
)
from repro.sim.checkpoint import JournalTail, SegmentIndex, completion_line
from repro.workloads.spec import get_profile
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace

N = 1200
WARMUP = 600
JOBS = build_jobs(["gzip", "mcf"], ["decrypt-only", "authen-then-commit"],
                  num_instructions=N, warmup=WARMUP)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def active(store):
    """Install ``store`` process-wide for the test, restore after."""
    previous = set_active_store(store)
    yield store
    set_active_store(previous)


def _trace(benchmark="gzip", total=N + WARMUP, seed=12345):
    return generate_trace(get_profile(benchmark), total, seed=seed)


class TestTraceRoundTrip:
    def test_columns_bit_identical(self, store):
        trace = _trace()
        assert store.save_trace(trace, "gzip", len(trace), 12345)
        loaded = store.load_trace("gzip", len(trace), 12345)
        assert loaded is not None
        want, got = trace.packed(), loaded.packed()
        assert list(got.pcs) == list(want.pcs)
        assert list(got.ops) == list(want.ops)
        assert list(got.dests) == list(want.dests)
        assert list(got.addrs) == list(want.addrs)
        assert [bool(m) for m in got.mispredicts] == \
            [bool(m) for m in want.mispredicts]
        assert list(got.src_off) == list(want.src_off)
        assert list(got.src_val) == list(want.src_val)
        assert [srcs for _, _, _, srcs, _, _ in got.rows()] == \
            [srcs for _, _, _, srcs, _, _ in want.rows()]
        assert loaded.name == trace.name
        assert loaded.footprint_bytes == trace.footprint_bytes
        assert loaded.suite == trace.suite
        assert len(loaded) == len(trace)

    def test_loads_a_plain_trace(self, store):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 12345)
        loaded = store.load_trace("gzip", len(trace), 12345)
        assert type(loaded) is Trace
        assert loaded.op_mix() == trace.op_mix()

    def test_miss_on_absent_key(self, store):
        assert store.load_trace("gzip", 999, 1) is None
        assert store.counters["trace_misses"] == 1

    def test_distinct_keys_distinct_entries(self, store):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 1)
        assert store.load_trace("gzip", len(trace), 2) is None
        assert store.load_trace("mcf", len(trace), 1) is None
        assert store.load_trace("gzip", len(trace), 1) is not None


class TestPrepassRoundTrip:
    def test_columns_and_scalars_bit_identical(self, store):
        config = SimConfig()
        trace = _trace(total=N + WARMUP, seed=config.seed)
        built = build_prepass(trace, config, warmup=WARMUP)
        assert store.save_prepass(built, "gzip", len(trace), config.seed,
                                  config, WARMUP)
        loaded = store.load_prepass("gzip", len(trace), config.seed,
                                    config, WARMUP, trace.packed())
        assert loaded is not None
        from repro.exec.store import _PREPASS_COLUMNS, _PREPASS_SCALARS

        for name in _PREPASS_COLUMNS:
            assert list(getattr(loaded, name)) == \
                list(getattr(built, name)), name
        for name in _PREPASS_SCALARS:
            assert getattr(loaded, name) == getattr(built, name), name
        assert loaded.miss_summary == built.miss_summary
        assert loaded.packed is trace.packed()

    def test_replay_identical_through_loaded_prepass(self, store):
        from repro.cpu.shared_kernel import replay_policy
        from repro.policies import make_policy

        config = SimConfig()
        trace = _trace(total=N + WARMUP, seed=config.seed)
        built = build_prepass(trace, config, warmup=WARMUP)
        store.save_prepass(built, "gzip", len(trace), config.seed,
                           config, WARMUP)
        loaded = store.load_prepass("gzip", len(trace), config.seed,
                                    config, WARMUP, trace.packed())
        policy = make_policy("authen-then-commit")
        want = replay_policy(built, policy, config)
        got = replay_policy(loaded, make_policy("authen-then-commit"),
                            config)
        assert got.cycles == want.cycles
        assert got.stats.as_dict() == want.stats.as_dict()


class TestColdWarmIdentity:
    def test_serial_cold_warm_no_store_identical(self, active):
        previous = set_active_store(None)
        try:
            reference = SerialExecutor(cache=TraceCache()).run(JOBS)
        finally:
            set_active_store(previous)
        cold = SerialExecutor(cache=TraceCache()).run(JOBS)
        warm = SerialExecutor(cache=TraceCache()).run(JOBS)
        for job in JOBS:
            want = result_digest(reference[job])
            assert result_digest(cold[job]) == want
            assert result_digest(warm[job]) == want
            assert cold[job].stats.as_dict() == \
                warm[job].stats.as_dict()

    def test_warm_jobs_short_circuit(self, active):
        SerialExecutor(cache=TraceCache()).run(JOBS)
        warm = SerialExecutor(cache=TraceCache())
        warm.run(JOBS)
        assert all(outcome.store_hit
                   for outcome in warm.last_outcomes.values())

    def test_parallel_warm_identical(self, active):
        cold = SerialExecutor(cache=TraceCache()).run(JOBS)
        with ParallelExecutor(2) as executor:
            warm = executor.run(JOBS)
        for job in JOBS:
            assert result_digest(warm[job]) == result_digest(cold[job])

    def test_grouped_cold_warm_identical(self, active):
        groups = build_job_groups(["gzip", "mcf"],
                                  ["decrypt-only", "authen-then-commit",
                                   "authen-then-issue"],
                                  num_instructions=N, warmup=WARMUP)
        previous = set_active_store(None)
        try:
            reference = SerialExecutor(cache=TraceCache()).run(groups)
        finally:
            set_active_store(previous)
        cold = SerialExecutor(cache=TraceCache()).run(groups)
        warm_exec = SerialExecutor(cache=TraceCache())
        warm = warm_exec.run(groups)
        ref = {job.job_id: result_digest(result)
               for job, result in reference.items()}
        for job, result in cold.items():
            assert result_digest(result) == ref[job.job_id]
        for job, result in warm.items():
            assert result_digest(result) == ref[job.job_id]
        assert all(outcome.store_hit
                   for outcome in warm_exec.last_outcomes.values())
        # Walks run in-process and are never stored.
        assert active.stats()["tiers"]["prepass"]["entries"] == 0


class TestResultShortCircuit:
    def test_accounting_marks_store_hit(self, active):
        job = JOBS[0]
        cold = execute_job(job, cache=TraceCache())
        assert cold.accounting["store_hit"] is False
        warm = execute_job(job, cache=TraceCache())
        assert warm.accounting["store_hit"] is True
        assert warm.accounting["tracegen_seconds"] == 0.0
        assert warm.accounting["cache_hit"] is None
        assert result_digest(warm) == result_digest(cold)
        assert warm.metrics is not None
        assert warm.metrics.as_dict() == cold.metrics.as_dict()

    def test_fresh_accounting_not_recorded_accounting(self, active):
        job = JOBS[0]
        cold = execute_job(job, cache=TraceCache())
        warm = execute_job(job, cache=TraceCache())
        # wall time describes *this* execution, not the recorded one.
        assert warm.accounting["wall_seconds"] <= \
            cold.accounting["wall_seconds"]


class TestCorruption:
    def test_truncated_trace_quarantined_and_regenerated(self, store):
        previous = set_active_store(store)
        try:
            cold = SerialExecutor(cache=TraceCache()).run(JOBS)
            path = sorted(p for p, _ in store._entries("traces"))[0]
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
            # Also wipe results so re-execution really re-reads traces.
            for rpath, _ in list(store._entries("results")):
                os.unlink(rpath)
            healed = SerialExecutor(cache=TraceCache()).run(JOBS)
        finally:
            set_active_store(previous)
        assert store.counters["quarantined"] >= 1
        assert os.path.exists(
            os.path.join(store.root, "quarantine",
                         os.path.basename(path)))
        rej = os.path.join(store.root, "quarantine.rej")
        assert os.path.exists(rej)
        with open(rej) as handle:
            reasons = [json.loads(line) for line in handle]
        assert any(r["entry"] == os.path.basename(path) for r in reasons)
        for job in JOBS:
            assert result_digest(healed[job]) == result_digest(cold[job])
        # The entry was republished by the heal run.
        assert os.path.exists(path)

    def test_bitflipped_result_quarantined(self, store):
        previous = set_active_store(store)
        try:
            job = JOBS[0]
            cold = execute_job(job, cache=TraceCache())
            _flip_line(store, job)
            healed = execute_job(job, cache=TraceCache())
        finally:
            set_active_store(previous)
        assert healed.accounting["store_hit"] is False
        assert store.counters["quarantined"] == 1
        assert result_digest(healed) == result_digest(cold)

    def test_garbage_file_is_a_miss_not_a_crash(self, store):
        name = store.trace_name("gzip", N + WARMUP, 7)
        path = os.path.join(store.root, "traces", name)
        with open(path, "wb") as handle:
            handle.write(b"not a store entry at all")
        assert store.load_trace("gzip", N + WARMUP, 7) is None
        assert store.counters["quarantined"] == 1

    def test_crc_valid_entry_with_short_src_val_quarantined(self, store):
        """An entry whose CRCs hold but whose ``src_val`` column is cut
        in half fails the trace check on load: a miss, quarantined."""
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 12345)
        path = store._path("traces",
                           store.trace_name("gzip", len(trace), 12345))
        _rewrite_header(path, lambda header: [
            spec.update(bytes=spec["bytes"] // 16 * 8)
            for spec in header["columns"] if spec["name"] == "src_val"])
        assert store.load_trace("gzip", len(trace), 12345) is None
        assert store.counters["quarantined"] == 1
        assert os.path.exists(os.path.join(store.root, "quarantine",
                                           os.path.basename(path)))

    @pytest.mark.parametrize("edit", [
        lambda header: header["columns"][0].pop("fmt"),
        lambda header: header["columns"][1].update(offset=-8),
        lambda header: header["columns"][2].update(bytes=12),
        lambda header: header.pop("columns"),
    ], ids=["no-fmt", "negative-offset", "ragged-bytes", "no-columns"])
    def test_crc_valid_entry_with_bad_column_spec_quarantined(self, store,
                                                              edit):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 12345)
        path = store._path("traces",
                           store.trace_name("gzip", len(trace), 12345))
        _rewrite_header(path, edit)
        assert store.load_trace("gzip", len(trace), 12345) is None
        assert store.counters["quarantined"] == 1

    def test_verify_runs_the_trace_check(self, store):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 1)
        store.save_trace(trace, "gzip", len(trace), 2)
        path = store._path("traces", store.trace_name("gzip", len(trace), 1))
        _rewrite_header(path, lambda header: [
            spec.update(offset=0)
            for spec in header["columns"] if spec["name"] == "src_off"])
        report = store.verify()
        assert (report["corrupt"], report["ok"]) == (1, 1)
        assert store.stats()["quarantined_entries"] == 1

    def test_verify_quarantines_corruption_counts_stale(self, store):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 1)
        store.save_trace(trace, "gzip", len(trace), 2)
        paths = sorted(p for p, _ in store._entries("traces"))
        with open(paths[0], "r+b") as handle:
            handle.truncate(10)
        report = store.verify()
        assert report["checked"] == 2
        assert report["corrupt"] == 1
        assert report["ok"] == 1
        assert store.stats()["quarantined_entries"] == 1


def _rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the entry at ``path`` and
    reseal it: a fresh header CRC, the payload and its CRC unchanged."""
    with open(path, "rb") as handle:
        body = handle.read()
    magic, version, header_len, _, payload_len, payload_crc = \
        _PREAMBLE.unpack_from(body, 0)
    header_end = _PREAMBLE_LEN + header_len
    payload = body[(header_end + 7) & ~7:][:payload_len]
    header = json.loads(body[_PREAMBLE_LEN:header_end])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    out = _PREAMBLE.pack(magic, version, len(blob), zlib.crc32(blob),
                         payload_len, payload_crc)
    out = out.ljust(_PREAMBLE_LEN, b"\x00") + blob
    out = out.ljust((len(out) + 7) & ~7, b"\x00") + payload
    with open(path, "wb") as handle:
        handle.write(out)


def _segments(store):
    return sorted(os.path.basename(p) for p, _ in store._entries("results"))


def _flip_line(store, job):
    """Flip one bit in the middle of ``job``'s result line."""
    for path, _ in store._entries("results"):
        for offset, line, record, _ in JournalTail(path).lines():
            if record is not None and record["job_id"] == job.job_id:
                with open(path, "r+b") as handle:
                    handle.seek(offset + len(line) // 2)
                    byte = handle.read(1)[0]
                    handle.seek(offset + len(line) // 2)
                    handle.write(bytes([byte ^ 0x01]))
                return path
    raise AssertionError("no line for %s" % job.job_id)


def _line_of(store, job):
    """The bytes of the line ``store`` indexed for ``job``."""
    return SegmentIndex.line(store._index.entries[job.job_id])


def _save_child(store, job, result):
    """Forked child: save through the store inherited from the parent."""
    store.save_result(job, result)


@pytest.fixture(scope="module")
def computed():
    """Results for JOBS, simulated once without a store."""
    return SerialExecutor(cache=TraceCache()).run(JOBS)


class TestResultSegments:
    def test_save_appends_one_line_to_a_segment_made_on_first_save(
            self, store, computed):
        assert _segments(store) == []      # opening writes nothing
        assert store.load_result(JOBS[0]) is None
        assert _segments(store) == []      # neither does a lookup
        for job in JOBS[:2]:
            assert store.save_result(job, computed[job])
        [name] = _segments(store)
        assert name.startswith("%s-%s-%d-" % (code_fingerprint("result"),
                                              socket.gethostname(),
                                              os.getpid()))
        assert name.endswith(".journal")
        with open(os.path.join(store.root, "results", name), "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2
        assert store.stats()["tiers"]["results"]["records"] == 2
        assert result_digest(store.load_result(JOBS[1])) == \
            result_digest(computed[JOBS[1]])

    def test_stores_and_forked_child_write_own_segments_and_share(
            self, tmp_path, computed):
        first = ArtifactStore(tmp_path / "store")
        second = ArtifactStore(tmp_path / "store")
        assert first.load_result(JOBS[1]) is None    # indexes: empty
        first.save_result(JOBS[0], computed[JOBS[0]])
        second.save_result(JOBS[1], computed[JOBS[1]])
        child = multiprocessing.get_context("fork").Process(
            target=_save_child, args=(first, JOBS[2], computed[JOBS[2]]))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        names = _segments(first)
        assert len(names) == 3
        assert any("-%d-" % child.pid in name for name in names)
        # Each store finds what the others appended after its index
        # was built: a miss polls the segments before it is reported.
        for store in (first, second):
            for job in JOBS[:3]:
                loaded = store.load_result(job)
                assert result_digest(loaded) == result_digest(computed[job])
        assert first.counters["result_hits"] == 3

    def test_threads_share_one_store_without_losing_a_record(
            self, store, computed):
        import sys

        errors = []
        # Never saved: every lookup of it polls the segments.
        [absent] = build_jobs(["gcc"], ["decrypt-only"],
                              num_instructions=N, warmup=WARMUP)

        def worker(index):
            job = JOBS[index % len(JOBS)]
            try:
                for _ in range(5):
                    store.save_result(job, computed[job])
                    store.load_result(absent)
                    if result_digest(store.load_result(job)) != \
                            result_digest(computed[job]):
                        errors.append(index)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.counters["quarantined"] == 0
        fresh = ArtifactStore(store.root)
        assert all(fresh.load_result(job) is not None for job in JOBS)
        assert fresh.stats()["tiers"]["results"]["records"] == 8 * 5

    def test_flipped_line_is_a_counted_miss_and_resimulated(
            self, tmp_path, computed):
        root = tmp_path / "store"
        cold = ArtifactStore(root)
        for job in JOBS[:2]:
            cold.save_result(job, computed[job])
        flipped = os.path.basename(_flip_line(cold, JOBS[0]))
        heal = ArtifactStore(root)
        previous = set_active_store(heal)
        try:
            healed = execute_job(JOBS[0], cache=TraceCache())
            again = heal.load_result(JOBS[0])
        finally:
            set_active_store(previous)
        assert healed.accounting["store_hit"] is False
        assert result_digest(healed) == result_digest(computed[JOBS[0]])
        assert heal.counters["quarantined"] == 1
        assert result_digest(again) == result_digest(computed[JOBS[0]])
        [new] = set(_segments(heal)) - {flipped}
        assert new != flipped
        with open(root / "quarantine.rej") as handle:
            [evidence] = [json.loads(line) for line in handle]
        assert evidence["entry"] == flipped and "offset" in evidence
        assert heal.load_result(JOBS[1]) is not None

    def test_a_hit_parses_its_line_once(self, tmp_path, computed,
                                        monkeypatch):
        """The poll indexes lines by their bytes; only the hit parses."""
        root = tmp_path / "store"
        cold = ArtifactStore(root)
        for job in JOBS:
            cold.save_result(job, computed[job])
        parses = []
        loads = json.loads

        def counting(*args, **kwargs):
            parses.append(1)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        warm = ArtifactStore(root)
        for job in JOBS:
            assert result_digest(warm.load_result(job)) == \
                result_digest(computed[job])
        assert warm.counters["result_hits"] == len(JOBS)
        assert len(parses) == len(JOBS)

    def test_damage_after_indexing_is_rejected_at_the_hit(
            self, tmp_path, computed):
        """A line damaged after the poll indexed it fails at the hit,
        which re-checks its bytes; a hit already returned holds its own
        bytes, so its first access never rejects anything."""
        root = tmp_path / "store"
        cold = ArtifactStore(root)
        for job in JOBS[:2]:
            cold.save_result(job, computed[job])
        warm = ArtifactStore(root)
        early = warm.load_result(JOBS[0])     # indexes both lines
        stored = json.loads(_line_of(warm, JOBS[0]))["crc32"]
        _flip_line(warm, JOBS[0])
        assert warm.load_result(JOBS[0]) is None
        assert warm.counters["quarantined"] == 1
        with open(root / "quarantine.rej") as handle:
            [evidence] = [json.loads(line) for line in handle]
        assert evidence["reason"] == "crc32 mismatch (stored %d)" % stored
        assert evidence["offset"] == 0
        assert result_digest(early) == result_digest(computed[JOBS[0]])
        assert warm.load_result(JOBS[1]) is not None

    @pytest.mark.parametrize("damage, reason", [
        (lambda line: line.replace(b'"crc32": ', b'"crc32": 1', 1),
         "crc32 mismatch (stored 1%d)"),
        (lambda line: line[:len(line) // 2] + b"\n",
         "unparseable JSON (torn write?)"),
    ], ids=["bad-crc", "torn"])
    def test_bad_line_quarantined_at_poll_with_its_reason(
            self, tmp_path, computed, damage, reason):
        root = tmp_path / "store"
        cold = ArtifactStore(root)
        for job in JOBS[:2]:
            cold.save_result(job, computed[job])
        [path] = [path for path, _ in cold._entries("results")]
        with open(path, "rb") as handle:
            first, second = handle.read().splitlines(keepends=True)
        stored = json.loads(first)["crc32"]
        with open(path, "wb") as handle:
            handle.write(damage(first) + second)
        warm = ArtifactStore(root)
        # A lookup of the sound line polls the segment: the poll finds
        # the damaged line and quarantines it with the reason.
        assert warm.load_result(JOBS[1]) is not None
        assert warm.counters["quarantined"] == 1
        with open(root / "quarantine.rej") as handle:
            [evidence] = [json.loads(line) for line in handle]
        expected = reason % stored if "%d" in reason else reason
        assert evidence["reason"] == expected
        assert evidence["offset"] == 0
        assert warm.load_result(JOBS[0]) is None

    def test_corrupt_line_is_logged_and_counted_once(self, tmp_path,
                                                      computed):
        root = tmp_path / "store"
        cold = ArtifactStore(root)
        for job in JOBS[:2]:
            cold.save_result(job, computed[job])
        _flip_line(cold, JOBS[0])
        first, second = ArtifactStore(root), ArtifactStore(root)
        assert first.load_result(JOBS[0]) is None
        assert second.load_result(JOBS[0]) is None
        assert first.verify()["corrupt"] == 1
        assert first.counters["quarantined"] == 1
        assert second.counters["quarantined"] == 0
        with open(root / "quarantine.rej") as handle:
            assert len(handle.readlines()) == 1
        stats = second.stats()
        assert stats["tiers"]["results"]["corrupt"] == 1
        assert stats["tiers"]["results"]["records"] == 1
        assert stats["quarantined_entries"] == 1

    def test_a_torn_log_line_hides_no_evidence(self, tmp_path, computed):
        root = tmp_path / "store"
        cold = ArtifactStore(root)
        cold.save_result(JOBS[0], computed[JOBS[0]])
        _flip_line(cold, JOBS[0])
        with open(root / "quarantine.rej", "w") as handle:
            handle.write('{"entry": "torn')     # a log append cut short
        first, second = ArtifactStore(root), ArtifactStore(root)
        assert first.load_result(JOBS[0]) is None
        assert second.load_result(JOBS[0]) is None
        assert first.counters["quarantined"] == 1
        assert second.counters["quarantined"] == 0
        with open(root / "quarantine.rej") as handle:
            # The evidence fused onto the torn line, and is there once.
            assert handle.read().count('"offset": 0}') == 1

    def test_other_fingerprints_segments_are_not_read(
            self, store, computed, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr("repro.exec.store.code_fingerprint",
                          lambda kind: "f" * 16)
            store.save_result(JOBS[0], computed[JOBS[0]])
        [name] = _segments(store)
        assert name.startswith("f" * 16 + "-")
        fresh = ArtifactStore(store.root)
        read = []
        lines = JournalTail.lines

        def counting_lines(tail, final=False):
            read.append(tail.path)
            yield from lines(tail, final)

        with monkeypatch.context() as patch:
            patch.setattr(JournalTail, "lines", counting_lines)
            assert fresh.load_result(JOBS[0]) is None
        assert read == []
        assert fresh.verify()["stale"] == 1

    def test_gc_evicted_segment_is_never_recreated(self, tmp_path,
                                                   computed):
        root = tmp_path / "store"
        writer = ArtifactStore(root, stale_lock_seconds=0.0)
        reader = ArtifactStore(root)
        writer.save_result(JOBS[0], computed[JOBS[0]])
        assert reader.load_result(JOBS[0]) is not None
        [evicted] = _segments(writer)
        assert writer.gc(0)["evicted"] == 1
        writer.save_result(JOBS[1], computed[JOBS[1]])
        [fresh] = _segments(writer)
        assert fresh != evicted
        assert reader.load_result(JOBS[0]) is None
        assert result_digest(reader.load_result(JOBS[1])) == \
            result_digest(computed[JOBS[1]])
        assert reader.counters["quarantined"] == 0

    def test_segment_recreated_under_a_known_name_is_reread(
            self, tmp_path, computed):
        root = tmp_path / "store"
        first = ArtifactStore(root)
        reader = ArtifactStore(root)
        for job in JOBS[:2]:
            first.save_result(job, computed[job])
        assert reader.load_result(JOBS[0]) is not None
        [name] = _segments(first)
        path = os.path.join(root, "results", name)
        os.unlink(path)
        # Another process that reuses the name writes a shorter segment.
        other = ArtifactStore(root)
        other._segment = path
        open(path, "wb").close()
        other.save_result(JOBS[2], computed[JOBS[2]])
        assert reader.load_result(JOBS[1]) is None
        assert result_digest(reader.load_result(JOBS[2])) == \
            result_digest(computed[JOBS[2]])
        assert reader.load_result(JOBS[0]) is None
        assert reader.counters["quarantined"] == 0

    def test_old_per_file_entry_is_stale(self, store, computed):
        # The previous result-tier layout: one JSON file per result,
        # no trailing newline, a store_version envelope.
        job = JOBS[0]
        line = completion_line(job, computed[job], store_version=1,
                               fingerprint=code_fingerprint("result"))
        with open(os.path.join(store.root, "results", "0" * 32 + ".json"),
                  "w") as handle:
            handle.write(line)
        assert store.load_result(job) is None
        assert store.counters["quarantined"] == 0
        report = store.verify()
        assert report == {"checked": 1, "ok": 0, "corrupt": 0, "stale": 1}

    def test_gc_removed_segment_is_a_miss(self, store, computed):
        job = JOBS[0]
        store.save_result(job, computed[job])
        assert store.load_result(job) is not None
        for path, _ in list(store._entries("results")):
            os.unlink(path)
        assert store.load_result(job) is None
        assert store.counters["quarantined"] == 0

    def test_cold_run_reads_back_none_of_its_own_lines(self, tmp_path,
                                                       monkeypatch):
        """Each save moves its segment's poll tail past the line it
        indexed, so the lookups of a cold single-process run poll
        without reading a line back."""
        from repro.experiments.figures import run_figures

        read_back = []
        lines = JournalTail.lines

        def counting_lines(tail, final=False):
            for item in lines(tail, final):
                read_back.append(item[0])
                yield item

        monkeypatch.setattr(JournalTail, "lines", counting_lines)
        store = ArtifactStore(tmp_path / "store")
        previous = set_active_store(store)
        try:
            run_figures(("fig8",), str(tmp_path / "cold"),
                        num_instructions=600, warmup=300,
                        benchmarks=("gzip", "mcf"))
        finally:
            set_active_store(previous)
        assert read_back == []
        saved = store.stats()["tiers"]["results"]["records"]
        assert saved > 1 and store.counters["result_misses"] >= saved

    def test_warm_figures_leave_the_result_tier_untouched(self, tmp_path):
        from repro.experiments.figures import run_figures

        previous = set_active_store(ArtifactStore(tmp_path / "store"))
        try:
            kwargs = dict(num_instructions=600, warmup=300,
                          benchmarks=("gzip",))
            run_figures(("fig8",), str(tmp_path / "cold"), **kwargs)
            folder = tmp_path / "store" / "results"
            before = {entry.name: entry.stat().st_ino
                      for entry in folder.iterdir()}
            warm = ArtifactStore(tmp_path / "store")
            set_active_store(warm)
            run_figures(("fig8",), str(tmp_path / "warm"), **kwargs)
        finally:
            set_active_store(previous)
        after = {entry.name: entry.stat().st_ino
                 for entry in folder.iterdir()}
        assert before and after == before
        assert warm.counters["result_misses"] == 0
        assert warm.counters["result_hits"] > 0


class TestLazyHit:
    """A hit reads its scalars off the line and decodes the rest once,
    on first access."""

    @pytest.fixture
    def warm(self, tmp_path, computed):
        cold = ArtifactStore(tmp_path / "store")
        for job in JOBS:
            cold.save_result(job, computed[job])
        return ArtifactStore(tmp_path / "store")

    def test_a_hit_reads_its_scalars_without_a_parse(self, warm, computed,
                                                     parses):
        for job in JOBS:
            hit = warm.load_result(job)
            assert (hit.name, hit.policy_name, hit.instructions,
                    hit.cycles, hit.ipc) == (
                computed[job].name, computed[job].policy_name,
                computed[job].instructions, computed[job].cycles,
                computed[job].ipc)
        assert parses == {"loads": 0, "from_dict": 0}
        hit.stats
        assert parses == {"loads": 1, "from_dict": 1}
        hit.stats, hit.miss_summary, hit.metrics, hit.accounting
        assert parses == {"loads": 1, "from_dict": 1}
        assert hit.metrics == computed[job].metrics
        assert hit.accounting is None    # a store line carries none

    def test_accounting_set_before_first_access_survives(self, warm,
                                                         computed):
        hit = warm.load_result(JOBS[0])
        hit.accounting = {"path": "store", "store_hit": True}
        assert result_digest(hit) == result_digest(computed[JOBS[0]])
        assert hit.accounting == {"path": "store", "store_hit": True}

    def test_a_never_accessed_hit_pickles_whole(self, warm, computed):
        """A pool worker's store hit crosses back to the main process
        before anything read its stats."""
        import pickle

        hit = warm.load_result(JOBS[1])
        hit.accounting = {"path": "store"}
        clone = pickle.loads(pickle.dumps(hit))
        assert result_digest(clone) == result_digest(computed[JOBS[1]])
        assert clone.accounting == {"path": "store"}
        assert (clone.name, clone.cycles) == (hit.name, hit.cycles)

    def test_a_warm_figure_run_parses_no_line(self, tmp_path, parses):
        from repro.experiments.figures import run_figures

        kwargs = dict(num_instructions=600, warmup=300, benchmarks=("gzip",))
        previous = set_active_store(ArtifactStore(tmp_path / "store"))
        try:
            run_figures(["fig8"], str(tmp_path / "cold"), **kwargs)
            warm = ArtifactStore(tmp_path / "store")
            set_active_store(warm)
            parses.update(loads=0, from_dict=0)
            run_figures(["fig8"], str(tmp_path / "warm"), **kwargs)
        finally:
            set_active_store(previous)
        assert warm.counters["result_hits"] == 4
        assert parses == {"loads": 0, "from_dict": 0}
        with open(tmp_path / "cold" / "fig8.txt", "rb") as handle:
            assert handle.read() == (tmp_path / "warm" /
                                     "fig8.txt").read_bytes()


@pytest.fixture
def parses(monkeypatch):
    """Counts of ``json.loads`` and ``StatGroup.from_dict`` calls."""
    from repro.util.statistics import StatGroup

    counts = {"loads": 0, "from_dict": 0}
    loads, from_dict = json.loads, StatGroup.from_dict.__func__

    def counting_loads(*args, **kwargs):
        counts["loads"] += 1
        return loads(*args, **kwargs)

    def counting_from_dict(cls, *args, **kwargs):
        counts["from_dict"] += 1
        return from_dict(cls, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(StatGroup, "from_dict",
                        classmethod(counting_from_dict))
    return counts


class TestFingerprintInvalidation:
    def test_changed_fingerprint_misses(self, store, monkeypatch):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 1)
        assert store.load_trace("gzip", len(trace), 1) is not None
        monkeypatch.setattr("repro.exec.store.code_fingerprint",
                            lambda kind: "f" * 16)
        # New fingerprint -> new content address -> clean miss; the old
        # entry is untouched (gc ages it out), never misread.
        assert store.load_trace("gzip", len(trace), 1) is None
        assert store.counters["quarantined"] == 0
        assert store.stats()["tiers"]["traces"]["entries"] == 1

    def test_result_fingerprint_in_key(self, store, monkeypatch):
        job = JOBS[0]
        previous = set_active_store(store)
        try:
            execute_job(job, cache=TraceCache())
            warm = execute_job(job, cache=TraceCache())
            assert warm.accounting["store_hit"] is True
            monkeypatch.setattr("repro.exec.store.code_fingerprint",
                                lambda kind: "0" * 16)
            invalidated = execute_job(job, cache=TraceCache())
        finally:
            set_active_store(previous)
        assert invalidated.accounting["store_hit"] is False
        assert result_digest(invalidated) == result_digest(warm)

    def test_fingerprint_tracks_source_bytes(self):
        assert code_fingerprint("trace") == code_fingerprint("trace")
        assert code_fingerprint("trace") != code_fingerprint("prepass")
        assert len(code_fingerprint("result")) == 16

    def test_trace_fingerprint_covers_the_native_generator(self):
        # The C generator loop lives in the kernel's source, so an edit
        # to it must move the trace tier's key like an edit to tracegen.
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        rel = os.path.relpath(os.path.abspath(native.__file__), root)
        assert "repro_tracegen" in native._C_SOURCE
        assert rel.replace(os.sep, "/") in _FINGERPRINT_FILES["trace"]


POLICIES = ("authen-then-issue", "commit+fetch")
ATTACKS = ("pointer-conversion", "page-mask")
LEAKED = {"authen-then-issue": {"pointer-conversion": True,
                                "page-mask": False},
          "commit+fetch": {"pointer-conversion": False, "page-mask": False}}

#: ``repro`` files an attack run loads that the attack fingerprint does
#: not hash, each with the reason it cannot change an outcome.
ATTACK_UNHASHED = {
    "__init__.py": "the root package's map of public names",
    "_lazy.py": "resolves a package's public names on first use",
}

ATTACK_PROBE = """
import os, sys
import repro
from repro.attacks.harness import run_attack
from repro.policies.security import ALL_ATTACKS, TABLE2_POLICIES
for attack in ALL_ATTACKS:
    for policy in TABLE2_POLICIES:
        run_attack(attack, policy)
root = os.path.dirname(os.path.abspath(repro.__file__))
for module in list(sys.modules.values()):
    path = os.path.abspath(getattr(module, "__file__", None) or "/")
    if path.startswith(root + os.sep):
        print(os.path.relpath(path, root).replace(os.sep, "/"))
"""


def _attacks_path(store, policies=POLICIES):
    return store._path("attacks", store.attacks_name(policies, ATTACKS))


class TestAttackTier:
    """Table 2's attack outcomes: one header-only entry per key."""

    def test_round_trip(self, store):
        assert store.load_attacks(POLICIES, ATTACKS) is None
        assert store.save_attacks(POLICIES, ATTACKS, LEAKED)
        assert store.load_attacks(POLICIES, ATTACKS) == LEAKED
        assert store.load_attacks(POLICIES[:1], ATTACKS) is None
        assert (store.counters["attacks_hits"],
                store.counters["attacks_misses"]) == (1, 2)
        tier = store.stats()["tiers"]["attacks"]
        assert tier["entries"] == 1
        assert tier["bytes"] == os.path.getsize(_attacks_path(store))

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_damaged_entry_is_quarantined_recomputed_and_republished(
            self, active, attack_runs, damage):
        from repro.experiments import table2

        cold = table2.emit()
        runs = len(attack_runs)
        (path,) = [p for p, _ in active._entries("attacks")]
        with open(path, "r+b") as handle:
            if damage == "truncate":
                handle.truncate(os.path.getsize(path) // 2)
            else:
                handle.seek(_PREAMBLE_LEN + 4)
                byte = handle.read(1)
                handle.seek(_PREAMBLE_LEN + 4)
                handle.write(bytes([byte[0] ^ 0x01]))
        assert table2.emit() == cold
        assert len(attack_runs) == 2 * runs
        assert active.counters["quarantined"] == 1
        assert os.path.exists(os.path.join(active.root, "quarantine",
                                           os.path.basename(path)))
        assert table2.emit() == cold            # served by the new entry
        assert len(attack_runs) == 2 * runs
        assert active.counters["attacks_hits"] == 1

    @pytest.mark.parametrize("edit", [
        lambda header: header["leaked"]["commit+fetch"].pop("page-mask"),
        lambda header: header["leaked"]["commit+fetch"].update(
            {"page-mask": 0}),
        lambda header: header["key"].update(attacks=["page-mask"]),
        lambda header: header.pop("leaked"),
    ], ids=["missing-cell", "non-bool-cell", "other-key", "no-matrix"])
    def test_a_matrix_unlike_its_key_is_quarantined(self, store, edit):
        store.save_attacks(POLICIES, ATTACKS, LEAKED)
        _rewrite_header(_attacks_path(store), edit)
        assert store.load_attacks(POLICIES, ATTACKS) is None
        assert store.counters["quarantined"] == 1

    def test_a_foreign_fingerprint_is_a_stale_miss(self, store,
                                                   monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr("repro.exec.store.code_fingerprint",
                          lambda kind: "f" * 16)
            store.save_attacks(POLICIES, ATTACKS, LEAKED)
        assert store.load_attacks(POLICIES, ATTACKS) is None
        assert store.counters["quarantined"] == 0
        assert store.stats()["tiers"]["attacks"]["entries"] == 1
        assert store.verify() == {"checked": 1, "ok": 0, "corrupt": 0,
                                  "stale": 1}

    def test_verify_counts_ok_stale_and_corrupt(self, store, monkeypatch):
        store.save_attacks(POLICIES, ATTACKS, LEAKED)
        store.save_attacks(POLICIES[:1], ATTACKS, LEAKED)
        with open(_attacks_path(store, POLICIES[:1]), "r+b") as handle:
            handle.truncate(10)
        with monkeypatch.context() as patch:
            patch.setattr("repro.exec.store.code_fingerprint",
                          lambda kind: "f" * 16)
            store.save_attacks(POLICIES, ATTACKS, LEAKED)
        assert store.verify() == {"checked": 3, "ok": 1, "corrupt": 1,
                                  "stale": 1}
        stats = store.stats()
        assert stats["tiers"]["attacks"]["entries"] == 2
        assert stats["quarantined_entries"] == 1

    def test_gc_evicts_an_attack_entry(self, store):
        store.save_attacks(POLICIES, ATTACKS, LEAKED)
        old = time.time() - store.stale_lock_seconds - 1
        os.utime(_attacks_path(store), (old, old))
        assert store.gc(max_bytes=0)["evicted"] == 1
        assert store.stats()["total_bytes"] == 0

    def test_fingerprint_covers_every_file_an_attack_runs(self):
        """An edit to any code an attack ran moves the tier's key, so it
        can never serve a stale cell."""
        import subprocess
        import sys

        from tests.repro_env import repro_env

        proc = subprocess.run([sys.executable, "-c", ATTACK_PROBE],
                              capture_output=True, text=True, timeout=120,
                              env=repro_env())
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "func/machine.py" in loaded
        _root, hashed = _fingerprint_files("attacks")
        assert sorted(loaded - set(hashed)) == sorted(ATTACK_UNHASHED)


class TestSingleFlight:
    def test_concurrent_readers_coalesce_to_one_generation(
            self, store, monkeypatch):
        calls = []
        real = generate_trace

        def counting(profile, length, seed=0):
            calls.append(threading.get_ident())
            time.sleep(0.05)
            return real(profile, length, seed=seed)

        monkeypatch.setattr("repro.exec.cache.generate_trace", counting)
        results = {}

        def reader(index):
            cache = TraceCache(store=store)
            trace = cache.get("gzip", N + WARMUP, 9)
            results[index] = list(trace.packed().pcs)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert len({tuple(pcs) for pcs in results.values()}) == 1
        assert store.counters["lock_waits"] >= 1

    def test_waiter_rechecks_after_lock(self, store):
        trace = _trace()
        name = store.trace_name("gzip", len(trace), 3)
        with store.single_flight("traces", name) as leader:
            assert leader
            # Leader publishes while holding the lock.
            store.save_trace(trace, "gzip", len(trace), 3)
        # A late-coming process acquires and finds the entry.
        with store.single_flight("traces", name) as leader:
            assert leader
            assert store.load_trace("gzip", len(trace), 3) is not None

    def test_stale_lock_from_dead_pid_is_broken(self, store):
        proc = multiprocessing.Process(target=_noop)
        proc.start()
        proc.join()
        lock_path = os.path.join(store.root, "locks", "traces-xyz.lock")
        with open(lock_path, "w") as handle:
            json.dump({"pid": proc.pid, "created": time.time()}, handle)
        with store.single_flight("traces", "xyz") as leader:
            assert leader
        assert store.counters["lock_breaks"] == 1
        assert not os.path.exists(lock_path)

    def test_aged_lock_from_live_pid_is_broken(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", stale_lock_seconds=0.05)
        lock_path = os.path.join(store.root, "locks", "traces-old.lock")
        with open(lock_path, "w") as handle:
            json.dump({"pid": os.getpid(), "created": time.time()},
                      handle)
        old = time.time() - 10
        os.utime(lock_path, (old, old))
        with store.single_flight("traces", "old") as leader:
            assert leader
        assert store.counters["lock_breaks"] == 1

    def test_lock_payload_names_host_and_pid(self, store):
        with store.single_flight("traces", "payload") as leader:
            assert leader
            lock_path = os.path.join(store.root, "locks",
                                     "traces-payload.lock")
            with open(lock_path) as handle:
                payload = json.load(handle)
        assert payload["pid"] == os.getpid()
        assert payload["host"] == socket.gethostname()

    def test_foreign_host_lock_ignores_pid_liveness(self, tmp_path):
        # Pid numbers are per-host namespaces: a pid that is dead
        # *here* says nothing about the owner on another host.  A
        # fresh foreign lock must survive until the age timeout.
        store = ArtifactStore(tmp_path / "s", lock_timeout=0.05)
        proc = multiprocessing.Process(target=_noop)
        proc.start()
        proc.join()
        lock_path = os.path.join(store.root, "locks", "traces-far.lock")
        with open(lock_path, "w") as handle:
            json.dump({"pid": proc.pid, "host": "somewhere-else",
                       "created": time.time()}, handle)
        with store.single_flight("traces", "far") as leader:
            assert not leader      # waited out, degraded to solo
        assert store.counters["lock_breaks"] == 0
        assert os.path.exists(lock_path)
        os.unlink(lock_path)

    def test_foreign_host_lock_is_broken_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", stale_lock_seconds=0.05)
        lock_path = os.path.join(store.root, "locks",
                                 "traces-faraged.lock")
        with open(lock_path, "w") as handle:
            json.dump({"pid": 1, "host": "somewhere-else",
                       "created": time.time()}, handle)
        old = time.time() - 10
        os.utime(lock_path, (old, old))
        with store.single_flight("traces", "faraged") as leader:
            assert leader
        assert store.counters["lock_breaks"] == 1

    def test_local_dead_pid_lock_is_broken_immediately(self, store):
        proc = multiprocessing.Process(target=_noop)
        proc.start()
        proc.join()
        lock_path = os.path.join(store.root, "locks", "traces-home.lock")
        with open(lock_path, "w") as handle:
            json.dump({"pid": proc.pid, "host": socket.gethostname(),
                       "created": time.time()}, handle)
        with store.single_flight("traces", "home") as leader:
            assert leader
        assert store.counters["lock_breaks"] == 1
        assert not os.path.exists(lock_path)

    def test_wait_timeout_degrades_to_solo_generation(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", lock_timeout=0.05)
        lock_path = os.path.join(store.root, "locks", "traces-held.lock")
        with open(lock_path, "w") as handle:
            json.dump({"pid": os.getpid(), "created": time.time()},
                      handle)
        started = time.monotonic()
        with store.single_flight("traces", "held") as leader:
            assert not leader  # advisory: caller generates anyway
        assert time.monotonic() - started < 5.0
        assert store.counters["lock_waits"] == 1
        os.unlink(lock_path)


class TestGc:
    def test_evicts_least_recently_used_first(self, store):
        trace = _trace()
        for seed in (1, 2, 3):
            store.save_trace(trace, "gzip", len(trace), seed)
        paths = {seed: os.path.join(
            store.root, "traces", store.trace_name("gzip", len(trace),
                                                   seed))
            for seed in (1, 2, 3)}
        now = time.time()
        for age, seed in ((300, 1), (200, 2), (100, 3)):
            os.utime(paths[seed], (now - age, now - age))
        size = os.path.getsize(paths[1])
        report = store.gc(max_bytes=size * 2)
        assert report["evicted"] == 1
        assert not os.path.exists(paths[1])      # oldest went first
        assert os.path.exists(paths[2])
        assert os.path.exists(paths[3])
        assert report["kept"] == 2

    def test_load_refreshes_recency(self, store):
        trace = _trace()
        for seed in (1, 2):
            store.save_trace(trace, "gzip", len(trace), seed)
        paths = {seed: os.path.join(
            store.root, "traces", store.trace_name("gzip", len(trace),
                                                   seed))
            for seed in (1, 2)}
        old = time.time() - 500
        os.utime(paths[2], (old, old))
        os.utime(paths[1], (old - 500, old - 500))
        # Touching entry 1 via a load makes entry 2 the LRU victim.
        assert store.load_trace("gzip", len(trace), 1) is not None
        store.gc(max_bytes=os.path.getsize(paths[1]))
        assert os.path.exists(paths[1])
        assert not os.path.exists(paths[2])

    def test_gc_to_zero_empties_the_store(self, store):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 1)
        path = os.path.join(
            store.root, "traces", store.trace_name("gzip", len(trace), 1))
        old = time.time() - store.stale_lock_seconds - 1
        os.utime(path, (old, old))
        report = store.gc(max_bytes=0)
        assert report["evicted"] == 1
        assert report["kept"] == 0
        assert report["pinned"] == 0
        assert store.stats()["total_bytes"] == 0

    def test_gc_pins_recently_touched_entries(self, store):
        # A fresh mtime means a hit just refreshed the entry -- a
        # concurrent single-flight waiter that observed that hit may be
        # about to open() it, so gc must not unlink it even when the
        # store is over budget.
        trace = _trace()
        for seed in (1, 2):
            store.save_trace(trace, "gzip", len(trace), seed)
        paths = {seed: os.path.join(
            store.root, "traces", store.trace_name("gzip", len(trace),
                                                   seed))
            for seed in (1, 2)}
        old = time.time() - store.stale_lock_seconds - 1
        os.utime(paths[1], (old, old))
        report = store.gc(max_bytes=0)
        assert report["evicted"] == 1
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])        # fresh entry survives gc(0)
        assert report["pinned"] == 1
        assert report["kept"] == 1
        assert report["kept_bytes"] == os.path.getsize(paths[2])


def _result_lines(store):
    """Every result-tier line of ``store``, sorted (order-free bytes)."""
    root = os.path.join(store.root, "results")
    return sorted(line for name in os.listdir(root)
                  for line in open(os.path.join(root, name), "rb")
                  .read().splitlines())


class TestResultBytes:
    def test_cold_figure_lines_are_pinned(self, tmp_path, monkeypatch):
        # The code fingerprint is pinned too: it hashes source files,
        # and this pin is about the encoding, not the code's identity.
        import hashlib

        from repro.exec import store as store_module
        from repro.experiments.figures import run_figures

        monkeypatch.setattr(store_module, "code_fingerprint",
                            lambda kind: "0123456789abcdef")
        store = ArtifactStore(tmp_path / "store")
        previous = set_active_store(store)
        try:
            run_figures(["fig8"], str(tmp_path / "out"),
                        num_instructions=600, warmup=300,
                        benchmarks=["gzip"])
        finally:
            set_active_store(previous)
        lines = _result_lines(store)
        assert len(lines) == 4
        assert hashlib.sha256(b"\n".join(lines)).hexdigest() == (
            "551d66b7b93646a9159db793caa4119062c7d6bbcf3acfcaa1ff0c8179c3d7a0")


class TestDurabilityFailure:
    """A full disk at a group boundary costs durability, never the run."""

    @pytest.mark.parametrize("call", ["fsync", "write"])
    def test_enospc_degrades_journal_and_counts_store_errors(
            self, active, tmp_path, monkeypatch, capsys, call):
        import errno

        from repro.obs.metrics import MetricsRegistry
        from repro.sim.checkpoint import JobJournal
        from repro.sim.sweep import PolicySweep

        def full(*args):
            raise OSError(errno.ENOSPC, "injected: no space left on device")

        def arm(job, result, done, total):
            if done == 2:   # the first group has settled
                monkeypatch.setattr(os, call, full)

        path = str(tmp_path / "sweep.jsonl")
        registry = MetricsRegistry()
        sweep = PolicySweep(["gzip", "mcf"], ["authen-then-commit"],
                            num_instructions=600, warmup=300)
        try:
            sweep.run(journal=JobJournal(path), progress=arm,
                      metrics=registry)
        finally:
            monkeypatch.undo()
        assert len(sweep.results) == 4   # the sweep completed
        assert registry.get("repro_journal_degraded_total").total() == 1
        assert active.counters["write_errors"] >= 1
        assert "Traceback" not in capsys.readouterr().err
        # The first group's records survive and resume.
        assert len(JobJournal(path)) >= 2

class TestStatsAndEnv:
    def test_stats_shape(self, store):
        trace = _trace()
        store.save_trace(trace, "gzip", len(trace), 1)
        stats = store.stats()
        assert stats["tiers"]["traces"]["entries"] == 1
        assert stats["tiers"]["traces"]["bytes"] > 0
        assert stats["total_bytes"] == stats["tiers"]["traces"]["bytes"]
        assert stats["counters"]["bytes_written"] > 0
        assert stats["quarantined_entries"] == 0

    def test_default_store_path_prefers_env(self, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "/tmp/elsewhere")
        assert default_store_path() == "/tmp/elsewhere"
        monkeypatch.delenv(STORE_ENV)
        assert default_store_path().endswith(os.path.join("repro",
                                                          "store"))

    def test_set_active_store_returns_previous(self, store):
        previous = set_active_store(store)
        try:
            from repro.exec.store import active_store

            assert active_store() is store
        finally:
            set_active_store(previous)


def _noop():
    """Exit immediately: its reaped pid proves a lock owner is dead."""
