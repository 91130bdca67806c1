"""Persistent content-addressed artifact store: traces, prepasses, results.

The decode-once pipeline left trace generation and the structural
prepass as the dominant cold-start cost -- and both were recomputed in
every worker process and on every ``repro`` invocation, because
:class:`~repro.exec.cache.TraceCache` is a per-process in-memory LRU.
This module persists the expensive intermediates (and finished results)
on disk, keyed by content hashes, so they are computed once per machine
instead of once per process:

- **Trace / prepass tier** (``<root>/traces``, ``<root>/prepass``):
  :class:`~repro.workloads.trace.PackedTrace` and
  :class:`~repro.cpu.prepass.TracePrepass` columns (the latter no
  longer written by the executor, which walks in-process) serialized as
  ``array('q')`` buffers behind a CRC32-sealed JSON header that carries
  the generation key and a code fingerprint.  Entries are loaded
  *zero-copy* via ``mmap``: the int64 columns are ``memoryview`` casts
  straight into the page cache, so N concurrent workers share one
  physical copy of each trace instead of regenerating N times.
- **Result tier** (``<root>/results``): append-only segments of
  completion records in the job journal's CRC-sealed line format, one
  ``<fingerprint>-<host>-<pid>-<n>.journal`` per writing process and
  code fingerprint, indexed by job_id on the first lookup (segments of
  other fingerprints are never read), so a repeat sweep or figure run
  short-circuits simulation entirely and becomes I/O-bound.
- **Single-flight generation** (``<root>/locks``): ``O_CREAT|O_EXCL``
  lock files coalesce concurrent requests for the same missing entry,
  so K workers asking for one trace cost one generation.  Locks are
  advisory only -- a waiter that times out generates independently and
  both publish the same deterministic bytes via atomic rename.  Stale
  locks (dead owner pid, or older than ``stale_lock_seconds``) are
  broken, so a SIGKILLed worker cannot wedge the store.

Integrity follows the journal-v2 discipline: every entry is checksummed
end to end, a failed check moves the entry into ``<root>/quarantine``
(a result line stays put and is logged once) with the reason appended
to ``quarantine.rej`` and reports a miss, and the caller regenerates --
corruption costs one recomputation, never a wrong number.  Because
loads fall back to generation and saves swallow ``OSError``, a broken
store degrades to exactly the no-store behaviour.

Bit-identity contract: a loaded trace/prepass exposes the same column
values (``memoryview('q')`` instead of tuples/lists -- same ints, same
order), and a loaded result rebuilds through the same
``StatGroup.from_dict`` path journal resume already trusts, so warm
results are byte-identical to cold ones.  ``repro chaos --campaign store``
gates exactly that, and ``bench/run.py`` gates every warm figure run on
the cold run's series digest.

The store is **off by default**: it activates only via the ``--store``
CLI flag or the ``REPRO_STORE`` environment variable (which forked pool
workers inherit, mirroring ``REPRO_JOBS``/``REPRO_NATIVE``).
"""

import dataclasses
import errno
import hashlib
import itertools
import json
import mmap
import os
import socket
import struct
import threading
import time
import zlib
from array import array
from contextlib import contextmanager

from repro.sim.checkpoint import (
    INCOMPATIBLE_VERSION,
    JOURNAL_VERSION,
    JournalTail,
    append_line,
    atomic_write_text,
    completion_record,
    parse_record,
    result_from_record,
)
from repro.workloads.trace import PackedTrace, Trace, int64_columns

#: Environment variable naming the store root (inherited by workers).
STORE_ENV = "REPRO_STORE"

#: Binary entry format. Bump on incompatible layout changes; old
#: entries then fail validation and are regenerated, never misread.
FORMAT_VERSION = 1

_MAGIC = b"RPAS"
#: magic, format version, header length, header CRC32, payload length,
#: payload CRC32 -- packed little-endian, zero-padded to 32 bytes so
#: the JSON header (and after it the payload) starts 8-byte aligned.
_PREAMBLE = struct.Struct("<4sIIIQI")
_PREAMBLE_LEN = 32

_TIERS = ("traces", "prepass", "results")

#: Numbers the result segments of one process (one per store).
_SEGMENTS = itertools.count()


class CorruptEntryError(Exception):
    """A store entry failed structural or checksum validation."""


def _align8(n):
    return (n + 7) & ~7


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, default=str)


def _key_hash(payload):
    """Content address of one generation key (hex, filesystem-safe)."""
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Code fingerprints
# ---------------------------------------------------------------------------
# An artifact is only reusable while the code that generates it is
# unchanged.  Each tier hashes the source files its bytes depend on;
# the fingerprint is part of the entry's key, so editing tracegen (say)
# silently invalidates every trace without touching prepasses keyed to
# still-valid code.  The result tier is deliberately conservative: it
# covers every module that can influence simulated numbers.

_FINGERPRINT_FILES = {
    "trace": (
        "workloads/tracegen.py", "workloads/trace.py", "workloads/spec.py",
        "util/rng.py",
    ),
    "prepass": (
        "workloads/tracegen.py", "workloads/trace.py", "workloads/spec.py",
        "util/rng.py",
        "cpu/prepass.py", "cpu/native.py", "secure/metadata.py",
        "config.py",
    ),
}
#: Result fingerprints hash whole packages: anything that can move a
#: cycle count invalidates stored results.
_FINGERPRINT_DIRS = {
    "result": ("cpu", "secure", "mem", "cache", "crypto", "policies",
               "workloads", "util"),
}
_FINGERPRINT_EXTRA = {
    "result": ("config.py", "errors.py", "sim/runner.py", "sim/metrics.py"),
}

_fingerprint_cache = {}


def code_fingerprint(kind):
    """Hash of the source files tier ``kind`` artifacts depend on."""
    cached = _fingerprint_cache.get(kind)
    if cached is not None:
        return cached
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    rels = list(_FINGERPRINT_FILES.get(kind, ()))
    for package in _FINGERPRINT_DIRS.get(kind, ()):
        package_dir = os.path.join(root, package)
        for entry in sorted(os.listdir(package_dir)):
            if entry.endswith(".py"):
                rels.append("%s/%s" % (package, entry))
    rels.extend(_FINGERPRINT_EXTRA.get(kind, ()))
    hasher = hashlib.sha256()
    for rel in sorted(set(rels)):
        path = os.path.join(root, rel)
        try:
            with open(path, "rb") as handle:
                body = handle.read()
        except OSError:
            continue
        hasher.update(rel.encode())
        hasher.update(b"\0")
        hasher.update(body)
        hasher.update(b"\0")
    fingerprint = hasher.hexdigest()[:16]
    _fingerprint_cache[kind] = fingerprint
    return fingerprint


# ---------------------------------------------------------------------------
# Binary columnar entries
# ---------------------------------------------------------------------------

def _write_entry(path, header, columns):
    """Serialize ``columns`` behind ``header``; publish atomically.

    ``columns`` is ``[(name, fmt, raw_bytes)]`` with ``fmt`` one of
    ``'q'`` (int64 little-endian) or ``'B'``.  Returns bytes written.
    """
    specs = []
    payload = bytearray()
    for name, fmt, data in columns:
        offset = len(payload)
        payload += data
        payload += b"\x00" * ((-len(payload)) % 8)
        specs.append({"name": name, "fmt": fmt, "offset": offset,
                      "bytes": len(data)})
    header = dict(header, format_version=FORMAT_VERSION, columns=specs)
    blob = json.dumps(header, sort_keys=True, default=str).encode()
    body = bytearray(_PREAMBLE.pack(
        _MAGIC, FORMAT_VERSION, len(blob), zlib.crc32(blob),
        len(payload), zlib.crc32(bytes(payload))))
    body += b"\x00" * (_PREAMBLE_LEN - len(body))
    body += blob
    body += b"\x00" * ((-len(body)) % 8)
    body += payload
    atomic_write_text(path, bytes(body))
    return len(body)


def _read_entry(path):
    """mmap one entry; validate preamble + both CRCs; return columns.

    Returns ``(header, {name: column})`` where int64 columns are
    zero-copy ``memoryview('q')`` casts into the mapping (byte columns
    stay plain byte views).  The views keep the ``mmap`` alive; nothing
    is copied out of the page cache.  Raises
    :class:`CorruptEntryError` on any validation failure.
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size < _PREAMBLE_LEN:
            raise CorruptEntryError("truncated preamble")
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    magic, version, header_len, header_crc, payload_len, payload_crc = \
        _PREAMBLE.unpack_from(mm, 0)
    if magic != _MAGIC:
        raise CorruptEntryError("bad magic %r" % magic)
    if version != FORMAT_VERSION:
        raise CorruptEntryError("format_version %d (this build reads %d)"
                                % (version, FORMAT_VERSION))
    header_end = _PREAMBLE_LEN + header_len
    payload_off = _align8(header_end)
    if payload_off + payload_len > len(mm):
        raise CorruptEntryError("truncated payload")
    blob = mm[_PREAMBLE_LEN:header_end]
    if zlib.crc32(blob) != header_crc:
        raise CorruptEntryError("header crc32 mismatch")
    view = memoryview(mm)
    if zlib.crc32(view[payload_off:payload_off + payload_len]) \
            != payload_crc:
        raise CorruptEntryError("payload crc32 mismatch")
    try:
        header = json.loads(blob)
    except ValueError:
        raise CorruptEntryError("unparseable header") from None
    columns = {}
    for spec in header.get("columns", ()):
        start = payload_off + spec["offset"]
        raw = view[start:start + spec["bytes"]]
        columns[spec["name"]] = raw.cast("q") if spec["fmt"] == "q" else raw
    return header, columns


class _LazySrcs:
    """CSR-decoded source-register column (row ``i`` is a small slice).

    ``PackedTrace.srcss`` is a column of variable-length tuples, which
    has no flat int64 encoding -- so the file stores CSR offsets plus a
    flattened value column (:func:`~repro.workloads.trace.int64_columns`),
    and this wrapper hands consumers zero-copy per-row slices.  The
    replay loops only ever take ``len`` and iterate a row's sources,
    which memoryview slices support with the same values in the same
    order.
    """

    __slots__ = ("_offsets", "_values")

    def __init__(self, offsets, values):
        self._offsets = offsets
        self._values = values

    def __len__(self):
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if index < 0:
            index += len(self)
        return tuple(self._values[self._offsets[index]:
                                  self._offsets[index + 1]])

    def __iter__(self):
        offsets = self._offsets
        values = self._values
        for index in range(len(offsets) - 1):
            yield values[offsets[index]:offsets[index + 1]]


#: Prepass int64 columns, in file order (scalars, ``tree_depths``
#: included, ride in the header).
_PREPASS_COLUMNS = ("if_flags", "a_pre", "a_lvl", "a_ref", "a_wb", "m_wb",
                    "m_counter", "m_tree", "m_backing", "m_remap",
                    "d_bank", "d_cat")
_PREPASS_SCALARS = ("num_instructions", "warmup", "n_accesses", "n_misses",
                    "n_meta", "n_writes", "cc_hits", "cc_misses",
                    "cc_evictions", "cc_writebacks", "row_hits", "row_empty",
                    "row_conflicts", "page_reencryptions", "hash_tree",
                    "obfuscation", "tree_node_fetches", "tree_backing_hits",
                    "tree_depths", "remap_entry_fetches", "remap_reshuffles")


def _listed(rej_path, name, offset):
    """True when the quarantine log already lists this result line."""
    try:
        with open(rej_path) as handle:
            logged = [json.loads(line) for line in handle]
    except (OSError, ValueError):
        return False
    return any(evidence.get("entry") == name
               and evidence.get("offset") == offset for evidence in logged)


class ArtifactStore:
    """One store root: three content-addressed tiers plus locks.

    Thread/process-safe by construction: entries are immutable once
    published (atomic rename; result segments only grow), readers
    validate checksums, and writers of the same key write identical
    bytes.  Every public method is total -- load failures return
    ``None`` (after quarantining corrupt entries) and save failures
    return ``False``; the caller's regeneration path is the error
    handler.
    """

    def __init__(self, root, metrics=None, lock_timeout=60.0,
                 stale_lock_seconds=300.0):
        self.root = os.path.abspath(os.path.expanduser(os.fspath(root)))
        for sub in _TIERS + ("locks", "quarantine"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self.lock_timeout = lock_timeout
        self.stale_lock_seconds = stale_lock_seconds
        self.counters = {
            "trace_hits": 0, "trace_misses": 0,
            "prepass_hits": 0, "prepass_misses": 0,
            "result_hits": 0, "result_misses": 0,
            "bytes_read": 0, "bytes_written": 0,
            "quarantined": 0, "write_errors": 0,
            "lock_waits": 0, "lock_breaks": 0,
        }
        # Result tier: job_id -> (segment, offset, length), filled by the
        # first lookup; segment -> (inode, tail) of the last poll; this
        # process's own segment, created by its first save.
        self._index, self._tails = {}, {}
        self._segment, self._pid, self._lock = \
            None, os.getpid(), threading.Lock()
        self._bind_metrics(metrics)

    def _bind_metrics(self, registry):
        from repro.obs.metrics import NULL_REGISTRY

        registry = registry if registry is not None else NULL_REGISTRY
        self._m_hits = registry.counter(
            "repro_store_hits_total",
            "Artifact-store lookups served from disk, by tier", ("tier",))
        self._m_misses = registry.counter(
            "repro_store_misses_total",
            "Artifact-store lookups that fell through to generation, "
            "by tier", ("tier",))
        self._m_bytes_read = registry.counter(
            "repro_store_bytes_read_total",
            "Bytes mapped/read out of the artifact store")
        self._m_bytes_written = registry.counter(
            "repro_store_bytes_written_total",
            "Bytes published into the artifact store")
        self._m_quarantined = registry.counter(
            "repro_store_quarantined_total",
            "Store entries that failed validation and were quarantined")
        self._m_lock_waits = registry.counter(
            "repro_store_lock_waits_total",
            "Generations coalesced behind another process's lock")

    # -- bookkeeping ----------------------------------------------------

    def _hit(self, tier, nbytes):
        self.counters["%s_hits" % tier] += 1
        self.counters["bytes_read"] += nbytes
        self._m_hits.labels(tier).inc()
        self._m_bytes_read.inc(nbytes)

    def _miss(self, tier):
        self.counters["%s_misses" % tier] += 1
        self._m_misses.labels(tier).inc()

    def _wrote(self, nbytes):
        self.counters["bytes_written"] += nbytes
        self._m_bytes_written.inc(nbytes)

    def _quarantine(self, path, reason, offset=None):
        """Move a failed entry aside; keep the evidence, report a miss.

        A result line (``offset`` given) stays in its segment, which is
        never rewritten; the evidence records where it is, once.  A line
        ``quarantine.rej`` already lists is neither logged nor counted
        again, so ``counters["quarantined"]`` counts first sightings
        (two stores that find one line at the same moment both count it).
        """
        name = os.path.basename(path)
        evidence = {"entry": name, "reason": reason}
        rej_path = os.path.join(self.root, "quarantine.rej")
        if offset is not None:
            if _listed(rej_path, name, offset):
                return
            evidence["offset"] = offset
        else:
            try:
                os.replace(path, os.path.join(self.root, "quarantine",
                                              name))
            except OSError:
                try:
                    os.unlink(path)
                except OSError:
                    return
        try:
            append_line(rej_path, json.dumps(evidence))
        except OSError:
            pass
        self.counters["quarantined"] += 1
        self._m_quarantined.inc()

    def _touch(self, path):
        """Refresh LRU recency on a hit (gc evicts oldest-mtime first)."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    # -- keys -----------------------------------------------------------

    def trace_name(self, benchmark, trace_length, seed):
        """Entry filename (= content address) for one trace key."""
        return _key_hash({"kind": "trace", "benchmark": benchmark,
                          "length": trace_length, "seed": seed,
                          "fingerprint": code_fingerprint("trace")})

    def prepass_name(self, benchmark, trace_length, seed, config, warmup):
        return _key_hash({"kind": "prepass", "benchmark": benchmark,
                          "length": trace_length, "seed": seed,
                          "warmup": warmup,
                          "config": dataclasses.asdict(config),
                          "fingerprint": code_fingerprint("prepass")})

    def _path(self, tier, name):
        return os.path.join(self.root, tier, name)

    # -- trace tier -----------------------------------------------------

    def load_trace(self, benchmark, trace_length, seed):
        """The stored trace for this key, or None (miss or quarantined)."""
        path = self._path("traces", self.trace_name(benchmark, trace_length,
                                                    seed))
        try:
            header, cols = _read_entry(path)
        except FileNotFoundError:
            self._miss("trace")
            return None
        except (CorruptEntryError, OSError) as exc:
            self._quarantine(path, str(exc))
            self._miss("trace")
            return None
        meta = header.get("meta", {})
        if (header.get("kind") != "trace"
                or header.get("fingerprint") != code_fingerprint("trace")
                or len(cols.get("pcs", ())) != header.get("rows", -1)):
            self._quarantine(path, "key/fingerprint mismatch")
            self._miss("trace")
            return None
        packed = PackedTrace(cols["pcs"], cols["ops"], cols["dests"],
                             _LazySrcs(cols["src_off"], cols["src_val"]),
                             cols["addrs"], cols["mispredicts"])
        self._hit("trace", os.path.getsize(path))
        self._touch(path)
        return Trace(meta.get("name", benchmark), packed,
                     footprint_bytes=meta.get("footprint_bytes", 0),
                     suite=meta.get("suite", ""))

    def save_trace(self, trace, benchmark, trace_length, seed):
        """Publish one generated trace; False if the write failed."""
        columns = [(name, "q", values.tobytes()) for name, values
                   in int64_columns(trace.packed()).items()]
        header = {
            "kind": "trace",
            "fingerprint": code_fingerprint("trace"),
            "key": {"benchmark": benchmark, "length": trace_length,
                    "seed": seed},
            "rows": len(trace),
            "meta": {"name": trace.name,
                     "footprint_bytes": trace.footprint_bytes,
                     "suite": trace.suite},
        }
        path = self._path("traces", self.trace_name(benchmark, trace_length,
                                                    seed))
        try:
            self._wrote(_write_entry(path, header, columns))
        except OSError:
            self.counters["write_errors"] += 1
            return False
        return True

    # -- prepass tier ---------------------------------------------------
    # The executor no longer reads or writes this tier (a native walk is
    # cheaper than a load); it stays only while the benchmark harness
    # still wraps these two methods by name.

    def load_prepass(self, benchmark, trace_length, seed, config, warmup,
                     packed):
        """The stored prepass for this key, re-attached to ``packed``.

        ``packed`` is the (cached or store-loaded) trace's columns; the
        prepass file stores only the derived columns, since the trace
        is content-addressed separately and already in hand.
        """
        path = self._path("prepass", self.prepass_name(
            benchmark, trace_length, seed, config, warmup))
        try:
            header, cols = _read_entry(path)
        except FileNotFoundError:
            self._miss("prepass")
            return None
        except (CorruptEntryError, OSError) as exc:
            self._quarantine(path, str(exc))
            self._miss("prepass")
            return None
        scalars = header.get("scalars", {})
        if (header.get("kind") != "prepass"
                or header.get("fingerprint") != code_fingerprint("prepass")
                or scalars.get("num_instructions") != len(packed)):
            self._quarantine(path, "key/fingerprint mismatch")
            self._miss("prepass")
            return None
        from repro.cpu.prepass import TracePrepass

        pre = TracePrepass()
        pre.packed = packed
        pre.trace_columns = {}
        for name in _PREPASS_SCALARS:
            setattr(pre, name, scalars[name])
        pre.miss_summary = header["miss_summary"]
        for name in _PREPASS_COLUMNS:
            setattr(pre, name, cols[name])
        self._hit("prepass", os.path.getsize(path))
        self._touch(path)
        return pre

    def save_prepass(self, prepass, benchmark, trace_length, seed, config,
                     warmup):
        columns = [(name, "q", array("q", getattr(prepass, name)).tobytes())
                   for name in _PREPASS_COLUMNS]
        header = {
            "kind": "prepass",
            "fingerprint": code_fingerprint("prepass"),
            "key": {"benchmark": benchmark, "length": trace_length,
                    "seed": seed, "warmup": warmup},
            "scalars": {name: getattr(prepass, name)
                        for name in _PREPASS_SCALARS},
            # Float ratios survive the JSON header exactly: repr is the
            # shortest round-tripping form, so load == build bitwise.
            "miss_summary": prepass.miss_summary,
        }
        path = self._path("prepass", self.prepass_name(
            benchmark, trace_length, seed, config, warmup))
        try:
            self._wrote(_write_entry(path, header, columns))
        except OSError:
            self.counters["write_errors"] += 1
            return False
        return True

    # -- result tier ----------------------------------------------------

    def _result_lock(self):
        """The result tier's lock; a forked child starts its own segment."""
        if self._pid != os.getpid():
            self._pid, self._lock, self._segment = \
                os.getpid(), threading.Lock(), None
        return self._lock

    def _poll_results(self):
        """Index where each current-fingerprint line appended since the
        last poll is (never the record).

        Segments of other code fingerprints are skipped by name, and a
        segment is read only past where the last poll stopped.  A name
        on a new inode, or shorter than that point, is a segment gc
        removed and a process recreated: it is read again from its
        start, and the index entries into the old file are dropped.
        """
        prefix = code_fingerprint("result") + "-"
        for path, st in self._entries("results"):
            if not os.path.basename(path).startswith(prefix):
                continue
            inode, tail = self._tails.get(path, (None, None))
            if inode != st.st_ino or st.st_size < tail.offset:
                tail = JournalTail(path)
                self._tails[path] = (st.st_ino, tail)
                self._index = {job_id: entry for job_id, entry
                               in self._index.items() if entry[0] != path}
            elif st.st_size == tail.offset:
                continue
            for offset, line, record, reason in tail.lines():
                if record is not None:
                    self._index[record["job_id"]] = (path, offset,
                                                     len(line))
                elif reason != INCOMPATIBLE_VERSION:
                    self._quarantine(path, reason, offset)

    def load_result(self, job):
        """Rebuild the completed run for ``job``, or None.

        A job missing from the index polls the segments first, so other
        processes' appends are found.  A hit re-reads and re-checks its
        line and rebuilds it as journal resume does; the record carries
        no accounting (the caller attaches this store hit's).  A line
        that fails the check is quarantined unless a poll shows that
        its segment was recreated since it was indexed.
        """
        with self._result_lock():
            if job.job_id not in self._index:
                self._poll_results()
            entry = self._index.get(job.job_id)
        record = reason = None
        if entry is not None:
            path, offset, length = entry
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    record, reason = parse_record(handle.read(length))
            except OSError:
                pass   # the segment was evicted by gc
        if (record is None or record["job_id"] != job.job_id
                or record.get("fingerprint") != code_fingerprint("result")):
            if reason not in (None, INCOMPATIBLE_VERSION):
                with self._result_lock():
                    self._poll_results()   # a recreated segment?
                    moved = self._index.get(job.job_id) != entry
                if not moved:
                    self._quarantine(path, reason, offset)
            self._index.pop(job.job_id, None)
            self._miss("result")
            return None
        self._hit("result", length)
        self._touch(path)
        return result_from_record(record)

    def save_result(self, job, result):
        """Append ``job``'s record to this process's own segment.

        The segment, ``<fingerprint>-<host>-<pid>-<n>.journal``, is made
        with ``O_EXCL`` by the first save (a name already taken is
        skipped) and never recreated: once gc has evicted it, the next
        save starts a new one.  The fingerprint is fixed per process.
        """
        fingerprint = code_fingerprint("result")
        text = json.dumps(completion_record(
            job, result, journal_version=JOURNAL_VERSION,
            fingerprint=fingerprint), sort_keys=True)
        with self._result_lock():
            while True:
                path, new = self._segment, self._segment is None
                if new:
                    path = self._path("results", "%s-%s-%d-%d.journal" % (
                        fingerprint, socket.gethostname(), os.getpid(),
                        next(_SEGMENTS)))
                try:
                    offset, length = append_line(
                        path, text, os.O_CREAT | os.O_EXCL if new else 0)
                    break
                except OSError as exc:
                    self._segment = None   # taken, evicted, or torn
                    if exc.errno != (errno.EEXIST if new else errno.ENOENT):
                        self.counters["write_errors"] += 1
                        return False
            self._segment = path
            self._index[job.job_id] = (path, offset, length)
        self._wrote(length)
        return True

    # -- single-flight locks --------------------------------------------

    @contextmanager
    def single_flight(self, tier, name):
        """Coalesce generation of one missing entry across processes.

        Yields True when this process holds the lock (it should re-check
        the store, then generate and publish) and False when the wait
        timed out -- the caller then generates anyway, because locks are
        an optimisation, never a correctness dependency.  Callers must
        re-check the store either way: a waiter usually acquires the
        lock *after* the leader published.
        """
        lock_path = os.path.join(self.root, "locks",
                                 "%s-%s.lock" % (tier, name))
        acquired = self._acquire_lock(lock_path)
        try:
            yield acquired
        finally:
            if acquired:
                try:
                    os.unlink(lock_path)
                except OSError:
                    pass

    def _acquire_lock(self, lock_path):
        deadline = time.monotonic() + self.lock_timeout
        waited = False
        while True:
            try:
                fd = os.open(lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._break_stale_lock(lock_path):
                    continue
                if time.monotonic() >= deadline:
                    return False
                if not waited:
                    waited = True
                    self.counters["lock_waits"] += 1
                    self._m_lock_waits.inc()
                time.sleep(0.02)
                continue
            except OSError:
                return False  # unwritable locks dir: generate solo
            with os.fdopen(fd, "w") as handle:
                # "host" scopes the pid: a pid is only meaningful on
                # the host whose pid namespace issued it, and the store
                # may be shared across hosts over a network filesystem.
                json.dump({"pid": os.getpid(),
                           "host": socket.gethostname(),
                           "created": time.time()}, handle)
            return True

    def _break_stale_lock(self, lock_path):
        """Remove a lock whose owner is gone; True if the caller should
        immediately retry acquisition.

        A lock is stale when its recorded pid no longer exists (the
        chaos campaign's killed-worker case) or when it outlives
        ``stale_lock_seconds`` (hung owner; generation takes
        milliseconds to seconds, never minutes).  An unreadable lock --
        e.g. a partial write from a dying process -- gets a short grace
        period instead of the full timeout.

        PID liveness only proves anything inside the pid namespace that
        issued the pid: on a store shared across hosts, a *live* foreign
        pid can look dead locally (or a dead one alive), so the check
        applies only when the lock's recorded hostname matches ours.
        Foreign-host locks age out on the full timeout instead.  Locks
        without a host field predate the field and were always local.
        """
        pid = None
        host = None
        try:
            with open(lock_path) as handle:
                payload = json.load(handle)
            pid = int(payload.get("pid"))
            host = payload.get("host")
        except (OSError, ValueError, TypeError, AttributeError):
            pass
        local = host is None or host == socket.gethostname()
        stale = False
        if pid is not None and local:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                stale = True
            except OSError:
                pass
        if not stale:
            try:
                age = time.time() - os.path.getmtime(lock_path)
            except OSError:
                return True  # owner released it while we looked
            limit = self.stale_lock_seconds if pid is not None else 1.0
            if age < limit:
                return False
            stale = True
        try:
            os.unlink(lock_path)
        except OSError:
            pass
        self.counters["lock_breaks"] += 1
        return True

    # -- maintenance ----------------------------------------------------

    def _entries(self, tier):
        directory = os.path.join(self.root, tier)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        for name in names:
            if ".tmp" in name:
                continue
            path = os.path.join(directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st

    def stats(self):
        """Entry counts and byte totals per tier, plus result records and
        corrupt result lines (which also count as quarantined)."""
        tiers = {}
        total_bytes = 0
        for tier in _TIERS:
            entries = 0
            nbytes = 0
            for _, st in self._entries(tier):
                entries += 1
                nbytes += st.st_size
            tiers[tier] = {"entries": entries, "bytes": nbytes}
            total_bytes += nbytes
        records = corrupt = 0
        for path, _ in self._entries("results"):
            for _, _, record, reason in JournalTail(path).lines():
                if record is not None:
                    records += 1
                elif reason != INCOMPATIBLE_VERSION:
                    corrupt += 1
        tiers["results"].update(records=records, corrupt=corrupt)
        # A corrupt result line stays in its segment: count it here.
        quarantined = sum(1 for _ in self._entries("quarantine")) + corrupt
        return {
            "root": self.root,
            "tiers": tiers,
            "total_bytes": total_bytes,
            "quarantined_entries": quarantined,
            "counters": dict(self.counters),
        }

    def verify(self):
        """Re-validate every entry and result line; count staleness.

        Stale entries (an older code fingerprint or record format) are
        structurally sound but unreachable, so they are left for ``gc``
        to age out.
        """
        report = {"checked": 0, "ok": 0, "corrupt": 0, "stale": 0}
        fingerprints = {"traces": code_fingerprint("trace"),
                        "prepass": code_fingerprint("prepass")}
        for tier in ("traces", "prepass"):
            for path, _ in list(self._entries(tier)):
                report["checked"] += 1
                try:
                    header, _ = _read_entry(path)
                except (CorruptEntryError, OSError) as exc:
                    self._quarantine(path, "verify: %s" % exc)
                    report["corrupt"] += 1
                    continue
                if header.get("fingerprint") != fingerprints[tier]:
                    report["stale"] += 1
                else:
                    report["ok"] += 1
        current = code_fingerprint("result")
        for path, _ in list(self._entries("results")):
            for offset, _, record, reason in JournalTail(path).lines(
                    final=True):
                report["checked"] += 1
                if record is None and reason != INCOMPATIBLE_VERSION:
                    self._quarantine(path, "verify: %s" % reason, offset)
                    report["corrupt"] += 1
                elif record and record.get("fingerprint") == current:
                    report["ok"] += 1
                else:
                    report["stale"] += 1
        return report

    def gc(self, max_bytes):
        """Evict least-recently-used entries until the store fits.

        Recency is file mtime, refreshed on every load hit, so a
        size-capped store keeps what current sweeps actually touch (a
        result segment goes whole).  Entries touched within the last
        ``stale_lock_seconds`` are pinned outright: a fresh mtime means
        some process just loaded or published the entry, and a
        concurrent single-flight waiter that observed that hit may be
        about to ``open()`` the path -- unlinking it here would turn its
        hit into a spurious regeneration.  The pin horizon matches the
        lock-staleness horizon because that is how long the protocol
        lets an observer act on what it saw.  Quarantined entries and
        locks never count against the cap and are not collected here.
        """
        now = time.time()
        entries = []
        pinned = 0
        total = 0
        for tier in _TIERS:
            for path, st in self._entries(tier):
                total += st.st_size
                if now - st.st_mtime < self.stale_lock_seconds:
                    pinned += 1
                    continue
                entries.append((st.st_mtime, path, st.st_size))
        entries.sort()
        evicted = 0
        freed = 0
        for _, path, size in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
            evicted += 1
        return {"evicted": evicted, "freed_bytes": freed,
                "kept": pinned + len(entries) - evicted,
                "kept_bytes": total, "pinned": pinned}


# ---------------------------------------------------------------------------
# Process-wide store resolution
# ---------------------------------------------------------------------------
# Mirrors REPRO_JOBS/REPRO_NATIVE: the CLI exports REPRO_STORE before
# building a pool, so forked/spawned workers resolve the same root via
# the environment without any pickling of store state.

_active = None
_resolved = False


def default_store_path():
    """``REPRO_STORE`` when set, else ``~/.cache/repro/store``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "store")


def active_store():
    """The process-wide store, or None when storage is off.

    Resolved once: from an explicitly installed store
    (:func:`set_active_store`), else lazily from ``REPRO_STORE``.
    """
    global _active, _resolved
    if not _resolved:
        path = os.environ.get(STORE_ENV)
        _active = ArtifactStore(path) if path else None
        _resolved = True
    return _active


def set_active_store(store):
    """Install ``store`` process-wide (None disables); returns previous."""
    global _active, _resolved
    previous = _active if _resolved else None
    _active = store
    _resolved = True
    return previous
