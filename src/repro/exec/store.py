"""Persistent content-addressed artifact store: traces, prepasses,
results and attack outcomes.

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
  the generation key and a code fingerprint.  A load copies each
  column once out of an ``mmap`` into an ``array('q')``, so N
  concurrent workers read one trace instead of regenerating it N
  times.
- **Result tier** (``<root>/results``): append-only segments of
  completion records in the job journal's CRC-sealed line format, one
  ``<fingerprint>-<host>-<pid>-<n>.journal`` per writing process and
  code fingerprint, indexed by job_id on the first lookup (segments of
  other fingerprints are never read), so a repeat sweep or figure run
  short-circuits simulation entirely and becomes I/O-bound.
- **Attack-outcome tier** (``<root>/attacks``): Table 2's empirical
  ``{policy: {attack: leaked}}`` matrix, one header-only entry per
  (policies, attacks) key under a fingerprint of every package the
  attack harness runs, so a warm Table 2 runs no exploit on the
  functional machine.
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

Bit-identity contract: a loaded trace/prepass holds the same
``array('q')`` columns it was saved from (a trace is built through
:class:`~repro.workloads.trace.PackedTrace`'s checking constructor, and
an entry that fails the check is quarantined), and a loaded result
rebuilds through the same ``StatGroup.from_dict`` path journal resume
already trusts, so warm results are byte-identical to cold ones.
``repro chaos --campaign store`` gates exactly that, and
``bench/run.py`` gates every warm figure run on the cold run's series
digest.

The store is **off by default**: it activates only via the ``--store``
CLI flag or the ``REPRO_STORE`` environment variable (which forked pool
workers inherit, mirroring ``REPRO_JOBS``).
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
    SegmentIndex,
    append_line,
    atomic_write_text,
    check_line,
    completion_line,
    sync_file,
)
from repro.workloads.trace import PackedTrace, Trace

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

_TIERS = ("traces", "prepass", "results", "attacks")

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
        "util/rng.py", "cpu/native.py",
    ),
    "prepass": (
        "workloads/tracegen.py", "workloads/trace.py", "workloads/spec.py",
        "util/rng.py",
        "cpu/prepass.py", "cpu/native.py", "secure/metadata.py",
        "config.py",
    ),
}
#: Result fingerprints hash whole packages: anything that can move a
#: cycle count invalidates stored results.  Attack fingerprints hash
#: every package the attack harness runs on the functional machine (the
#: hash tree's and re-map unit's caches load ``cache`` and ``config.py``).
_FINGERPRINT_DIRS = {
    "result": ("cpu", "secure", "mem", "cache", "crypto", "policies",
               "workloads", "util"),
    "attacks": ("attacks", "func", "isa", "crypto", "policies", "secure",
                "mem", "cache", "util"),
}
_FINGERPRINT_EXTRA = {
    "result": ("config.py", "errors.py", "sim/runner.py", "sim/metrics.py"),
    "attacks": ("config.py", "errors.py"),
}

_fingerprint_cache = {}


def _fingerprint_files(kind):
    """``(root, [relative path])`` of the sources tier ``kind`` hashes."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    rels = list(_FINGERPRINT_FILES.get(kind, ()))
    for package in _FINGERPRINT_DIRS.get(kind, ()):
        package_dir = os.path.join(root, package)
        for entry in sorted(os.listdir(package_dir)):
            if entry.endswith(".py"):
                rels.append("%s/%s" % (package, entry))
    rels.extend(_FINGERPRINT_EXTRA.get(kind, ()))
    return root, sorted(set(rels))


def code_fingerprint(kind):
    """Hash of the source files tier ``kind`` artifacts depend on."""
    cached = _fingerprint_cache.get(kind)
    if cached is not None:
        return cached
    root, rels = _fingerprint_files(kind)
    hasher = hashlib.sha256()
    for rel in rels:
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

    ``columns`` is ``[(name, array('q'))]``, written in that order as
    native (little-endian) int64.  Returns bytes written.
    """
    specs = []
    payload = bytearray()
    for name, column in columns:
        offset = len(payload)
        payload += column
        specs.append({"name": name, "fmt": "q", "offset": offset,
                      "bytes": len(payload) - offset})
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

    Returns ``(header, {name: array('q')})``, each column copied once
    out of the mapping.  Raises :class:`CorruptEntryError` on any
    validation failure.
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size < _PREAMBLE_LEN:
            raise CorruptEntryError("truncated preamble")
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    with mm, memoryview(mm) as view:
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
        if zlib.crc32(view[payload_off:payload_off + payload_len]) \
                != payload_crc:
            raise CorruptEntryError("payload crc32 mismatch")
        try:
            header = json.loads(blob)
        except ValueError:
            raise CorruptEntryError("unparseable header") from None
        columns = {}
        try:
            for spec in header["columns"]:
                start = payload_off + spec["offset"]
                end = start + spec["bytes"]
                if (spec["fmt"] != "q" or spec["bytes"] % 8
                        or not payload_off <= start <= end
                        <= payload_off + payload_len):
                    raise ValueError(spec)
                column = columns[spec["name"]] = array("q")
                column.frombytes(view[start:end])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptEntryError("bad column spec: %r" % exc) from None
    return header, columns


def _attacks_key(policies, attacks):
    return {"policies": list(policies), "attacks": list(attacks)}


def _packed(columns):
    """The :class:`PackedTrace` over an entry's columns; raises
    :class:`CorruptEntryError` when they fail its check."""
    try:
        return PackedTrace(**columns)
    except (TypeError, ValueError) as exc:
        raise CorruptEntryError("bad trace columns: %s" % exc) from None


#: Prepass int64 columns, in file order (scalars, ``tree_depths``
#: included, ride in the header).
_PREPASS_COLUMNS = ("if_flags", "a_pre", "a_lvl", "a_ref", "a_wb", "m_wb",
                    "m_counter", "m_tree", "m_backing", "m_remap",
                    "m_prefetch", "d_bank", "d_cat")
_PREPASS_SCALARS = ("num_instructions", "warmup", "n_accesses", "n_misses",
                    "n_meta", "n_writes", "cc_hits", "cc_misses",
                    "cc_evictions", "cc_writebacks", "row_hits", "row_empty",
                    "row_conflicts", "page_reencryptions", "hash_tree",
                    "obfuscation", "cbc", "prefetch_degree",
                    "prefetch_issued", "tree_node_fetches",
                    "tree_backing_hits", "tree_depths",
                    "remap_entry_fetches", "remap_reshuffles")


class ArtifactStore:
    """One store root: four content-addressed tiers (traces, prepasses,
    results, attack outcomes) plus locks.

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
            "attacks_hits": 0, "attacks_misses": 0,
            "bytes_read": 0, "bytes_written": 0,
            "quarantined": 0, "write_errors": 0,
            "lock_waits": 0, "lock_breaks": 0,
        }
        # Result tier: where each line is, filled by the first lookup and
        # by each save; this process's own segment, created by its first
        # save; segments appended to since the last sync_results.
        self._index = SegmentIndex(os.path.join(self.root, "quarantine.rej"),
                                   self._quarantined)
        self._unsynced = set()
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

    def _quarantine(self, path, reason):
        """Move a failed entry aside and log it in ``quarantine.rej``
        (a result line stays in its segment: the index logs it once).
        ``counters["quarantined"]`` counts what this store logged first.
        """
        try:
            os.replace(path, os.path.join(self.root, "quarantine",
                                          os.path.basename(path)))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return
        self._index.reject(path, reason)

    def _quarantined(self):
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

    def _load(self, kind, path, decode):
        """The ``kind`` entry at ``path`` as ``decode(header, columns)``,
        or None.  A missing entry is a miss; one that fails a check (its
        CRCs, its kind, this code's fingerprint, or ``decode`` raising
        :class:`CorruptEntryError`) is quarantined and a miss."""
        try:
            header, cols = _read_entry(path)
            if (header.get("kind") != kind
                    or header.get("fingerprint") != code_fingerprint(kind)):
                raise CorruptEntryError("key/fingerprint mismatch")
            value = decode(header, cols)
        except FileNotFoundError:
            self._miss(kind)
            return None
        except (CorruptEntryError, OSError) as exc:
            self._quarantine(path, str(exc))
            self._miss(kind)
            return None
        self._hit(kind, os.path.getsize(path))
        self._touch(path)
        return value

    def _save(self, tier, name, header, columns):
        """Publish one entry; False (counted) if the write failed."""
        try:
            self._wrote(_write_entry(self._path(tier, name), header, columns))
        except OSError:
            self.counters["write_errors"] += 1
            return False
        return True

    # -- trace tier -----------------------------------------------------

    def load_trace(self, benchmark, trace_length, seed):
        """The stored trace for this key, or None (miss or quarantined)."""
        def decode(header, cols):
            if len(cols.get("pcs", ())) != header.get("rows", -1):
                raise CorruptEntryError("key/fingerprint mismatch")
            packed = _packed(cols)
            meta = header.get("meta", {})
            return Trace(meta.get("name", benchmark), packed,
                         footprint_bytes=meta.get("footprint_bytes", 0),
                         suite=meta.get("suite", ""))

        return self._load("trace", self._path("traces", self.trace_name(
            benchmark, trace_length, seed)), decode)

    def save_trace(self, trace, benchmark, trace_length, seed):
        """Publish one generated trace; False if the write failed."""
        columns = list(trace.packed().columns().items())
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
        return self._save("traces", self.trace_name(
            benchmark, trace_length, seed), header, columns)

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
        def decode(header, cols):
            scalars = header.get("scalars", {})
            if scalars.get("num_instructions") != len(packed):
                raise CorruptEntryError("key/fingerprint mismatch")
            from repro.cpu.prepass import TracePrepass

            pre = TracePrepass()
            pre.packed = packed
            for name in _PREPASS_SCALARS:
                setattr(pre, name, scalars[name])
            pre.miss_summary = header["miss_summary"]
            for name in _PREPASS_COLUMNS:
                setattr(pre, name, cols[name])
            return pre

        return self._load("prepass", self._path("prepass", self.prepass_name(
            benchmark, trace_length, seed, config, warmup)), decode)

    def save_prepass(self, prepass, benchmark, trace_length, seed, config,
                     warmup):
        columns = [(name, getattr(prepass, name))
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
        return self._save("prepass", self.prepass_name(
            benchmark, trace_length, seed, config, warmup), header, columns)

    # -- attack-outcome tier --------------------------------------------
    # Table 2's empirical column: which attacks leak under which policy
    # on the functional machine.  One header-only entry per name lists.

    def attacks_name(self, policies, attacks):
        """Entry filename (= content address) for one pair of name lists."""
        return _key_hash(dict(_attacks_key(policies, attacks), kind="attacks",
                              fingerprint=code_fingerprint("attacks")))

    def load_attacks(self, policies, attacks):
        """The stored ``{policy: {attack: leaked}}`` matrix, or None."""
        key = _attacks_key(policies, attacks)

        def decode(header, _cols):
            leaked = header.get("leaked")
            try:
                matrix = {policy: {attack: leaked[policy][attack]
                                   for attack in key["attacks"]}
                          for policy in key["policies"]}
            except (KeyError, TypeError):
                matrix = None
            if (header.get("key") != key or matrix is None
                    or any(type(cell) is not bool
                           for row in matrix.values()
                           for cell in row.values())):
                raise CorruptEntryError("attack matrix does not match its key")
            return matrix

        return self._load("attacks", self._path(
            "attacks", self.attacks_name(policies, attacks)), decode)

    def save_attacks(self, policies, attacks, leaked):
        """Publish one attack-outcome matrix; False if the write failed."""
        key = _attacks_key(policies, attacks)
        header = {
            "kind": "attacks",
            "fingerprint": code_fingerprint("attacks"),
            "key": key,
            "leaked": {policy: {attack: bool(leaked[policy][attack])
                                for attack in key["attacks"]}
                       for policy in key["policies"]},
        }
        return self._save("attacks", self.attacks_name(policies, attacks),
                          header, [])

    # -- result tier ----------------------------------------------------

    def _result_lock(self):
        """The result tier's lock; a forked child starts its own segment."""
        if self._pid != os.getpid():
            self._pid, self._lock, self._segment = \
                os.getpid(), threading.Lock(), None
            self._unsynced = set()
        return self._lock

    def _poll_results(self):
        """Index the lines appended to this code fingerprint's segments
        since the last poll (:meth:`SegmentIndex.poll`, which checks a
        line by its bytes: a hit parses its line once); segments of
        other fingerprints are skipped by name."""
        prefix = code_fingerprint("result") + "-"
        directory = os.path.join(self.root, "results")
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        self._index.poll(os.path.join(directory, name) for name in names
                         if name.startswith(prefix))

    def load_result(self, job):
        """Rebuild the completed run for ``job``, or None.

        A job missing from the index polls the segments first, so other
        processes' appends are found.  A hit re-reads its line and makes
        every check on its bytes (CRC, version, job_id and this code's
        fingerprint), then returns it as journal resume does
        (:func:`~repro.sim.checkpoint.read_result`): the stats are
        decoded on first access, and the record carries no accounting
        (the caller attaches this store hit's).  A line that fails the
        check is quarantined here, never at that first access, unless a
        poll shows that its segment was recreated since it was indexed.
        """
        entries = self._index.entries
        with self._result_lock():
            entry = entries.get(job.job_id)
            if entry is None:
                self._poll_results()
                entry = entries.get(job.job_id)
        result = reason = None
        if entry is not None:
            result, reason = self._index.read(entry, job.job_id,
                                              code_fingerprint("result"))
        if result is None:
            if reason not in (None, INCOMPATIBLE_VERSION):
                with self._result_lock():
                    self._poll_results()   # a recreated segment?
                    moved = entries.get(job.job_id) != entry
                if not moved:
                    path, offset, _length = entry
                    self._index.reject(path, reason, offset)
            entries.pop(job.job_id, None)
            self._miss("result")
            return None
        path, _offset, length = entry
        self._hit("result", length)
        self._touch(path)
        return result

    def save_result(self, job, result):
        """Append ``job``'s record to this process's own segment.

        The segment, ``<fingerprint>-<host>-<pid>-<n>.journal``, is made
        with ``O_EXCL`` by the first save (a name already taken is
        skipped) and never recreated: once gc has evicted it, the next
        save starts a new one.  The fingerprint is fixed per process.
        The line is written now and made durable by the group's
        :meth:`sync_results`.
        """
        fingerprint = code_fingerprint("result")
        text = completion_line(job, result,
                               journal_version=JOURNAL_VERSION,
                               fingerprint=fingerprint)
        with self._result_lock():
            while True:
                path, new = self._segment, self._segment is None
                if new:
                    path = self._path("results", "%s-%s-%d-%d.journal" % (
                        fingerprint, socket.gethostname(), os.getpid(),
                        next(_SEGMENTS)))
                try:
                    offset, length = append_line(
                        path, text, os.O_CREAT | os.O_EXCL if new else 0,
                        sync=False)
                    break
                except OSError as exc:
                    self._segment = None   # taken, evicted, or torn
                    if exc.errno != (errno.EEXIST if new else errno.ENOENT):
                        self.counters["write_errors"] += 1
                        return False
            self._segment = path
            self._unsynced.add(path)
            self._index.appended(job.job_id, path, offset, length)
        self._wrote(length)
        return True

    def sync_results(self):
        """fsync every segment appended to since the last call.

        Called once per group, so a power loss costs at most the lines
        of the group in flight.  A failed fsync degrades as a failed
        append does: counted in ``write_errors``, and the next save
        starts a new segment.  A segment gc evicted meanwhile has
        nothing left to make durable.
        """
        with self._result_lock():
            paths, self._unsynced = self._unsynced, set()
            for path in sorted(paths):
                try:
                    sync_file(path)
                except FileNotFoundError:
                    pass
                except OSError:
                    self.counters["write_errors"] += 1
                    if self._segment == path:
                        self._segment = None

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
            for _, _, job_id, reason in JournalTail(path,
                                                    check_line).lines():
                if job_id is not None:
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
                        "prepass": code_fingerprint("prepass"),
                        "attacks": code_fingerprint("attacks")}
        for tier in ("traces", "prepass", "attacks"):
            for path, _ in list(self._entries(tier)):
                report["checked"] += 1
                try:
                    header, cols = _read_entry(path)
                    stale = header.get("fingerprint") != fingerprints[tier]
                    if tier == "traces" and not stale:
                        _packed(cols)
                except (CorruptEntryError, OSError) as exc:
                    self._quarantine(path, "verify: %s" % exc)
                    report["corrupt"] += 1
                    continue
                report["stale" if stale else "ok"] += 1
        current = code_fingerprint("result")
        for path, _ in list(self._entries("results")):
            for offset, _, record, reason in JournalTail(path).lines(
                    final=True):
                report["checked"] += 1
                if record is None and reason != INCOMPATIBLE_VERSION:
                    self._index.reject(path, "verify: %s" % reason, offset)
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
# Mirrors REPRO_JOBS: the CLI exports REPRO_STORE before
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
