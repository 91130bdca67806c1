"""Completion records: the resume journal, its line reader and writer.

Experiment runs are minutes-long; :class:`JobJournal` is an append-only
JSONL journal the executors write one line to per completed
:class:`~repro.exec.job.SimJob`.  An interrupted sweep re-run against
the same journal skips every ``job_id`` already on disk and rebuilds
those results without simulating, each with its full
:class:`~repro.util.statistics.StatGroup` snapshot.  Records are
CRC32-sealed; corrupt lines are quarantined into a ``.rej`` sidecar
instead of silently trusted or fatally rejected (see
``docs/robustness.md``).  Rewrites go through :func:`atomic_write_text`
(write-then-rename, never a torn file).  The store's result segments
and the dist per-host segments share the line format, its encoder
(:func:`completion_line`), its writer (:func:`append_line`, fsynced
once per group by :func:`sync_file`) and its read-only reader
(:class:`JournalTail`).
"""

import errno
import itertools
import json
import os
import socket
import zlib

from repro.util.statistics import StatGroup

_HOST = socket.gethostname()
_TMP_COUNTER = itertools.count()


def tmp_suffix():
    """A collision-proof temp-file suffix for write-then-rename.

    Folds in the hostname, the pid *and* a per-process monotonic
    counter: on a shared filesystem two hosts can hold equal pids, and
    one process can stage two writes to the same target back to back,
    so pid alone (let alone a bare ``.tmp``) is not unique.  The
    literal ``.tmp`` substring is what store/journal directory scans
    key on to ignore staged files.
    """
    return ".tmp.%s.%d.%d" % (_HOST, os.getpid(), next(_TMP_COUNTER))


def atomic_write_text(path, text):
    """Write ``text`` (str or bytes) to ``path`` via write-then-rename.

    A crash mid-write leaves the old file intact (or a stray ``.tmp``),
    never a half-written checkpoint; ``os.replace`` is atomic on POSIX
    and Windows.  The staging name is unique per host, process and
    call, so concurrent writers on a shared filesystem never clobber
    each other's staging file -- last rename wins whole.
    """
    path = os.fspath(path)
    tmp = path + tmp_suffix()
    try:
        with open(tmp, "w" if isinstance(text, str) else "wb") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Bump when a journal line's shape changes incompatibly.
#: v1: no integrity field, no metrics.
#: v2: adds a per-record "crc32" checksum and the persisted RunMetrics
#:     snapshot ("metrics"), so resumed sweeps rebuild full manifests.
JOURNAL_VERSION = 2


#: The sealed field's key, as :func:`completion_line` writes it.
_CRC_KEY = b'"crc32": '


def _is_sealed(raw):
    """True when ``raw`` is the exact text :func:`completion_line`
    sealed: the CRC32 of the line with its ``crc32`` field cut out
    equals the value that field holds.

    A valid line is the canonical text as written (sorted keys, so
    ``crc32`` is never last, and the digits are the integer's own
    text); any other text fails.
    """
    raw = raw.strip()
    start = raw.find(_CRC_KEY)
    end = raw.find(b", ", start)
    if start < 0 or end < 0:
        return False
    digits = raw[start + len(_CRC_KEY):end]
    if not digits.isdigit() or digits != b"%d" % int(digits):
        return False
    return zlib.crc32(raw[:start] + raw[end + 2:]) == int(digits)


def _field(raw, prefix, end):
    """The text between a line's first ``prefix`` and the next
    ``end``, or None when either is missing."""
    start = raw.find(prefix)
    if start < 0:
        return None
    start += len(prefix)
    stop = raw.find(end, start)
    return raw[start:stop] if stop >= 0 else None


#: :func:`check_line` reason for a structurally sound line written by
#: a different ``journal_version`` -- ignorable in place, never corrupt.
INCOMPATIBLE_VERSION = "incompatible journal_version"


def check_line(raw):
    """Check one journal line's bytes; returns ``(job_id, reason)``.

    A sealed current-version line returns ``(job_id, None)`` without
    being parsed: its CRC, ``journal_version`` and ``job_id`` are read
    off the canonical bytes.  Anything else returns ``(None,
    reason)``: :data:`INCOMPATIBLE_VERSION` for foreign-version lines
    (keep them in place) and a quarantine reason string otherwise,
    found by parsing the line (a rare path: only lines that fail the
    check take it).  Pure and read-only.
    """
    if isinstance(raw, str):
        raw = raw.encode()
    if _is_sealed(raw):
        version = _field(raw, b', "journal_version": ', b",")
        if version != b"%d" % JOURNAL_VERSION:
            return None, INCOMPATIBLE_VERSION
        job_id = _field(raw, b', "job_id": "', b'"')
        if job_id is None:
            return None, "missing job_id"
        return job_id.decode(), None
    return None, _reject_reason(raw)


def _reject_reason(raw):
    """Why a line that is not sealed fails, in the order a reader
    meets the faults: syntax, shape, version, then the fields."""
    try:
        record = json.loads(raw)
    except ValueError:
        return "unparseable JSON (torn write?)"
    if not isinstance(record, dict):
        return "not a JSON object"
    if record.get("journal_version") != JOURNAL_VERSION:
        return INCOMPATIBLE_VERSION
    if "job_id" not in record:
        return "missing job_id"
    stored = record.get("crc32")
    if not isinstance(stored, int):
        return "missing crc32"
    return "crc32 mismatch (stored %s)" % stored


def parse_record(raw):
    """Validate and parse one journal line; returns ``(record, reason)``.

    :func:`check_line`, then one ``json.loads`` of a line that passed:
    a valid current-version line returns ``(dict, None)``, anything
    else ``(None, reason)`` with the check's reason.  Pure and
    read-only -- safe on a journal another process is appending to,
    which is what the distributed driver's segment tailer needs.
    """
    _job_id, reason = check_line(raw)
    if reason is not None:
        return None, reason
    try:
        return json.loads(raw), None
    except ValueError:   # a CRC collision: sealed bytes, broken syntax
        return None, "unparseable JSON (torn write?)"


def _text_buckets(stats):
    """``StatGroup.as_dict()`` with each histogram's int buckets keyed
    by their text.

    ``json.dumps(sort_keys=True)`` sorts keys *before* converting them,
    so int buckets would sort as numbers (9 before 10); a line sorts
    them as text ("10" before "9"), as a reader that re-canonicalises
    the parsed line does.  Every other key of a record is already text.
    """
    return {name: dict(zip(map(str, value), value.values()))
            if isinstance(value, dict) else value
            for name, value in stats.items()}


def completion_line(job, result, **envelope):
    """The sealed line of one finished job, as every tier persists it.

    The journal and the store's result tier share this body and its
    ``journal_version``; each adds only its own ``envelope`` fields (the
    journal's ``accounting``, the store's ``fingerprint``).  The text is
    canonical -- sorted keys, text-sorted histogram buckets -- and
    encoded once: ``crc32`` is the CRC of the line without it, spliced
    in at its sorted place (after ``benchmark``, before ``cycles``, so
    both halves are never empty).  :func:`result_from_record` is the
    inverse of the parsed line.
    """
    record = dict(
        envelope,
        job_id=job.job_id,
        benchmark=job.benchmark,
        policy=job.policy,
        seed=job.seed,
        warmup=job.warmup,
        name=result.name,
        policy_name=result.policy_name,
        instructions=result.instructions,
        cycles=result.cycles,
        ipc=result.ipc,
        miss_rates=dict(result.miss_summary),
        stats=_text_buckets(result.stats.as_dict()),
        metrics=(result.metrics.as_dict()
                 if getattr(result, "metrics", None) is not None
                 else None),
    )
    head = json.dumps({key: value for key, value in record.items()
                       if key < "crc32"}, sort_keys=True)[:-1]
    tail = json.dumps({key: value for key, value in record.items()
                       if key > "crc32"}, sort_keys=True)[1:]
    crc = zlib.crc32(("%s, %s" % (head, tail)).encode())
    return '%s, "crc32": %d, %s' % (head, crc, tail)


def result_from_record(record):
    """Rebuild a live RunResult from one validated completion record.

    The rebuilt result carries a real :class:`StatGroup` and the
    persisted :class:`~repro.sim.metrics.RunMetrics`, so sweep
    accessors and manifests work the same whether a run was simulated,
    resumed locally, merged from another host's journal segment or
    served from the store (whose records carry no ``accounting``).
    """
    from repro.cpu.core import RunResult

    result = RunResult(
        record["name"],
        record["policy_name"],
        record["instructions"],
        record["cycles"],
        StatGroup.from_dict(record["stats"], name="sim"),
        dict(record["miss_rates"]),
    )
    if record.get("metrics") is not None:
        from repro.sim.metrics import RunMetrics

        result.metrics = RunMetrics(**record["metrics"])
    result.accounting = record.get("accounting")
    return result


def append_line(path, text="", create=os.O_CREAT, sync=True):
    """Append ``text`` plus a newline; return the line's (offset, length).

    One ``os.write`` on an ``O_APPEND`` descriptor: concurrent appenders
    interleave at line granularity, never inside a record, and a line
    torn by a crash fails its CRC on the next read.  ``create`` are the
    open flags for a missing file: ``O_CREAT | O_EXCL`` makes a new
    file only, ``0`` appends to an existing one.  The line is fsynced
    before the return unless ``sync`` is false: completion lines are
    synced once per group instead (:func:`sync_file`).
    """
    data = (text + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | create, 0o644)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(errno.EIO, "short append", path)
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return end - len(data), len(data)


def sync_file(path):
    """fsync ``path``: every line appended to it so far becomes durable,
    whichever descriptor wrote it."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def terminate_tail(path):
    """End an unterminated last line of ``path`` (a torn append) with a
    newline, so the next record cannot fuse onto it."""
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            torn = handle.read(1) != b"\n"
    except OSError:   # missing or empty: nothing to terminate
        return
    if torn:
        append_line(path)


def append_record(path, job, result):
    """Append ``job``'s sealed journal line to ``path``; returns it.

    The line is written but not fsynced: the writer syncs ``path`` once
    per group (:func:`sync_file`), so a power loss costs at most the
    lines of the group in flight, which re-simulate deterministically.
    ``accounting`` (per-job wall/tracegen seconds, cache hit, path,
    peak RSS) is an *additive* v2 field: old readers ignore it, old
    records come back with accounting None, and it is CRC-covered like
    everything else.
    """
    line = completion_line(
        job, result, journal_version=JOURNAL_VERSION,
        accounting=getattr(result, "accounting", None))
    append_line(path, line, sync=False)
    return line


class JournalTail:
    """Incremental read-only reader of one journal segment.

    A segment may have a live appender, so it is never rewritten (as
    ``JobJournal``'s quarantine pass would).  :meth:`lines` streams the
    lines past ``offset``, checks each with ``check`` (by default
    :func:`parse_record`) and counts the invalid ones in
    ``bad_lines``; an unterminated tail (a write in flight) is left for
    the next call.
    """

    def __init__(self, path, check=parse_record):
        self.path = os.fspath(path)
        self.check = check
        self.offset = 0
        self.bad_lines = 0

    def lines(self, final=False):
        """Yield ``(offset, raw line, record, reason)`` per line, where
        ``(record, reason)`` is what ``check`` returned for the line
        (:func:`check_line` gives the job_id as the record).

        ``final`` also reads an unterminated last line: for a reader
        that owns or audits the file, not one racing its appender.
        """
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            handle.seek(self.offset)
            for line in handle:
                if not final and not line.endswith(b"\n"):
                    break
                offset = self.offset
                self.offset += len(line)
                if not line.strip():
                    continue
                record, reason = self.check(line)
                if record is None:
                    self.bad_lines += 1
                yield offset, line, record, reason

    def poll(self):
        """Validated records appended since the last poll."""
        return [record for _, _, record, _ in self.lines()
                if record is not None]


class JobJournal:
    """Append-only JSONL journal of completed jobs (resumable sweeps).

    One line per completed :class:`~repro.exec.job.SimJob`, written
    *before* the next job starts, so a killed process loses at most its
    in-flight jobs; :meth:`sync` makes the lines durable, which the
    executor does once per settled group.  Every v2 record carries a
    CRC32 of its canonical JSON, so a torn write, bit rot or
    hand-editing is caught on open -- not trusted into a resumed sweep.

    Integrity triage on open:

    - *Corrupt* lines (unparseable JSON -- e.g. a truncated tail from a
      mid-write kill -- missing ``job_id``/``crc32``, or a CRC
      mismatch) are **quarantined**: moved into a ``<path>.rej``
      sidecar with their reason, and the journal is rewritten
      (atomically) without them, so the rerun regenerates those jobs
      and the sidecar preserves the evidence.
    - Lines written by a different ``journal_version`` are structurally
      sound, just foreign: they are *ignored in place* (counted in
      ``incompatible_lines``), which keeps old-format journals readable
      by newer builds without destroying them.
    - A sound last line that lost its newline gets one back.

    ``skipped_lines`` counts everything not loaded (quarantined plus
    incompatible), which is what ``repro sweep`` reports.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.rej_path = self.path + ".rej"
        self._lines = {}  # job_id -> its journal line, as on disk
        self._unsynced = False
        self.quarantined_lines = 0
        self.incompatible_lines = 0
        if os.path.exists(self.path):
            self._load()

    @property
    def skipped_lines(self):
        """Total lines ignored on open (quarantined + incompatible)."""
        return self.quarantined_lines + self.incompatible_lines

    def _load(self):
        kept = []        # raw lines preserved verbatim (incl. foreign)
        rejected = []    # (reason, raw line)
        for _, line, record, reason in JournalTail(self.path).lines(
                final=True):
            raw = line.rstrip(b"\n").decode(errors="replace")
            if record is not None:
                kept.append(raw)
                self._lines[record["job_id"]] = raw
            elif reason == INCOMPATIBLE_VERSION:
                self.incompatible_lines += 1
                kept.append(raw)
            else:
                rejected.append((reason, raw))
        for reason, raw in rejected:   # quarantine: .rej sidecar, rewrite
            append_line(self.rej_path,
                        json.dumps({"reason": reason, "line": raw}))
        self.quarantined_lines = len(rejected)
        if rejected:
            atomic_write_text(self.path,
                              "".join(raw + "\n" for raw in kept))
        else:
            terminate_tail(self.path)

    @property
    def completed_ids(self):
        """job_ids with a fully recorded result."""
        return set(self._lines)

    def __len__(self):
        return len(self._lines)

    def __contains__(self, job_id):
        return job_id in self._lines

    def record(self, job, result):
        """Append one completed job (:func:`append_record`); durable
        after the next :meth:`sync`."""
        self._lines[job.job_id] = append_record(self.path, job, result)
        self._unsynced = True

    def sync(self):
        """fsync the lines recorded since the last sync (if any)."""
        if self._unsynced:
            sync_file(self.path)
            self._unsynced = False

    def result(self, job):
        """Rebuild the RunResult for ``job`` (:func:`result_from_record`),
        or None if not journaled."""
        line = self._lines.get(job.job_id)
        if line is None:
            return None
        return result_from_record(json.loads(line))

    def compact(self, keep_ids=None):
        """Rewrite the journal with only current-format, live records.

        Drops incompatible-version lines and -- when ``keep_ids`` is
        given -- records whose job_id is not in it (the ROADMAP's
        superseded-spec cleanup: compact against the requested grid).
        The rewrite is atomic; quarantined lines stay in the sidecar.
        Returns the number of records dropped.
        """
        if keep_ids is not None:
            keep_ids = set(keep_ids)
            dropped = [job_id for job_id in self._lines
                       if job_id not in keep_ids]
            for job_id in dropped:
                del self._lines[job_id]
        else:
            dropped = []
        dropped_lines = self.incompatible_lines + len(dropped)
        atomic_write_text(self.path, "".join(
            line + "\n" for line in self._lines.values()))
        self._unsynced = False
        self.incompatible_lines = 0
        return dropped_lines
