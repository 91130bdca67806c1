"""Completion records: the resume journal, its line index and writer.

Experiment runs are minutes-long; :class:`JobJournal` is an append-only
JSONL journal the executors write one line to per completed
:class:`~repro.exec.job.SimJob`.  An interrupted sweep re-run against
the same journal skips every ``job_id`` already on disk and rebuilds
those results without simulating, each with its full
:class:`~repro.util.statistics.StatGroup` snapshot.

The journal, the store's result segments and the dist per-host segments
are one kind of file: append-only, in one line format with one encoder
(:func:`completion_line`), one writer (:func:`append_line`, fsynced
once per group by :func:`sync_file`) and one index
(:class:`SegmentIndex`), which reads each file past its last offset
with :class:`JournalTail`.  Records are CRC32-sealed and checked by
their bytes; a corrupt line is neither trusted nor fatal: it stays in
place and is logged once, by offset, to a ``.rej`` log (see
``docs/robustness.md``).  Reading a completion file never rewrites it;
only :meth:`JobJournal.compact` does, through :func:`atomic_write_text`
(write-then-rename, never a torn file).
"""

import errno
import itertools
import json
import os
import re
import socket
import zlib
from json.decoder import scanstring

from repro.sim.metrics import RunMetrics
from repro.sim.result import RunResult
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
    read-only -- safe on a journal another process is appending to.
    The audits (``repro report --journal``, ``repro store verify``)
    read whole records this way; a result is read by :func:`read_result`.
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
    both halves are never empty).  :func:`read_result` is its inverse.
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


#: The scalars a hit reads off a sealed line: the top-level keys from
#: ``crc32`` to ``instructions``, which sort together with no container
#: between them (``fingerprint`` only on a store line).
_HEAD = re.compile(
    rb'"crc32": \d+, "cycles": (\d+), '
    rb'(?:"fingerprint": ("(?:[^"\\]|\\.)*"), )?"instructions": (\d+), ')

#: The names a hit reads off a sealed line: the run of string-valued
#: top-level keys between ``miss_rates`` and ``seed``.  A string never
#: holds an unescaped quote, and the containers between
#: ``instructions`` and the run (``metrics``, ``miss_rates``) hold no
#: string values, so the first match past ``_HEAD`` is the top-level one.
_NAMES = re.compile(
    rb', "name": ("(?:[^"\\]|\\.)*"), "policy": "(?:[^"\\]|\\.)*", '
    rb'"policy_name": ("(?:[^"\\]|\\.)*"), "seed": ')


def _text(literal):
    """The str a JSON string literal (quotes included) encodes."""
    if b"\\" not in literal:
        return literal[1:-1].decode()
    return scanstring(literal.decode(), 1)[0]


class StoredResult(RunResult):
    """A :class:`RunResult` rebuilt from its sealed completion line.

    ``name``, ``policy_name``, ``instructions`` and ``cycles`` were read
    off the line's text by :func:`read_result`.  ``stats``,
    ``miss_summary``, ``metrics`` and ``accounting`` are decoded on
    first access of any of them, with one ``json.loads`` of the line;
    one assigned before that keeps its value (the executor sets a store
    hit's ``accounting``).  A never-accessed result pickles with its
    line, undecoded.
    """

    _DECODED = frozenset(("stats", "miss_summary", "metrics", "accounting"))

    def __init__(self, line, name, policy_name, instructions, cycles):
        self.name = name
        self.policy_name = policy_name
        self.instructions = instructions
        self.cycles = cycles
        self._line = line

    def __getattr__(self, attr):
        # Only reached for an attribute the instance does not hold yet.
        if attr not in self._DECODED:
            raise AttributeError(attr)
        state = self.__dict__
        line = state.get("_line")
        if line is not None:
            record = json.loads(line)
            if "stats" not in state:
                state["stats"] = StatGroup.from_dict(record["stats"],
                                                     name="sim")
            state.setdefault("miss_summary", record["miss_rates"])
            metrics = record.get("metrics")
            state.setdefault("metrics", None if metrics is None
                             else RunMetrics(**metrics))
            state.setdefault("accounting", record.get("accounting"))
            state.pop("_line", None)
        return state[attr]


def read_result(raw, job_id, fingerprint=None):
    """The one decoder of a completion line: ``(result, reason)``.

    Every check is made on the line's bytes, now: :func:`check_line`
    (CRC, ``journal_version``, ``job_id``), that the line is ``job_id``'s
    and, when ``fingerprint`` is given, that it carries that store
    fingerprint.  A line that fails the check returns ``(None,
    reason)``; one for another job or fingerprint ``(None, None)``.  A
    sound line returns a :class:`StoredResult` and no line is parsed.

    One failure is left for the first access: a CRC collision over
    broken JSON (a 2**-32 chance per damaged line) passes every byte
    check, and its decode raises ``ValueError``.
    """
    line_id, reason = check_line(raw)
    if reason is not None:
        return None, reason
    if line_id != job_id:
        return None, None
    head = _HEAD.search(raw)
    names = head and _NAMES.search(raw, head.end())
    if not names:
        return None, "malformed record"
    if fingerprint is not None and (head[2] is None
                                    or _text(head[2]) != fingerprint):
        return None, None
    return StoredResult(raw, _text(names[1]), _text(names[2]),
                        int(head[3]), int(head[1])), None


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


class JournalTail:
    """Incremental read-only reader of one segment of completion lines.

    A segment may have a live appender, and no reader rewrites one.
    :meth:`lines` streams the lines past ``offset`` and checks each with
    ``check`` (by default :func:`parse_record`); an unterminated tail (a
    write in flight) is left for the next call.  :class:`SegmentIndex`
    keeps one per segment; an audit reads a file in one pass of its own.
    """

    def __init__(self, path, check=parse_record):
        self.path = os.fspath(path)
        self.check = check
        self.offset = 0

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
                yield offset, line, record, reason


class SegmentIndex:
    """``entries``: ``job_id -> (path, offset, length)`` over append-only
    segments, for the journal, the store's result tier and the dist spool.

    :meth:`poll` reads each segment past where it stopped on that inode,
    checks each line by its bytes (:func:`check_line`) and indexes the
    sound ones (a job_id's last line wins); :meth:`read` turns a line
    into a result when it is asked for.  A segment on a new inode, or
    shorter than that point, was made again: it is read from its start.

    No file is rewritten.  A corrupt line stays in place and
    :meth:`reject` logs it once, by offset, to ``rej_path`` (None: no
    log), calling ``on_reject`` when it logged it first.  ``skipped``
    counts the lines not indexed, ``incompatible`` those of another
    ``journal_version``, ``rejected`` those this index logged first.
    """

    def __init__(self, rej_path=None, on_reject=None):
        self.rej_path = rej_path
        self.on_reject = on_reject
        self.entries = {}
        self._tails = {}   # path -> (inode, JournalTail)
        self.skipped = self.incompatible = self.rejected = 0

    def poll(self, paths):
        """Index the lines appended to ``paths`` since the last poll;
        returns their job_ids in file order."""
        new = []
        for path in paths:
            try:
                st = os.stat(path)
            except OSError:
                continue
            inode, tail = self._tails.get(path, (None, None))
            if inode != st.st_ino or st.st_size < tail.offset:
                if tail is not None:   # made again: its entries are gone
                    for job_id in [job_id for job_id, entry
                                   in self.entries.items()
                                   if entry[0] == path]:
                        del self.entries[job_id]
                tail = JournalTail(path, check_line)
                self._tails[path] = (st.st_ino, tail)
            elif st.st_size == tail.offset:
                continue
            for offset, line, job_id, reason in tail.lines():
                if job_id is not None:
                    self.entries[job_id] = (path, offset, len(line))
                    new.append(job_id)
                    continue
                self.skipped += 1
                if reason == INCOMPATIBLE_VERSION:
                    self.incompatible += 1
                else:
                    self.reject(path, reason, offset)
        return new

    def appended(self, job_id, path, offset, length):
        """Index the line this process just appended to ``path``, and
        move the tail past it if it stood there: the next poll need not
        read it back.  A file's first line starts the file's tail."""
        self.entries[job_id] = (path, offset, length)
        if offset == 0 and path not in self._tails:
            try:
                self._tails[path] = (os.stat(path).st_ino,
                                     JournalTail(path, check_line))
            except OSError:
                return   # removed already: a poll will not list it
        _inode, tail = self._tails.get(path, (None, None))
        if tail is not None and tail.offset == offset:
            tail.offset = offset + length

    @staticmethod
    def line(entry):
        """The bytes of the line at ``entry``, newline included."""
        path, offset, length = entry
        with open(path, "rb") as handle:
            handle.seek(offset)
            return handle.read(length)

    def read(self, entry, job_id, fingerprint=None):
        """``(result, reason)`` of ``job_id``'s line at ``entry``
        (:func:`read_result`); ``(None, None)`` if its file is gone."""
        try:
            raw = self.line(entry)
        except OSError:
            return None, None
        return read_result(raw, job_id, fingerprint)

    def reject(self, path, reason, offset=None):
        """Log a bad line (at ``offset``) or file; True if this logged it.

        The evidence is one JSON line: the file's name, the reason and a
        line's offset.  A line the log lists already is not logged again
        (two readers that meet it at the same moment may both log it);
        the log is matched by its bytes, so a torn line, or evidence
        appended onto one, hides nothing.
        """
        if self.rej_path is None:
            return False
        evidence = {"entry": os.path.basename(path), "reason": reason}
        if offset is not None:
            evidence["offset"] = offset
            head = '{"entry": %s, ' % json.dumps(evidence["entry"])
            tail = ', "offset": %d}\n' % offset
            try:
                with open(self.rej_path) as handle:
                    if any(head in line and line.endswith(tail)
                           for line in handle):
                        return False
            except OSError:
                pass
        try:
            append_line(self.rej_path, json.dumps(evidence))
        except OSError:
            pass
        self.rejected += 1
        if self.on_reject is not None:
            self.on_reject()
        return True


class JobJournal:
    """Append-only JSONL journal of completed jobs (resumable sweeps).

    One line per completed :class:`~repro.exec.job.SimJob`, written
    *before* the next job starts, so a killed process loses at most its
    in-flight jobs; :meth:`sync` makes the lines durable, which the
    executor does once per settled group.  Every v2 record carries a
    CRC32 of its canonical JSON, so a torn write, bit rot or
    hand-editing is caught on open -- not trusted into a resumed sweep.

    The journal is one segment of a :class:`SegmentIndex`.  Opening it
    ends a torn last line (:func:`terminate_tail`) and polls it once;
    it never rewrites the file.  A *corrupt* line (unparseable JSON from
    a mid-write kill, a missing ``job_id``/``crc32``, a CRC mismatch)
    stays in place, logged once to the ``<path>.rej`` sidecar
    (``quarantined_lines`` counts those this open logged first), and the
    rerun regenerates its job.  A line of another ``journal_version`` is
    ignored in place (``incompatible_lines``), so newer builds never
    destroy old records.  ``skipped_lines`` counts both.  A resumed
    result (:meth:`result`) parses its line on first access, if ever.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.rej_path = self.path + ".rej"
        self._unsynced = False
        self._open()

    def _open(self):
        self._index = SegmentIndex(self.rej_path)
        terminate_tail(self.path)
        self._index.poll([self.path])
        self.quarantined_lines = self._index.rejected
        self.skipped_lines = self._index.skipped
        self.incompatible_lines = self._index.incompatible

    @property
    def completed_ids(self):
        """job_ids with a fully recorded result."""
        return set(self._index.entries)

    def __len__(self):
        return len(self._index.entries)

    def __contains__(self, job_id):
        return job_id in self._index.entries

    def record(self, job, result):
        """Append ``job``'s sealed line, durable after the next
        :meth:`sync`.

        The executor syncs once per group, so a power loss costs at most
        the lines of the group in flight, which re-simulate
        deterministically.  ``accounting`` (per-job wall/tracegen
        seconds, cache hit, path, peak RSS) is an *additive* v2 field:
        old readers ignore it, old records come back with accounting
        None, and it is CRC-covered like everything else.
        """
        line = completion_line(
            job, result, journal_version=JOURNAL_VERSION,
            accounting=getattr(result, "accounting", None))
        offset, length = append_line(self.path, line, sync=False)
        self._index.appended(job.job_id, self.path, offset, length)
        self._unsynced = True

    def sync(self):
        """fsync the lines recorded since the last sync (if any)."""
        if self._unsynced:
            sync_file(self.path)
            self._unsynced = False

    def result(self, job):
        """The RunResult journaled for ``job`` (:func:`read_result`), or
        None if not journaled."""
        entry = self._index.entries.get(job.job_id)
        return self._index.read(entry, job.job_id)[0] if entry else None

    def compact(self, keep_ids=None):
        """Rewrite the journal with only current-format, live records.

        The one rewrite of a completion file, run by its owner on
        request: it writes back, atomically, the line the index holds
        for each job_id -- only those in ``keep_ids`` when given (the
        superseded-spec cleanup: compact against the requested grid) --
        so corrupt and incompatible-version lines go; the ``.rej``
        sidecar keeps its evidence.  Returns the number of lines
        dropped, not counting a job_id's superseded lines.
        """
        entries = self._index.entries
        keep_ids = set(entries if keep_ids is None else keep_ids)
        kept = [entry for job_id, entry in entries.items()
                if job_id in keep_ids]
        dropped = self._index.skipped + len(entries) - len(kept)
        atomic_write_text(self.path,
                          b"".join(map(SegmentIndex.line, kept)))
        self._unsynced = False
        self._open()
        return dropped
