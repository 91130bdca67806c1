"""Per-job resume journal plus the atomic-write helper it shares.

Experiment runs are minutes-long; :class:`JobJournal` is an append-only
JSONL journal the executors write one line to per completed
:class:`~repro.exec.job.SimJob`.  An interrupted sweep re-run against
the same journal skips every ``job_id`` already on disk and rebuilds
those results without simulating, each with its full
:class:`~repro.util.statistics.StatGroup` snapshot.  Records are
CRC32-sealed; corrupt lines are quarantined into a ``.rej`` sidecar
instead of silently trusted or fatally rejected (see
``docs/robustness.md``).  Rewrites go through :func:`atomic_write_text`
(write-then-rename, never a torn file).
"""

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
    """Write ``text`` to ``path`` via write-then-rename.

    A crash mid-write leaves the old file intact (or a stray ``.tmp``),
    never a half-written checkpoint; ``os.replace`` is atomic on POSIX
    and Windows.  The staging name is unique per host, process and
    call, so concurrent writers on a shared filesystem never clobber
    each other's staging file -- last rename wins whole.
    """
    path = os.fspath(path)
    tmp = path + tmp_suffix()
    try:
        with open(tmp, "w") as handle:
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


def _record_crc(record):
    """CRC32 of a record's canonical JSON, ``crc32`` field excluded.

    ``record`` must already be JSON-normalised (string keys, round-
    tripped floats) -- :meth:`JobJournal.record` guarantees this by
    passing every record through ``json.loads(json.dumps(...))`` before
    checksumming, which makes the canonical text a fixed point.
    """
    body = {key: value for key, value in record.items() if key != "crc32"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


#: :func:`parse_record` reason for a structurally sound line written by
#: a different ``journal_version`` -- ignorable in place, never corrupt.
INCOMPATIBLE_VERSION = "incompatible journal_version"


def parse_record(raw):
    """Validate one journal line; returns ``(record, reason)``.

    A valid current-version line returns ``(dict, None)``; anything
    else returns ``(None, reason)``.  ``reason`` is
    :data:`INCOMPATIBLE_VERSION` for foreign-version lines (keep them
    in place) and a quarantine reason string otherwise.  Pure and
    read-only -- safe on a journal another process is appending to,
    which is what the distributed driver's segment tailer needs.
    """
    try:
        record = json.loads(raw)
    except ValueError:
        return None, "unparseable JSON (torn write?)"
    if not isinstance(record, dict):
        return None, "not a JSON object"
    if record.get("journal_version") != JOURNAL_VERSION:
        return None, INCOMPATIBLE_VERSION
    if "job_id" not in record:
        return None, "missing job_id"
    stored = record.get("crc32")
    if stored is None:
        return None, "missing crc32"
    if stored != _record_crc(record):
        return None, "crc32 mismatch (stored %s)" % stored
    return record, None


def completion_record(job, result, **envelope):
    """The sealed record of one finished job, as every tier persists it.

    The journal and the store's result tier share this body; each adds
    only its own ``envelope`` fields (the journal's ``journal_version``
    and ``accounting``, the store's ``store_version`` and
    ``fingerprint``).  The record is normalised through one JSON round
    trip (int dict keys become strings) before sealing, so its
    ``crc32`` covers exactly the text a reader will re-canonicalise.
    :func:`result_from_record` is the inverse.
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
        stats=result.stats.as_dict(),
        metrics=(result.metrics.as_dict()
                 if getattr(result, "metrics", None) is not None
                 else None),
    )
    record = json.loads(json.dumps(record))
    record["crc32"] = _record_crc(record)
    return record


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


class JobJournal:
    """Append-only JSONL journal of completed jobs (resumable sweeps).

    One line per completed :class:`~repro.exec.job.SimJob`, written and
    flushed *before* the next job starts, so a killed sweep loses at
    most its in-flight jobs.  Every v2 record carries a CRC32 of its
    canonical JSON, so a torn write, bit rot or hand-editing is caught
    on open -- not trusted into a resumed sweep.

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

    ``skipped_lines`` counts everything not loaded (quarantined plus
    incompatible), which is what ``repro sweep`` reports.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.rej_path = self.path + ".rej"
        self._records = {}  # job_id -> journal line dict
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
        with open(self.path, errors="replace") as handle:
            for line in handle:
                raw = line.rstrip("\n")
                if not raw.strip():
                    continue
                record, reason = parse_record(raw)
                if record is not None:
                    kept.append(raw)
                    self._records[record["job_id"]] = record
                elif reason == INCOMPATIBLE_VERSION:
                    self.incompatible_lines += 1
                    kept.append(raw)
                else:
                    rejected.append((reason, raw))
        if rejected:
            self.quarantined_lines = len(rejected)
            self._quarantine(kept, rejected)

    def _quarantine(self, kept, rejected):
        """Move corrupt lines to the ``.rej`` sidecar, keep the rest."""
        with open(self.rej_path, "a") as handle:
            for reason, raw in rejected:
                handle.write(json.dumps({"reason": reason, "line": raw})
                             + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        atomic_write_text(self.path,
                          "".join(raw + "\n" for raw in kept))

    @property
    def completed_ids(self):
        """job_ids with a fully recorded result."""
        return set(self._records)

    def __len__(self):
        return len(self._records)

    def __contains__(self, job_id):
        return job_id in self._records

    def record(self, job, result):
        """Append one completed job (flushed immediately, CRC-sealed)."""
        # ``accounting`` is per-job resource accounting (wall/tracegen
        # seconds, cache hit, peak RSS): an *additive* v2 field -- old
        # readers ignore it, old records come back with accounting
        # None, and it is CRC-covered like everything else.
        record = completion_record(
            job, result, journal_version=JOURNAL_VERSION,
            accounting=getattr(result, "accounting", None))
        # One os.write of the whole line on an O_APPEND descriptor:
        # concurrent appenders to the same journal (two workers sharing
        # a host-id on one spool) interleave at line granularity, never
        # inside a record.  A line torn by a crash mid-write is still
        # caught by the CRC and quarantined on the next open.
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._records[record["job_id"]] = record

    def result(self, job):
        """Rebuild the RunResult for ``job``, or None if not journaled.

        The rebuilt result carries a live :class:`StatGroup` and the
        persisted :class:`~repro.sim.metrics.RunMetrics`, so sweep
        accessors and manifests work the same whether a run was
        simulated or resumed.
        """
        record = self._records.get(job.job_id)
        if record is None:
            return None
        return result_from_record(record)

    def accounting(self):
        """Per-job accounting for every journaled record.

        ``{job_id: {"benchmark", "policy", "accounting": dict-or-None}}``
        -- what ``repro report`` mines for slowest-job and resource
        tables without re-simulating anything.
        """
        return {
            job_id: {
                "benchmark": record.get("benchmark"),
                "policy": record.get("policy"),
                "accounting": record.get("accounting"),
            }
            for job_id, record in self._records.items()
        }

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
            dropped = [job_id for job_id in self._records
                       if job_id not in keep_ids]
            for job_id in dropped:
                del self._records[job_id]
        else:
            dropped = []
        dropped_lines = self.incompatible_lines + len(dropped)
        atomic_write_text(self.path, "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self._records.values()))
        self.incompatible_lines = 0
        return dropped_lines
