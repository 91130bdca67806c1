"""Multi-host work-stealing execution over a shared spool directory.

The single-host backends stop at one machine's process pool; this
module scales the same job pipeline across hosts with nothing but a
shared filesystem (NFS, a bind mount, or plain ``/tmp`` for tests):

- The **driver** (:class:`DistExecutor`) serializes pending
  :class:`~repro.exec.job.MultiPolicySimJob` units into
  ``<spool>/jobs/``, then polls the spool, merging results and
  declaring dead hosts.
- **Workers** (``repro worker --spool DIR --host-id NAME``, i.e.
  :func:`run_worker`) claim units with the store's single-flight
  ``O_CREAT|O_EXCL`` lease protocol, heartbeat the lease's mtime while
  executing, and journal each member result to their *own* per-host
  segment (``<spool>/journals/<host_id>.journal``, a
  :class:`~repro.sim.checkpoint.JobJournal`).  A worker's skip set is a
  :class:`~repro.sim.checkpoint.SegmentIndex` over every segment,
  polled before each claim, so it checks each line once.
- The driver tails every segment **read-only** through a
  :class:`~repro.sim.checkpoint.SegmentIndex`, reads the line of each
  member it still waits for into a live ``RunResult``, and re-journals
  it into its own ``--checkpoint`` journal: the merge *is* the
  cross-host resume.  No reader rewrites a segment.

Host loss is a first-class fault, not a hang: a worker that stops
heartbeating past ``lease_timeout`` has its lease released back to the
spool (any healthy worker re-claims the unit and skips the members the
victim already journaled), the driver charges the unit one attempt
under its :class:`~repro.exec.retry.FailurePolicy` exactly like a
crashed pool worker, and emits a ``HOST_LOST`` event.  If every worker
vanishes, the driver degrades to in-process execution rather than wait
forever.  Because execution is a pure function of the job spec,
every one of those paths is bit-identical to ``SerialExecutor`` --
``repro chaos --campaign dist`` gates exactly that.

Spool layout::

    <spool>/jobs/<unit_id>.job        pickled unit (atomic write)
    <spool>/leases/<unit_id>.lease    claim file; mtime = heartbeat
    <spool>/journals/<host>.journal   per-host append-only segment
    <spool>/journals/<host>.journal.rej  its corrupt lines, by offset
    <spool>/hosts/<host>.json         worker census; mtime = heartbeat
    <spool>/errors/<unit_id>.err      worker-reported attempt failures
    <spool>/skip/<unit_id>.skip       driver verdict: stop claiming
    <spool>/policy.json               driver's timeout for workers
    <spool>/stop                      sentinel: workers drain and exit
"""

import json
import os
import pickle
import socket
import threading
import time

from repro.errors import ReproError
from repro.exec.executor import Executor, iter_group_results
from repro.exec.retry import attempt_deadline
from repro.sim.checkpoint import (
    JobJournal,
    SegmentIndex,
    append_line,
    atomic_write_text,
)

HOSTNAME = socket.gethostname()

#: A lease whose mtime is older than this is a dead claim: the worker
#: heartbeats at a quarter of it, so expiry means several missed beats,
#: not one slow poll.  Driver and workers must agree on the value.
DEFAULT_LEASE_TIMEOUT = 5.0

_SUBDIRS = ("jobs", "leases", "journals", "hosts", "errors", "skip")


class HostLostError(ReproError):
    """A worker host stopped heartbeating while holding a job lease."""


class RemoteJobError(ReproError):
    """A worker reported that a job attempt failed on its host."""


# ---- spool layout -----------------------------------------------------


def ensure_spool(spool):
    """Create the spool directory tree (idempotent); returns the path."""
    spool = os.fspath(spool)
    for sub in _SUBDIRS:
        os.makedirs(os.path.join(spool, sub), exist_ok=True)
    return spool


def _job_path(spool, unit_id):
    return os.path.join(spool, "jobs", unit_id + ".job")


def _lease_path(spool, unit_id):
    return os.path.join(spool, "leases", unit_id + ".lease")


def _host_path(spool, host_id):
    return os.path.join(spool, "hosts", host_id + ".json")


def _error_path(spool, unit_id):
    return os.path.join(spool, "errors", unit_id + ".err")


def _skip_path(spool, unit_id):
    return os.path.join(spool, "skip", unit_id + ".skip")


def segment_path(spool, host_id):
    """The per-host journal segment ``host_id`` appends to."""
    return os.path.join(spool, "journals", host_id + ".journal")


def stop_requested(spool):
    return os.path.exists(os.path.join(spool, "stop"))


def request_stop(spool):
    """Write the stop sentinel: workers finish their unit and exit."""
    ensure_spool(spool)
    with open(os.path.join(spool, "stop"), "w"):
        pass


def clear_stop(spool):
    try:
        os.unlink(os.path.join(spool, "stop"))
    except OSError:
        pass


def spool_jobs(spool, units):
    """Serialize ``units`` into the spool (atomically, skip-existing).

    Returns the unit ids written.  Existing files are left alone so a
    resumed driver does not clobber a unit a worker may be reading.
    """
    written = []
    for unit in units:
        path = _job_path(spool, unit.job_id)
        if os.path.exists(path):
            continue
        atomic_write_text(path, pickle.dumps(
            unit, protocol=pickle.HIGHEST_PROTOCOL))
        written.append(unit.job_id)
    return written


# ---- leases -----------------------------------------------------------


def try_claim(spool, unit_id, host_id):
    """Claim ``unit_id`` via ``O_CREAT|O_EXCL``; lease path or None.

    The same single-flight idiom the artifact store uses: exactly one
    claimant wins the create, everyone else sees ``FileExistsError``.
    """
    path = _lease_path(spool, unit_id)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return None
    with os.fdopen(fd, "w") as handle:
        json.dump({"host_id": host_id, "host": HOSTNAME,
                   "pid": os.getpid(), "acquired": time.time()}, handle)
    return path


def lease_age(path):
    """Seconds since the lease last heartbeat, or None if released."""
    try:
        return max(0.0, time.time() - os.path.getmtime(path))
    except OSError:
        return None


def read_lease(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def release_lease(path):
    try:
        os.unlink(path)
    except OSError:
        pass


class _Heartbeat(threading.Thread):
    """Refreshes a lease's mtime (and the host census) while a unit runs.

    When the driver declares this host dead it unlinks the lease; the
    next ``utime`` then fails ENOENT and ``lost`` flips -- the worker
    must stop publishing members of that unit, because somebody else
    now owns it.
    """

    def __init__(self, lease_path, interval, beat_host=None):
        super().__init__(daemon=True)
        self.lease_path = lease_path
        self.interval = interval
        self.beat_host = beat_host
        self.lost = False
        # Not "_stop": threading.Thread uses that name internally.
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(self.interval):
            try:
                os.utime(self.lease_path)
            except OSError:
                self.lost = True
                return
            if self.beat_host is not None:
                self.beat_host()

    def stop(self):
        self._halt.set()


# ---- journal tailing --------------------------------------------------


def segments(spool):
    """``(host_id, path)`` of every per-host journal segment, by name."""
    journals = os.path.join(spool, "journals")
    try:
        names = sorted(os.listdir(journals))
    except OSError:
        return []
    return [(name[:-len(".journal")], os.path.join(journals, name))
            for name in names if name.endswith(".journal")]


# ---- worker side ------------------------------------------------------


def _beat_host(spool, host_id, jobs_done, started):
    """Rewrite this worker's census file; its mtime is the heartbeat."""
    try:
        atomic_write_text(_host_path(spool, host_id), json.dumps(
            {"host_id": host_id, "host": HOSTNAME, "pid": os.getpid(),
             "jobs_done": jobs_done, "started": started},
            sort_keys=True))
    except OSError:
        pass


def _report_error(spool, unit_id, host_id, exc):
    """Append one attempt-failure line the driver will charge."""
    try:
        append_line(_error_path(spool, unit_id), json.dumps(
            {"job_id": unit_id, "host_id": host_id, "error": repr(exc),
             "time": time.time()}, sort_keys=True))
    except OSError:
        pass


def _read_spool_policy(spool):
    try:
        with open(os.path.join(spool, "policy.json")) as handle:
            payload = json.load(handle)
        return payload if isinstance(payload, dict) else {}
    except (OSError, ValueError):
        return {}


def _write_spool_policy(spool, policy):
    """Publish the driver's per-attempt timeout for workers to honour."""
    atomic_write_text(os.path.join(spool, "policy.json"), json.dumps(
        {"timeout": policy.timeout, "mode": policy.mode,
         "max_attempts": policy.max_attempts}, sort_keys=True))


def _execute_unit(unit, journal, done_ids, timeout=None, on_record=None,
                  heartbeat=None):
    """Run one claimed unit, recording each member in ``journal`` (this
    host's segment); returns #published.

    Members in ``done_ids`` (journaled by any host) are skipped: the
    re-claimed half-finished group case.  ``on_record(member, result)``
    fires after each append -- the chaos harness's die-mid-unit hook.  A
    heartbeat that reports ``lost`` aborts publication: the lease was
    broken, so the rest of the unit belongs to its next claimant.
    """
    count = 0
    skip = done_ids & {m.job_id for m in unit.member_jobs}
    try:
        with attempt_deadline(timeout):
            for member, result in iter_group_results(unit, skip=skip):
                if heartbeat is not None and heartbeat.lost:
                    break
                journal.record(member, result)
                count += 1
                if on_record is not None:
                    on_record(member, result)
    finally:
        journal.sync()   # once per unit
    return count


def run_worker(spool, host_id=None, poll=0.25,
               lease_timeout=DEFAULT_LEASE_TIMEOUT, idle_exit=None,
               max_units=None, on_record=None, log=None):
    """One worker daemon: claim, execute, journal, repeat until stopped.

    Exits when the spool's stop sentinel appears and nothing is
    claimable (drain semantics), after ``idle_exit`` seconds with
    nothing claimable, or after ``max_units`` executed units.  Returns
    ``{"host_id", "units", "members", "errors"}``.

    ``host_id`` names this worker's journal segment; it defaults to
    ``<hostname>-<pid>``.  Two daemons *may* share a host_id -- the
    journal's single-write O_APPEND records interleave at line
    granularity -- but each then resumes the other's restarts, so
    distinct ids per daemon are the norm.
    """
    spool = ensure_spool(spool)
    host_id = host_id or "%s-%d" % (HOSTNAME, os.getpid())
    started = time.time()
    journal = JobJournal(segment_path(spool, host_id))
    done = SegmentIndex()   # the skip set: members any host journaled
    units = members = errors = 0
    cooldown = {}   # unit_id -> monotonic time to leave it for others
    idle_since = time.monotonic()
    _beat_host(spool, host_id, units, started)
    if log is not None:
        log("worker %s: joined spool %s" % (host_id, spool))
    while True:
        if max_units is not None and units >= max_units:
            break
        claimed = False
        try:
            names = sorted(os.listdir(os.path.join(spool, "jobs")))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".job"):
                continue
            unit_id = name[:-len(".job")]
            if os.path.exists(_skip_path(spool, unit_id)):
                continue
            if cooldown.get(unit_id, 0.0) > time.monotonic():
                continue
            if lease_age(_lease_path(spool, unit_id)) is not None:
                # Leased (fresh or not): expiry is the *driver's* call,
                # because releasing a lease charges the unit a failed
                # attempt -- workers never break leases themselves.
                continue
            lease = try_claim(spool, unit_id, host_id)
            if lease is None:
                continue
            job_path = _job_path(spool, unit_id)
            if os.path.exists(_skip_path(spool, unit_id)) \
                    or not os.path.exists(job_path):
                release_lease(lease)
                continue
            claimed = True
            idle_since = time.monotonic()
            timeout = _read_spool_policy(spool).get("timeout")
            heartbeat = _Heartbeat(
                lease, max(lease_timeout / 4.0, 0.05),
                beat_host=lambda: _beat_host(spool, host_id, units,
                                             started))
            heartbeat.start()
            try:
                try:
                    with open(job_path, "rb") as handle:
                        unit = pickle.load(handle)
                except Exception as exc:
                    _report_error(spool, unit_id, host_id, exc)
                    errors += 1
                    cooldown[unit_id] = time.monotonic() + 2 * lease_timeout
                    continue
                done.poll(path for _, path in segments(spool))
                try:
                    members += _execute_unit(
                        unit, journal, done.entries.keys(),
                        timeout=timeout, on_record=on_record,
                        heartbeat=heartbeat)
                except Exception as exc:
                    _report_error(spool, unit_id, host_id, exc)
                    errors += 1
                    if log is not None:
                        log("worker %s: %s failed: %r"
                            % (host_id, unit_id, exc))
                    # Cool down locally so this worker does not hot-loop
                    # on a unit that keeps failing *here*; other hosts
                    # may re-claim it immediately.
                    cooldown[unit_id] = time.monotonic() + 2 * lease_timeout
                else:
                    units += 1
                    if log is not None:
                        log("worker %s: finished %s" % (host_id, unit_id))
                    if not heartbeat.lost:
                        # Unlink the job *before* the lease: the gap
                        # where neither exists is safe (nothing left to
                        # claim), whereas the reverse order would leave
                        # a claimable job we already published.
                        try:
                            os.unlink(job_path)
                        except OSError:
                            pass
            finally:
                heartbeat.stop()
                heartbeat.join(timeout=2.0)
                if not heartbeat.lost:
                    release_lease(lease)
            _beat_host(spool, host_id, units, started)
            break   # rescan from the top: fresh skip set and stop check
        if not claimed:
            if stop_requested(spool):
                break
            if idle_exit is not None \
                    and time.monotonic() - idle_since >= idle_exit:
                break
            _beat_host(spool, host_id, units, started)
            time.sleep(poll)
    _beat_host(spool, host_id, units, started)
    return {"host_id": host_id, "units": units, "members": members,
            "errors": errors}


# ---- driver side ------------------------------------------------------


class DistExecutor(Executor):
    """Shared-spool work-stealing driver (see the module docstring).

    Subclasses :class:`Executor`, so journal resume, failure policies,
    metrics, progress and outcome accounting all behave exactly as the
    single-host backends -- only ``_execute`` differs: instead of
    running jobs it spools them, merges per-host journal segments, and
    adjudicates host death.

    ``lease_timeout`` declares a host dead (must match the workers');
    a census heartbeat counts as live for twice that (at least 2 s).
    After ``degrade_after`` seconds with zero live workers the driver
    finishes the remainder in-process.
    """

    backend = "dist"
    jobs = 1

    def __init__(self, spool, host_id=None, poll=0.2,
                 lease_timeout=DEFAULT_LEASE_TIMEOUT, degrade_after=None):
        super().__init__()
        self.spool = ensure_spool(spool)
        self.host_id = host_id or "driver-%s-%d" % (HOSTNAME, os.getpid())
        self.poll = poll
        self.lease_timeout = lease_timeout
        self.host_timeout = max(2.0 * lease_timeout, 2.0)
        self.degrade_after = (degrade_after if degrade_after is not None
                              else max(4.0 * lease_timeout, 10.0))
        self.host_losses = 0
        self.lease_breaks = 0
        self.degraded = False
        self.hosts_seen = set()

    def describe(self):
        info = {"backend": self.backend, "jobs": self.jobs,
                "spool": self.spool}
        if self.host_losses:
            info["host_losses"] = self.host_losses
        if self.degraded:
            info["degraded"] = True
        return info

    # -- the merge loop -------------------------------------------------

    def _execute(self, pending, results, state):
        clear_stop(self.spool)
        _write_spool_policy(self.spool, state.policy)
        units = {}        # unit_id -> unit
        members = {}      # member job_id -> (unit_id, member SimJob)
        outstanding = {}  # unit_id -> set of unsettled member job_ids
        for unit in pending:
            units[unit.job_id] = unit
            ids = set()
            for member in unit.member_jobs:
                members[member.job_id] = (unit.job_id, member)
                ids.add(member.job_id)
            outstanding[unit.job_id] = ids
        for unit_id in units:
            # A previous run's verdicts and error logs must not leak
            # into this one's attempt accounting.
            for path in (_skip_path(self.spool, unit_id),
                         _error_path(self.spool, unit_id)):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        spool_jobs(self.spool, pending)
        state.jm.spooled.set(len(outstanding))
        attempts = {}       # unit_id -> failed attempts charged so far
        error_lines = {}    # unit_id -> error-file lines consumed
        index = SegmentIndex()
        spooled_at = {unit_id: time.perf_counter() for unit_id in units}
        last_alive = time.monotonic()
        while outstanding:
            progressed = self._merge_segments(index, members, outstanding,
                                              results, state, attempts,
                                              spooled_at)
            if self._consume_errors(error_lines, units, members,
                                    outstanding, state, attempts,
                                    spooled_at):
                progressed = True
            if self._reap_leases(units, members, outstanding, state,
                                 attempts, spooled_at):
                progressed = True
            live = self._census(state)
            state.jm.spooled.set(len(outstanding))
            if not outstanding:
                break
            now = time.monotonic()
            if live:
                last_alive = now
            elif now - last_alive >= self.degrade_after:
                self._run_local(units, members, outstanding, results,
                                state, attempts, spooled_at)
                last_alive = time.monotonic()
                continue
            if not progressed:
                time.sleep(self.poll)
        state.jm.spooled.set(0)

    def _settle(self, outstanding, unit_id, member_id):
        ids = outstanding.get(unit_id)
        if ids is None:
            return
        ids.discard(member_id)
        if not ids:
            del outstanding[unit_id]

    def _merge_segments(self, index, members, outstanding, results,
                        state, attempts, spooled_at):
        """Pull fresh records from every per-host segment into results."""
        progressed = False
        for host_id, path in segments(self.spool):
            for job_id in index.poll([path]):
                entry = members.get(job_id)
                if entry is None:
                    continue  # another run's record sharing the spool
                unit_id, member = entry
                if job_id not in outstanding.get(unit_id, ()):
                    continue  # settled already (duplicates are benign:
                              # re-runs are bit-identical by construction)
                result, _reason = index.read(index.entries[job_id], job_id)
                if result is None:
                    continue
                results[member] = result
                self._settle(outstanding, unit_id, member.job_id)
                self.hosts_seen.add(host_id)
                state.jm.dist_jobs.labels(host_id).inc()
                state.complete(
                    member, result,
                    attempts=attempts.get(unit_id, 0) + 1,
                    wall=time.perf_counter() - spooled_at[unit_id])
                if unit_id not in outstanding:
                    state.sync_journal()   # once per settled group
                progressed = True
        return progressed

    def _consume_errors(self, error_lines, units, members, outstanding,
                        state, attempts, spooled_at):
        """Charge worker-reported attempt failures to the policy."""
        progressed = False
        for unit_id in list(outstanding):
            path = _error_path(self.spool, unit_id)
            try:
                with open(path) as handle:
                    lines = [line for line in handle.read().splitlines()
                             if line.strip()]
            except OSError:
                continue
            seen = error_lines.get(unit_id, 0)
            error_lines[unit_id] = len(lines)
            for raw in lines[seen:]:
                try:
                    info = json.loads(raw)
                except ValueError:
                    info = {"error": raw}
                progressed = True
                self._charge_attempt(
                    unit_id, units, members, outstanding, state,
                    attempts, spooled_at,
                    RemoteJobError("%s (on host %s)"
                                   % (info.get("error", "worker error"),
                                      info.get("host_id", "?"))))
                if unit_id not in outstanding:
                    break
        return progressed

    def _reap_leases(self, units, members, outstanding, state, attempts,
                     spooled_at):
        """Break expired leases: host loss becomes a charged attempt."""
        leases = os.path.join(self.spool, "leases")
        try:
            names = sorted(os.listdir(leases))
        except OSError:
            names = []
        progressed = False
        for name in names:
            if not name.endswith(".lease"):
                continue
            unit_id = name[:-len(".lease")]
            path = os.path.join(leases, name)
            age = lease_age(path)
            if age is None or age <= self.lease_timeout:
                continue
            info = read_lease(path) or {}
            host = info.get("host_id", "unknown")
            release_lease(path)
            if unit_id not in outstanding:
                continue   # housekeeping only: the unit is settled
            progressed = True
            self.lease_breaks += 1
            self.host_losses += 1
            state.jm.lease_breaks.inc()
            state.host_lost(host, unit_id, age)
            self._charge_attempt(
                unit_id, units, members, outstanding, state, attempts,
                spooled_at,
                HostLostError("host %s stopped heartbeating (lease age "
                              "%.2fs > %.2fs)"
                              % (host, age, self.lease_timeout)))
        return progressed

    def _charge_attempt(self, unit_id, units, members, outstanding,
                        state, attempts, spooled_at, exc):
        """One failed attempt for ``unit_id``: retry or settle failed."""
        attempts[unit_id] = attempts.get(unit_id, 0) + 1
        count = attempts[unit_id]
        remaining = sorted(outstanding.get(unit_id, ()))
        victim = (members[remaining[0]][1] if remaining
                  else units[unit_id])
        if state.policy.should_retry(count):
            # No backoff sleep here: re-claim is paced by the workers'
            # own poll loops, and sleeping would stall the merge of
            # every *other* host's results.
            state.retry(victim, count,
                        exc, state.policy.backoff(victim.job_id, count))
            return
        # Terminal: tell the fleet to stop claiming it, then record the
        # failure for every member still unsettled.  (Under fail-fast
        # state.fail re-raises, aborting the run -- mark first.)
        with open(_skip_path(self.spool, unit_id), "w"):
            pass
        wall = time.perf_counter() - spooled_at[unit_id]
        for member_id in remaining:
            state.fail(members[member_id][1], count, wall, exc)
        outstanding.pop(unit_id, None)

    def _census(self, state):
        """Hosts with a fresh census heartbeat; updates the gauge."""
        hosts = os.path.join(self.spool, "hosts")
        try:
            names = os.listdir(hosts)
        except OSError:
            names = []
        live = []
        now = time.time()
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            host_id = name[:-len(".json")]
            self.hosts_seen.add(host_id)
            try:
                mtime = os.path.getmtime(os.path.join(hosts, name))
            except OSError:
                continue
            if now - mtime <= self.host_timeout:
                live.append(host_id)
        state.jm.dist_hosts.set(len(live))
        return live

    def _run_local(self, units, members, outstanding, results, state,
                   attempts, spooled_at):
        """Degrade-to-local backstop: no live workers, finish in-process.

        Claims each remaining unit exactly like a worker would (so a
        late-returning host cannot double-run it), trims groups to
        their unsettled members, and reuses the in-process primitives
        -- results and journaling flow through ``state.complete`` like
        any other completion.
        """
        if not self.degraded:
            self.degraded = True
            state.degraded(
                "no live worker hosts for %.1fs; finishing in-process"
                % self.degrade_after,
                remaining=sum(len(ids) for ids in outstanding.values()))
        for unit_id in sorted(outstanding):
            ids = outstanding.get(unit_id)
            if not ids:
                continue
            lpath = _lease_path(self.spool, unit_id)
            age = lease_age(lpath)
            if age is not None:
                if age <= self.lease_timeout:
                    continue   # a worker came back mid-degrade
                release_lease(lpath)
            lease = try_claim(self.spool, unit_id, self.host_id)
            if lease is None:
                continue
            try:
                unit = units[unit_id]
                live_policies = [member.policy
                                 for member in unit.member_jobs
                                 if member.job_id in ids]
                trimmed = (unit
                           if len(live_policies) == len(unit.policies)
                           else unit.subset(live_policies))
                self._run_group(trimmed, results, state,
                                prior_attempts=attempts.get(unit_id, 0),
                                started=spooled_at[unit_id])
                outstanding.pop(unit_id, None)
                try:
                    os.unlink(_job_path(self.spool, unit_id))
                except OSError:
                    pass
            finally:
                release_lease(lease)
